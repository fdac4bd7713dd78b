"""Synthetic corpus generation with known ground truth.

Two generators share one seeded PCG64 stream model:

* :func:`generate` writes a complete fake corpus (messages, prices, market
  index, confound calendars, lexicon copies) in exactly the ingest file
  formats, with Poisson background chatter, planted message spikes and an
  abnormal return injected on event days. Each firm's messages come from one
  Poisson draw over a (days x sources) rate matrix, then one array draw each
  for filler word counts, filler words, terms, sentiment words and stamps;
  they are formatted from one line template per source and written as
  joined lines, one write per _BLOCK messages. No cell of any CSV file
  written here holds a comma, quote or line break, so joined lines are the
  bytes csv.writer would write.
* :func:`simulate_event_panel` draws stacked bare return series around
  planted event days for fast event-study calibration runs.

Determinism: all randomness comes from numpy's PCG64 generator seeded
from the config, so a given (config, numpy version) pair reproduces the
corpus byte for byte. No wall clock, no platform entropy.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .demodata import demo_esg_lexicon_path, demo_sentiment_lexicon_path
from .errors import ConfigError, DataError, config_errors
from .lexicon import load_esg_lexicon
from .pipeline import build_config
from .sentiment import Sign, load_sentiment_lexicon
from .taxonomy import SUBCATEGORIES, Node, expand_to_ancestors, node_sort_key
from .trading import DEFAULT_EXCHANGE_TZ, check_zone, close_instants

# Vocabulary for messages that should match nothing; kept disjoint from
# both demo lexicons so synthetic texts classify exactly as planted.
FILLER_WORDS: tuple[str, ...] = (
    "market", "today", "shares", "price", "session", "update", "chart",
    "volume", "week", "stocks", "morning", "open", "close", "note",
    "watch", "desk", "levels", "range", "macro", "intraday",
)
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_MAX = _INT64_MAX - 10 * np.sqrt(_INT64_MAX)  # the largest mean rng.poisson takes


@dataclass(frozen=True)
class PlantedEvent:
    """A message spike planted on one firm, node and trading day."""

    firm: int  # firm index
    node: Node
    day: int  # trading day index
    spike: float = 10.0  # spike-day Poisson mean is spike * base_rate
    sign: Sign = Sign.NEGATIVE


@dataclass(frozen=True)
class Confound:
    """An earnings or controversy calendar row for one firm and trading day."""

    firm: int  # firm index
    day: int  # trading day index
    kind: str  # "earnings" or "controversy"


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_firms: int = 2
    n_days: int = 300
    base_rate: float = 5.0  # per-day Poisson mean of background node chatter
    filler_rate: float = 8.0  # per-day Poisson mean of non-matching messages
    planted: tuple[PlantedEvent, ...] = ()
    injected_ar: float = 0.0  # added to the firm return on each planted day
    beta_range: tuple[float, float] = (0.8, 1.2)
    alpha_range: tuple[float, float] = (-0.0002, 0.0002)
    idio_vol: float = 0.02
    market_vol: float = 0.01
    start: date = date(2018, 1, 1)
    exchange_tz: str = DEFAULT_EXCHANGE_TZ
    background_sentiment: str = "neutral"  # or "positive"
    confounds: tuple[Confound, ...] = ()

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_firms < 1 or self.n_days < 2:
            raise ConfigError("need at least one firm and two days")
        for name in ("base_rate", "filler_rate", "injected_ar", "idio_vol", "market_vol",
                     "beta_range", "alpha_range"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_rate < 0 or self.filler_rate < 0:
            raise ConfigError("rates must be non-negative")
        for name in ("base_rate", "filler_rate"):
            if getattr(self, name) > _POISSON_MAX:
                raise ConfigError(f"{name} must be at most {_POISSON_MAX:.4g}")
        if self.idio_vol <= 0 or self.market_vol <= 0:
            raise ConfigError("volatilities must be positive")
        if self.background_sentiment not in ("neutral", "positive"):
            raise ConfigError(f"bad background_sentiment {self.background_sentiment!r}")
        check_zone("exchange_tz", self.exchange_tz)
        seen: set[tuple[int, Node, int]] = set()
        for i, ev in enumerate(self.planted):
            if ev.node not in SUBCATEGORIES:  # messages carry the lexicon's subcategory terms
                raise ConfigError(
                    f"bad synth config: planted[{i}].node must be a subcategory, one of "
                    f"{', '.join(node.value for node in SUBCATEGORIES)}, got {ev.node.value!r}"
                )
            if not 0 <= ev.firm < self.n_firms:
                raise ConfigError(f"planted firm index {ev.firm} out of range")
            if not 0 <= ev.day < self.n_days:
                raise ConfigError(f"planted day index {ev.day} out of range")
            if not 0 < ev.spike < np.inf:
                raise ConfigError(f"spike must be positive and finite, got {ev.spike}")
            if self.base_rate * ev.spike > _POISSON_MAX:
                raise ConfigError(f"base_rate * spike must be at most {_POISSON_MAX:.4g}")
            key = (ev.firm, ev.node, ev.day)
            if key in seen:
                raise ConfigError(f"duplicate planted event {key}")
            seen.add(key)
        for confound in self.confounds:
            if not 0 <= confound.firm < self.n_firms:
                raise ConfigError(f"confound firm index {confound.firm} out of range")
            if not 0 <= confound.day < self.n_days:
                raise ConfigError(f"confound day index {confound.day} out of range")
            if confound.kind not in ("earnings", "controversy"):
                raise ConfigError(f"bad confound kind {confound.kind!r}")


def synth_config_from_dict(raw: dict) -> SynthConfig:
    """Build and validate a SynthConfig from parsed YAML/JSON; a null
    planted or confounds list plants nothing."""
    raw = {k: () if v is None and k in ("planted", "confounds") else v for k, v in raw.items()}
    return build_config(SynthConfig, raw, "synth")


def business_days(start: date, n_days: int) -> list[date]:
    """The first n_days weekdays on/after start (no holiday modeling)."""
    return np.busday_offset(start, np.arange(n_days), roll="forward").astype(object).tolist()


def firm_name(index: int) -> str:
    return f"FIRM{index:02d}"


@dataclass(frozen=True)
class TruthEvent:
    """A planted event as ground_truth.json records it: firm name and calendar date."""

    firm: str
    node: Node
    date: date
    spike_size: float = 0.0
    sign: Sign = Sign.NEGATIVE


@dataclass(frozen=True)
class TruthKey:
    """A (firm, node, date) that a planted event makes true, its node's ancestors included."""

    firm: str
    node: Node
    date: date


def _keys(events: Iterable[TruthEvent]) -> set[tuple[str, Node, date]]:
    return {(ev.firm, node, ev.date) for ev in events for node in expand_to_ancestors({ev.node})}


@dataclass(frozen=True)
class GroundTruth:
    """ground_truth.json: what was planted, and the keys it makes true (truth),
    sorted by firm, node_sort_key and date."""

    injected_ar: float = 0.0
    planted: tuple[TruthEvent, ...] = ()
    truth: tuple[TruthKey, ...] = ()

    @classmethod
    def of(cls, planted: tuple[TruthEvent, ...], injected_ar: float) -> "GroundTruth":
        """The ground truth of these planted events, their truth keys derived."""
        keys = sorted(_keys(planted), key=lambda k: (k[0], node_sort_key(k[1]), k[2]))
        return cls(injected_ar, planted, tuple(TruthKey(*k) for k in keys))

    def negative_keys(self) -> frozenset[tuple[str, Node, date]]:
        """Expanded keys for negatively signed planted events only."""
        return frozenset(_keys(ev for ev in self.planted if ev.sign is Sign.NEGATIVE))

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        """Read a ground_truth.json; DataError if it is unreadable or malformed,
        or if its truth is not the one of its planted events."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            if raw is None:  # build_config reads null as all defaults
                raise ConfigError("ground truth config must be a mapping, got None")
            truth = build_config(cls, raw, "ground truth")
        except (OSError, ValueError, ConfigError) as exc:
            raise DataError(f"cannot read ground truth {path}: {exc}") from exc
        if truth.truth != cls.of(truth.planted, truth.injected_ar).truth:
            raise DataError(f"cannot read ground truth {path}: truth must list each key that "
                            "planted makes true once, sorted by firm, node and date")
        return truth


def _terms_by_node(path: Path) -> dict[Node, list[str]]:
    grouped: dict[Node, list[str]] = {}
    for entry in load_esg_lexicon(path):
        grouped.setdefault(entry.node, []).append(entry.text)
    return grouped


def _sentiment_words(path: Path) -> tuple[list[str], list[str]]:
    """(negative, positive) sentiment terms, as text."""
    entries = load_sentiment_lexicon(path)
    return ([" ".join(e.term) for e in entries if e.weight < 0],
            [" ".join(e.term) for e in entries if e.weight > 0])


_BLOCK = 512  # messages per joined write; no draw depends on it


def _firm_sources(
    config: SynthConfig, planted: Sequence[PlantedEvent], terms: dict[Node, list[str]],
    negative_words: list[str], positive_words: list[str],
) -> list[tuple]:
    """A firm's message sources in rate-matrix column order: filler, one background
    source per planted node in node_sort_key order, then one per planted event with
    rate 0 off its day. Each is (per-day Poisson means, filler word count range, ESG
    terms, sentiment words, template over cashtag, filler words, term, sentiment word)."""
    n = config.n_days
    sources = [(np.full(n, config.filler_rate), (3, 6), (), (), "{0} {1}")]
    positive = config.background_sentiment == "positive"
    for node in sorted({ev.node for ev in planted}, key=node_sort_key):
        sources.append((np.full(n, config.base_rate), (1, 2), terms[node],
                        positive_words if positive else (),
                        "{0} {1} {2} {3}" if positive else "{0} {1} {2}"))
    for ev in planted:
        rates = np.zeros(n)
        rates[ev.day] = config.base_rate * ev.spike
        words = negative_words if ev.sign is Sign.NEGATIVE else positive_words
        sources.append((rates, (1, 3), terms[ev.node], words, "{0} {2} {3} {1}"))
    return sources


def _picks(rng: np.random.Generator, src: np.ndarray, lists: Sequence[Sequence[str]]):
    """(table, index): one uniform pick per message from its source's list; a
    message whose list is empty gets index 0, the empty string, and draws nothing."""
    sizes = np.array([len(words) for words in lists])
    table = np.array(["", *(w for words in lists for w in words)])
    first = np.where(sizes > 0, np.cumsum(sizes) - sizes + 1, 0)
    return table, first[src] + rng.integers(0, np.maximum(sizes, 1)[src])


def _write_firm_messages(
    fh, rng: np.random.Generator, firm: str, sources: list[tuple],
    lower: np.ndarray, span: np.ndarray, first_id: int,
) -> int:
    """Draw one firm's messages as arrays, grouped by day then source, and write them
    to fh as CSV lines with ids from first_id; returns the count. Texts are a cashtag,
    filler words and joined lexicon tokens, so no cell needs quoting."""
    rates, fill_range, term_lists, word_lists, templates = zip(*sources)
    counts = rng.poisson(np.column_stack(rates)).ravel()
    day, src = np.divmod(np.repeat(np.arange(counts.size), counts), len(sources))
    lo, hi = np.array(fill_range).T
    n_fill = rng.integers(lo[src], hi[src] + 1)
    fill = rng.integers(0, len(FILLER_WORDS), int(n_fill.sum()))
    terms, term = _picks(rng, src, term_lists)
    words, word = _picks(rng, src, word_lists)
    seconds = lower[day] + rng.integers(1, span[day] + 1)

    # one line template per source over (id, stamp, filler words, term, sentiment word)
    lines = np.array([f"m{{0:07d}},{firm},{{1}}+00:00," + t.format(f"${firm}", "{2}", "{3}", "{4}")
                      + "\r\n" for t in templates], dtype=object)
    fillers, ends = np.array(FILLER_WORDS), np.cumsum(n_fill)
    for a in range(0, len(src), _BLOCK):
        b = min(a + _BLOCK, len(src))
        base = ends[a] - n_fill[a]
        block_fill = fillers[fill[base:ends[b - 1]]].tolist()
        stamps = np.datetime_as_string(seconds[a:b].astype("datetime64[s]"), unit="s").tolist()
        fill_texts = [" ".join(block_fill[i - n:i])
                      for n, i in zip(n_fill[a:b].tolist(), (ends[a:b] - base).tolist())]
        fh.write("".join(map(str.format, lines[src[a:b]].tolist(), range(first_id + a, first_id + b),
                             stamps, fill_texts, terms[term[a:b]].tolist(), words[word[a:b]].tolist())))
    return len(src)


def generate(config: SynthConfig, outdir: str | Path) -> GroundTruth:
    """Write a synthetic corpus under outdir and return its ground truth.

    Files produced: messages.csv, prices.csv, market_index.csv,
    earnings.csv, controversy.csv, esg_lexicon.csv, sentiment_lexicon.csv,
    ground_truth.json.
    """
    config.validate()
    outdir = Path(outdir)
    with config_errors(f"create output directory {outdir}"):
        outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    calendar_days = business_days(config.start, config.n_days)
    closes = np.array([int(c.timestamp()) for c in close_instants(calendar_days, config.exchange_tz)])
    lower, span = closes[:-1], np.diff(closes)  # day i owns the window (closes[i], closes[i+1]]

    terms = _terms_by_node(demo_esg_lexicon_path())
    negative_words, positive_words = _sentiment_words(demo_sentiment_lexicon_path())
    planted_by_firm: dict[int, list[PlantedEvent]] = {}
    for ev in config.planted:
        planted_by_firm.setdefault(ev.firm, []).append(ev)

    market = rng.normal(0.0, config.market_vol, config.n_days)

    with open(outdir / "messages.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("id,firm,timestamp,text\r\n")
        written = 0
        for fi in range(config.n_firms):
            sources = _firm_sources(config, planted_by_firm.get(fi, []), terms,
                                    negative_words, positive_words)
            written += _write_firm_messages(fh, rng, firm_name(fi), sources, lower, span, written + 1)

    isos = [d.isoformat() for d in calendar_days]
    with open(outdir / "prices.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("firm,date,close,return\r\n")
        for fi in range(config.n_firms):
            alpha = float(rng.uniform(*config.alpha_range))
            beta = float(rng.uniform(*config.beta_range))
            eps = rng.normal(0.0, config.idio_vol, config.n_days)
            rets = alpha + beta * market + eps
            for di in {ev.day for ev in planted_by_firm.get(fi, ())}:
                rets[di] += config.injected_ar
            # a left fold, as close *= 1 + ret day by day
            closes = np.multiply.accumulate(np.concatenate(([100.0], 1.0 + rets)))[1:]
            fh.write("".join(map(f"{firm_name(fi)},{{}},{{}},{{}}\r\n".format,
                                 isos, closes.tolist(), rets.tolist())))

    with open(outdir / "market_index.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("date,return\r\n" + "".join(map("{},{}\r\n".format, isos, market.tolist())))

    confound_rows = {"earnings": [], "controversy": []}
    for confound in config.confounds:
        confound_rows[confound.kind].append((firm_name(confound.firm), isos[confound.day]))
    for kind, rows in confound_rows.items():
        with open(outdir / f"{kind}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("firm,date\r\n" + "".join(f"{firm},{day}\r\n" for firm, day in sorted(rows)))

    (outdir / "esg_lexicon.csv").write_bytes(demo_esg_lexicon_path().read_bytes())
    (outdir / "sentiment_lexicon.csv").write_bytes(demo_sentiment_lexicon_path().read_bytes())

    truth = GroundTruth.of(tuple(
        TruthEvent(firm_name(ev.firm), ev.node, calendar_days[ev.day], ev.spike, ev.sign)
        for ev in config.planted
    ), config.injected_ar)
    with open(outdir / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(truth), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return truth


def simulate_event_panel(
    rng: np.random.Generator,
    n_events: int,
    *,
    est_len: int = 120,
    post_days: int = 1,
    idio_vol: float = 0.02,
    market_vol: float = 0.01,
    beta_range: tuple[float, float] = (0.8, 1.2),
    alpha_range: tuple[float, float] = (-0.0002, 0.0002),
    injected_ar: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (firm_returns, market_returns, event_days): one row per event.

    Each event gets an independent market and firm series just long enough
    for an estimation window of est_len ending two days before the event
    plus post_days after it, drawn event by event. The injected abnormal
    return lands on the event day only.
    """
    event_index = est_len + 1
    n = event_index + post_days + 1
    firm, market = np.empty((n_events, n)), np.empty((n_events, n))
    for k in range(n_events):
        market[k] = rng.normal(0.0, market_vol, n)
        alpha, beta = float(rng.uniform(*alpha_range)), float(rng.uniform(*beta_range))
        firm[k] = alpha + beta * market[k] + rng.normal(0.0, idio_vol, n)
    firm[:, event_index] += injected_ar
    return firm, market, np.full(n_events, event_index)


@dataclass(frozen=True)
class DetectionScore:
    precision: float | None  # None when nothing was detected
    recall: float | None  # None when the truth set is empty
    matched: int
    n_detected: int
    n_truth: int


def evaluate_detection(
    detected: Iterable[tuple[str, Node, int]],
    truth: Iterable[tuple[str, Node, int]],
    tolerance: int = 1,
) -> DetectionScore:
    """Set matching of (firm, node, trading-day index) keys with +/- tolerance days.

    Each detected event can satisfy at most one truth entry; ties go to
    the nearest day, then the earlier one.
    """
    detected = list(detected)
    truth = sorted(set(truth), key=lambda k: (k[0], node_sort_key(k[1]), k[2]))
    unmatched: dict[tuple[str, Node], list[int]] = {}  # detected day indices per (firm, node)
    for firm, node, day in detected:
        unmatched.setdefault((firm, node), []).append(day)

    matched = 0
    for firm, node, idx in truth:
        days = unmatched.get((firm, node), [])
        near = [pos for pos in days if abs(pos - idx) <= tolerance]
        if near:
            days.remove(min(near, key=lambda pos: (abs(pos - idx), pos)))
            matched += 1

    n_detected = len(detected)
    n_truth = len(truth)
    return DetectionScore(
        precision=(matched / n_detected) if n_detected else None,
        recall=(matched / n_truth) if n_truth else None,
        matched=matched,
        n_detected=n_detected,
        n_truth=n_truth,
    )
