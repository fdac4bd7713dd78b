"""Stage orchestration: classify -> detect -> study, plus config plumbing.

Stages communicate through files so each can run standalone:

* classify: messages + lexicons -> classified.csv (one row per valid
  message, labeled or not) and an ingest report.
* detect: classified.csv + market index + confound calendars ->
  events.csv with kept/removed flags, counts and removal histogram.
* study: events.csv + prices + market index -> results files, SCAAR
  curves and a drop log.

Every run writes resolved_config.yaml into the output directory so the
effective parameters are always on disk next to the artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import logging
import math
import typing
from collections import Counter, deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from itertools import compress, islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import yaml

from .aggregate import build_series, label_mask
from .detect import (
    DetectionConfig,
    RiskEvent,
    esd_outliers,
    exclude_confounded,
    filter_and_merge,
)
from .errors import ConfigError, config_errors
from .ingest import (
    EventKind,
    IngestReport,
    code_firms,
    decoded,
    filled,
    floats,
    fresh,
    iter_messages,
    ordinals,
    parse_stamps,
    read_calendar_events,
    read_market_index,
    read_columns,
    read_prices,
    require,
    utc_stamps,
)
from .lexicon import TokenMatcher, load_esg_lexicon, tokenize
from .report import (
    render_event_counts_csv,
    render_removal_histogram_csv,
    render_results_csv,
    render_results_text,
    render_scaar_curve_csv,
)
from .sentiment import DEFAULT_SIGN_THRESHOLD, load_sentiment_lexicon
from .study import (
    EstimationConfig,
    NodeStudyResult,
    aggregate_node,
    align_firm_returns,
    align_market_returns,
    compute_event_abnormals,
)
from .taxonomy import REPORT_ORDER, Node, expand_to_ancestors, node_sort_key, parse_node
from .trading import DEFAULT_EXCHANGE_TZ, TradingCalendar, assign_trading_indices, check_zone
from .trading import assign_trading_index  # noqa: F401 (bench/tracing.py patches it here)

log = logging.getLogger(__name__)

CLASSIFIED_COLUMNS = ["id", "firm", "timestamp", "nodes", "terms", "score"]
EVENT_COLUMNS = [
    "firm", "node", "date", "count", "share", "sentiment_score",
    "sign", "kept", "removal_reason", "distance_to_confound",
]


@dataclass(frozen=True)
class PathsConfig:
    messages: str | None = None
    prices: str | None = None
    market_index: str | None = None
    earnings: str | None = None
    controversy: str | None = None
    esg_lexicon: str | None = None
    sentiment_lexicon: str | None = None
    classified: str | None = None  # defaults to <outdir>/classified.csv
    events: str | None = None  # defaults to <outdir>/events.csv
    outdir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    study: EstimationConfig = field(default_factory=EstimationConfig)
    sentiment_threshold: float = DEFAULT_SIGN_THRESHOLD
    exchange_tz: str = DEFAULT_EXCHANGE_TZ
    source_tz: str = "UTC"
    parallelism: int = 1
    robustness_est_len: int | None = None

    def validate(self) -> None:
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be at least 1, got {self.parallelism}")
        if not math.isfinite(self.sentiment_threshold):
            raise ConfigError(f"sentiment_threshold must be finite, got {self.sentiment_threshold}")
        if (robust := self.robustness_est_len) is not None and robust < 3:
            raise ConfigError(f"robustness_est_len must be null or an integer >= 3, got {robust}")
        check_zone("exchange_tz", self.exchange_tz)
        check_zone("source_tz", self.source_tz)

    def outdir(self) -> Path:
        return Path(self.paths.outdir)

    def classified_path(self) -> Path:
        return Path(self.paths.classified) if self.paths.classified else self.outdir() / "classified.csv"

    def events_path(self) -> Path:
        return Path(self.paths.events) if self.paths.events else self.outdir() / "events.csv"

    def require_path(self, name: str) -> Path:
        value = getattr(self.paths, name)
        if not value:
            raise ConfigError(f"paths.{name} is required for this command")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"paths.{name}: {path} does not exist")
        return path


_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(tp, value, section: str, key: str):
    """`value` as annotation `tp`, or ConfigError naming the dotted `key`."""
    if dataclasses.is_dataclass(tp):
        return build_config(tp, value, section, key)
    args, expected = typing.get_args(tp), _NAMES.get(tp)
    if typing.get_origin(tp) is tuple:  # fixed length, or tuple[T, ...] when n is 0
        n = 0 if args[-1] is Ellipsis else len(args)
        if isinstance(value, (list, tuple)) and n in (0, len(value)):
            return tuple(
                _typed(args[i if n else 0], v, section, f"{key}[{i}]") for i, v in enumerate(value)
            )
        expected = f"a list of {n}" if n else "a list"
    elif type(None) in args:  # X | None, X a strict scalar
        if type(value) in args:
            return value
        expected = f"null or {_NAMES[args[0]]}"
    elif tp is float and type(value) in (int, float, str):
        try:  # PyYAML reads 1e-3 as a string, so a finite numeric string counts
            if math.isfinite(number := float(value)) or type(value) is float:
                return number
        except (ValueError, OverflowError):
            pass
    elif type(value) is tp:  # strict: a bool is not an int
        return value
    elif isinstance(tp, enum.EnumMeta):  # by value; Node also takes parse_node's spellings
        try:
            return tp(value)
        except ValueError:
            expected = "one of " + ", ".join(member.value for member in tp)
    elif tp is date:  # PyYAML reads an unquoted 2018-01-01 as a date already
        try:
            return date.fromisoformat(str(value))
        except ValueError:
            expected = "an ISO date"
    expected = expected or f"a {tp.__name__}"
    raise ConfigError(f"bad {section} config: {key} must be {expected}, got {value!r}")


def build_config(cls, raw, section: str, key: str = ""):
    """Build `cls` from a parsed config mapping (null: all defaults) and validate() it.

    Each value must match its field's annotation; a dataclass field is a
    section of its own. ConfigError names a bad key dotted from the top.
    """
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{key or section} config must be a mapping, got {raw!r}")
    prefix, hints = f"{key}." if key else "", typing.get_type_hints(cls)
    if unknown := sorted(f"{prefix}{name}" for name in raw if name not in hints):
        raise ConfigError(f"unknown {section} config keys: {unknown}")
    for f in dataclasses.fields(cls):
        if f.name not in raw and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"bad {section} config: {prefix}{f.name} is required")
    obj = cls(**{
        name: _typed(tp, raw[name], name if dataclasses.is_dataclass(tp) else section, prefix + name)
        for name, tp in hints.items() if name in raw
    })
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


def run_config_from_dict(raw: dict | None) -> RunConfig:
    return build_config(RunConfig, raw, "run")


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's, when PyYAML has it


def read_yaml_mapping(path: str | Path) -> dict:
    """The top-level mapping of a YAML config file; empty for an empty file.

    An empty value tagged `!` is refused: libyaml reads it as '' and the
    pure loader as null.
    """
    try:
        with config_errors(f"read config {path}"), open(path, encoding="utf-8") as fh:
            events = list(yaml.parse(fh, Loader=_SAFE_LOADER))
            fh.seek(0)
            loaded = yaml.load(fh, Loader=_SAFE_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date-like scalar that is no date
        raise ConfigError(f"bad YAML in {path}: {exc}") from exc
    for event in events:
        if isinstance(event, yaml.ScalarEvent) and event.tag == "!" and not event.value:
            raise ConfigError(f"{path}:{event.start_mark.line + 1}: empty value tagged '!'; write null or ''")
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return loaded


def load_run_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read a YAML config file and apply nested overrides on top."""
    raw = read_yaml_mapping(path) if path is not None else {}
    if overrides:
        raw = _deep_merge(raw, overrides)
    return run_config_from_dict(raw)


def _as_plain(obj) -> dict:
    # json round-trip turns tuples into lists and rejects anything exotic
    return json.loads(json.dumps(dataclasses.asdict(obj)))


def _open_artifact(path: Path):
    """Open a CSV artifact for writing. Its path is configured (--classified,
    --events), so one that cannot be opened is a config error."""
    with config_errors(f"write {path}"):
        return open(path, "w", newline="", encoding="utf-8")


def write_resolved_config(cfg: RunConfig, outdir: Path) -> Path:
    with config_errors(f"create output directory {outdir}"):
        outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "resolved_config.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(_as_plain(cfg), fh, sort_keys=True, default_flow_style=False)
    return path


# --- classify stage ---------------------------------------------------------

_TASK = 512  # messages per classify call: all a serial run holds, the unit a pool worker gets
_MAX_WORKERS = 10  # classify pool processes, whatever parallelism asks for
_WORKER_ENGINE: "_ClassifyEngine | None" = None


class _ClassifyEngine:
    """One index over both lexicons, with one folded payload per distinct n-gram.

    An n-gram's payload is (label bits, term text, sentiment weights): the
    OR of 1 << node_sort_key(node) over its ESG entries (label_mask's
    layout before the ancestor closure), its text if it is an ESG term and
    None if not, and its sentiment entries' weights in lexicon order. Both
    lexicons are read and checked here, so a bad one raises DataError.
    """

    def __init__(self, esg_lexicon_path: str, sentiment_lexicon_path: str):
        payloads: dict[tuple[str, ...], tuple[int, str | None, tuple[float, ...]]] = {}
        for e in load_esg_lexicon(esg_lexicon_path):
            bits, _, weights = payloads.get(e.term, (0, None, ()))
            payloads[e.term] = (bits | 1 << node_sort_key(e.node), e.text, weights)
        for e in load_sentiment_lexicon(sentiment_lexicon_path):
            bits, term, weights = payloads.get(e.term, (0, None, ()))
            payloads[e.term] = (bits, term, (*weights, e.weight))
        self.matcher = TokenMatcher(payloads.items())

    def rows(self, texts: Sequence[str]) -> list[tuple[int, str, str]]:
        """(label bits, joined distinct matched terms, str(score)) per message text.

        The score is the mean of the matched weights, summed left to right
        in hit order as sentiment.mean_weight sums them; 0.0 if none match.
        """
        out, find = [], self.matcher.find
        for text in texts:
            bits, terms, total, n = 0, [], 0.0, 0
            for _, _, (labels, term, weights) in find(tokenize(text)):
                bits |= labels
                if term is not None:
                    terms.append(term)
                for weight in weights:
                    total += weight
                    n += 1
            joined = "|".join(dict.fromkeys(terms)) if terms else ""
            out.append((bits, joined, str(total / n) if n else "0.0"))
        return out


def _init_worker(engine: _ClassifyEngine) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = engine


def _worker_rows(texts: Sequence[str]) -> list[tuple[int, str, str]]:
    assert _WORKER_ENGINE is not None
    return _WORKER_ENGINE.rows(texts)


def _pooled(pool, tasks: Iterator[list], window: int) -> Iterator[tuple[list, list]]:
    """(task, rows) per task in order, once it and all before it are done; at most `window` unyielded."""
    pending: deque = deque()
    for task in tasks:
        pending.append((task, pool.submit(_worker_rows, [m[3] for m in task])))
        while len(pending) == window or (pending and pending[0][1].done()):
            head, future = pending.popleft()
            yield head, future.result()
    yield from ((head, future.result()) for head, future in pending)


def _bit_nodes(bits: int) -> list[Node]:
    """The nodes of a label-bits int, in REPORT_ORDER."""
    return [node for i, node in enumerate(REPORT_ORDER) if bits >> i & 1]


@dataclass
class ClassifyOutputs:
    classified_path: Path
    report: IngestReport
    node_counts: dict[Node, int]
    n_messages: int


def run_classify(cfg: RunConfig) -> ClassifyOutputs:
    """Label and score every valid message; write the classified artifact.

    The lexicons are read once, here, and reach each of at most _MAX_WORKERS (10)
    pool workers once, through its initializer. A serial run holds one task of
    messages, a pool two per worker: each task's rows are written before more are read.
    """
    messages_path = cfg.require_path("messages")
    engine = _ClassifyEngine(
        str(cfg.require_path("esg_lexicon")), str(cfg.require_path("sentiment_lexicon"))
    )
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.classified_path()

    report = IngestReport(path=str(messages_path))
    stream = iter_messages(messages_path, source_tz=cfg.source_tz, report=report)
    tasks = iter(lambda: list(islice(stream, _TASK)), [])
    cells: dict[int, str] = {}  # label bits -> nodes column; few distinct values recur
    tally: Counter[int] = Counter()  # messages per label bits

    with ExitStack() as stack:
        if cfg.parallelism > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(cfg.parallelism, _MAX_WORKERS)
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(engine,),
            ))
            classified = _pooled(pool, tasks, 2 * workers)
        else:
            classified = ((task, engine.rows([m[3] for m in task])) for task in tasks)
        fh = stack.enter_context(_open_artifact(out_path))
        writer = csv.writer(fh)
        writer.writerow(CLASSIFIED_COLUMNS)
        for task, rows in classified:
            labels = [bits for bits, _, _ in rows]
            tally.update(labels)
            for bits in set(labels).difference(cells):
                cells[bits] = "|".join(n.value for n in _bit_nodes(bits))
            writer.writerows(
                (msg_id, firm, stamp, cells[bits], terms, score)
                for (msg_id, firm, _, _), stamp, (bits, terms, score)
                in zip(task, utc_stamps([m[2] for m in task]), rows)
            )

    # Summary counts include ancestors: a subcategory message is also a
    # pillar and ESG_ALL message.
    node_counts: dict[Node, int] = {node: 0 for node in REPORT_ORDER}
    for bits, n in tally.items():
        for node in expand_to_ancestors(frozenset(_bit_nodes(bits))):
            node_counts[node] += n
    with open(outdir / "ingest_report_messages.json", "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    return ClassifyOutputs(out_path, report, node_counts, n_messages=sum(tally.values()))


# --- detect stage ------------------------------------------------------------


@dataclass
class DetectOutputs:
    events_path: Path
    calendar: TradingCalendar
    detected: list[RiskEvent]  # everything that survived filters and merging, with its fate
    kept: list[RiskEvent]  # negative sign, not confounded
    positives: list[RiskEvent]
    removed: list[RiskEvent]  # confounded
    dropped_messages: int  # timestamps outside the calendar


def _read_classified(path: Path):
    """Read a classified.csv into firm names and one column per field.

    Per row: firm code, UTC epoch-microsecond stamp, label_mask (made once
    per distinct `nodes` string) and score (0 when blank). Each block is
    converted a column at a time and checked against one table: a bad
    stamp, an unknown node, a bad or non-finite score and a blank firm, in
    that order. The first failing row raises DataError.
    """
    codes: dict[str, int] = {}
    label_masks: dict[str | None, int] = {}  # -1 for a bad `nodes` string
    node_errors: dict[str | None, str] = {}
    parts: list[tuple[np.ndarray, ...]] = []  # per block: firm code, stamp, mask, score
    for lines, (_, firms, raw_ts, raw_nodes, _, raw_scores) in read_columns(
        path, "classified", CLASSIFIED_COLUMNS
    ):
        masks = decoded(raw_nodes, label_masks, lambda raw: label_mask(
            {parse_node(n) for n in (raw or "").split("|") if n}), node_errors)
        scores, parsed = floats(raw_scores)
        if not parsed.all():  # a blank or absent score is 0
            scores[~filled(raw_scores)] = 0.0
        stamps, stamped = parse_stamps(raw_ts, "UTC")
        require(path, lines, [
            (stamped, lambda k: "bad timestamp in classified file"),
            (masks >= 0, lambda k: node_errors[raw_nodes[k]]),
            (np.isfinite(scores), lambda k: f"bad score {raw_scores[k]!r}"),
            (filled(firms), lambda k: "missing firm"),
        ])
        parts.append((code_firms(firms, codes), stamps, masks, scores))
    if not parts:
        return [], *(np.zeros(0, t) for t in "qqqd")
    return list(codes), *map(np.concatenate, zip(*parts))


def run_detect(cfg: RunConfig) -> DetectOutputs:
    """Turn classified messages into screened risk events."""
    classified = cfg.classified_path()
    if not classified.exists():
        raise ConfigError(f"classified file {classified} does not exist; run classify first")
    index_path = cfg.require_path("market_index")
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)

    (dates, _), _ = read_market_index(index_path)
    calendar = TradingCalendar(dates)

    confounds = [  # earnings first: it wins a tie of firm and distance
        read_calendar_events(cfg.require_path(name), kind)[0]
        for name, kind in (("earnings", EventKind.EARNINGS), ("controversy", EventKind.CONTROVERSY))
        if getattr(cfg.paths, name)
    ]

    names, firms, stamps, masks, scores = _read_classified(classified)
    days = assign_trading_indices(stamps, calendar, cfg.exchange_tz)
    on = days >= 0
    stack = build_series(tuple(c[on] for c in (firms, days, masks, scores)), calendar)
    outliers = esd_outliers(stack.counts, cfg.detection)
    detected = filter_and_merge(
        outliers, stack, names, calendar, cfg.detection, cfg.sentiment_threshold
    )
    in_file_order = partial(sorted, key=lambda e: (e.firm, node_sort_key(e.node), e.day))
    unconfounded, removed = exclude_confounded(
        in_file_order(detected), confounds, calendar, cfg.detection
    )
    detected = in_file_order(unconfounded + removed)
    kept = [e for e in unconfounded if not e.removal_reason]
    positives = [e for e in unconfounded if e.removal_reason]

    events_path = cfg.events_path()
    with _open_artifact(events_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_COLUMNS)
        writer.writerows(
            (e.firm, e.node.value, e.day.isoformat(), e.count, str(e.share), str(e.score), e.sign.value,
             "false" if e.removal_reason else "true", e.removal_reason, e.distance_to_confound)
            for e in detected
        )

    (outdir / "event_counts.csv").write_text(render_event_counts_csv(kept), encoding="utf-8")
    (outdir / "removal_histogram.csv").write_text(
        render_removal_histogram_csv(removed, cfg.detection.exclusion_halfwidth),
        encoding="utf-8",
    )
    return DetectOutputs(
        events_path=events_path,
        calendar=calendar,
        detected=detected,
        kept=kept,
        positives=positives,
        removed=removed,
        dropped_messages=int(np.count_nonzero(days < 0)),
    )


class KeptEvents(typing.NamedTuple):
    """Kept events as columns, in file order: the distinct firm names, coded
    by first row, then per event its firm code, node index (node_sort_key)
    and calendar day index."""

    names: list[str]
    firm: np.ndarray
    node: np.ndarray
    day: np.ndarray


def load_kept_events(path: str | Path, calendar: TradingCalendar) -> KeptEvents:
    """Read kept events from an events.csv; each must fall on a trading day, once.

    Each block's rows not marked `false` are converted a column at a time,
    each distinct kept, date and node string once, and checked against one
    table: a kept cell other than true or false, a bad date, a day off the
    calendar, an unknown node, a blank firm and a repeated (firm, node,
    date), in that order. DataError names the first failing row.
    """
    codes: dict[str, int] = {}
    flags: dict[str | None, int] = {}  # 1 for true, 0 for false, -1 for anything else
    days: dict[str | None, int] = {}
    node_index: dict[str | None, int] = {}  # -1 for a bad node string
    node_errors: dict[str | None, str] = {}
    # (firm * nodes + node) * days + day of every event so far; a failing row
    # raises before any later row counts, so its key cannot shadow a valid one
    seen: set[int] = set()
    parts: list[tuple[np.ndarray, ...]] = []  # per block: firm code, node index, day index
    for lines, (firms, raw_nodes, raw_days, *_, raw_kept, _, _) in read_columns(
        path, "event", EVENT_COLUMNS
    ):
        kept = decoded(raw_kept, flags, lambda raw: ("false", "true").index((raw or "").strip()))
        cells = (lines, firms, raw_nodes, raw_days, raw_kept)
        lines, firms, raw_nodes, raw_days, raw_kept = ([*compress(column, kept)] for column in cells)
        kept = kept[kept != 0]
        firm = code_firms(firms, codes)
        node = decoded(raw_nodes, node_index, lambda raw: node_sort_key(parse_node(raw or "")), node_errors)
        ordinal = ordinals(raw_days, days)
        day = calendar.lookup(ordinal)
        require(path, lines, [
            (kept > 0, lambda k: f"kept must be true or false, got {(raw_kept[k] or '').strip()!r}"),
            (ordinal > 0, lambda k: f"bad date {(raw_days[k] or '').strip()!r}"),
            (day >= 0, lambda k: "{} is not a trading day in this calendar".format(
                date.fromordinal(int(ordinal[k])))),
            (node >= 0, lambda k: node_errors[raw_nodes[k]]),
            (filled(firms), lambda k: "missing firm"),
            (fresh(((firm * len(REPORT_ORDER) + node) * len(calendar) + day).tolist(), seen),
             lambda k: "duplicate kept event {} {} {}".format(
                firms[k].strip(), REPORT_ORDER[node[k]], calendar.dates[day[k]])),
        ])
        parts.append((firm, node, day))
    columns = map(np.concatenate, zip(*parts)) if parts else (np.zeros(0, np.int64),) * 3
    return KeptEvents(list(codes), *columns)


# --- study stage -------------------------------------------------------------


@dataclass
class StudyOutputs:
    results: list[NodeStudyResult]
    drops: list[tuple[str, Node, date, str]]
    results_csv: Path
    results_text: Path
    robustness: "StudyOutputs | None" = None


def study_events(
    events: KeptEvents,
    firm_returns: tuple[Sequence[str], np.ndarray],
    market_returns: np.ndarray,
    calendar: TradingCalendar,
    config: EstimationConfig,
) -> tuple[list[NodeStudyResult], list[tuple[str, Node, date, str]]]:
    """Compute per-node study results for kept events.

    `firm_returns` is align_firm_returns' (firm names, returns matrix).
    Events are taken in (firm name, node_sort_key, date) order, the order
    of each node's events and of the drops. Each distinct (firm, day) is
    studied once, in one stacked call.
    """
    firms, returns = firm_returns
    row_of = {firm: i for i, firm in enumerate(firms)}
    rank = np.empty(len(events.names), np.int64)
    rank[sorted(range(len(events.names)), key=events.names.__getitem__)] = np.arange(len(rank))
    order = np.lexsort((events.day, events.node, rank[events.firm]))
    firm, node, day = events.firm[order], events.node[order], events.day[order]
    price_row = np.array([row_of.get(name, -1) for name in events.names], np.int64)[firm]
    priced = np.flatnonzero(price_row >= 0)
    stacked, k = np.unique(price_row[priced] * len(calendar) + day[priced], return_inverse=True)
    rows, days = np.divmod(stacked, len(calendar))
    abnormals = compute_event_abnormals(returns, market_returns, rows, days, config)
    reason = np.full(len(firm), "no price data for firm", dtype=object)
    reason[priced] = abnormals.dropped[k].tolist()
    stacked_at = np.full(len(firm), -1)
    stacked_at[priced] = k
    studied = reason == ""
    results = [
        aggregate_node(REPORT_ORDER[n], abnormals.take(stacked_at[studied & (node == n)]), config)
        for n in sorted(set(node[studied].tolist()))  # not np.unique, which imports numpy.ma
    ]
    drops = [
        (events.names[f], REPORT_ORDER[n], calendar.dates[d], r)
        for f, n, d, r in zip(*(column[~studied].tolist() for column in (firm, node, day, reason)))
    ]
    return results, drops


def run_study(cfg: RunConfig) -> StudyOutputs:
    """Run the event study on kept events and write the result files."""
    events_path = cfg.events_path()
    if not events_path.exists():
        raise ConfigError(f"events file {events_path} does not exist; run detect first")
    prices_path = cfg.require_path("prices")
    index_path = cfg.require_path("market_index")
    outdir = cfg.outdir()
    outdir.mkdir(parents=True, exist_ok=True)

    (dates, market), _ = read_market_index(index_path)
    calendar = TradingCalendar(dates)
    events = load_kept_events(events_path, calendar)
    prices, _ = read_prices(prices_path)
    firm_returns = align_firm_returns(prices, calendar)
    market_returns = align_market_returns(dates, market, calendar)

    outputs = _write_study_outputs(
        events, firm_returns, market_returns, calendar, cfg.study, outdir, suffix=""
    )
    if robust_len := cfg.robustness_est_len:
        robust_cfg = dataclasses.replace(
            cfg.study,
            est_len=robust_len,
            min_obs=min(
                cfg.study.min_obs,
                max(3, round(robust_len * cfg.study.min_obs / cfg.study.est_len)),
            ),
        )
        robust_cfg.validate()
        outputs.robustness = _write_study_outputs(
            events, firm_returns, market_returns, calendar, robust_cfg, outdir,
            suffix=f"_est{robust_len}",
        )
    return outputs


def _write_study_outputs(
    events, firm_returns, market_returns, calendar, study_cfg, outdir: Path, suffix: str
) -> StudyOutputs:
    results, drops = study_events(events, firm_returns, market_returns, calendar, study_cfg)
    results_csv = outdir / f"results{suffix}.csv"
    results_text = outdir / f"results{suffix}.txt"
    results_csv.write_text(render_results_csv(results), encoding="utf-8")
    results_text.write_text(render_results_text(results), encoding="utf-8")
    for res in results:
        curve_path = outdir / f"scaar_curve_{res.node.value}{suffix}.csv"
        curve_path.write_text(render_scaar_curve_csv(res), encoding="utf-8")
    drops_path = outdir / f"drops{suffix}.csv"
    with open(drops_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["firm", "node", "date", "reason"])
        for firm, node, day, reason in drops:
            writer.writerow([firm, node.value, day.isoformat(), reason])
    return StudyOutputs(
        results=results, drops=drops, results_csv=results_csv, results_text=results_text
    )


def run_pipeline(cfg: RunConfig) -> tuple[ClassifyOutputs, DetectOutputs, StudyOutputs]:
    classify_out = run_classify(cfg)
    detect_out = run_detect(cfg)
    study_out = run_study(cfg)
    return classify_out, detect_out, study_out
