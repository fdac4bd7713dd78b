"""Seeded input generator for the benchmark workloads.

Everything here is drawn from one numpy PCG64 stream per (workload, seed)
and written in the esgrisk ingest formats. It deliberately does not call
`esgrisk.synth`: a change to the package's own generator must not change
what the benchmark measures. The only package files it reads are the demo
lexicons, which the pipeline-text lexicons extend, so a demo-lexicon edit
shows up as an input-hash mismatch at the gate.

`generate()` returns an expectation record next to the files. The checks
in `workloads.py` compare CLI outputs against it (valid and skipped row
counts, out-of-calendar drops, planted event keys, study accounting).
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DEMO_ESG = REPO / "src" / "esgrisk" / "data" / "esg_lexicon_demo.csv"
DEMO_SENTIMENT = REPO / "src" / "esgrisk" / "data" / "sentiment_lexicon_demo.csv"

SUBCATEGORIES = (
    "ClimateChange", "NaturalCapital", "PollutionAndWaste", "EnvironmentalOpportunities",
    "HumanCapital", "ProductLiability", "StakeholderOpposition", "SocialOpportunities",
    "CorporateGovernance", "CorporateBehavior",
)
PILLAR = {
    **dict.fromkeys(SUBCATEGORIES[:4], "Environment"),
    **dict.fromkeys(SUBCATEGORIES[4:8], "Social"),
    **dict.fromkeys(SUBCATEGORIES[8:], "Governance"),
}
MAX_TERM_TOKENS = 5  # esgrisk.lexicon.MAX_TERM_TOKENS: both matchers scan this deep
WINDOW_LEN = 250  # esgrisk default trailing window; planted spikes sit after it
START = date(2019, 1, 2)
EXCHANGE_TZ = ZoneInfo("America/New_York")

# Shapes per workload. Sized so one operation takes a few seconds on a
# 2-core box, which leaves several operations inside one timed run.
SIZES = {
    "pipeline-text": dict(n_firms=10, n_days=600, msgs_per_firm_day=3.5, spikes_per_firm=3,
                          spike_msgs=40, esg_phrases=1500, senti_phrases=600),
    "detect-sweep": dict(n_firms=40, n_days=600, msgs_per_firm_day=0.8, spikes_per_firm=2,
                         spike_msgs=25),
    "study-panel": dict(n_firms=200, n_days=1000, event_days=4000, nodes_per_event=3),
    "synth-gen": dict(n_firms=10, n_days=300, base_rate=5.0, filler_rate=6.0),
}
WORKLOADS = tuple(SIZES)
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- shared pieces -----------------------------------------------------------


def _calendar(rng: np.random.Generator, n_days: int) -> list[date]:
    """Weekdays from START with about 2% of them dropped as holidays."""
    weekdays = np.busday_offset(np.datetime64(START), np.arange(int(n_days * 1.05) + 10),
                                roll="forward")
    keep = rng.random(weekdays.size) >= 0.02
    keep[0] = True
    return [d.item() for d in weekdays[keep][:n_days]]


def _closes_utc(days: list[date]) -> np.ndarray:
    """Epoch seconds of the 16:00 exchange close before day 0 and on every day."""
    first = [days[0] - timedelta(days=1)]
    return np.array([
        datetime.combine(d, time(16, 0), EXCHANGE_TZ).timestamp() for d in first + days
    ], dtype=np.int64)


def _stamps(rng, closes: np.ndarray, day_idx: np.ndarray) -> np.ndarray:
    """A second inside each day's close-to-close window, so it lands on that day."""
    lower = closes[day_idx]
    span = closes[day_idx + 1] - lower
    return lower + 1 + (rng.random(day_idx.size) * span).astype(np.int64)


def _outside(rng, closes: np.ndarray, n: int) -> np.ndarray:
    """Instants at least two days before the first window or a day after the last close."""
    before = closes[0] - 86400 * rng.integers(2, 60, n)
    after = closes[-1] + 86400 * rng.integers(1, 60, n)
    return np.where(rng.random(n) < 0.5, before, after) - rng.integers(0, 3600, n)


def _iso(epochs: np.ndarray) -> np.ndarray:
    return np.datetime_as_string(epochs.astype("datetime64[s]"))


def _market(rng, n_days: int) -> np.ndarray:
    return rng.normal(0.0003, 0.01, n_days)


def _write_market(path: Path, days: list[date], market: np.ndarray) -> None:
    _write_csv(path, ["date", "return"],
               ((d.isoformat(), repr(float(r))) for d, r in zip(days, market)))


def _write_prices(rng, path: Path, firms: list[str], days: list[date], market: np.ndarray,
                  shocks: dict[tuple[int, int], float]) -> None:
    """Closes only (no return column), with late listings and missing days.

    read_prices derives returns between consecutive rows of a firm, so the
    gaps here are where returns span more than one trading day.
    """
    n_days = len(days)
    rows = []
    for fi, firm in enumerate(firms):
        beta = rng.uniform(0.6, 1.4)
        rets = rng.uniform(-2e-4, 2e-4) + beta * market + rng.normal(0.0, 0.02, n_days)
        for (f, d), shock in shocks.items():
            if f == fi:
                rets[d] += shock
        closes = 50.0 * np.cumprod(1.0 + rets)
        present = rng.random(n_days) >= 0.01
        if rng.random() < 0.15:
            present[: int(rng.integers(30, n_days // 3))] = False  # lists late
        for d in np.flatnonzero(present):
            rows.append((firm, days[d].isoformat(), repr(round(float(closes[d]), 4))))
    _write_csv(path, ["firm", "date", "close"], rows)


def _write_confounds(rng, outdir: Path, firms: list[str], days: list[date],
                     avoid: set[tuple[int, int]]) -> None:
    """Quarterly earnings plus out-of-sample dates, and sparse controversy news.

    Every firm gets one earnings date before the calendar and one after it,
    as real release calendars run past a sample. Confounds keep 10 trading
    days away from planted spikes so the planted events stay kept.
    """
    n_days = len(days)
    earnings, controversy = [], []
    for fi, firm in enumerate(firms):
        near = {d for f, d in avoid if f == fi}

        def clear(d: int) -> bool:
            return all(abs(d - p) > 10 for p in near)

        for d in range(int(rng.integers(0, 63)), n_days, 63):
            if clear(d):
                earnings.append((firm, days[d].isoformat()))
        earnings.append((firm, (days[0] - timedelta(days=int(rng.integers(20, 90)))).isoformat()))
        earnings.append((firm, (days[-1] + timedelta(days=int(rng.integers(20, 90)))).isoformat()))
        for d in rng.integers(0, n_days, 2):
            if clear(int(d)):
                controversy.append((firm, days[int(d)].isoformat()))
    _write_csv(outdir / "earnings.csv", ["firm", "date"], sorted(earnings))
    _write_csv(outdir / "controversy.csv", ["firm", "date"], sorted(controversy))


def _spike_days(rng, n_days: int, count: int) -> list[int]:
    """Distinct spike days after the first full window, at least 30 days apart."""
    slots = np.arange(WINDOW_LEN + 10, n_days - 12, 30)
    return sorted(int(d) + int(rng.integers(0, 5)) for d in rng.choice(slots, count, replace=False))


def _read_demo(path: Path) -> list[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [tuple(row) for row in list(csv.reader(fh))[1:]]


def _words(rng, n: int, banned: set[str]) -> list[str]:
    """n distinct lowercase pseudo-words of 2-4 consonant-vowel syllables."""
    syll = np.array([c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"])
    out: dict[str, None] = {}
    while len(out) < n:
        k = int(rng.integers(2, 5))
        word = "".join(syll[rng.integers(0, syll.size, k)])
        if word not in banned:
            out[word] = None
    return list(out)


def _phrases(rng, vocab: list[str], n: int) -> list[str]:
    """n distinct phrases of 1-5 tokens; about half extend an earlier phrase,
    so longer terms contain shorter ones and a match depth of 5 is used."""
    out: dict[str, None] = {}
    made: list[str] = []
    while len(out) < n:
        length = int(rng.integers(1, MAX_TERM_TOKENS + 1))
        base: list[str] = []
        if made and length > 1 and rng.random() < 0.5:
            base = made[int(rng.integers(0, len(made)))].split()[: length - 1]
        words = base + [vocab[int(i)] for i in rng.integers(0, len(vocab), length - len(base))]
        phrase = " ".join(words)
        if phrase not in out:
            out[phrase] = None
            made.append(phrase)
    return made


# --- pipeline-text -------------------------------------------------------------

_TAGS = ("#ESG", "#Stocks", "#ClimateAction", "#investing", "#NEWS", "#earnings", "#markets")
_ENDS = ("", "", "!", "?", ".", "!!", " ...")


def _pipeline_text(rng, out: Path) -> dict:
    s = SIZES["pipeline-text"]
    n_firms, n_days = s["n_firms"], s["n_days"]
    firms = [f"FIRM{i:02d}" for i in range(n_firms)]
    days = _calendar(rng, n_days)
    closes = _closes_utc(days)

    demo_esg = _read_demo(DEMO_ESG)
    demo_senti = _read_demo(DEMO_SENTIMENT)
    banned = {w for term, _ in demo_esg + demo_senti for w in term.split()}
    pool = _words(rng, 1500, banned)
    filler_vocab, esg_vocab, senti_vocab = pool[:800], pool[800:1200], pool[1200:]

    esg_terms = _phrases(rng, esg_vocab, s["esg_phrases"])
    esg_nodes = [SUBCATEGORIES[int(i)] for i in rng.integers(0, 10, len(esg_terms))]
    esg_rows = demo_esg + list(zip(esg_terms, esg_nodes))
    senti_terms = _phrases(rng, senti_vocab, s["senti_phrases"])
    senti_weights = np.round(rng.uniform(-1.0, 1.0, len(senti_terms)), 2)
    senti_rows = demo_senti + [(t, repr(float(w))) for t, w in zip(senti_terms, senti_weights)]
    _write_csv(out / "esg_lexicon.csv", ["term", "node"], esg_rows)
    _write_csv(out / "sentiment_lexicon.csv", ["term", "weight"], senti_rows)
    all_esg = [t for t, _ in esg_rows]
    all_senti = [t for t, _ in senti_rows]
    demo_by_node: dict[str, list[str]] = {}
    for term, node in demo_esg:
        demo_by_node.setdefault(node, []).append(term)
    negative_words = [t for t, w in demo_senti if float(w) <= -0.5]

    # Mixed case comes from case variants of the filler words.
    fill = np.array(filler_vocab + [w.title() for w in filler_vocab] + [w.upper() for w in filler_vocab[:100]])
    fill_p = np.concatenate([np.full(800, 0.80 / 800), np.full(800, 0.15 / 800), np.full(100, 0.05 / 100)])

    n_bg = int(rng.poisson(s["msgs_per_firm_day"] * n_firms * n_days))
    firm_idx = rng.integers(0, n_firms, n_bg)
    day_idx = rng.integers(0, n_days, n_bg)
    esg_pick = np.where(rng.random(n_bg) < 0.35, rng.integers(0, len(all_esg), n_bg), -1)
    senti_pick = np.where(rng.random(n_bg) < 0.5, rng.integers(0, len(all_senti), n_bg), -1)
    phrase = [all_esg[i] if i >= 0 else "" for i in esg_pick]
    mood = [all_senti[i] if i >= 0 else "" for i in senti_pick]

    spikes: list[tuple[int, str, int]] = []  # (firm, node, day)
    for fi in range(n_firms):
        nodes = rng.choice(len(SUBCATEGORIES), s["spikes_per_firm"], replace=False)
        for node, d in zip(nodes, _spike_days(rng, n_days, s["spikes_per_firm"])):
            spikes.append((fi, SUBCATEGORIES[int(node)], d))
    k = s["spike_msgs"]
    for fi, node, d in spikes:
        firm_idx = np.append(firm_idx, np.full(k, fi))
        day_idx = np.append(day_idx, np.full(k, d))
        terms = demo_by_node[node]
        phrase += [terms[int(i)] for i in rng.integers(0, len(terms), k)]
        mood += [negative_words[int(i)] for i in rng.integers(0, len(negative_words), k)]
    n = firm_idx.size

    n_fill = rng.integers(4, 31, n)
    fill_idx = rng.choice(fill.size, (n, 30), p=fill_p)
    cut = (rng.random(n) * (n_fill + 1)).astype(np.int64)
    cashtag = rng.random(n) < 0.8
    url = np.where(rng.random(n) < 0.3, rng.integers(0, 10**9, n), -1)
    mention = np.where(rng.random(n) < 0.3, rng.integers(0, 5000, n), -1)
    tag = np.where(rng.random(n) < 0.3, rng.integers(0, len(_TAGS), n), -1)
    end = rng.integers(0, len(_ENDS), n)
    texts = []
    for i in range(n):
        words = list(fill[fill_idx[i, : n_fill[i]]])
        c = cut[i]
        parts = ([f"${firms[firm_idx[i]]}"] if cashtag[i] else []) + words[:c]
        if phrase[i]:
            parts.append(phrase[i].title() if c % 4 == 0 else phrase[i])
        parts += words[c:]
        if mood[i]:
            parts.append(mood[i])
        if mention[i] >= 0:
            parts.insert(c // 2, f"@user{mention[i]}")
        if tag[i] >= 0:
            parts.append(_TAGS[tag[i]])
        if url[i] >= 0:
            parts.append(f"https://t.co/{url[i]:x}")
        texts.append(" ".join(parts) + _ENDS[end[i]])

    epochs = _stamps(rng, closes, day_idx)
    n_out = max(1, n // 500)
    out_rows = rng.choice(n, n_out, replace=False)
    spike_rows = np.arange(n_bg, n)
    out_rows = out_rows[~np.isin(out_rows, spike_rows)]
    epochs[out_rows] = _outside(rng, closes, out_rows.size)
    stamp = _iso(epochs)
    style = rng.random(n)
    stamp = np.where(style < 0.3, np.char.add(stamp, "Z"),
                     np.where(style < 0.9, np.char.add(stamp, "+00:00"), stamp))
    order = np.argsort(epochs, kind="stable")
    rows: list[list[str]] = [
        [f"t{j:08d}", firms[firm_idx[i]], str(stamp[i]), texts[i]] for j, i in enumerate(order)
    ]

    # Defects: about 0.5% of rows are skipped by ingest. A duplicate id
    # copies an id from an earlier row, so the later copy is the one skipped.
    n_bad = max(5, n // 200)
    positions = np.sort(rng.integers(1, len(rows), n_bad))
    bad_ts = ("2019-02-30T10:00:00Z", "yesterday", "", "2019-01-05T25:61:00+00:00")
    for j, pos in enumerate(positions[::-1]):
        kind = j % 5
        src = rows[int(rng.integers(0, pos))]
        if kind == 0:
            bad = ["", src[1], src[2], "no id on this row"]
        elif kind == 1:
            bad = [f"x{j:06d}", "", src[2], "no firm on this row"]
        elif kind == 2:
            bad = [f"x{j:06d}", src[1], bad_ts[j % len(bad_ts)], "bad clock"]
        elif kind == 3:
            bad = [src[0], src[1], src[2], "duplicate of an earlier id"]
        else:
            bad = [f"x{j:06d}", src[1]]  # truncated row: no timestamp, no text
        rows.insert(int(pos), bad)
    with open(out / "messages.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "firm", "timestamp", "text"])
        writer.writerows(rows)

    market = _market(rng, n_days)
    _write_market(out / "market_index.csv", days, market)
    _write_prices(rng, out / "prices.csv", firms, days, market,
                  {(f, d): -0.03 for f, _, d in spikes})
    _write_confounds(rng, out, firms, days, {(f, d) for f, _, d in spikes})
    return {
        "valid_messages": n,
        "skipped_rows": n_bad,
        "outside_calendar": int(out_rows.size),
        "planted": sorted((firms[f], node, days[d].isoformat()) for f, node, d in spikes),
    }


# --- detect-sweep ----------------------------------------------------------------


def _detect_sweep(rng, out: Path) -> dict:
    """A classified.csv written directly, in the format classify produces."""
    s = SIZES["detect-sweep"]
    n_firms, n_days = s["n_firms"], s["n_days"]
    firms = [f"F{i:03d}" for i in range(n_firms)]
    days = _calendar(rng, n_days)
    closes = _closes_utc(days)

    n_bg = int(rng.poisson(s["msgs_per_firm_day"] * n_firms * n_days))
    firm_idx = rng.integers(0, n_firms, n_bg)
    day_idx = rng.integers(0, n_days, n_bg)
    # Multi-label node sets: half the messages carry one to three subcategories.
    n_labels = np.where(rng.random(n_bg) < 0.5, rng.integers(1, 4, n_bg), 0)
    label_draw = np.argsort(rng.random((n_bg, len(SUBCATEGORIES))), axis=1)[:, :3]
    scores = np.round(rng.uniform(-0.9, 0.9, n_bg), 4)

    node_sets = []
    for i in range(n_bg):
        picked = sorted(label_draw[i, : n_labels[i]])
        node_sets.append("|".join(SUBCATEGORIES[j] for j in picked))
    score_txt = [repr(float(v)) if ns else "0.0" for v, ns in zip(scores, node_sets)]

    spikes: list[tuple[int, str, int]] = []
    k = s["spike_msgs"]
    for fi in range(n_firms):
        nodes = rng.choice(len(SUBCATEGORIES), s["spikes_per_firm"], replace=False)
        for node, d in zip(nodes, _spike_days(rng, n_days, s["spikes_per_firm"])):
            spikes.append((fi, SUBCATEGORIES[int(node)], d))
            # Some spikes spill into the next day, so merging has work to do.
            width = 2 if rng.random() < 0.5 else 1
            for dd in range(d, d + width):
                firm_idx = np.append(firm_idx, np.full(k, fi))
                day_idx = np.append(day_idx, np.full(k, dd))
                node_sets += [SUBCATEGORIES[int(node)]] * k
                score_txt += [repr(float(v)) for v in np.round(rng.uniform(-0.9, -0.3, k), 4)]
    n = firm_idx.size

    epochs = _stamps(rng, closes, day_idx)
    out_rows = rng.choice(n_bg, max(1, n // 500), replace=False)
    epochs[out_rows] = _outside(rng, closes, out_rows.size)
    stamp = np.char.add(_iso(epochs), "+00:00")
    order = np.argsort(epochs, kind="stable")
    # detect never reads `terms`; lower-cased node names stand in for them.
    rows = [
        [f"c{j:08d}", firms[firm_idx[i]], str(stamp[i]), node_sets[i],
         node_sets[i].lower(), score_txt[i]]
        for j, i in enumerate(order)
    ]
    _write_csv(out / "classified.csv", ["id", "firm", "timestamp", "nodes", "terms", "score"], rows)

    market = _market(rng, n_days)
    _write_market(out / "market_index.csv", days, market)
    _write_prices(rng, out / "prices.csv", firms, days, market,
                  {(f, d): -0.03 for f, _, d in spikes})
    _write_confounds(rng, out, firms, days, {(f, d) for f, _, d in spikes})
    return {
        "classified_rows": n,
        "outside_calendar": int(out_rows.size),
        "planted": sorted((firms[f], node, days[d].isoformat()) for f, node, d in spikes),
    }


# --- study-panel -----------------------------------------------------------------

_EVENT_COLUMNS = ["firm", "node", "date", "count", "share", "sentiment_score",
                  "sign", "kept", "removal_reason", "distance_to_confound"]


def _study_panel(rng, out: Path) -> dict:
    """events.csv over a wide price panel: each event day lists its subcategory,
    pillar and root rows, as detect writes them."""
    s = SIZES["study-panel"]
    n_firms, n_days = s["n_firms"], s["n_days"]
    firms = [f"P{i:03d}" for i in range(n_firms)]
    days = _calendar(rng, n_days)
    market = _market(rng, n_days)
    _write_market(out / "market_index.csv", days, market)

    # Distinct (firm, day) pairs; the last two firms have no prices, and
    # days before 120 leave thin estimation windows.
    n_ev = s["event_days"]
    cell = rng.choice((n_firms + 2) * (n_days - 60), n_ev, replace=False)
    ev_firm, ev_day = cell // (n_days - 60), cell % (n_days - 60) + 60
    ev_node = rng.integers(0, len(SUBCATEGORIES), n_ev)
    all_firms = firms + ["UNLISTED1", "UNLISTED2"]
    _write_prices(rng, out / "prices.csv", firms, days, market,
                  {(int(f), int(d)): -0.02 for f, d in zip(ev_firm, ev_day) if f < n_firms})

    rows = []
    kept = 0
    status = rng.random(n_ev)
    for f, d, node, st in zip(ev_firm, ev_day, ev_node, status):
        sub = SUBCATEGORIES[int(node)]
        for name in (sub, PILLAR[sub], "ESG_ALL")[: s["nodes_per_event"]]:
            count = int(rng.integers(10, 80))
            share = round(float(rng.uniform(0.05, 0.9)), 6)
            score = round(float(rng.uniform(-0.9, 0.9)), 6)
            if st < 0.1:
                flag, reason, dist, sign = "false", "positive_sign", "", "positive"
            elif st < 0.2:
                flag, reason, dist, sign = "false", "confounded_earnings", str(int(rng.integers(-5, 6))), "negative"
            else:
                flag, reason, dist, sign = "true", "", "", "negative"
                kept += 1
            rows.append([all_firms[f], name, days[d].isoformat(), count, repr(share),
                         repr(score), sign, flag, reason, dist])
    _write_csv(out / "events.csv", _EVENT_COLUMNS, rows)
    return {"kept_events": kept}


# --- synth-gen -------------------------------------------------------------------


def _synth_gen(rng, out: Path) -> dict:
    """A corpus-M-shaped `esgrisk synth` config: four planted spikes per firm
    on rotating nodes over positive background chatter."""
    s = SIZES["synth-gen"]
    nodes = ("ClimateChange", "HumanCapital", "CorporateGovernance", "ProductLiability")
    planted = [
        {"firm": f, "node": nodes[(f + k) % 4], "day": 150 + 30 * k + f, "spike": 12.0}
        for f in range(s["n_firms"]) for k in range(4)
    ]
    config = {
        "seed": int(rng.integers(0, 2**31 - 1)),
        "n_firms": s["n_firms"],
        "n_days": s["n_days"],
        "base_rate": s["base_rate"],
        "filler_rate": s["filler_rate"],
        "injected_ar": -0.02,
        "background_sentiment": "positive",
        "planted": planted,
    }
    # JSON is a subset of YAML, so the synth command reads this file as is.
    (out / "synth.yaml").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return {"config": config}


_GENERATORS = {
    "pipeline-text": _pipeline_text,
    "detect-sweep": _detect_sweep,
    "study-panel": _study_panel,
    "synth-gen": _synth_gen,
}


def generate(workload: str, seed: int, outdir: Path) -> dict:
    """Write the inputs of `workload` for `seed` into outdir.

    Returns {"inputs": {file name: sha256}, "expect": {...}}.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([_STREAM[workload], seed])
    expect = _GENERATORS[workload](rng, outdir)
    inputs = {p.name: sha256(p) for p in sorted(outdir.iterdir()) if p.is_file()}
    return {"inputs": inputs, "expect": expect}
