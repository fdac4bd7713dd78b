"""The four workloads: their CLI steps, in-process twins, outputs and checks.

Each workload pushes one layer to most of the run time and bypasses the
others; README.md in this directory says why each exists.

A step is one `esgrisk` CLI child. `steps()` lists them for one operation,
with the output files each step writes; `run_inprocess()` makes the same
calls through the package API so the traced run can be compared with the
CLI byte for byte. `check()` compares an operation's outputs against what
the generator planted, and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Detection settings swept by detect-sweep: label -> CLI flags.
GRID = {
    "z2": ["--z", "2"],
    "z2.5": ["--z", "2.5"],
    "z3": ["--z", "3"],
    "z2-two-sided": ["--z", "2", "--two-sided"],
}


@dataclass(frozen=True)
class Step:
    stage: str  # classify, detect, study or synth
    args: list[str]
    outputs: tuple[str, ...]  # files, relative to the operation's outdir, that are hashed


def _paths(inp: Path, names: dict[str, str]) -> list[str]:
    out: list[str] = []
    for flag, name in names.items():
        out += [flag, str(inp / name)]
    return out


_PIPELINE_INPUTS = {
    "--messages": "messages.csv", "--prices": "prices.csv", "--market-index": "market_index.csv",
    "--earnings": "earnings.csv", "--controversy": "controversy.csv",
    "--esg-lexicon": "esg_lexicon.csv", "--sentiment-lexicon": "sentiment_lexicon.csv",
}
_DETECT_INPUTS = {
    "--classified": "classified.csv", "--prices": "prices.csv",
    "--market-index": "market_index.csv", "--earnings": "earnings.csv",
    "--controversy": "controversy.csv",
}
_STUDY_INPUTS = {"--events": "events.csv", "--prices": "prices.csv", "--market-index": "market_index.csv"}
_STUDY_OUTPUTS = ("results.csv", "results_est90.csv")
SYNTH_FILES = ("messages.csv", "prices.csv", "market_index.csv", "earnings.csv",
               "controversy.csv", "esg_lexicon.csv", "sentiment_lexicon.csv", "ground_truth.json")


def steps(workload: str, inp: Path, out: Path) -> list[Step]:
    if workload == "pipeline-text":
        common = _paths(inp, _PIPELINE_INPUTS) + ["-o", str(out)]
        return [
            Step("classify", ["classify", *common], ("classified.csv",)),
            Step("detect", ["detect", *common], ("events.csv",)),
            Step("study", ["study", *common, "--robustness"], _STUDY_OUTPUTS),
        ]
    if workload == "detect-sweep":
        result = []
        for label, flags in GRID.items():
            common = _paths(inp, _DETECT_INPUTS) + ["-o", str(out / label)]
            result += [
                Step("detect", ["detect", *common, *flags], (f"{label}/events.csv",)),
                Step("study", ["study", *common, "--robustness"],
                     tuple(f"{label}/{name}" for name in _STUDY_OUTPUTS)),
            ]
        return result
    if workload == "study-panel":
        return [Step("study", ["study", *_paths(inp, _STUDY_INPUTS), "-o", str(out), "--robustness"],
                     _STUDY_OUTPUTS)]
    if workload == "synth-gen":
        return [Step("synth", ["synth", "-c", str(inp / "synth.yaml"), "-o", str(out)],
                     SYNTH_FILES)]
    raise KeyError(workload)


# --- in-process twins, for the traced run --------------------------------------


def _config(inp: Path, out: Path, names: dict[str, str], **extra):
    from esgrisk.pipeline import run_config_from_dict

    paths = {flag[2:].replace("-", "_"): str(inp / name) for flag, name in names.items()}
    return run_config_from_dict({"paths": {**paths, "outdir": str(out)}, **extra})


def run_inprocess(workload: str, inp: Path, out: Path, tracer=None) -> None:
    """One operation through the package API; module attributes are looked up
    at call time so traced wrappers, when installed, see every call."""
    import esgrisk.pipeline as pl
    import esgrisk.synth as synth

    if workload == "pipeline-text":
        cfg = _config(inp, out, _PIPELINE_INPUTS, robustness_est_len=90)
        pl.run_classify(cfg)
        pl.run_detect(cfg)
        pl.run_study(cfg)
    elif workload == "detect-sweep":
        for label, flags in GRID.items():
            detection = {"z": float(flags[1]), "two_sided": "--two-sided" in flags}
            cfg = _config(inp, out / label, _DETECT_INPUTS, detection=detection,
                          robustness_est_len=90)
            pl.run_detect(cfg)
            pl.run_study(cfg)
    elif workload == "study-panel":
        pl.run_study(_config(inp, out, _STUDY_INPUTS, robustness_est_len=90))
    elif workload == "synth-gen":
        raw = json.loads((inp / "synth.yaml").read_text(encoding="utf-8"))
        synth.generate(synth.synth_config_from_dict(raw), out)
        if tracer is not None:
            tracer.counts["synth.messages"] += _data_rows(out / "messages.csv")
    else:
        raise KeyError(workload)


# --- checks ------------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _event_keys(path: Path) -> set[tuple[str, str, str]]:
    return {(r["firm"], r["node"], r["date"]) for r in _rows(path)}


def _studied(results_csv: Path) -> int:
    """Events behind each node's statistics, summed over nodes."""
    per_node = {r["node"]: int(r["n"]) for r in _rows(results_csv)}
    return sum(per_node.values())


def _outside(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("dropped ") and "outside the calendar" in line:
            return int(line.split()[1])
    return 0


def check(workload: str, expect: dict, out: Path, stdouts: list[str]) -> list[str]:
    """Problems with one operation's outputs; stdouts holds each step's standard output."""
    problems: list[str] = []
    if workload == "pipeline-text":
        report = json.loads((out / "ingest_report_messages.json").read_text(encoding="utf-8"))
        if report["valid_rows"] != expect["valid_messages"]:
            problems.append(f"valid messages {report['valid_rows']} != {expect['valid_messages']}")
        if report["skipped_rows"] != expect["skipped_rows"]:
            problems.append(f"skipped rows {report['skipped_rows']} != {expect['skipped_rows']}")
        if _data_rows(out / "classified.csv") != expect["valid_messages"]:
            problems.append("classified.csv row count differs from the valid message count")
        if _outside(stdouts[1]) != expect["outside_calendar"]:
            problems.append(f"outside-calendar drops {_outside(stdouts[1])} != {expect['outside_calendar']}")
        problems += _planted(expect, out / "events.csv")
        problems += _study_accounts(out, _kept(out / "events.csv"))
    elif workload == "detect-sweep":
        for i, label in enumerate(GRID):
            if _outside(stdouts[2 * i]) != expect["outside_calendar"]:
                problems.append(f"{label}: outside-calendar drops differ from the planted count")
            problems += [f"{label}: {p}" for p in _planted(expect, out / label / "events.csv")]
            problems += [f"{label}: {p}"
                         for p in _study_accounts(out / label, _kept(out / label / "events.csv"))]
    elif workload == "study-panel":
        problems += _study_accounts(out, expect["kept_events"])
    elif workload == "synth-gen":
        problems += _synth_structure(expect["config"], out)
    return problems


def _planted(expect: dict, events_csv: Path) -> list[str]:
    missing = {tuple(k) for k in expect["planted"]} - _event_keys(events_csv)
    return [f"planted event {k} not detected" for k in sorted(missing)]


def _kept(events_csv: Path) -> int:
    return sum(1 for r in _rows(events_csv) if r["kept"] == "true")


def _study_accounts(out: Path, kept: int) -> list[str]:
    """Every kept event is either studied under each node or logged as dropped, in both passes."""
    problems = []
    for suffix in ("", "_est90"):
        studied = _studied(out / f"results{suffix}.csv")
        dropped = _data_rows(out / f"drops{suffix}.csv")
        if studied + dropped != kept:
            problems.append(f"results{suffix}: studied {studied} + dropped {dropped} != kept {kept}")
        if kept and not studied:
            problems.append(f"results{suffix}: no event was studied")
    return problems


def _synth_structure(config: dict, out: Path) -> list[str]:
    """Structure, not bytes: a redrawn generator is still correct if these hold."""
    from esgrisk.ingest import (EventKind, IngestReport, iter_messages, read_calendar_events,
                                read_market_index, read_prices)

    problems = []
    report = IngestReport(path="messages.csv")
    n_messages = sum(1 for _ in iter_messages(out / "messages.csv", report=report))
    reports = [report, read_prices(out / "prices.csv")[1], read_market_index(out / "market_index.csv")[1],
               read_calendar_events(out / "earnings.csv", EventKind.EARNINGS)[1],
               read_calendar_events(out / "controversy.csv", EventKind.CONTROVERSY)[1]]
    for rep in reports:
        if rep.skips_total:
            problems.append(f"{Path(rep.path).name}: {rep.skips_total} rows skipped on ingest")

    # Ground truth: each planted spike expands to its node, pillar and root.
    from esgrisk.taxonomy import expand_to_ancestors, parse_node

    start = np.datetime64(config.get("start", "2018-01-01"))  # SynthConfig's default start
    days = np.busday_offset(start, np.arange(config["n_days"]), roll="forward").astype(str)
    want = {
        (f"FIRM{p['firm']:02d}", node.value, days[p["day"]])
        for p in config["planted"] for node in expand_to_ancestors({parse_node(p["node"])})
    }
    truth = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    got = {(t["firm"], t["node"], t["date"]) for t in truth["truth"]}
    if got != want:
        problems.append(f"ground-truth keys differ from the config ({len(got)} vs {len(want)})")

    # Message count is a sum of Poissons: allow six standard deviations.
    background = {}
    for p in config["planted"]:
        background.setdefault(p["firm"], set()).add(p["node"])
    mean = sum(
        config["n_days"] * (config["filler_rate"] + config["base_rate"] * len(background.get(f, ())))
        for f in range(config["n_firms"])
    ) + sum(config["base_rate"] * p["spike"] for p in config["planted"])
    if abs(n_messages - mean) > 6 * math.sqrt(mean):
        problems.append(f"{n_messages} messages, expected {mean:.0f} +- {6 * math.sqrt(mean):.0f}")
    return problems


def items(workload: str, expect: dict, out: Path) -> tuple[str, float]:
    """Throughput numerator of one operation: (name, count)."""
    if workload == "pipeline-text":
        return "msgs_per_s", expect["valid_messages"]
    if workload == "detect-sweep":
        return "msgs_per_s", expect["classified_rows"] * len(GRID)
    if workload == "study-panel":
        studied = sum(_studied(out / f"results{s}.csv") for s in ("", "_est90"))
        return "events_per_s", studied
    return "msgs_per_s", _data_rows(out / "messages.csv")
