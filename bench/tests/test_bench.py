"""Tests of the benchmark itself: generator, gate, tracer arithmetic, names.

Run with `python -m pytest bench/tests` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run_bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Names as the benchmark's issue lists them.
ISSUE_WORKLOADS = ["pipeline-text", "detect-sweep", "study-panel", "synth-gen"]
ISSUE_LAYER_METRICS = """
ingest.messages.s ingest.parse_timestamp.s ingest.rows ingest.skipped ingest.read_prices.s
ingest.read_market_index.s ingest.read_calendar.s lexicon.tokenize.s lexicon.tokenize.calls
lexicon.tokens lexicon.find.calls lexicon.classify.s lexicon.labeled_ratio sentiment.score.s
sentiment.matched_ratio pipeline.classify.self_s pipeline.detect.read_s pipeline.detect.self_s
pipeline.study.load_events_s pipeline.study_events.self_s trading.assign.s trading.assign.calls
trading.outside_calendar taxonomy.parse_node.calls taxonomy.parse_node.s taxonomy.expand.calls
taxonomy.expand.s aggregate.build_series.self_s aggregate.series detect.esd.s detect.esd.calls
detect.outlier_days detect.filter_merge.s detect.events detect.merge_ratio detect.confound.s
detect.confounded detect.kept study.align.s study.abnormals.s study.abnormals.calls study.fit.s
study.fit.calls study.aggregate.s study.dropped study.studied_ratio report.render.s report.bytes
synth.generate.s synth.messages cli.startup_s
""".split()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert first == again
    assert first["inputs"].keys() == other["inputs"].keys()
    changed = [name for name in first["inputs"] if first["inputs"][name] != other["inputs"][name]]
    assert changed, "a different seed must give different inputs"


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_pinned_seed_inputs_match_pins(workload, tmp_path):
    pins = json.loads(run_bench.PINS.read_text(encoding="utf-8"))[workload]
    assert gen.generate(workload, pins["seed"], tmp_path)["inputs"] == pins["inputs"]


def test_gate_fires_on_one_byte_change(tmp_path):
    made = gen.generate("study-panel", 3, tmp_path / "inputs")
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "inputs", copy)
    hashes = {name: gen.sha256(copy / name) for name in made["inputs"]}
    tally = run_bench.Tally()
    run_bench.compare("output", hashes, made["inputs"], tally)
    assert tally.failed == 0

    data = bytearray((copy / "events.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / "events.csv").write_bytes(bytes(data))
    hashes = {name: gen.sha256(copy / name) for name in made["inputs"]}
    run_bench.compare("output", hashes, made["inputs"], tally)
    assert tally.failed == 1
    assert "events.csv" in tally.problems[0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_toy_call_tree():
    # stage [0, 10] holds a [1, 4] and b [5, 9]; a holds leaf [2, 3] twice over.
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    script = [
        (0, "enter", "stage"), (1, "enter", "a"), (2, "enter", "leaf"), (2.5, "exit", None),
        (2.5, "enter", "leaf"), (3, "exit", None), (4, "exit", None), (5, "enter", "b"),
        (9, "exit", None), (10, "exit", None),
    ]
    for now, op, name in script:
        clock.now = now
        if op == "enter":
            t.enter(name, record=name != "leaf")
        else:
            t.exit()
    assert t.stats["stage"].total == 10 and t.stats["stage"].self_time == 3
    assert t.stats["a"].total == 3 and t.stats["a"].self_time == 2
    assert t.stats["leaf"].calls == 2 and t.stats["leaf"].total == 1
    assert t.stats["b"].self_time == 4
    names = [(s.name, s.start, s.end, s.parent) for s in t.spans]
    assert names == [("stage", 0, 10, None), ("a", 1, 4, 0), ("b", 5, 9, 0)]


def test_iterator_time_is_charged_to_the_producer():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def produce():
        for i in range(3):
            clock.now += 2  # producing each item takes 2
            yield i

    t.enter("consumer")
    for _ in t.iterate("producer", produce()):
        clock.now += 1  # consuming each item takes 1
    t.exit()
    assert t.stats["producer"].total == 6
    assert t.stats["consumer"].total == 9 and t.stats["consumer"].self_time == 3


def test_names_match_the_issue():
    assert [w["name"] for w in SPEC["workloads"]] == ISSUE_WORKLOADS
    assert list(gen.WORKLOADS) == ISSUE_WORKLOADS
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert set(ISSUE_LAYER_METRICS) <= set(layer)
    produced = set(tracing.layer_metrics(tracing.Tracer()))
    produced |= {"cli.startup_s", "cli.startup_rss_mb", "trace.wall_s", "trace.overhead_s"}
    assert produced == set(layer)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert list(e2e) == list(run_bench.END_TO_END)
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(e2e[n]["unit"] == u for n, u in run_bench.END_TO_END.items())
    assert set(run_bench.FOCUS) == set(ISSUE_WORKLOADS)
