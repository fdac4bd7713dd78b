"""Benchmark for the esgrisk pipeline.

    python3 bench/run_bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run_bench.py --workload all     # every workload, untraced and traced
    python3 bench/run_bench.py --write-pins       # re-record bench/pins.json

Run it from the repository root. The package is not installed: children run
`python -m esgrisk.cli` with `src` on PYTHONPATH, one at a time, and are
timed from outside; their peak RSS comes from os.wait4 (see spawn.py).

Each run generates its inputs from --seed (several times; the median is
`setup_s`), then runs the gate: the inputs of the pinned seed are
generated and their sha256 compared with pins.json, one operation runs on
them as a warm-up and its outputs are compared with the pinned output
hashes. Then operations on the run's own inputs repeat for --seconds; each
must reproduce the first one's outputs byte for byte, and the first is
checked against what the generator planted.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of an in-process run with traced wrappers (tracing.py), whose
outputs must match the CLI's byte for byte. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
PINS = BENCH / "pins.json"
PIN_SEED = 0
SETUP_REPEATS = 3  # at least; more while the repeats total under SETUP_MIN_S
SETUP_MIN_S = 0.5
STARTUP_REPEATS = 3

sys.path[:0] = [str(BENCH), str(SRC)]

import gen  # noqa: E402
import workloads as wl  # noqa: E402

# End-to-end metrics. stage_s is the child time of the stage each workload
# exists for (FOCUS); rate_per_s is messages/s or events/s (workloads.items).
END_TO_END = {
    "wall_s": "s", "stage_s": "s", "rate_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}
FOCUS = {"pipeline-text": "classify", "detect-sweep": "detect", "study-panel": "study",
         "synth-gen": "synth"}


@dataclass
class Child:
    stage: str
    wall: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Operation:
    wall: float
    children: list[Child]
    hashes: dict[str, str]
    complete: bool  # every step ran and exited 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def compare(kind: str, got: dict[str, str], want: dict[str, str], tally: Tally) -> None:
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            tally.fail(f"{kind} {name}: sha256 {got.get(name)} != pinned {want.get(name)}")


class Spawner:
    """Client of spawn.py; close() ends it and waits for it."""

    def __init__(self):
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], log: Path) -> Child:
        out, err = log.with_suffix(".out"), log.with_suffix(".err")
        request = {"args": [sys.executable, "-m", "esgrisk.cli", *args], "env": self._env,
                   "cwd": str(REPO), "stdout": str(out), "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        stdout = out.read_text(encoding="utf-8", errors="replace")
        return Child(args[0], reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"], stdout)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


class Bench:
    """One benchmark run of one workload inside its own work directory."""

    def __init__(self, workload: str, work: Path, spawner: Spawner):
        self.workload = workload
        self.work = work
        self.spawner = spawner
        self.tally = Tally()

    def operation(self, inp: Path, out: Path) -> Operation:
        """One workload operation: its CLI steps in order, stopping at the first failure."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        children: list[Child] = []
        hashes: dict[str, str] = {}
        start = time.perf_counter()
        for i, step in enumerate(wl.steps(self.workload, inp, out)):
            self.tally.attempted += 1
            child = self.spawner.run(step.args, out / f"step{i}")
            children.append(child)
            if child.code != 0:
                err = (out / f"step{i}.err").read_text(encoding="utf-8", errors="replace")
                self.tally.fail(f"{step.stage} exited {child.code}: {err.strip()[-300:]}")
                return Operation(time.perf_counter() - start, children, hashes, False)
            hashes.update({name: gen.sha256(out / name) for name in step.outputs})
        return Operation(time.perf_counter() - start, children, hashes, True)

    def check(self, expect: dict, out: Path, op: Operation) -> None:
        if op.complete:
            for problem in wl.check(self.workload, expect, out, [c.stdout for c in op.children]):
                self.tally.fail(problem)

    def setup(self, seed: int) -> tuple[Path, dict, list[float]]:
        """Generate the run's inputs repeatedly; every repeat must hash the same.

        Small input sets repeat until SETUP_MIN_S has passed, so their median
        is not one millisecond-scale sample of file-system noise.
        """
        times, first = [], None
        inp = self.work / "inputs"
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            if inp.exists():
                shutil.rmtree(inp)
            start = time.perf_counter()
            made = gen.generate(self.workload, seed, inp)
            times.append(time.perf_counter() - start)
            if first is None:
                first = made
            elif made["inputs"] != first["inputs"]:
                self.tally.fail("input generation is not deterministic")
        return inp, first, times

    def gate(self) -> None:
        """Pinned inputs and outputs of PIN_SEED; the operation doubles as warm-up."""
        pins = json.loads(PINS.read_text(encoding="utf-8"))[self.workload]
        inp = self.work / "gate-inputs"
        made = gen.generate(self.workload, pins["seed"], inp)
        self.tally.attempted += 1
        compare("input", made["inputs"], pins["inputs"], self.tally)
        out = self.work / "gate"
        op = self.operation(inp, out)
        if self.workload != "synth-gen":  # synth is checked by structure: a redraw is legitimate
            compare("output", op.hashes, pins["outputs"], self.tally)
        self.check(made["expect"], out, op)
        shutil.rmtree(inp)

    def timed(self, inp: Path, expect: dict, seconds: float) -> list[Operation]:
        """Operations back to back until the next one would overrun `seconds`."""
        ops: list[Operation] = []
        start = time.perf_counter()
        while True:
            out = self.work / "run"
            op = self.operation(inp, out)
            if not ops:
                self.check(expect, out, op)
            elif op.hashes != ops[0].hashes:
                self.tally.fail("outputs differ between operations on the same inputs")
            ops.append(op)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(o.wall for o in ops) > seconds:
                return ops

    def traced(self, inp: Path, expect: dict, seconds: float, seed: int) -> dict[str, float]:
        """Per-layer metrics: untraced and traced in-process operations alternate,
        after one untimed warm-up, and each must reproduce the CLI operation's
        outputs byte for byte."""
        import tracing

        # The CLI's skip warnings go to its stderr file; keep them off ours.
        logging.getLogger("esgrisk").addHandler(logging.NullHandler())
        ref = self.operation(inp, self.work / "run")
        self.check(expect, self.work / "run", ref)

        def inproc(tracer, traced_run: bool) -> float:
            out = self.work / "inproc"
            if out.exists():
                shutil.rmtree(out)
            patches = tracing.install(tracer) if traced_run else None
            start = time.perf_counter()
            try:
                wl.run_inprocess(self.workload, inp, out, tracer)
            finally:
                if patches is not None:
                    patches.restore()
            wall = time.perf_counter() - start
            self.tally.attempted += 1
            if {name: gen.sha256(out / name) for name in ref.hashes} != ref.hashes:
                kind = "traced" if traced_run else "in-process"
                self.tally.fail(f"{kind} outputs differ from the CLI's")
            return wall

        inproc(tracing.Tracer(), False)
        samples: list[dict] = []
        plain: list[float] = []
        spans = []
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer(run_id=len(samples))
            plain.append(inproc(tracing.Tracer(), False))
            wall = inproc(tracer, True)
            samples.append({**tracing.layer_metrics(tracer), "trace.wall_s": wall})
            spans += [vars(s) for s in tracer.spans]
            if time.perf_counter() - start + plain[-1] + samples[-1]["trace.wall_s"] > seconds:
                break

        metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        startup = [self.spawner.run(["--help"], self.work / f"startup{i}")
                   for i in range(STARTUP_REPEATS)]
        self.tally.attempted += STARTUP_REPEATS
        for child in startup:
            if child.code != 0:
                self.tally.fail(f"esgrisk --help exited {child.code}")
        metrics["cli.startup_s"] = statistics.median(c.wall for c in startup)
        metrics["cli.startup_rss_mb"] = statistics.median(c.rss_mb for c in startup)
        (WORK / f"spans-{self.workload}-{seed}.json").write_text(json.dumps(spans),
                                                                 encoding="utf-8")
        return metrics


def upper(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it; the max below 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    pct = int(100 * (1 - 10 / n))
    return f"p{pct}", ordered[max(0, int(n * pct / 100) - 1)]


def end_to_end(workload: str, expect: dict, run_out: Path, ops: list[Operation],
               setup_times: list[float]) -> tuple[dict, list[str]]:
    """Contract metrics plus the human-readable per-stage table."""
    walls = [op.wall for op in ops]
    by_stage: dict[str, list[float]] = {}
    for op in ops:
        for child in op.children:
            by_stage.setdefault(child.stage, []).append(child.wall)
    rate_name, count = wl.items(workload, expect, run_out)
    rates = [count / w for w in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "stage_s": statistics.median(by_stage[FOCUS[workload]]),
        "rate_per_s": statistics.median(rates),
        "peak_rss_mb": max(c.rss_mb for op in ops for c in op.children),
        "setup_s": statistics.median(setup_times),
    }
    lines = []

    def row(name, unit, values):
        tag, top = upper(values)
        lines.append(f"  {name:<14} {statistics.median(values):>14.4f} {unit:<6} "
                     f"{tag} {top:.4f}  n={len(values)}")

    row("wall_s", "s", walls)
    for stage, values in by_stage.items():
        row(f"{stage}_s", "s", values)
    row(rate_name, "1/s", rates)
    row("peak_rss_mb", "MB", [max(c.rss_mb for c in op.children) for op in ops])
    row("setup_s", "s", setup_times)
    return metrics, lines


def environment() -> list[str]:
    commit = "unknown"
    if (REPO / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    import numpy

    src_lines = 0
    for path in sorted((SRC / "esgrisk").glob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  nproc {os.cpu_count()}"
        f"  loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}",
        f"commit {commit}  src/esgrisk lines {src_lines} (informational)",
    ]


def per_layer_units() -> dict[str, str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    spawner = Spawner()
    bench = Bench(workload, work, spawner)
    try:
        inp, made, setup_times = bench.setup(seed)
        bench.gate()
        for line in environment():
            print(line)
        if trace:
            values = bench.traced(inp, made["expect"], seconds, seed)
            units = per_layer_units()
            metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
            print(f"{workload} per-layer (traced, in-process):")
            for n, u in units.items():
                print(f"  {n:<32} {values[n]:>16.6f} {u}")
        else:
            ops = bench.timed(inp, made["expect"], seconds)
            values, lines = end_to_end(workload, made["expect"], work / "run", ops, setup_times)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
            print(f"{workload} end-to-end (median, upper percentile, samples):")
            print("\n".join(lines))
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    tally = bench.tally
    print(f"  {'fail_ratio':<14} {tally.failed / tally.attempted:>14.4f} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def write_pins() -> None:
    """Record PIN_SEED's input and output hashes for every workload."""
    pins = {}
    spawner = Spawner()
    try:
        for workload in gen.WORKLOADS:
            work = WORK / f"pin-{workload}"
            bench = Bench(workload, work, spawner)
            made = gen.generate(workload, PIN_SEED, work / "inputs")
            op = bench.operation(work / "inputs", work / "run")
            bench.check(made["expect"], work / "run", op)
            if bench.tally.failed:
                raise SystemExit(f"{workload}: {bench.tally.problems}")
            pins[workload] = {"seed": PIN_SEED, "inputs": made["inputs"],
                              "outputs": {} if workload == "synth-gen" else op.hashes}
            shutil.rmtree(work)
    finally:
        spawner.close()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "esgrisk" / "cli.py").is_file():
        print(f"esgrisk sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            status |= run(workload, args.seed, args.seconds, trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
