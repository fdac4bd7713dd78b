"""The benchmark's traced run must keep working against the package.

bench/tracing.py swaps wrappers in through each owner's ``__dict__``, so a
function it patches that is renamed or deleted fails here, not only when
the benchmark runs. Tracing must also leave classify's, detect's and the
study's outputs unchanged, and the study's price reading and alignment must
both show in the traced split. Detect scans every series in one ESD call, so
its outlier-day count is checked against a per-row recomputation.
"""

import ast
import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import corpus_paths, make_run_config, naive_esd

import esgrisk.aggregate as aggregate
import esgrisk.ingest as ingest
import esgrisk.lexicon as lexicon
import esgrisk.pipeline as pipeline
import esgrisk.sentiment as sentiment
import esgrisk.study as study
import esgrisk.synth as synth

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (
    aggregate, ingest, lexicon, pipeline, sentiment, study, synth,
    lexicon.TokenMatcher, lexicon.EsgClassifier, sentiment.SentimentScorer,
)

# the tracer's patch points that classify calls or that feed its per-call
# counters, each on the owner it is patched on
PATCHED = {
    pipeline: ("tokenize", "iter_messages", "expand_to_ancestors", "parse_node",
               "assign_trading_index"),
    lexicon.TokenMatcher: ("find",),
    lexicon.EsgClassifier: ("classify_tokens",),
    sentiment.SentimentScorer: ("score_tokens",),
}


# a tracer patch point that the package itself no longer calls
TRACER_ONLY = {("pipeline", "assign_trading_index")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("esgrisk_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def detect_config(std_run, outdir):
    paths = corpus_paths(std_run["corpus_dir"], outdir)
    paths["classified"] = str(std_run["classify"].classified_path)
    return pipeline.run_config_from_dict({"paths": paths})


def test_tracer_installs_restores_and_keeps_events(std_run, tmp_path, monkeypatch):
    tracing = load_tracing()
    stacks = []

    def keep_series(columns, calendar):
        stacks.append(aggregate.build_series(columns, calendar))
        return stacks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "build_series", keep_series)
        cfg = detect_config(std_run, tmp_path / "plain")
        pipeline.run_detect(cfg)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert pipeline.build_series is not before[OWNERS.index(pipeline)]["build_series"]
        pipeline.run_detect(detect_config(std_run, tmp_path / "traced"))
    finally:
        patches.restore()

    for owner, saved in zip(OWNERS, before):
        assert all(vars(owner)[name] is value for name, value in saved.items()), owner
    plain = (tmp_path / "plain" / "events.csv").read_bytes()
    assert plain == (tmp_path / "traced" / "events.csv").read_bytes()
    metrics = tracing.layer_metrics(tracer)
    (stack,) = stacks
    assert metrics["detect.esd.calls"] == tracer.stats["detect.filter_merge"].calls == 1
    assert metrics["aggregate.series"] == len(stack) > 0
    naive_days = sum(len(naive_esd(counts, cfg.detection)) for counts in stack.counts)
    assert metrics["detect.outlier_days"] == naive_days > 0
    assert metrics["detect.kept"] == len(std_run["detect"].kept)


def test_tracer_keeps_study_outputs_and_times_prices(std_run, tmp_path):
    tracing = load_tracing()

    def study(outdir):
        paths = corpus_paths(std_run["corpus_dir"], outdir)
        paths["events"] = str(std_run["detect"].events_path)
        pipeline.run_study(pipeline.run_config_from_dict({"paths": paths}))

    study(tmp_path / "plain")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        study(tmp_path / "traced")
    finally:
        patches.restore()

    for name in ("results.csv", "drops.csv"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert plain == (tmp_path / "traced" / name).read_bytes(), name
    metrics = tracing.layer_metrics(tracer)
    assert metrics["ingest.read_prices.s"] > 0
    assert metrics["study.align.s"] > 0


def test_tracer_keeps_classify_output_and_counts_each_message(std_run, tmp_path):
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        for owner, names in PATCHED.items():
            saved = before[OWNERS.index(owner)]
            assert all(vars(owner)[name] is not saved[name] for name in names), owner
        out = pipeline.run_classify(make_run_config(std_run["corpus_dir"], tmp_path))
    finally:
        patches.restore()

    for owner, saved in zip(OWNERS, before):
        assert all(vars(owner)[name] is value for name, value in saved.items()), owner
    base = std_run["classify"]
    assert out.classified_path.read_bytes() == base.classified_path.read_bytes()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["lexicon.find.calls"] == metrics["lexicon.tokenize.calls"] == out.n_messages > 0
    assert metrics["ingest.messages.s"] > 0
    # one ancestor closure per distinct label set
    with open(out.classified_path, newline="", encoding="utf-8") as fh:
        cells = {row["nodes"] for row in csv.DictReader(fh)}
    assert metrics["taxonomy.expand.calls"] == len(cells) > 1


def test_cli_import_loads_no_process_pool():
    # the pool is imported only by a classify run with parallelism > 1
    code = (
        "import sys, esgrisk.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    src = Path(pipeline.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"


def tracer_module_patches():
    """(module, attribute) for every name bench/tracing.py patches on a module of the package."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    loops = {  # for name in ("a", "b"): p.timed(pipeline, name, ...)
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple)
    }
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("timed", "counted", "producer", "consumer")):
            continue
        owner, attr = node.args[:2]
        if isinstance(owner, ast.Name):  # a module, not a class
            names = loops[attr.id] if isinstance(attr, ast.Name) else [attr.value]
            found += [(owner.id, name) for name in names]
    return found


def called_names(tree, attributes=False):
    """Names a module calls as f(...), and with `attributes` also as x.f(...)."""
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return ({f.id for f in calls if isinstance(f, ast.Name)}
            | {f.attr for f in calls if attributes and isinstance(f, ast.Attribute)})


def test_every_patched_module_name_is_used_by_the_package():
    """A name the tracer patches on a module is called in that module, or is
    defined there and called from another module (an entry point such as
    synth.generate), so no src name lives on only for the tracer."""
    src = Path(pipeline.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    patches = tracer_module_patches()
    assert ("pipeline", "exclude_confounded") in patches and ("synth", "generate") in patches
    for module, name in patches:
        tree = trees[module]
        defined = any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)
        elsewhere = any(name in called_names(other, attributes=True)
                        for stem, other in trees.items() if stem != module)
        used = name in called_names(tree) or (defined and elsewhere)
        assert used != ((module, name) in TRACER_ONLY), (module, name)
