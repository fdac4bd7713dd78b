import ast
import csv
import filecmp
import re
import tracemalloc
from datetime import date, timedelta
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import corpus_paths, make_run_config

import esgrisk.ingest as ingest
import esgrisk.pipeline as pipeline
from esgrisk.aggregate import label_mask
from esgrisk.demodata import demo_esg_lexicon_path, demo_sentiment_lexicon_path
from esgrisk.errors import ConfigError, DataError
from esgrisk.ingest import parse_timestamp
from esgrisk.lexicon import EsgClassifier, load_esg_lexicon, tokenize
from esgrisk.pipeline import (
    CLASSIFIED_COLUMNS,
    _ClassifyEngine,
    EVENT_COLUMNS,
    KeptEvents,
    load_kept_events,
    load_run_config,
    run_classify,
    run_config_from_dict,
    run_detect,
    run_study,
    study_events,
    write_resolved_config,
)
from esgrisk.sentiment import SentimentScorer, Sign, load_sentiment_lexicon
from esgrisk.synth import Confound, PlantedEvent, SynthConfig, evaluate_detection, generate
from esgrisk.taxonomy import REPORT_ORDER, Node, expand_to_ancestors, node_sort_key
from esgrisk.study import EstimationConfig, aggregate_node, compute_event_abnormals
from esgrisk.trading import TradingCalendar, epoch_us


def test_run_config_defaults():
    cfg = run_config_from_dict({})
    assert cfg.detection.z == 2.0
    assert cfg.detection.window_len == 250
    assert cfg.study.est_len == 120
    assert cfg.study.est_end == -2
    assert cfg.sentiment_threshold == 0.05
    assert cfg.source_tz == "UTC"
    assert cfg.exchange_tz == "America/New_York"
    assert cfg.parallelism == 1
    assert cfg.robustness_est_len is None
    assert cfg.paths.outdir == "out"


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="paths"):
        run_config_from_dict({"paths": {"messges": "x.csv"}})
    with pytest.raises(ConfigError, match="detection"):
        run_config_from_dict({"detection": {"zscore": 3}})
    with pytest.raises(ConfigError, match="study"):
        run_config_from_dict({"study": {"estimation_length": 90}})
    with pytest.raises(ConfigError, match="run"):
        run_config_from_dict({"threshold": 0.1})


def test_run_config_coerces_windows():
    cfg = run_config_from_dict(
        {"study": {"event_windows": [[-2, 0], [-1, 1]], "saar_offsets": [-1, 0, 1, 2]}}
    )
    assert cfg.study.event_windows == ((-2, 0), (-1, 1))
    assert cfg.study.saar_offsets == (-1, 0, 1, 2)


def test_run_config_numbers():
    # an int widens to a float; PyYAML hands 5e-2 over as a string
    cfg = run_config_from_dict({"detection": {"z": 2, "min_share": "5e-2"}})
    assert type(cfg.detection.z) is float and cfg.detection.z == 2.0
    assert cfg.detection.min_share == 0.05
    for raw in ({"detection": {"z": "nan"}}, {"detection": {"min_tweets": True}}):
        with pytest.raises(ConfigError, match="bad detection config: detection"):
            run_config_from_dict(raw)


def test_run_config_validates_sections():
    with pytest.raises(ConfigError):
        run_config_from_dict({"detection": {"z": 0}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"parallelism": 0})


def test_load_run_config_merges_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "detection:\n  z: 2.5\n  min_tweets: 15\npaths:\n  outdir: from_file\n",
        encoding="utf-8",
    )
    cfg = load_run_config(path, {"detection": {"z": 3.0}})
    assert cfg.detection.z == 3.0
    assert cfg.detection.min_tweets == 15  # untouched by the override
    assert cfg.paths.outdir == "from_file"


def test_load_run_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("detection: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_run_config(listy)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_run_config(empty).detection.z == 2.0


def yaml_texts():
    """README's YAML blocks and every YAML config text written in the tests."""
    tests = Path(__file__).parent
    texts = re.findall(r"^```yaml\n(.*?)^```", (tests.parent / "README.md").read_text(encoding="utf-8"),
                       re.MULTILINE | re.DOTALL)
    for path in sorted(tests.glob("*.py")):
        texts += [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.endswith("\n") and re.search(r"^(- )?\w+:( |$)", node.value, re.MULTILINE)]
    return texts


def load_or_error(text, loader):
    try:
        if any(isinstance(e, yaml.ScalarEvent) and e.tag == "!" and not e.value
               for e in yaml.parse(text, Loader=loader)):
            return "empty value tagged '!'"  # which read_yaml_mapping refuses
        return repr(yaml.load(text, Loader=loader))  # repr: nan compares equal to itself
    except (yaml.YAMLError, ValueError):  # what read_yaml_mapping reports as bad YAML
        return "bad YAML"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_libyaml_and_pure_safe_loaders_agree():
    texts = yaml_texts()
    assert len(texts) > 50
    for text in texts:
        assert load_or_error(text, yaml.CSafeLoader) == load_or_error(text, yaml.SafeLoader), text


def test_read_yaml_mapping_with_the_pure_loader(tmp_path, monkeypatch):
    """Without libyaml, configs are read by PyYAML's pure SafeLoader."""
    path = tmp_path / "synth.yaml"
    path.write_text("start: 2019-06-03\nplanted:\n  - {firm: 0, node: ClimateChange, spike: .inf}\n",
                    encoding="utf-8")
    expected = {"start": date(2019, 6, 3),
                "planted": [{"firm": 0, "node": "ClimateChange", "spike": float("inf")}]}
    assert pipeline.read_yaml_mapping(path) == expected
    monkeypatch.setattr(pipeline, "_SAFE_LOADER", yaml.SafeLoader)
    assert pipeline.read_yaml_mapping(path) == expected
    path.write_text("detection: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad YAML"):
        pipeline.read_yaml_mapping(path)


@pytest.mark.parametrize("loader", sorted({getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader},
                                           key=lambda cls: cls.__name__))
@pytest.mark.parametrize("text, line", [("seed: 3\nplanted: !\n", 2), ("!", 1)],
                         ids=["planted", "whole-file"])
def test_empty_value_tagged_bang_is_refused(tmp_path, monkeypatch, loader, text, line):
    """libyaml reads an empty `!` value as '' and the pure loader as null, so both refuse it."""
    path = tmp_path / "synth.yaml"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(pipeline, "_SAFE_LOADER", loader)
    with pytest.raises(ConfigError, match=rf"synth\.yaml:{line}: empty value tagged '!'"):
        pipeline.read_yaml_mapping(path)


def test_require_path(tmp_path):
    cfg = run_config_from_dict({"paths": {"outdir": str(tmp_path)}})
    with pytest.raises(ConfigError, match="paths.messages"):
        cfg.require_path("messages")
    cfg = run_config_from_dict(
        {"paths": {"messages": str(tmp_path / "nope.csv"), "outdir": str(tmp_path)}}
    )
    with pytest.raises(ConfigError, match="does not exist"):
        cfg.require_path("messages")


def test_resolved_config_round_trips(tmp_path):
    cfg = make_run_config(tmp_path, tmp_path / "out", detection={"z": 2.5}, parallelism=2)
    path = write_resolved_config(cfg, tmp_path / "out")
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    assert run_config_from_dict(raw) == cfg


def test_classify_outputs(std_run):
    out = std_run["classify"]
    assert out.classified_path.exists()
    with open(out.classified_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == CLASSIFIED_COLUMNS
        n_rows = sum(1 for _ in reader)
    assert n_rows == out.n_messages
    assert out.report.valid_rows == out.n_messages
    assert (std_run["outdir"] / "ingest_report_messages.json").exists()


def test_classify_counts_roll_up(std_run):
    counts = std_run["classify"].node_counts
    # planted subcategories chatter every day, so all are populated
    for node in (Node.CLIMATE_CHANGE, Node.HUMAN_CAPITAL, Node.CORPORATE_GOVERNANCE, Node.PRODUCT_LIABILITY):
        assert counts[node] > 0
    assert counts[Node.ENVIRONMENT] >= counts[Node.CLIMATE_CHANGE]
    assert counts[Node.SOCIAL] >= counts[Node.HUMAN_CAPITAL] + counts[Node.PRODUCT_LIABILITY]
    assert counts[Node.ESG_ALL] >= max(counts[Node.ENVIRONMENT], counts[Node.SOCIAL], counts[Node.GOVERNANCE])
    # nothing was planted on the remaining subcategories
    assert counts[Node.POLLUTION_AND_WASTE] == 0


def test_detect_finds_planted_events(std_run):
    detect = std_run["detect"]
    truth = std_run["truth"]
    kept_keys = [(e.firm, e.node, e.day_index) for e in detect.kept]
    truth_keys = [(firm, node, detect.calendar.index_of(day)) for firm, node, day in truth.negative_keys()]
    score = evaluate_detection(kept_keys, truth_keys, tolerance=1)
    assert score.n_truth == 12  # 4 planted subcategory spikes, each with 2 ancestors
    assert score.recall == 1.0
    assert score.precision == 1.0
    assert all(e.sign is Sign.NEGATIVE for e in detect.kept)
    assert all(e.count >= 10 and e.share >= 0.05 for e in detect.kept)


def test_detect_events_csv_schema(std_run):
    with open(std_run["detect"].events_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == EVENT_COLUMNS
        rows = list(reader)
    assert rows
    for row in rows:
        assert row["kept"] in ("true", "false")
        assert row["sign"] in ("negative", "positive")
        assert row["removal_reason"] in ("", "confounded_earnings", "confounded_controversy", "positive_sign")
        if row["kept"] == "true":
            assert row["removal_reason"] == ""
        date.fromisoformat(row["date"])
        assert int(row["count"]) >= 10
        assert 0.0 < float(row["share"]) <= 1.0


def test_detect_summary_files(std_run):
    outdir = std_run["outdir"]
    with open(outdir / "event_counts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 14
    assert sum(int(r["count"]) for r in rows) == len(std_run["detect"].kept)
    assert (outdir / "removal_histogram.csv").exists()


def test_load_kept_events_matches_outputs(std_run):
    calendar, kept = std_run["detect"].calendar, std_run["detect"].kept
    events = load_kept_events(std_run["detect"].events_path, calendar)
    assert events.names == list(dict.fromkeys(e.firm for e in kept))
    assert [events.names[f] for f in events.firm.tolist()] == [e.firm for e in kept]
    assert events.node.tolist() == [node_sort_key(e.node) for e in kept]
    assert events.day.tolist() == [calendar.index_of(e.day) for e in kept]


def oracle_study_events(event_keys, firm_returns, market_returns, calendar, config):
    """The former study_events on (firm, node, date) tuples: a Python sort key,
    a dict of distinct (firm, date) and one calendar lookup per key."""
    firms, returns = firm_returns
    row_of = {firm: i for i, firm in enumerate(firms)}
    keys = sorted(event_keys, key=lambda k: (k[0], node_sort_key(k[1]), k[2]))
    stacked = {}
    for firm, _, day in keys:
        if firm in row_of:
            stacked.setdefault((firm, day), len(stacked))
    rows = np.array([row_of[firm] for firm, _ in stacked], dtype=np.intp)
    days = np.array([calendar.index_of(day) for _, day in stacked], dtype=np.intp)
    abnormals = compute_event_abnormals(returns, market_returns, rows, days, config)
    by_node, drops = {}, []
    for firm, node, day in keys:
        k = stacked.get((firm, day))
        reason = "no price data for firm" if k is None else str(abnormals.dropped[k])
        if reason:
            drops.append((firm, node, day, reason))
        else:
            by_node.setdefault(node, []).append(k)
    results = [aggregate_node(node, abnormals.take(by_node[node]), config)
               for node in REPORT_ORDER if node in by_node]
    return results, drops


def kept_columns(keys, calendar):
    """KeptEvents of (firm, node, date) keys in this order, names coded by first key."""
    codes = {}
    firm = [codes.setdefault(name, len(codes)) for name, _, _ in keys]
    return KeptEvents(list(codes), np.array(firm, np.int64),
                      np.array([node_sort_key(node) for _, node, _ in keys], np.int64),
                      np.array([calendar.index_of(day) for _, _, day in keys], np.int64))


def test_study_events_match_tuple_oracle():
    rng = np.random.default_rng(9)
    calendar = TradingCalendar([date(2019, 1, 1) + timedelta(days=d) for d in range(400)])
    # firm codes follow first appearance: "b", "B", "a", "Z" against string order "B", "Z", "a", "b";
    # "Z" has no prices
    names = ["b", "B", "a"]
    market = rng.normal(0.0, 0.01, 400)
    returns = 1e-4 + market + rng.normal(0.0, 0.02, (3, 400))
    returns[1, 300] = np.nan  # a missing event-day return
    keys = {(name, node, calendar.dates[int(day)])
            for name, node, day in zip(rng.choice([*names, "Z"], 300), rng.choice(REPORT_ORDER, 300),
                                       rng.integers(100, 398, 300))}
    keys |= {("B", node, calendar.dates[300]) for node in (Node.ESG_ALL, Node.SOCIAL, Node.HUMAN_CAPITAL)}
    keys |= {("a", node, calendar.dates[250]) for node in (Node.GOVERNANCE, Node.CORPORATE_BEHAVIOR)}
    keys |= {("b", Node.ENVIRONMENT, calendar.dates[50])}  # a thin estimation window
    # file order: by firm code, then latest day first
    keys = sorted(keys, key=lambda k: ((names + ["Z"]).index(k[0]), -k[2].toordinal(), node_sort_key(k[1])))
    config = EstimationConfig()
    got = study_events(kept_columns(keys, calendar), (names, returns), market, calendar, config)
    want = oracle_study_events(keys, (names, returns), market, calendar, config)
    assert got == want
    reasons = {reason for *_, reason in got[1]}
    assert reasons == {"no price data for firm", "missing event-window returns", "thin estimation window"}
    assert len(got[0]) == len(REPORT_ORDER)


def test_study_outputs(std_run):
    study = std_run["study"]
    assert study.results_csv.exists() and study.results_text.exists()
    assert study.drops == []  # every firm-day has prices in the synth corpus
    by_node = {r.node: r for r in study.results}
    assert Node.ESG_ALL in by_node
    root = by_node[Node.ESG_ALL]
    assert root.n == 4
    # a -2% injected return against 2% idiosyncratic vol shows up clearly
    assert root.stats["AAR", 0][0] < 0
    assert root.stats["SAAR", 0][0] < 0
    assert root.stats["SCAAR", (-1, 1)][0] < 0
    curve = dict(root.curve)
    assert root.curve_n == 4
    assert set(curve) == set(range(-5, 6))


def test_study_robustness_variant(std_run):
    study = std_run["study"]
    assert study.robustness is not None
    assert (std_run["outdir"] / "results_est90.csv").exists()
    assert (std_run["outdir"] / "results_est90.txt").exists()
    by_node = {r.node: r for r in study.robustness.results}
    assert by_node[Node.ESG_ALL].n == 4
    # same events, same direction under the shorter estimation window
    assert by_node[Node.ESG_ALL].stats["SAAR", 0][0] < 0


def test_scaar_curve_files_written(std_run):
    outdir = std_run["outdir"]
    for res in std_run["study"].results:
        assert (outdir / f"scaar_curve_{res.node.value}.csv").exists()


def test_classify_parallel_matches_serial(std_corpus, tmp_path):
    corpus_dir, _ = std_corpus
    serial = make_run_config(corpus_dir, tmp_path / "serial")
    parallel = make_run_config(corpus_dir, tmp_path / "parallel", parallelism=2)
    run_classify(serial)
    run_classify(parallel)
    assert filecmp.cmp(
        tmp_path / "serial" / "classified.csv",
        tmp_path / "parallel" / "classified.csv",
        shallow=False,
    )


def same_classify(out, outdir, base, base_outdir):
    """The classify outputs `out` in `outdir` equal those of `base` in `base_outdir`."""
    assert out.classified_path.read_bytes() == base.classified_path.read_bytes()
    assert (out.node_counts, out.n_messages) == (base.node_counts, base.n_messages)
    name = "ingest_report_messages.json"
    assert (outdir / name).read_bytes() == (base_outdir / name).read_bytes()


def write_messages(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["id", "firm", "timestamp", "text"], *rows])
    return path


def messages_run(corpus_dir, messages, outdir, **extra):
    """A run config over `corpus_dir`'s lexicons and the `messages` file, writing to `outdir`."""
    paths = {**corpus_paths(corpus_dir, outdir), "messages": str(messages)}
    return run_config_from_dict({"paths": paths, **extra})


def corpus_messages(corpus_dir, n):
    """The first `n` rows of the corpus messages file, under no header."""
    with open(corpus_dir / "messages.csv", newline="", encoding="utf-8") as fh:
        return [*islice(csv.reader(fh), 1, n + 1)]


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_classify_small_blocks_match_default_run(std_corpus, tmp_path, monkeypatch, parallelism):
    # tasks of 3 messages: a bad timestamp sits between the first two tasks,
    # and the second task holds a duplicate of the first task's middle row
    corpus_dir, _ = std_corpus
    rows = corpus_messages(corpus_dir, 40)
    bad = ["bad1", rows[3][1], "not a time", rows[3][3]]
    rows = rows[:3] + [bad, rows[3], rows[1]] + rows[4:]
    messages = write_messages(tmp_path / "messages.csv", rows)
    base = run_classify(messages_run(corpus_dir, messages, tmp_path / "base"))
    assert [reason for _, reason in base.report.skips] == [
        "bad timestamp 'not a time'", f"duplicate id {rows[1][0]!r}"]
    monkeypatch.setattr(pipeline, "_TASK", 3)
    out = run_classify(messages_run(corpus_dir, messages, tmp_path / "small", parallelism=parallelism))
    same_classify(out, tmp_path / "small", base, tmp_path / "base")


def stand_in_pool(monkeypatch, ready):
    """Swap in a pool that records its size and runs each task in this process,
    so no process starts whatever parallelism asks for; a module-level pool
    import would bypass it and really fork. Its tasks are done at once if
    `ready`, else only once their result is asked for. Returns the recorded
    pool sizes and, per submit, the tasks submitted and not yet collected."""
    import concurrent.futures

    assert not hasattr(pipeline, "ProcessPoolExecutor")
    sizes, held, unwritten = [], [0], []

    class Task:
        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def done(self):
            return ready

        def result(self):
            held[0] -= 1
            return self.fn(*self.args)

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def submit(self, fn, *args):
            held[0] += 1
            unwritten.append(held[0])
            return Task(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(pipeline, "_WORKER_ENGINE", None)
    return sizes, unwritten


@pytest.mark.parametrize("parallelism, workers", [(2, 2), (5, 5), (64, 10)])
def test_classify_pool_is_capped_at_ten_workers(std_run, tmp_path, monkeypatch, parallelism, workers):
    # tasks of 3, so the window of 2 tasks per worker fills many times over
    sizes, unwritten = stand_in_pool(monkeypatch, ready=False)
    monkeypatch.setattr(pipeline, "_TASK", 3)
    cfg = make_run_config(std_run["corpus_dir"], tmp_path, parallelism=parallelism)
    same_classify(run_classify(cfg), tmp_path, std_run["classify"], std_run["outdir"])
    assert sizes == [workers]
    assert max(unwritten) == 2 * workers


def test_classify_pool_writes_each_done_task_at_once(std_run, tmp_path, monkeypatch):
    sizes, unwritten = stand_in_pool(monkeypatch, ready=True)
    monkeypatch.setattr(pipeline, "_TASK", 3)
    cfg = make_run_config(std_run["corpus_dir"], tmp_path, parallelism=4)
    same_classify(run_classify(cfg), tmp_path, std_run["classify"], std_run["outdir"])
    assert sizes == [4] and set(unwritten) == {1}


def test_classify_memory_grows_only_by_the_duplicate_id_set(std_corpus, tmp_path):
    """Traced peak of run_classify at 1x and 8x the messages, each copy with fresh ids,
    against the traced peak of the set of those ids alone."""
    corpus_dir, _ = std_corpus
    rows = corpus_messages(corpus_dir, 2500)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def id_set(copies):  # built as iter_messages builds it, a read block at a time
        seen: set[str] = set()
        for copy in range(copies):
            for a in range(0, len(rows), ingest._BLOCK):
                seen.update([f"{msg_id}-{copy}" for msg_id, *_ in rows[a:a + ingest._BLOCK]])

    def classify(copies):
        copied = [[f"{msg_id}-{copy}", *rest] for copy in range(copies) for msg_id, *rest in rows]
        messages = write_messages(tmp_path / f"x{copies}.csv", copied)
        cfg = messages_run(corpus_dir, messages, tmp_path / f"x{copies}")
        return traced_peak(lambda: run_classify(cfg))

    ids_rise = traced_peak(lambda: id_set(8)) - traced_peak(lambda: id_set(1))
    small, large = classify(1), classify(8)
    assert large - small < ids_rise + 256 * 1024, (small, large, ids_rise)


def test_nodes_cell_of_every_label_bits(tmp_path):
    # one message per subset of the 14 nodes, each node named by its own term
    esg, senti, messages = (tmp_path / name for name in ("esg.csv", "senti.csv", "msgs.csv"))
    esg.write_text(
        "term,node\n" + "".join(f"t{i},{n.value}\n" for i, n in enumerate(REPORT_ORDER)),
        encoding="utf-8",
    )
    senti.write_text("term,weight\ngood,0.5\n", encoding="utf-8")
    subsets = range(1 << len(REPORT_ORDER))
    with open(messages, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "firm", "timestamp", "text"])
        for bits in subsets:
            words = [f"t{i}" for i in range(len(REPORT_ORDER)) if bits >> i & 1]
            writer.writerow([f"m{bits}", "A", "2020-01-02T15:30:00Z", " ".join(["x", *words])])
    cfg = run_config_from_dict({"paths": {
        "messages": str(messages), "esg_lexicon": str(esg), "sentiment_lexicon": str(senti),
        "outdir": str(tmp_path / "out"),
    }})
    out = run_classify(cfg)

    label_sets = [frozenset(n for i, n in enumerate(REPORT_ORDER) if bits >> i & 1)
                  for bits in subsets]
    with open(out.classified_path, newline="", encoding="utf-8") as fh:
        cells = [row["nodes"] for row in csv.DictReader(fh)]
    assert cells == ["|".join(n.value for n in sorted(s, key=node_sort_key)) for s in label_sets]
    masks = pipeline._read_classified(out.classified_path)[3]
    assert list(masks) == [label_mask(s) for s in label_sets]
    closures = [expand_to_ancestors(s) for s in label_sets]
    assert out.node_counts == {node: sum(node in c for c in closures) for node in REPORT_ORDER}
    assert out.n_messages == len(subsets)


@pytest.fixture(scope="module")
def overlapping_lexicons(tmp_path_factory):
    """The demo lexicons plus "oil spill" as a second ESG node and as a
    sentiment term, so one term carries payloads of both lexicons."""
    root = tmp_path_factory.mktemp("lexicons")
    esg, senti = root / "esg.csv", root / "senti.csv"
    esg.write_text(
        demo_esg_lexicon_path().read_text(encoding="utf-8") + "oil spill,NaturalCapital\n",
        encoding="utf-8",
    )
    senti.write_text(
        demo_sentiment_lexicon_path().read_text(encoding="utf-8") + "oil spill,-0.7\n",
        encoding="utf-8",
    )
    return esg, senti


def lexicon_words(*paths):
    words = set()
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                words.update(row["term"].split())
    return sorted(words)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_engine_rows_match_classifier_and_scorer(overlapping_lexicons, data):
    esg, senti = overlapping_lexicons
    words = lexicon_words(esg, senti) + ["the", "#OilSpill", "@user", "http://t.co/x", "!"]
    texts = data.draw(
        st.lists(st.lists(st.sampled_from(words), max_size=30).map(" ".join), max_size=5)
    )
    classifier = EsgClassifier(load_esg_lexicon(esg))
    scorer = SentimentScorer(load_sentiment_lexicon(senti))
    expected = []
    for text in texts:
        tokens = tokenize(text)
        labeled = classifier.classify_tokens("m", tokens)
        bits = sum(1 << node_sort_key(n) for n in labeled.nodes)
        expected.append(
            (bits, "|".join(labeled.matched_terms), str(scorer.score_tokens(tokens)))
        )
    assert _ClassifyEngine(str(esg), str(senti)).rows(texts) == expected


def test_detect_without_confound_calendars(std_corpus, std_run, tmp_path):
    corpus_dir, _ = std_corpus
    paths = corpus_paths(corpus_dir, tmp_path)
    del paths["earnings"]
    del paths["controversy"]
    paths["classified"] = str(std_run["classify"].classified_path)
    cfg = run_config_from_dict({"paths": paths})
    out = run_detect(cfg)
    assert out.removed == []
    assert [(e.firm, e.node, e.day) for e in out.kept] == [
        (e.firm, e.node, e.day) for e in std_run["detect"].kept
    ]


def test_detect_requires_classified_artifact(std_corpus, tmp_path):
    corpus_dir, _ = std_corpus
    cfg = make_run_config(corpus_dir, tmp_path)
    with pytest.raises(ConfigError, match="classify first"):
        run_detect(cfg)


def test_confounded_event_excluded_end_to_end(tmp_path):
    config = SynthConfig(
        seed=7, n_firms=1, n_days=300, base_rate=5.0, filler_rate=4.0,
        planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 262, 12.0),),
        background_sentiment="positive",
        confounds=(Confound(0, 263, "earnings"),),
    )
    corpus = tmp_path / "corpus"
    generate(config, corpus)
    cfg = make_run_config(corpus, tmp_path / "out")
    run_classify(cfg)
    out = run_detect(cfg)
    assert out.kept == []
    # the spike fires at the subcategory, its pillar and the root
    assert {e.node for e in out.removed} == {Node.CLIMATE_CHANGE, Node.ENVIRONMENT, Node.ESG_ALL}
    assert all(e.distance_to_confound == 1 for e in out.removed)
    assert all(e.removal_reason == "confounded_earnings" for e in out.removed)
    with open(out.events_path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["removal_reason"] == "confounded_earnings"]
    assert len(rows) == 3
    assert all(r["kept"] == "false" and r["distance_to_confound"] == "1" for r in rows)
    with open(tmp_path / "out" / "removal_histogram.csv", newline="", encoding="utf-8") as fh:
        bins = {int(r["distance"]): int(r["count"]) for r in csv.DictReader(fh)}
    assert bins[1] == 3
    assert sum(bins.values()) == 3


def test_study_without_prices_drops_everything(std_corpus, std_run, tmp_path):
    corpus_dir, _ = std_corpus
    empty_prices = tmp_path / "prices.csv"
    empty_prices.write_text("firm,date,close\n", encoding="utf-8")
    paths = corpus_paths(corpus_dir, tmp_path / "out")
    paths["prices"] = str(empty_prices)
    paths["events"] = str(std_run["detect"].events_path)
    cfg = run_config_from_dict({"paths": paths})
    out = run_study(cfg)
    assert out.results == []
    assert len(out.drops) == len(std_run["detect"].kept)
    assert all(reason == "no price data for firm" for _, _, _, reason in out.drops)
    assert "(no events to study)" in out.results_text.read_text(encoding="utf-8")
    header = out.results_csv.read_text(encoding="utf-8").splitlines()[0]
    assert header == "node,stat,window,value,tvalue,significance,n"
    with open(tmp_path / "out" / "drops.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == len(out.drops)


def test_empty_corpus_runs_clean(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "messages.csv").write_text("id,firm,timestamp,text\n", encoding="utf-8")
    (corpus / "prices.csv").write_text("firm,date,close\n", encoding="utf-8")
    with open(corpus / "market_index.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "return"])
        for i in range(10):
            writer.writerow([date(2020, 1, 6 + i).isoformat(), "0.001"])
    cfg = run_config_from_dict(
        {
            "paths": {
                "messages": str(corpus / "messages.csv"),
                "prices": str(corpus / "prices.csv"),
                "market_index": str(corpus / "market_index.csv"),
                "esg_lexicon": str(demo_esg_lexicon_path()),
                "sentiment_lexicon": str(demo_sentiment_lexicon_path()),
                "outdir": str(tmp_path / "out"),
            }
        }
    )
    classify_out = run_classify(cfg)
    assert classify_out.n_messages == 0
    assert all(v == 0 for v in classify_out.node_counts.values())
    detect_out = run_detect(cfg)
    assert detect_out.detected == []
    study_out = run_study(cfg)
    assert study_out.results == []
    assert study_out.drops == []


def test_classified_file_schema_is_checked(std_corpus, tmp_path):
    corpus_dir, _ = std_corpus
    bogus = tmp_path / "classified.csv"
    bogus.write_text("id,firm\n", encoding="utf-8")
    paths = corpus_paths(corpus_dir, tmp_path)
    paths["classified"] = str(bogus)
    cfg = run_config_from_dict({"paths": paths})
    with pytest.raises(DataError, match="missing classified columns"):
        run_detect(cfg)


STAMPS = [
    "2020-01-02T15:30:00+00:00",
    "2020-01-02T15:30:00Z",
    "2020-01-02T15:30:00",
    "2020-01-02T15:30:00+05:30",
    "2020-01-02T15:30:00.250000+00:00",
    "2020-01-02T15:30:00.250+00:00",
    " 2020-01-02T15:30:00+00:00",
    "0001-01-01T00:00:00+00:00",
    "2020-01-02T15:30:00-00:00",
    "2020-02-29T23:59:59+00:00",
]


@pytest.mark.parametrize("block", [3, 8192])
@pytest.mark.parametrize(
    "stamps", [STAMPS, [s.replace("T", " ") for s in STAMPS]], ids=["mixed", "space-separator"]
)
def test_classified_stamps_match_the_scalar_parser(tmp_path, monkeypatch, stamps, block):
    # classify writes +00:00 stamps; any other form must read as the scalar parser reads it
    monkeypatch.setattr(ingest, "_BLOCK", block)  # stamps are parsed a read block at a time
    path = tmp_path / "classified.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLASSIFIED_COLUMNS)
        for i, stamp in enumerate(stamps * 2):
            writer.writerow([f"m{i}", "A", stamp, "ClimateChange", "", "0.5"])
    stamps_us = pipeline._read_classified(path)[2]
    assert stamps_us.tolist() == [epoch_us(parse_timestamp(s)) for s in stamps * 2]
