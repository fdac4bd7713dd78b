import csv
import json
from datetime import date, timedelta

import pytest
import yaml
from click.testing import CliRunner

from esgrisk.cli import main

SYNTH_YAML = """\
seed: 11
n_firms: 1
n_days: 300
base_rate: 5.0
filler_rate: 2.0
injected_ar: -0.02
background_sentiment: positive
planted:
  - {firm: 0, node: ClimateChange, day: 262, spike: 12.0}
"""


def all_output(result):
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


def corpus_args(corpus):
    return [
        "--messages", str(corpus / "messages.csv"),
        "--prices", str(corpus / "prices.csv"),
        "--market-index", str(corpus / "market_index.csv"),
        "--earnings", str(corpus / "earnings.csv"),
        "--controversy", str(corpus / "controversy.csv"),
        "--esg-lexicon", str(corpus / "esg_lexicon.csv"),
        "--sentiment-lexicon", str(corpus / "sentiment_lexicon.csv"),
    ]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One synth corpus and one full CLI pipeline run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    out = root / "out"
    (root / "synth.yaml").write_text(SYNTH_YAML, encoding="utf-8")
    runner = CliRunner()
    synth_result = runner.invoke(
        main, ["synth", "-c", str(root / "synth.yaml"), "--outdir", str(corpus)]
    )
    assert synth_result.exit_code == 0, all_output(synth_result)
    pipeline_result = runner.invoke(
        main, ["pipeline", "--outdir", str(out)] + corpus_args(corpus)
    )
    assert pipeline_result.exit_code == 0, all_output(pipeline_result)
    return {"corpus": corpus, "out": out, "result": pipeline_result}


def test_help_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("classify", "detect", "study", "pipeline", "synth", "eval"):
        assert name in result.output


def test_synth_writes_corpus(cli_run):
    corpus = cli_run["corpus"]
    for name in (
        "messages.csv", "prices.csv", "market_index.csv", "earnings.csv",
        "controversy.csv", "esg_lexicon.csv", "sentiment_lexicon.csv",
        "ground_truth.json", "resolved_synth_config.yaml",
    ):
        assert (corpus / name).exists(), name


def test_pipeline_writes_artifacts(cli_run):
    out = cli_run["out"]
    for name in (
        "resolved_config.yaml", "classified.csv", "events.csv",
        "event_counts.csv", "removal_histogram.csv", "results.csv",
        "results.txt", "drops.csv",
    ):
        assert (out / name).exists(), name
    text = cli_run["result"].output
    assert "classified" in text
    assert "detected" in text
    assert "results:" in text
    assert "Shareholder response" in text


def test_eval_scores_detection(cli_run, tmp_path):
    scores_path = tmp_path / "scores.json"
    result = CliRunner().invoke(
        main,
        [
            "eval",
            "--events", str(cli_run["out"] / "events.csv"),
            "--truth", str(cli_run["corpus"] / "ground_truth.json"),
            "--market-index", str(cli_run["corpus"] / "market_index.csv"),
            "--out", str(scores_path),
        ],
    )
    assert result.exit_code == 0, all_output(result)
    assert "precision: 1.0000" in result.output
    assert "recall:    1.0000" in result.output
    with open(scores_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["matched"] == payload["n_truth"] == 3
    assert payload["precision"] == 1.0


def test_eval_negative_tolerance_exits_2(cli_run):
    result = CliRunner().invoke(
        main,
        [
            "eval",
            "--events", str(cli_run["out"] / "events.csv"),
            "--truth", str(cli_run["corpus"] / "ground_truth.json"),
            "--market-index", str(cli_run["corpus"] / "market_index.csv"),
            "--tolerance", "-1",
        ],
    )
    assert result.exit_code == 2, all_output(result)
    assert "--tolerance" in all_output(result)


def test_study_standalone_with_robustness(cli_run, tmp_path):
    # reuse the pipeline's events file, write study outputs somewhere fresh
    result = CliRunner().invoke(
        main,
        [
            "study", "--outdir", str(tmp_path),
            "--events", str(cli_run["out"] / "events.csv"),
            "--robustness",
        ]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 0, all_output(result)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "results_est90.csv").exists()
    assert "robustness results:" in result.output
    with open(tmp_path / "resolved_config.yaml", encoding="utf-8") as fh:
        resolved = yaml.safe_load(fh)
    assert resolved["robustness_est_len"] == 90


def test_flags_override_config_file(cli_run, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "detection:\n  z: 2.5\n  min_tweets: 15\n  two_sided: true\nrobustness_est_len: 60\n",
        encoding="utf-8",
    )
    result = CliRunner().invoke(
        main,
        [
            "classify", "-c", str(config), "--outdir", str(tmp_path / "out"),
            "--z", "3.0", "--threshold", "0.1",
            "--messages", str(cli_run["corpus"] / "messages.csv"),
            "--esg-lexicon", str(cli_run["corpus"] / "esg_lexicon.csv"),
            "--sentiment-lexicon", str(cli_run["corpus"] / "sentiment_lexicon.csv"),
        ],
    )
    assert result.exit_code == 0, all_output(result)
    with open(tmp_path / "out" / "resolved_config.yaml", encoding="utf-8") as fh:
        resolved = yaml.safe_load(fh)
    assert resolved["detection"]["z"] == 3.0  # flag beats file
    assert resolved["detection"]["min_tweets"] == 15  # file value kept
    assert resolved["sentiment_threshold"] == 0.1
    # absent on/off flags keep the file's values
    assert resolved["detection"]["two_sided"] is True
    assert resolved["robustness_est_len"] == 60


@pytest.mark.parametrize(
    "args, key, expected",
    [
        (["--outdir", "run"], "paths.outdir", "run"),
        (["--messages", "m.csv"], "paths.messages", "m.csv"),
        (["--prices", "p.csv"], "paths.prices", "p.csv"),
        (["--market-index", "i.csv"], "paths.market_index", "i.csv"),
        (["--earnings", "e.csv"], "paths.earnings", "e.csv"),
        (["--controversy", "c.csv"], "paths.controversy", "c.csv"),
        (["--esg-lexicon", "l.csv"], "paths.esg_lexicon", "l.csv"),
        (["--sentiment-lexicon", "s.csv"], "paths.sentiment_lexicon", "s.csv"),
        (["--classified", "k.csv"], "paths.classified", "k.csv"),
        (["--events", "v.csv"], "paths.events", "v.csv"),
        (["--z", "3.5"], "detection.z", 3.5),
        (["--window-len", "100"], "detection.window_len", 100),
        (["--min-tweets", "7"], "detection.min_tweets", 7),
        (["--min-share", "0.2"], "detection.min_share", 0.2),
        (["--gap-days", "3"], "detection.gap_days", 3),
        (["--exclusion-halfwidth", "4"], "detection.exclusion_halfwidth", 4),
        (["--two-sided"], "detection.two_sided", True),
        (["--est-len", "150"], "study.est_len", 150),
        (["--min-obs", "50"], "study.min_obs", 50),
        (["--threshold", "0.1"], "sentiment_threshold", 0.1),
        (["--exchange-tz", "Europe/London"], "exchange_tz", "Europe/London"),
        (["--source-tz", "Asia/Tokyo"], "source_tz", "Asia/Tokyo"),
        (["--parallelism", "3"], "parallelism", 3),
        (["--robustness"], "robustness_est_len", 90),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_stage_flag_sets_its_config_key(tmp_path, monkeypatch, args, key, expected):
    monkeypatch.chdir(tmp_path)
    # classify stops at its missing inputs, after resolved_config.yaml is written
    result = CliRunner().invoke(main, ["classify"] + args)
    assert result.exit_code == 2, all_output(result)
    outdir = dict(zip(args, args[1:])).get("--outdir", "out")
    with open(tmp_path / outdir / "resolved_config.yaml", encoding="utf-8") as fh:
        resolved = yaml.safe_load(fh)
    for part in key.split("."):
        resolved = resolved[part]
    assert resolved == expected


def test_missing_required_path_exits_2(tmp_path):
    result = CliRunner().invoke(main, ["classify", "--outdir", str(tmp_path)])
    assert result.exit_code == 2
    assert "config error" in all_output(result)


@pytest.mark.parametrize(
    "text, message",
    [
        ("detection: [oops\n", "bad YAML"),
        ("detection: {z: abc}\n", "bad detection config"),
        ("detection: [1]\n", "detection config must be a mapping"),
        ("parallelism: two\n", "bad run config"),
        ("study: {saar_offsets: [a]}\n", "bad study config"),
        ("study: {event_windows: [[1]]}\n", "bad study config"),
        ("paths: {classified: 5}\n", "bad paths config: paths.classified must be null or a string"),
        ("robustness_est_len: x\n", "bad run config: robustness_est_len must be null or an integer"),
        ("sentiment_threshold: [1]\n", "bad run config: sentiment_threshold must be a number"),
        ("parallelism: 1.5\n", "bad run config: parallelism must be an integer"),
        ("study: {curve_span: 1.5}\n", "bad study config: study.curve_span must be an integer"),
        ("detection: {window_len: 2.5}\n", "bad detection config: detection.window_len must be an integer"),
        ("detection: {two_sided: maybe}\n", "bad detection config: detection.two_sided must be true or false"),
        ("detection: {z: true}\n", "bad detection config: detection.z must be a number"),
        ("study: {scar_normalize: \"yes\"}\n", "bad study config: study.scar_normalize must be true or false"),
        ("exchange_tz: Not/AZone\n", "exchange_tz: unknown time zone 'Not/AZone'"),
        ("exchange_tz: 5\n", "bad run config: exchange_tz must be a string"),
        ("source_tz: Not/AZone\n", "source_tz: unknown time zone 'Not/AZone'"),
        ("detection: {z: .nan}\n", "z must be a finite positive number, got nan"),
        ("detection: {z: .inf}\n", "z must be a finite positive number, got inf"),
        ("sentiment_threshold: .nan\n", "sentiment_threshold must be finite, got nan"),
        ("detection: {z: 2019-02-30}\n", "bad YAML in "),
    ],
    ids=[
        "yaml-syntax", "z-not-a-number", "section-not-a-mapping", "parallelism-not-a-number",
        "saar-offset-not-a-number", "event-window-not-a-pair", "path-not-a-string",
        "robustness-not-a-number", "threshold-not-a-number", "parallelism-not-an-integer",
        "curve-span-not-an-integer", "window-len-not-an-integer", "two-sided-not-a-bool",
        "z-a-bool", "scar-normalize-a-string", "unknown-exchange-tz", "exchange-tz-not-a-string",
        "unknown-source-tz", "z-nan", "z-inf", "threshold-nan", "impossible-yaml-date",
    ],
)
def test_bad_config_yaml_exits_2(cli_run, tmp_path, text, message):
    # a full set of inputs, so that a value slipping past config loading
    # reaches the stage that would use it
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["pipeline", "-c", str(bad), "--outdir", str(tmp_path / "out")] + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 2, all_output(result)
    assert f"config error: {message}" in all_output(result)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--z", "nan"], "z must be a finite positive number, got nan"),
        (["--z", "inf"], "z must be a finite positive number, got inf"),
        (["--threshold", "nan"], "sentiment_threshold must be finite, got nan"),
    ],
    ids=["z-nan", "z-inf", "threshold-nan"],
)
def test_non_finite_threshold_flag_exits_2(tmp_path, args, message):
    result = CliRunner().invoke(main, ["detect", "--outdir", str(tmp_path / "out")] + args)
    assert result.exit_code == 2, all_output(result)
    assert f"config error: {message}" in all_output(result)


@pytest.mark.parametrize("parallelism", ["1", "2"], ids=["parallelism-1", "parallelism-2"])
def test_data_error_exits_3(cli_run, tmp_path, parallelism):
    # the lexicons are read in the parent, so a pooled run fails the same way
    bad_lexicon = tmp_path / "lexicon.csv"
    bad_lexicon.write_text("term,node\noil spill,NotANode\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        [
            "classify", "--outdir", str(tmp_path / "out"), "--parallelism", parallelism,
            "--messages", str(cli_run["corpus"] / "messages.csv"),
            "--esg-lexicon", str(bad_lexicon),
            "--sentiment-lexicon", str(cli_run["corpus"] / "sentiment_lexicon.csv"),
        ],
    )
    assert result.exit_code == 3
    assert f"data error: {bad_lexicon}:2: unknown taxonomy node: 'NotANode'" in all_output(result)


def corrupt_csv(src, dst, column, value, row_filter=lambda row: True):
    """Copy a CSV, setting `column` to `value` on the first row that passes
    `row_filter`; returns that row's line number."""
    lines = src.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if row_filter(dict(zip(header, cells))):
            cells[col] = value
            lines[i - 1] = ",".join(cells)
            dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return i
    raise AssertionError(f"no row of {src} passes the filter")


@pytest.mark.parametrize("score", ["abc", "nan", "inf"])
def test_bad_score_in_classified_exits_3(cli_run, tmp_path, score):
    bad = tmp_path / "classified.csv"
    line = corrupt_csv(cli_run["out"] / "classified.csv", bad, "score", score)
    result = CliRunner().invoke(
        main,
        ["detect", "--outdir", str(tmp_path / "out"), "--classified", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: bad score '{score}'" in all_output(result)


def test_blank_scores_in_classified_read_as_zero(cli_run, tmp_path):
    # an empty and a whitespace-only score are both blank cells, read as 0
    def scored(row):
        return row["nodes"] and float(row["score"] or 0)

    events = {}
    for name, cells in (("blank", ("", " ")), ("zero", ("0", "0"))):
        path = tmp_path / name / "classified.csv"
        path.parent.mkdir()
        corrupt_csv(cli_run["out"] / "classified.csv", path, "score", cells[0], scored)
        corrupt_csv(path, path, "score", cells[1], scored)
        result = CliRunner().invoke(
            main,
            ["detect", "--outdir", str(tmp_path / name / "out"), "--classified", str(path)]
            + corpus_args(cli_run["corpus"]),
        )
        assert result.exit_code == 0, all_output(result)
        events[name] = (tmp_path / name / "out" / "events.csv").read_bytes()
    assert events["blank"] == events["zero"]


@pytest.mark.parametrize("stamp", ["2020-13-45T00:00:00+00:00", "yesterday", ""])
def test_bad_stamp_in_classified_exits_3(cli_run, tmp_path, stamp):
    bad = tmp_path / "classified.csv"
    line = corrupt_csv(cli_run["out"] / "classified.csv", bad, "timestamp", stamp)
    result = CliRunner().invoke(
        main,
        ["detect", "--outdir", str(tmp_path / "out"), "--classified", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: bad timestamp in classified file" in all_output(result)


@pytest.mark.parametrize("column, value", [("score", "abc"), ("nodes", "Bogus")])
def test_first_bad_row_in_classified_is_named(cli_run, tmp_path, column, value):
    # stamps are parsed in blocks, yet the first bad row is named, and a bad
    # stamp comes before a bad score or node on its own row
    message = {"score": "bad score 'abc'", "nodes": "unknown taxonomy node: 'Bogus'"}[column]
    stamp = "bad timestamp in classified file"
    bad = tmp_path / "classified.csv"
    clean = (cli_run["out"] / "classified.csv").read_text(encoding="utf-8").splitlines()
    header = clean[0].split(",")
    for cuts, named in (
        (((3, "timestamp", "yesterday"), (5, column, value)), stamp),
        (((3, column, value), (5, "timestamp", "yesterday")), message),
        (((3, "timestamp", "yesterday"), (3, column, value)), stamp),
    ):
        lines = list(clean)
        for line, col, cell in cuts:
            cells = lines[line - 1].split(",")
            cells[header.index(col)] = cell
            lines[line - 1] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["detect", "--outdir", str(tmp_path / "out"), "--classified", str(bad)]
            + corpus_args(cli_run["corpus"]),
        )
        assert result.exit_code == 3, all_output(result)
        assert f"data error: {bad}:3: {named}" in all_output(result)


@pytest.mark.parametrize(
    "stage, artifact, column, row_filter",
    [
        ("detect", "classified", "nodes", lambda row: True),
        ("study", "events", "node", lambda row: row["kept"] == "true"),
    ],
    ids=["classified", "events"],
)
def test_unknown_node_in_artifact_names_the_row(cli_run, tmp_path, stage, artifact, column, row_filter):
    bad = tmp_path / f"{artifact}.csv"
    line = corrupt_csv(cli_run["out"] / f"{artifact}.csv", bad, column, "Bogus", row_filter)
    result = CliRunner().invoke(
        main,
        [stage, "--outdir", str(tmp_path / "out"), f"--{artifact}", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: unknown taxonomy node: 'Bogus'" in all_output(result)


def test_bad_date_on_kept_event_exits_3(cli_run, tmp_path):
    bad = tmp_path / "events.csv"
    line = corrupt_csv(
        cli_run["out"] / "events.csv", bad, "date", "2020-13-45",
        row_filter=lambda row: row["kept"] == "true",
    )
    result = CliRunner().invoke(
        main,
        ["study", "--outdir", str(tmp_path / "out"), "--events", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: bad date '2020-13-45'" in all_output(result)


def test_blank_firm_in_classified_exits_3(cli_run, tmp_path):
    bad = tmp_path / "classified.csv"
    line = corrupt_csv(cli_run["out"] / "classified.csv", bad, "firm", " ")
    result = CliRunner().invoke(
        main,
        ["detect", "--outdir", str(tmp_path / "out"), "--classified", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: missing firm" in all_output(result)


def test_blank_firm_on_kept_event_exits_3(cli_run, tmp_path):
    bad = tmp_path / "events.csv"
    line = corrupt_csv(
        cli_run["out"] / "events.csv", bad, "firm", "", row_filter=lambda row: row["kept"] == "true"
    )
    result = CliRunner().invoke(
        main,
        ["study", "--outdir", str(tmp_path / "out"), "--events", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:{line}: missing firm" in all_output(result)


def test_repeated_kept_event_exits_3(cli_run, tmp_path):
    # a repeat would be counted twice in its node's results
    lines = (cli_run["out"] / "events.csv").read_text(encoding="utf-8").splitlines()
    kept = next(line for line in lines if ",true," in line)
    bad = tmp_path / "events.csv"
    bad.write_text("\n".join([*lines, kept]) + "\n", encoding="utf-8")
    firm, node, day = kept.split(",")[:3]
    result = CliRunner().invoke(
        main,
        ["study", "--outdir", str(tmp_path / "out"), "--events", str(bad)]
        + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 3, all_output(result)
    message = f"data error: {bad}:{len(lines) + 1}: duplicate kept event {firm} {node} {day}"
    assert message in all_output(result)


@pytest.mark.parametrize("command", ["study", "eval"])
def test_kept_event_off_the_calendar_names_the_row(cli_run, tmp_path, command):
    events = cli_run["out"] / "events.csv"
    with open(events, newline="", encoding="utf-8") as fh:
        kept = next(row for row in csv.DictReader(fh) if row["kept"] == "true")
    day = date.fromisoformat(kept["date"])
    # the Saturday before: inside the calendar's range, but not one of its weekdays
    saturday = (day - timedelta(days=(day.weekday() - 5) % 7)).isoformat()
    bad = tmp_path / "events.csv"
    line = corrupt_csv(events, bad, "date", saturday, lambda row: row["kept"] == "true")
    corpus = cli_run["corpus"]
    if command == "study":
        args = ["study", "--outdir", str(tmp_path / "out"), "--events", str(bad)]
        args += corpus_args(corpus)
    else:
        args = ["eval", "--events", str(bad), "--truth", str(corpus / "ground_truth.json"),
                "--market-index", str(corpus / "market_index.csv")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, all_output(result)
    message = f"data error: {bad}:{line}: {saturday} is not a trading day in this calendar"
    assert message in all_output(result)


def test_planted_entry_off_the_calendar_names_the_entry(cli_run, tmp_path):
    corpus = cli_run["corpus"]
    truth = json.loads((corpus / "ground_truth.json").read_text(encoding="utf-8"))
    entry = truth["planted"][0]
    day = date.fromisoformat(entry["date"])
    saturday = (day - timedelta(days=(day.weekday() - 5) % 7)).isoformat()
    entry["date"] = saturday
    for key in truth["truth"]:  # the one plant's keys, so truth stays planted's closure
        key["date"] = saturday
    bad = tmp_path / "ground_truth.json"
    bad.write_text(json.dumps(truth), encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["eval", "--events", str(cli_run["out"] / "events.csv"), "--truth", str(bad),
         "--market-index", str(corpus / "market_index.csv")],
    )
    assert result.exit_code == 3, all_output(result)
    message = (f"data error: {bad}: planted entry ({entry['firm']}, {entry['node']}, {saturday}) "
               "is not on a trading day in this calendar")
    assert message in all_output(result)


def stage_args(cli_run, stage, outdir, flag, value):
    """A stage's command line over the shared run's inputs, reading (never
    writing) the shared artifact it needs, with `flag` pointed at `value`."""
    args = [stage, "--outdir", str(outdir)] + corpus_args(cli_run["corpus"])
    artifact = {"detect": "classified", "study": "events"}.get(stage)
    if artifact is not None:
        args += [f"--{artifact}", str(cli_run["out"] / f"{artifact}.csv")]
    args[args.index(flag) + 1] = str(value)
    return args


@pytest.mark.parametrize(
    "stage, flag, source, extra",
    [
        ("classify", "--messages", "corpus/messages.csv", []),
        ("classify", "--esg-lexicon", "corpus/esg_lexicon.csv", []),
        ("classify", "--esg-lexicon", "corpus/esg_lexicon.csv", ["--parallelism", "2"]),
        ("detect", "--market-index", "corpus/market_index.csv", []),
        ("detect", "--classified", "out/classified.csv", []),
        ("study", "--events", "out/events.csv", []),
    ],
    ids=["messages", "lexicon", "lexicon-parallelism-2", "market_index", "classified", "events"],
)
def test_non_utf8_input_exits_3(cli_run, tmp_path, stage, flag, source, extra):
    bad = tmp_path / source.split("/")[1]
    good = cli_run["corpus"].parent / source
    bad.write_bytes(good.read_bytes().rstrip(b"\r\n") + b"\xff\n")
    args = stage_args(cli_run, stage, tmp_path / "out", flag, bad) + extra
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:" in all_output(result)
    assert "is not UTF-8" in all_output(result)


@pytest.mark.parametrize("stage", ["detect", "eval"])
def test_directory_as_input_exits_3(cli_run, tmp_path, stage):
    if stage == "detect":
        args = stage_args(cli_run, "detect", tmp_path / "out", "--classified", tmp_path)
    else:
        args = [
            "eval",
            "--events", str(tmp_path),
            "--truth", str(cli_run["corpus"] / "ground_truth.json"),
            "--market-index", str(cli_run["corpus"] / "market_index.csv"),
        ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, all_output(result)
    assert "data error: cannot read" in all_output(result)
    assert str(tmp_path) in all_output(result)


def test_oversized_field_exits_3(cli_run, tmp_path):
    bad = tmp_path / "messages.csv"
    bad.write_text(
        "id,firm,timestamp,text\n1,FIRM0,2020-03-10T14:00:00Z," + "x" * 131_073 + "\n",
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, stage_args(cli_run, "classify", tmp_path / "out", "--messages", bad))
    assert result.exit_code == 3, all_output(result)
    assert f"data error: {bad}:2: malformed messages record" in all_output(result)


def test_detect_before_classify_exits_2(cli_run, tmp_path):
    result = CliRunner().invoke(
        main,
        ["detect", "--outdir", str(tmp_path)] + corpus_args(cli_run["corpus"]),
    )
    assert result.exit_code == 2
    assert "run classify first" in all_output(result)


def test_eval_missing_file_exits_2(cli_run, tmp_path):
    result = CliRunner().invoke(
        main,
        [
            "eval",
            "--events", str(tmp_path / "nope.csv"),
            "--truth", str(cli_run["corpus"] / "ground_truth.json"),
            "--market-index", str(cli_run["corpus"] / "market_index.csv"),
        ],
    )
    assert result.exit_code == 2


def test_synth_flag_overrides(tmp_path):
    result = CliRunner().invoke(
        main,
        ["synth", "--outdir", str(tmp_path / "c"), "--seed", "9", "--n-firms", "1", "--n-days", "30"],
    )
    assert result.exit_code == 0, all_output(result)
    with open(tmp_path / "c" / "resolved_synth_config.yaml", encoding="utf-8") as fh:
        resolved = yaml.safe_load(fh)
    assert resolved == {"seed": 9, "n_firms": 1, "n_days": 30}
    assert (tmp_path / "c" / "messages.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_days: 300\nplanted:\n  - {firm: 5, node: ClimateChange, day: 10}\n", "config error"),
        ("- seed: 1\n- n_days: 300\n", "must be a mapping"),
        ("planted: 5\n", "bad synth config"),
        ("start: notadate\n", "bad synth config"),
        ("beta_range: 1\n", "bad synth config"),
        ("confounds:\n  - {firm: 0}\n", "bad synth config"),
        ("n_firms: x\n", "bad synth config"),
        ("exchange_tz: Not/AZone\n", "exchange_tz: unknown time zone 'Not/AZone'"),
        ("planted:\n  - {firm: 0, node: Bogus, day: 5}\n",
         "bad synth config: planted[0].node must be one of ESG_ALL, Environment, "),
        ("seed: -1\n", "seed must be non-negative"),
        ("n_days: 2.5\n", "bad synth config: n_days must be an integer"),
        ("injected_ar: x\n", "bad synth config: injected_ar must be a number"),
        ("planted:\n  - {firm: 1.5, node: ClimateChange, day: 5}\n",
         "bad synth config: planted[0].firm must be an integer"),
        ("planted:\n  - {firm: 0, node: ClimateChange, day: 5, spkie: 8}\n",
         "unknown synth config keys: ['planted[0].spkie']"),
        ("confounds:\n  - {firm: 0, day: 9, kind: earnings}\n  - {firm: 0, day: 9, knd: earnings}\n",
         "unknown synth config keys: ['confounds[1].knd']"),
        ("idio_vol: .inf\n", "idio_vol must be finite"),
        ("market_vol: .nan\n", "market_vol must be finite"),
        ("base_rate: .nan\n", "base_rate must be finite"),
        ("injected_ar: .nan\n", "injected_ar must be finite"),
        ("filler_rate: .inf\n", "filler_rate must be finite"),
        ("beta_range: [.nan, 1.0]\n", "beta_range must be finite"),
        ("alpha_range: [0.0, .inf]\n", "alpha_range must be finite"),
        ("planted:\n  - {firm: 0, node: ClimateChange, day: 5, spike: .nan}\n",
         "spike must be positive and finite"),
        ("planted:\n  - {firm: 0, node: ClimateChange, day: 5, spike: .inf}\n",
         "spike must be positive and finite"),
        ("n_days: 30\nfiller_rate: 1.0e+19\n", "filler_rate must be at most 9.223e+18"),
        ("n_days: 30\nbase_rate: 1.0e+19\nplanted:\n  - {firm: 0, node: ClimateChange, day: 5}\n",
         "base_rate must be at most 9.223e+18"),
        ("n_days: 30\nplanted:\n  - {firm: 0, node: ClimateChange, day: 5, spike: 1.0e+19}\n",
         "base_rate * spike must be at most 9.223e+18"),
        ("planted:\n  - {firm: 0, node: ClimateChange, day: 5, sign: bad}\n",
         "bad synth config: planted[0].sign must be one of negative, positive, got 'bad'"),
        ("confounds:\n  - [0, 5, earnings]\n",
         "confounds[0] config must be a mapping, got [0, 5, 'earnings']"),
        ("planted: 0\n", "bad synth config: planted must be a list, got 0"),
        ("planted: false\n", "bad synth config: planted must be a list, got False"),
        ("planted: {}\n", "bad synth config: planted must be a list, got {}"),
        ("planted: ''\n", "bad synth config: planted must be a list, got ''"),
        ("confounds: 0\n", "bad synth config: confounds must be a list, got 0"),
        ("confounds: false\n", "bad synth config: confounds must be a list, got False"),
        ("confounds: {}\n", "bad synth config: confounds must be a list, got {}"),
        ("confounds: ''\n", "bad synth config: confounds must be a list, got ''"),
        ("start: 2020-13-45\n", "bad YAML in "),
    ],
    ids=["unknown-planted-firm", "list", "planted-not-a-list", "start-not-a-date",
         "beta-range-not-a-pair", "confound-without-day", "n-firms-not-a-number",
         "unknown-exchange-tz", "unknown-planted-node", "negative-seed", "n-days-not-an-integer",
         "injected-ar-not-a-number", "planted-firm-not-an-integer", "unknown-planted-key",
         "unknown-confound-key", "idio-vol-inf", "market-vol-nan", "base-rate-nan",
         "injected-ar-nan", "filler-rate-inf", "beta-range-nan", "alpha-range-inf", "spike-nan",
         "spike-inf", "filler-rate-above-poisson-limit", "base-rate-above-poisson-limit",
         "spike-above-poisson-limit", "unknown-planted-sign", "confound-a-list", "planted-zero",
         "planted-false", "planted-empty-mapping", "planted-empty-string", "confounds-zero",
         "confounds-false", "confounds-empty-mapping", "confounds-empty-string", "start-impossible-date"],
)
def test_synth_invalid_config_exits_2(tmp_path, text, message):
    config = tmp_path / "synth.yaml"
    config.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(
        main, ["synth", "-c", str(config), "--outdir", str(tmp_path / "c")]
    )
    assert result.exit_code == 2, all_output(result)
    assert message in all_output(result)


def test_synth_null_entry_lists_plant_nothing(tmp_path):
    config = tmp_path / "synth.yaml"
    config.write_text("n_days: 30\nplanted: null\nconfounds:\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["synth", "-c", str(config), "--outdir", str(tmp_path / "c")])
    assert result.exit_code == 0, all_output(result)
    assert "planted events: 0 " in all_output(result)
    for kind in ("earnings", "controversy"):
        assert (tmp_path / "c" / f"{kind}.csv").read_text(encoding="utf-8") == "firm,date\n"


ENTRY = {"firm": "FIRM00", "node": "ClimateChange", "date": "2020-01-02"}


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "ground truth config must be a mapping, got []"),
        (None, "ground truth config must be a mapping, got None"),
        ({"planted": [1]}, "planted[0] config must be a mapping, got 1"),
        ({"planted": [{**ENTRY, "spike_size": [1]}]}, "bad ground truth config: planted[0].spike_size must be a number, got [1]"),
        ({"truth": 5}, "bad ground truth config: truth must be a list, got 5"),
        ({"planted": [{**ENTRY, "node": "Bogus"}]}, "bad ground truth config: planted[0].node must be one of ESG_ALL, "),
        ({"planted": [{"node": "ClimateChange", "date": "2020-01-02"}]},
         "bad ground truth config: planted[0].firm is required"),
        ({"planted": [{**ENTRY, "spike_sise": 2.0}]},
         "unknown ground truth config keys: ['planted[0].spike_sise']"),
        ({"planted": [{**ENTRY, "firm": 5}]}, "bad ground truth config: planted[0].firm must be a string, got 5"),
        ({"planted": [{**ENTRY, "spike_size": True}]},
         "bad ground truth config: planted[0].spike_size must be a number, got True"),
    ],
    ids=["list", "null", "planted-entry-not-a-mapping", "spike-size-a-list", "truth-not-a-list", "unknown-node",
         "missing-firm", "misspelled-entry-key", "numeric-firm", "boolean-spike-size"],
)
def test_malformed_ground_truth_exits_3(cli_run, tmp_path, payload, message):
    bad = tmp_path / "ground_truth.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["eval", "--events", str(cli_run["out"] / "events.csv"), "--truth", str(bad),
         "--market-index", str(cli_run["corpus"] / "market_index.csv")],
    )
    assert result.exit_code == 3, all_output(result)
    assert f"data error: cannot read ground truth {bad}: {message}" in all_output(result)


def assert_config_error(result, message):
    assert result.exit_code == 2, all_output(result)
    assert f"config error: {message}" in all_output(result)
    assert "Traceback" not in all_output(result)


def eval_truth(cli_run, truth):
    return CliRunner().invoke(
        main,
        ["eval", "--events", str(cli_run["out"] / "events.csv"), "--truth", str(truth),
         "--market-index", str(cli_run["corpus"] / "market_index.csv")],
    )


@pytest.mark.parametrize("edit", ["extra", "missing", "repeated"])
def test_ground_truth_disagreeing_with_planted_exits_3(cli_run, tmp_path, edit):
    written = cli_run["corpus"] / "ground_truth.json"
    assert eval_truth(cli_run, written).exit_code == 0  # synth's own file is valid
    payload = json.loads(written.read_text(encoding="utf-8"))
    truth = payload["truth"]
    if edit == "extra":
        truth.append({**truth[-1], "firm": "FIRM99"})
    elif edit == "missing":
        del truth[0]
    else:
        truth.insert(1, truth[0])
    bad = tmp_path / "ground_truth.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    result = eval_truth(cli_run, bad)
    assert result.exit_code == 3, all_output(result)
    assert f"data error: cannot read ground truth {bad}: truth must list each key" in all_output(result)
    assert "Traceback" not in all_output(result)


@pytest.mark.parametrize("node", ["Governance", "ESG"])
def test_synth_planted_pillar_or_root_exits_2(tmp_path, node):
    config = tmp_path / "synth.yaml"
    config.write_text(f"n_firms: 3\nn_days: 60\nplanted:\n  - {{firm: 2, node: {node}, day: 42}}\n",
                      encoding="utf-8")
    result = CliRunner().invoke(main, ["synth", "-c", str(config), "--outdir", str(tmp_path / "out")])
    assert_config_error(result, "bad synth config: planted[0].node must be a subcategory, one of "
                        "ClimateChange, NaturalCapital, PollutionAndWaste, EnvironmentalOpportunities, "
                        "HumanCapital, ProductLiability, StakeholderOpposition, SocialOpportunities, "
                        "CorporateGovernance, CorporateBehavior, got ")


@pytest.mark.parametrize("command", ["detect", "synth"])
def test_non_utf8_config_exits_2(tmp_path, command):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"seed: 1\n# \xff\n")
    result = CliRunner().invoke(main, [command, "-c", str(bad), "--outdir", str(tmp_path / "out")])
    assert_config_error(result, f"cannot read config {bad}: ")


@pytest.mark.parametrize("beneath", [False, True], ids=["a-file", "beneath-a-file"])
@pytest.mark.parametrize(
    "args", [["classify"], ["synth", "--n-firms", "1", "--n-days", "30"]], ids=["classify", "synth"]
)
def test_outdir_on_a_file_exits_2(tmp_path, args, beneath):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    outdir = taken / "out" if beneath else taken
    result = CliRunner().invoke(main, args + ["--outdir", str(outdir)])
    assert_config_error(result, f"cannot create output directory {outdir}: ")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("stage, flag", [("classify", "--classified"), ("detect", "--events")])
def test_artifact_in_missing_directory_exits_2(cli_run, tmp_path, stage, flag):
    target = tmp_path / "missing" / "artifact.csv"
    args = [stage, "--outdir", str(tmp_path / "out"), flag, str(target)] + corpus_args(cli_run["corpus"])
    if stage == "detect":
        args += ["--classified", str(cli_run["out"] / "classified.csv")]
    result = CliRunner().invoke(main, args)
    assert_config_error(result, f"cannot write {target}: ")
    assert not target.parent.exists()


def test_eval_out_unopenable_exits_2(cli_run, tmp_path):
    result = CliRunner().invoke(
        main,
        ["eval", "--events", str(cli_run["out"] / "events.csv"),
         "--truth", str(cli_run["corpus"] / "ground_truth.json"),
         "--market-index", str(cli_run["corpus"] / "market_index.csv"), "--out", str(tmp_path)],
    )
    assert_config_error(result, f"cannot write {tmp_path}: ")
