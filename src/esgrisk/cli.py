"""Command line interface.

Subcommands mirror the pipeline stages (classify, detect, study,
pipeline) plus synthetic-data tooling (synth, eval). Every stage run
writes resolved_config.yaml into the output directory. Exit codes:
0 success, 2 configuration/usage error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import yaml

from . import pipeline as pl
from .errors import ConfigError, DataError, NumericError
from .ingest import read_market_index
from .synth import GroundTruth, evaluate_detection, generate, synth_config_from_dict
from .taxonomy import REPORT_ORDER
from .trading import TradingCalendar


@click.group()
def main() -> None:
    """Detect ESG reputational-risk events and measure the market response."""


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except NumericError as exc:
            click.echo(f"numeric error: {exc}", err=True)
            sys.exit(4)

    return wrapper


_PATH_OPTIONS = [
    ("messages", "message corpus CSV (id,firm,timestamp,text)"),
    ("prices", "price CSV (firm,date,close[,return])"),
    ("market_index", "market index CSV (date,return); defines the calendar"),
    ("earnings", "earnings-release calendar CSV (firm,date)"),
    ("controversy", "controversy-news calendar CSV (firm,date)"),
    ("esg_lexicon", "ESG term lexicon CSV (term,node)"),
    ("sentiment_lexicon", "sentiment lexicon CSV (term,weight)"),
    ("classified", "classified-message artifact path"),
    ("events", "events file path"),
]


def _stage_options(fn):
    decorators = [
        click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                     help="YAML config file; flags override it."),
        click.option("--outdir", "-o", default=None, help="output directory"),
    ]
    for name, help_text in _PATH_OPTIONS:
        flag = "--" + name.replace("_", "-")
        decorators.append(click.option(flag, name, default=None, help=help_text))
    decorators += [
        click.option("--z", type=float, default=None, help="detection threshold in std deviations"),
        click.option("--window-len", type=int, default=None, help="trailing window length in trading days"),
        click.option("--min-tweets", type=int, default=None, help="minimum messages on an outlier day"),
        click.option("--min-share", type=float, default=None, help="minimum share of the firm's daily volume"),
        click.option("--gap-days", type=int, default=None, help="merge outliers within this many trading days"),
        click.option("--exclusion-halfwidth", type=int, default=None,
                     help="confound exclusion half width in trading days"),
        click.option("--two-sided", is_flag=True, default=None, help="flag dips as well as spikes"),
        click.option("--est-len", type=int, default=None, help="estimation window length in trading days"),
        click.option("--min-obs", type=int, default=None, help="minimum estimation observations"),
        click.option("--threshold", type=float, default=None, help="sentiment sign threshold"),
        click.option("--exchange-tz", default=None, help="exchange timezone for the 4 p.m. close rule"),
        click.option("--source-tz", default=None, help="timezone of naive message timestamps"),
        click.option("--parallelism", type=int, default=None, help="worker processes for classification"),
        click.option("--robustness", is_flag=True, default=False,
                     help="also run the study with a 90-day estimation window"),
    ]
    for deco in reversed(decorators):
        fn = deco(fn)
    return fn


def _build_config(config_path, outdir, robustness, **flags) -> pl.RunConfig:
    paths = {}
    for name, _ in _PATH_OPTIONS:
        if flags.get(name) is not None:
            paths[name] = flags[name]
    if outdir is not None:
        paths["outdir"] = outdir
    detection = {}
    for key in ("z", "window_len", "min_tweets", "min_share", "gap_days", "exclusion_halfwidth"):
        if flags.get(key) is not None:
            detection[key] = flags[key]
    if flags.get("two_sided"):
        detection["two_sided"] = True
    study = {}
    for key in ("est_len", "min_obs"):
        if flags.get(key) is not None:
            study[key] = flags[key]
    overrides: dict = {}
    if paths:
        overrides["paths"] = paths
    if detection:
        overrides["detection"] = detection
    if study:
        overrides["study"] = study
    if flags.get("threshold") is not None:
        overrides["sentiment_threshold"] = flags["threshold"]
    if flags.get("exchange_tz") is not None:
        overrides["exchange_tz"] = flags["exchange_tz"]
    if flags.get("source_tz") is not None:
        overrides["source_tz"] = flags["source_tz"]
    if flags.get("parallelism") is not None:
        overrides["parallelism"] = flags["parallelism"]
    if robustness:
        overrides["robustness_est_len"] = 90
    return pl.load_run_config(config_path, overrides)


def _echo_config(cfg: pl.RunConfig) -> None:
    path = pl.write_resolved_config(cfg, cfg.outdir())
    click.echo(f"resolved config: {path}")


def _print_classify_summary(out: pl.ClassifyOutputs) -> None:
    click.echo(f"classified {out.n_messages} messages -> {out.classified_path}")
    click.echo(f"skipped {out.report.skips_total} malformed rows")
    click.echo("messages per node:")
    for node in REPORT_ORDER:
        click.echo(f"  {node.value:<28}{out.node_counts[node]}")


def _print_detect_summary(out: pl.DetectOutputs) -> None:
    click.echo(f"events file: {out.events_path}")
    click.echo(
        f"detected {len(out.detected)} events: kept {len(out.kept)}, "
        f"positive {len(out.positives)}, confounded {len(out.removed)}"
    )
    if out.dropped_messages:
        click.echo(f"dropped {out.dropped_messages} messages outside the calendar range")


@main.command()
@_stage_options
@_guarded
def classify(config_path, outdir, robustness, **flags) -> None:
    """Label and score a message corpus against the lexicons."""
    cfg = _build_config(config_path, outdir, robustness, **flags)
    _echo_config(cfg)
    _print_classify_summary(pl.run_classify(cfg))


@main.command()
@_stage_options
@_guarded
def detect(config_path, outdir, robustness, **flags) -> None:
    """Detect abnormal-volume events from a classified corpus."""
    cfg = _build_config(config_path, outdir, robustness, **flags)
    _echo_config(cfg)
    _print_detect_summary(pl.run_detect(cfg))


@main.command()
@_stage_options
@_guarded
def study(config_path, outdir, robustness, **flags) -> None:
    """Run the market-model event study on kept events."""
    cfg = _build_config(config_path, outdir, robustness, **flags)
    _echo_config(cfg)
    out = pl.run_study(cfg)
    click.echo(out.results_text.read_text(encoding="utf-8"))
    click.echo(f"results: {out.results_csv}")
    if out.robustness is not None:
        click.echo(f"robustness results: {out.robustness.results_csv}")


@main.command()
@_stage_options
@_guarded
def pipeline(config_path, outdir, robustness, **flags) -> None:
    """Classify, detect and study in one run."""
    cfg = _build_config(config_path, outdir, robustness, **flags)
    _echo_config(cfg)
    classify_out, detect_out, study_out = pl.run_pipeline(cfg)
    _print_classify_summary(classify_out)
    _print_detect_summary(detect_out)
    click.echo(study_out.results_text.read_text(encoding="utf-8"))
    click.echo(f"results: {study_out.results_csv}")
    if study_out.robustness is not None:
        click.echo(f"robustness results: {study_out.robustness.results_csv}")


@main.command()
@click.option("--config", "-c", "config_path", type=click.Path(), default=None,
              help="YAML file of generator settings")
@click.option("--outdir", "-o", required=True, help="directory for the synthetic corpus")
@click.option("--seed", type=int, default=None, help="random seed override")
@click.option("--n-firms", type=int, default=None)
@click.option("--n-days", type=int, default=None)
@_guarded
def synth(config_path, outdir, seed, n_firms, n_days) -> None:
    """Generate a synthetic corpus with known ground truth."""
    raw = pl.read_yaml_mapping(config_path) if config_path is not None else {}
    if seed is not None:
        raw["seed"] = seed
    if n_firms is not None:
        raw["n_firms"] = n_firms
    if n_days is not None:
        raw["n_days"] = n_days
    cfg = synth_config_from_dict(raw)
    truth = generate(cfg, outdir)
    out = Path(outdir)
    with open(out / "resolved_synth_config.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(json.loads(json.dumps(raw, default=str)), fh, sort_keys=True)
    click.echo(f"synthetic corpus written to {out}")
    click.echo(f"planted events: {len(truth.planted)} (expanded truth keys: {len(truth.truth_keys)})")


@main.command("eval")
@click.option("--events", required=True, help="events.csv produced by detect")
@click.option("--truth", required=True, help="ground_truth.json produced by synth")
@click.option("--market-index", "market_index", required=True, help="market index CSV (calendar)")
@click.option("--tolerance", type=int, default=1, show_default=True,
              help="match tolerance in trading days")
@click.option("--out", "out_path", default=None, help="optional JSON file for the scores")
@_guarded
def eval_cmd(events, truth, market_index, tolerance, out_path) -> None:
    """Score detected events against synthetic ground truth."""
    for path in (events, truth, market_index):
        if not Path(path).exists():
            raise ConfigError(f"{path} does not exist")
    rows, _ = read_market_index(market_index)
    calendar = TradingCalendar.from_market_index(rows)
    detected = pl.load_kept_events(events, calendar)
    ground = GroundTruth.load(truth)
    score = evaluate_detection(detected, ground.negative_keys(), calendar, tolerance=tolerance)
    precision = "n/a" if score.precision is None else f"{score.precision:.4f}"
    recall = "n/a" if score.recall is None else f"{score.recall:.4f}"
    click.echo(f"matched {score.matched} of {score.n_truth} truth events "
               f"({score.n_detected} detected)")
    click.echo(f"precision: {precision}")
    click.echo(f"recall:    {recall}")
    if out_path:
        payload = {
            "events": str(events),
            "truth": str(truth),
            "tolerance": tolerance,
            "matched": score.matched,
            "n_detected": score.n_detected,
            "n_truth": score.n_truth,
            "precision": score.precision,
            "recall": score.recall,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"scores written to {out_path}")


if __name__ == "__main__":
    main()
