"""Command line interface.

Subcommands mirror the pipeline stages (classify, detect, study,
pipeline) plus synthetic-data tooling (synth, eval). Every stage run
writes resolved_config.yaml into the output directory. Exit codes:
0 success, 2 configuration/usage error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click
import yaml

from . import pipeline as pl
from .errors import ConfigError, DataError, NumericError, config_errors
from .ingest import read_market_index
from .sentiment import Sign
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


# One row per stage setting: (flag declarations, parameter, config key,
# click options). Every flag defaults to None, so an absent flag never
# overrides the config file.
_SETTINGS = [
    ("--outdir -o", "outdir", "paths.outdir", dict(help="output directory")),
    ("--messages", "messages", "paths.messages", dict(help="message corpus CSV (id,firm,timestamp,text)")),
    ("--prices", "prices", "paths.prices", dict(help="price CSV (firm,date,close[,return])")),
    ("--market-index", "market_index", "paths.market_index",
     dict(help="market index CSV (date,return); defines the calendar")),
    ("--earnings", "earnings", "paths.earnings", dict(help="earnings-release calendar CSV (firm,date)")),
    ("--controversy", "controversy", "paths.controversy",
     dict(help="controversy-news calendar CSV (firm,date)")),
    ("--esg-lexicon", "esg_lexicon", "paths.esg_lexicon", dict(help="ESG term lexicon CSV (term,node)")),
    ("--sentiment-lexicon", "sentiment_lexicon", "paths.sentiment_lexicon",
     dict(help="sentiment lexicon CSV (term,weight)")),
    ("--classified", "classified", "paths.classified", dict(help="classified-message artifact path")),
    ("--events", "events", "paths.events", dict(help="events file path")),
    ("--z", "z", "detection.z", dict(type=float, help="detection threshold in std deviations")),
    ("--window-len", "window_len", "detection.window_len",
     dict(type=int, help="trailing window length in trading days")),
    ("--min-tweets", "min_tweets", "detection.min_tweets",
     dict(type=int, help="minimum messages on an outlier day")),
    ("--min-share", "min_share", "detection.min_share",
     dict(type=float, help="minimum share of the firm's daily volume")),
    ("--gap-days", "gap_days", "detection.gap_days",
     dict(type=int, help="merge outliers within this many trading days")),
    ("--exclusion-halfwidth", "exclusion_halfwidth", "detection.exclusion_halfwidth",
     dict(type=int, help="confound exclusion half width in trading days")),
    ("--two-sided", "two_sided", "detection.two_sided",
     dict(is_flag=True, help="flag dips as well as spikes")),
    ("--est-len", "est_len", "study.est_len",
     dict(type=int, help="estimation window length in trading days")),
    ("--min-obs", "min_obs", "study.min_obs", dict(type=int, help="minimum estimation observations")),
    ("--threshold", "threshold", "sentiment_threshold", dict(type=float, help="sentiment sign threshold")),
    ("--exchange-tz", "exchange_tz", "exchange_tz", dict(help="exchange timezone for the 4 p.m. close rule")),
    ("--source-tz", "source_tz", "source_tz", dict(help="timezone of naive message timestamps")),
    ("--parallelism", "parallelism", "parallelism",
     dict(type=int, help="worker processes for classification")),
    ("--robustness", "robustness_est_len", "robustness_est_len",
     dict(flag_value=90, help="also run the study with a 90-day estimation window")),
]


def _stage_command(fn):
    """Give a stage command `-c` and every _SETTINGS flag; call it with the
    resolved RunConfig once resolved_config.yaml is written."""

    @functools.wraps(fn)
    def command(config_path, **values):
        overrides: dict = {}
        for _, param, key, _ in _SETTINGS:
            if values[param] is not None:
                section, _, name = key.rpartition(".")
                (overrides.setdefault(section, {}) if section else overrides)[name] = values[param]
        cfg = pl.load_run_config(config_path, overrides)
        click.echo(f"resolved config: {pl.write_resolved_config(cfg, cfg.outdir())}")
        fn(cfg)

    command = _guarded(command)
    for flags, param, _, kwargs in reversed(_SETTINGS):
        command = click.option(*flags.split(), param, default=None, **kwargs)(command)
    return click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                        help="YAML config file; flags override it.")(command)


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


def _print_study_summary(out: pl.StudyOutputs) -> None:
    click.echo(out.results_text.read_text(encoding="utf-8"))
    click.echo(f"results: {out.results_csv}")
    if out.robustness is not None:
        click.echo(f"robustness results: {out.robustness.results_csv}")


@main.command()
@_stage_command
def classify(cfg: pl.RunConfig) -> None:
    """Label and score a message corpus against the lexicons."""
    _print_classify_summary(pl.run_classify(cfg))


@main.command()
@_stage_command
def detect(cfg: pl.RunConfig) -> None:
    """Detect abnormal-volume events from a classified corpus."""
    _print_detect_summary(pl.run_detect(cfg))


@main.command()
@_stage_command
def study(cfg: pl.RunConfig) -> None:
    """Run the market-model event study on kept events."""
    _print_study_summary(pl.run_study(cfg))


@main.command()
@_stage_command
def pipeline(cfg: pl.RunConfig) -> None:
    """Classify, detect and study in one run."""
    classify_out, detect_out, study_out = pl.run_pipeline(cfg)
    _print_classify_summary(classify_out)
    _print_detect_summary(detect_out)
    _print_study_summary(study_out)


@main.command()
@click.option("--config", "-c", "config_path", type=click.Path(), default=None,
              help="YAML file of generator settings")
@click.option("--outdir", "-o", required=True, help="directory for the synthetic corpus")
@click.option("--seed", type=int, default=None, help="random seed override")
@click.option("--n-firms", type=int, default=None)
@click.option("--n-days", type=int, default=None)
@_guarded
def synth(config_path, outdir, **flags) -> None:
    """Generate a synthetic corpus with known ground truth."""
    raw = pl.read_yaml_mapping(config_path) if config_path is not None else {}
    for key, value in flags.items():
        if value is not None:
            raw[key] = value
    cfg = synth_config_from_dict(raw)
    truth = generate(cfg, outdir)
    out = Path(outdir)
    with open(out / "resolved_synth_config.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(json.loads(json.dumps(raw, default=str)), fh, sort_keys=True)
    click.echo(f"synthetic corpus written to {out}")
    click.echo(f"planted events: {len(truth.planted)} (expanded truth keys: {len(truth.truth)})")


@main.command("eval")
@click.option("--events", required=True, help="events.csv produced by detect")
@click.option("--truth", required=True, help="ground_truth.json produced by synth")
@click.option("--market-index", "market_index", required=True, help="market index CSV (calendar)")
@click.option("--tolerance", type=click.IntRange(min=0), metavar="INTEGER", default=1,
              show_default=True, help="match tolerance in trading days")
@click.option("--out", "out_path", default=None, help="optional JSON file for the scores")
@_guarded
def eval_cmd(events, truth, market_index, tolerance, out_path) -> None:
    """Score detected events against synthetic ground truth."""
    for path in (events, truth, market_index):
        if not Path(path).exists():
            raise ConfigError(f"{path} does not exist")
    (dates, _), _ = read_market_index(market_index)
    calendar = TradingCalendar(dates)
    kept = pl.load_kept_events(events, calendar)
    detected = zip([kept.names[f] for f in kept.firm], [REPORT_ORDER[n] for n in kept.node], kept.day.tolist())
    ground = GroundTruth.load(truth)
    for ev in ground.planted:
        if ev.sign is Sign.NEGATIVE and ev.date not in calendar:
            raise DataError(f"{truth}: planted entry ({ev.firm}, {ev.node.value}, {ev.date}) "
                            "is not on a trading day in this calendar")
    expected = [(firm, node, calendar.index_of(day)) for firm, node, day in ground.negative_keys()]
    score = evaluate_detection(detected, expected, tolerance=tolerance)
    precision = "n/a" if score.precision is None else f"{score.precision:.4f}"
    recall = "n/a" if score.recall is None else f"{score.recall:.4f}"
    click.echo(f"matched {score.matched} of {score.n_truth} truth events "
               f"({score.n_detected} detected)")
    click.echo(f"precision: {precision}")
    click.echo(f"recall:    {recall}")
    if out_path:
        payload = {"events": str(events), "truth": str(truth), "tolerance": tolerance,
                   **dataclasses.asdict(score)}
        with config_errors(f"write {out_path}"), open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"scores written to {out_path}")


if __name__ == "__main__":
    main()
