"""Shared fixtures: one synthetic corpus and one pipeline run, built once.

The corpus plants four large negative spikes (two per firm, distinct
subcategories, all after day 250 so every event has a complete trailing
window) on top of positive background chatter, and injects a -2% abnormal
return on the planted days so study-stage signs are unambiguous.
"""

from pathlib import Path

import numpy as np
import pytest

from esgrisk.ingest import CalendarEvents, read_columns
from esgrisk.pipeline import run_config_from_dict, run_pipeline
from esgrisk.study import abnormal_return, fit_market_model, standardize
from esgrisk.synth import PlantedEvent, SynthConfig, generate
from esgrisk.taxonomy import Node

STD_SEED = 42


def std_synth_config(seed: int = STD_SEED) -> SynthConfig:
    return SynthConfig(
        seed=seed,
        n_firms=2,
        n_days=300,
        base_rate=5.0,
        filler_rate=6.0,
        planted=(
            PlantedEvent(0, Node.CLIMATE_CHANGE, 262, 12.0),
            PlantedEvent(0, Node.HUMAN_CAPITAL, 275, 12.0),
            PlantedEvent(1, Node.CORPORATE_GOVERNANCE, 265, 12.0),
            PlantedEvent(1, Node.PRODUCT_LIABILITY, 282, 12.0),
        ),
        injected_ar=-0.02,
        background_sentiment="positive",
    )


def event_day_abnormals(panel, config):
    """Event-day ARs and SARs of a simulate_event_panel draw, fitted as one stack."""
    firm, market, idx = panel
    rows = np.arange(len(idx))
    est = idx[:, None] + np.asarray(config.est_offsets())
    fit = fit_market_model(firm[rows[:, None], est], market[rows[:, None], est], config)
    assert (fit.dropped == "").all()
    ar = abnormal_return(fit, firm[rows, idx], market[rows, idx])
    return ar, standardize(fit, ar, market[rows, idx])


def read_rows(path, what, required, optional=()):
    """read_columns one row at a time, (line, cells) per non-blank row: the row-loop oracles' reader."""
    for lines, columns in read_columns(path, what, required, optional):
        yield from zip(lines, zip(*columns))


def confound_columns(kind, *rows):
    """One CalendarEvents of `kind` from (firm, date) rows, sorted as read_calendar_events sorts them."""
    rows = sorted(rows)
    return CalendarEvents([f for f, _ in rows], np.array([d.toordinal() for _, d in rows], np.int64), kind)


def naive_esd(counts, config):
    """Per-day recomputation of the trailing-window rule on one series."""
    x = np.asarray(counts, dtype=np.float64)
    out = []
    for t in range(config.window_len, x.size):
        window = x[t - config.window_len : t]
        sd = float(np.std(window, ddof=1))
        if sd <= 0.0:
            continue
        dev = x[t] - float(np.mean(window))
        if config.two_sided:
            dev = abs(dev)
        if dev >= config.z * sd:
            out.append(t)
    return out


def corpus_paths(corpus_dir: Path, outdir: Path) -> dict:
    return {
        "messages": str(corpus_dir / "messages.csv"),
        "prices": str(corpus_dir / "prices.csv"),
        "market_index": str(corpus_dir / "market_index.csv"),
        "earnings": str(corpus_dir / "earnings.csv"),
        "controversy": str(corpus_dir / "controversy.csv"),
        "esg_lexicon": str(corpus_dir / "esg_lexicon.csv"),
        "sentiment_lexicon": str(corpus_dir / "sentiment_lexicon.csv"),
        "outdir": str(outdir),
    }


def make_run_config(corpus_dir: Path, outdir: Path, **extra) -> "RunConfig":
    raw = {"paths": corpus_paths(corpus_dir, outdir)}
    raw.update(extra)
    return run_config_from_dict(raw)


@pytest.fixture(scope="session")
def std_corpus(tmp_path_factory):
    """Synthetic corpus directory plus its ground truth."""
    corpus_dir = tmp_path_factory.mktemp("std_corpus")
    truth = generate(std_synth_config(), corpus_dir)
    return corpus_dir, truth


@pytest.fixture(scope="session")
def std_run(std_corpus, tmp_path_factory):
    """One full pipeline run over the standard corpus, with the 90-day
    robustness study enabled."""
    corpus_dir, truth = std_corpus
    outdir = tmp_path_factory.mktemp("std_run")
    cfg = make_run_config(corpus_dir, outdir, robustness_est_len=90)
    classify_out, detect_out, study_out = run_pipeline(cfg)
    return {
        "corpus_dir": corpus_dir,
        "truth": truth,
        "cfg": cfg,
        "outdir": outdir,
        "classify": classify_out,
        "detect": detect_out,
        "study": study_out,
    }
