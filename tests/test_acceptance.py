"""Acceptance suite: the pipeline's core promises at their stated tolerances.

One test per criterion, so a verbose run shows one pass/fail line for
each. Every test also prints a summary line with the measured numbers
(visible with -s, -rA, or on failure).
"""

import filecmp
import math
import time
from datetime import date, timedelta

import numpy as np
from conftest import corpus_paths, event_day_abnormals, make_run_config

from esgrisk.aggregate import build_series, label_mask
from esgrisk.detect import DetectionConfig, esd_outliers, filter_and_merge
from esgrisk.ingest import EPOCH, iter_messages
from esgrisk.lexicon import EsgClassifier, load_esg_lexicon, tokenize
from esgrisk.pipeline import run_config_from_dict, run_detect, run_pipeline
from esgrisk.sentiment import SentimentScorer, Sign, load_sentiment_lexicon
from esgrisk.study import (
    EstimationConfig,
    EventAbnormals,
    aggregate_node,
    bmp_tstat,
    fit_market_model,
)
from esgrisk.synth import (
    PlantedEvent,
    SynthConfig,
    business_days,
    evaluate_detection,
    generate,
    simulate_event_panel,
)
from esgrisk.taxonomy import Node
from esgrisk.trading import TradingCalendar, assign_trading_index


def report(num: int, desc: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def naive_outliers(counts, config):
    """Per-day recomputation of the trailing-window rule with plain numpy."""
    x = np.asarray(counts, dtype=np.float64)
    out = []
    for t in range(config.window_len, x.size):
        window = x[t - config.window_len : t]
        sd = float(np.std(window, ddof=1))
        if sd > 0.0 and (x[t] - float(np.mean(window))) >= config.z * sd:
            out.append(t)
    return out


def test_criterion_1_outlier_days_match_naive_recomputation():
    """1000 random Poisson count series (length 300 to 600): the flagged
    day sets must equal a naive per-day recomputation exactly, within
    30 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    config = DetectionConfig()
    n_series = 1000
    flagged = 0
    mismatches = 0
    for _ in range(n_series):
        n = int(rng.integers(300, 601))
        lam = float(rng.uniform(1.0, 15.0))
        counts = rng.poisson(lam, n)
        for t in rng.integers(config.window_len, n, 3):
            counts[t] += int(rng.integers(5, 40))
        slow = naive_outliers(counts, config)
        flagged += len(slow)
        if list(esd_outliers(counts, config)) != slow:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    line = report(
        1, "outlier days match a naive per-day recomputation", ok,
        f"{n_series} series, {flagged} flagged days, {mismatches} mismatched series, {elapsed:.1f}s",
    )
    assert mismatches == 0, line
    assert elapsed < 30.0, line


def test_criterion_2_market_model_matches_closed_form():
    """1000 market-model fits agree with the closed-form OLS solution
    (beta = cov/var, alpha = ybar - beta xbar) to 1e-10 relative error."""
    rng = np.random.default_rng(1002)
    config = EstimationConfig()
    idx = [121 + off for off in config.est_offsets()]
    markets, firms = [], []
    for _ in range(1000):
        market = rng.normal(0.0, 0.01, 123)
        firm = (
            float(rng.uniform(-2e-4, 2e-4))
            + float(rng.uniform(0.8, 1.2)) * market
            + rng.normal(0.0, 0.02, 123)
        )
        markets.append(market[idx])
        firms.append(firm[idx])
    fit = fit_market_model(np.stack(firms), np.stack(markets), config)
    assert (fit.dropped == "").all()
    worst = 0.0
    for k, (x, y) in enumerate(zip(markets, firms)):
        xm, ym = float(x.mean()), float(y.mean())
        beta = float((x - xm) @ (y - ym)) / float(((x - xm) ** 2).sum())
        alpha = ym - beta * xm
        worst = max(
            worst,
            abs(fit.beta[k] - beta) / abs(beta),
            abs(fit.alpha[k] - alpha) / abs(alpha),
        )
    ok = worst <= 1e-10
    line = report(
        2, "market-model OLS matches the closed form", ok,
        f"1000 fits, max relative error {worst:.2e} (tolerance 1e-10)",
    )
    assert worst <= 1e-10, line


def test_criterion_3_null_rejection_rate_is_calibrated():
    """2000 null panels of 100 events each (no injected effect): the
    cross-sectional t on event-day SARs rejects at |t| > 1.96 between
    3.5% and 6.5% of the time, within 5 minutes."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)
    config = EstimationConfig()
    n_reps, n_events = 2000, 100
    rejections = 0
    for _ in range(n_reps):
        _, sars = event_day_abnormals(simulate_event_panel(rng, n_events), config)
        t = bmp_tstat(sars)
        if abs(t) > 1.96:
            rejections += 1
    rate = rejections / n_reps
    elapsed = time.monotonic() - t0
    ok = 0.035 <= rate <= 0.065 and elapsed < 300.0
    line = report(
        3, "null rejection rate near the nominal 5%", ok,
        f"{n_reps} panels x {n_events} events, rejection rate {rate:.4f} "
        f"(band [0.035, 0.065]), {elapsed:.1f}s",
    )
    assert 0.035 <= rate <= 0.065, line
    assert elapsed < 300.0, line


def test_criterion_4_injected_effect_is_recovered():
    """60 panels of 500 events with a -0.3% return injected on the event
    day (2% idiosyncratic vol): the panel-averaged event-day AAR lands
    within +/-0.05 percentage points of -0.3% and the mean per-panel t
    is below -1.96, within 2 minutes."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1004)
    config = EstimationConfig()
    n_reps, n_events = 60, 500
    aars = []
    tstats = []
    for _ in range(n_reps):
        ars, sars = event_day_abnormals(
            simulate_event_panel(rng, n_events, idio_vol=0.02, injected_ar=-0.003), config
        )
        aars.append(float(np.mean(ars)))
        tstats.append(bmp_tstat(sars))
    mean_aar = float(np.mean(aars))
    mean_t = float(np.mean(tstats))
    elapsed = time.monotonic() - t0
    ok = abs(mean_aar - (-0.003)) <= 0.0005 and mean_t < -1.96 and elapsed < 120.0
    line = report(
        4, "injected -0.3% abnormal return recovered", ok,
        f"{n_reps} panels x {n_events} events, mean AAR(0) {mean_aar:.6f} "
        f"(target -0.003 +/- 0.0005), mean t {mean_t:.2f} (< -1.96), {elapsed:.1f}s",
    )
    assert abs(mean_aar - (-0.003)) <= 0.0005, line
    assert mean_t < -1.96, line
    assert elapsed < 120.0, line


def test_criterion_5_detection_power_on_planted_spikes(tmp_path):
    """100 seeded corpora, each planting four 12x message spikes on a
    5-per-day Poisson background after a 250-day clean history: pooled
    recall >= 0.95 and pooled precision >= 0.90 at +/-1 trading day.

    Detection runs with min_tweets=20 (a stricter volume floor than the
    default 10; still far below the ~65-message spike days) so chance
    Poisson outliers near a planted day cannot capture its merged event.
    """
    t0 = time.monotonic()
    n_seeds = 100
    detection = DetectionConfig(min_tweets=20)
    calendar = TradingCalendar(business_days(date(2018, 1, 1), 270))
    matched = detected_total = truth_total = 0
    for seed in range(n_seeds):
        config = SynthConfig(
            seed=seed, n_firms=2, n_days=270, base_rate=5.0, filler_rate=2.0,
            planted=(
                PlantedEvent(0, Node.CLIMATE_CHANGE, 255, 12.0),
                PlantedEvent(0, Node.HUMAN_CAPITAL, 263, 12.0),
                PlantedEvent(1, Node.CORPORATE_GOVERNANCE, 258, 12.0),
                PlantedEvent(1, Node.PRODUCT_LIABILITY, 266, 12.0),
            ),
            background_sentiment="positive",
        )
        corpus = tmp_path / f"seed{seed}"
        truth = generate(config, corpus)
        classifier = EsgClassifier(load_esg_lexicon(corpus / "esg_lexicon.csv"))
        scorer = SentimentScorer(load_sentiment_lexicon(corpus / "sentiment_lexicon.csv"))
        firms: dict[str, int] = {}
        columns = ([], [], [], [])  # firm code, trading day, label mask, score
        for msg_id, firm, stamp_us, text in iter_messages(corpus / "messages.csv"):
            idx = assign_trading_index(EPOCH + timedelta(microseconds=stamp_us), calendar)
            if idx is None:
                continue
            tokens = tokenize(text)
            labeled = classifier.classify_tokens(msg_id, tokens)
            row = (firms.setdefault(firm, len(firms)), idx, label_mask(labeled.nodes),
                   scorer.score_tokens(tokens))
            for column, value in zip(columns, row):
                column.append(value)
        stack = build_series(columns, calendar)
        events = filter_and_merge(
            esd_outliers(stack.counts, detection), stack, list(firms), calendar, detection
        )
        detected = [(e.firm, e.node, e.day_index) for e in events if e.sign is Sign.NEGATIVE]
        truth_keys = [(firm, node, calendar.index_of(day)) for firm, node, day in truth.negative_keys()]
        score = evaluate_detection(detected, truth_keys, tolerance=1)
        matched += score.matched
        detected_total += score.n_detected
        truth_total += score.n_truth
    recall = matched / truth_total
    precision = matched / detected_total
    elapsed = time.monotonic() - t0
    ok = recall >= 0.95 and precision >= 0.90
    line = report(
        5, "planted spikes recovered with high recall and precision", ok,
        f"{n_seeds} corpora, {truth_total} truth events: recall {recall:.4f} "
        f"(>= 0.95), precision {precision:.4f} (>= 0.90), {elapsed:.1f}s",
    )
    assert recall >= 0.95, line
    assert precision >= 0.90, line


def test_criterion_6_parameter_robustness(std_corpus, std_run, tmp_path):
    """On the fixed-seed corpus: raising z to 3 or min_tweets to 20 each
    detect a subset of the default run's events, and the 90-day
    estimation window leaves every node's event-day SAAR sign unchanged."""
    corpus_dir, _ = std_corpus
    base_keys = {(e.firm, e.node, e.day) for e in std_run["detect"].detected}
    subset_notes = []
    subsets_ok = True
    for label, override in (("z3", {"z": 3.0}), ("mt20", {"min_tweets": 20})):
        paths = corpus_paths(corpus_dir, tmp_path / label)
        paths["classified"] = str(std_run["classify"].classified_path)
        cfg = run_config_from_dict({"paths": paths, "detection": override})
        out = run_detect(cfg)
        keys = {(e.firm, e.node, e.day) for e in out.detected}
        is_subset = bool(keys) and keys <= base_keys
        subsets_ok = subsets_ok and is_subset
        subset_notes.append(f"{label}: {len(keys)}/{len(base_keys)} subset={is_subset}")

    main_res = {r.node: r for r in std_run["study"].results}
    robust_res = {r.node: r for r in std_run["study"].robustness.results}
    shared = [node for node in main_res if node in robust_res]
    sign_flips = [
        node.value
        for node in shared
        if math.copysign(1.0, main_res[node].stats["SAAR", 0][0])
        != math.copysign(1.0, robust_res[node].stats["SAAR", 0][0])
    ]
    signs_ok = bool(shared) and not sign_flips

    ok = subsets_ok and signs_ok
    line = report(
        6, "stricter settings nest, shorter window keeps signs", ok,
        "; ".join(subset_notes)
        + f"; est90 SAAR(0) sign flips: {sign_flips or 'none'} across {len(shared)} nodes",
    )
    assert subsets_ok, line
    assert signs_ok, line


def test_criterion_7_pipeline_is_deterministic(std_corpus, tmp_path):
    """Two full pipeline runs over the same corpus produce byte-identical
    classified, event and result files."""
    corpus_dir, _ = std_corpus
    for name in ("run_a", "run_b"):
        run_pipeline(make_run_config(corpus_dir, tmp_path / name))
    compared = {}
    for name in ("classified.csv", "events.csv", "results.csv", "results.txt"):
        compared[name] = filecmp.cmp(
            tmp_path / "run_a" / name, tmp_path / "run_b" / name, shallow=False
        )
    ok = all(compared.values())
    diffs = [name for name, same in compared.items() if not same]
    line = report(
        7, "repeated runs are byte-identical", ok,
        f"compared {sorted(compared)}; differing: {diffs or 'none'}",
    )
    assert ok, line


def test_criterion_8_window_sums_decompose(std_run):
    """SCAAR over [-1;+1] equals SCAAR over [-1;0] plus SAAR(+1) to 1e-12,
    on every pipeline result and on random aggregates."""
    worst = 0.0
    checked = 0
    for outputs in (std_run["study"], std_run["study"].robustness):
        for res in outputs.results:
            stats = res.stats
            gap = abs(stats["SCAAR", (-1, 1)][0] - (stats["SCAAR", (-1, 0)][0] + stats["SAAR", 1][0]))
            worst = max(worst, gap)
            checked += 1

    rng = np.random.default_rng(1008)
    config = EstimationConfig()
    offsets = range(-5, 6)
    for _ in range(50):
        draws = [
            (
                [float(rng.normal(0.0, 0.02)) for _ in offsets],
                [float(rng.normal(0.0, 1.0)) for _ in offsets],
            )
            for _ in range(int(rng.integers(2, 30)))
        ]
        ar, sar = (np.array(rows) for rows in zip(*draws))
        events = EventAbnormals(offsets, ar, sar, np.full(len(draws), ""))
        res = aggregate_node(Node.ESG_ALL, events, config)
        stats = res.stats
        gap = abs(stats["SCAAR", (-1, 1)][0] - (stats["SCAAR", (-1, 0)][0] + stats["SAAR", 1][0]))
        worst = max(worst, gap)
        checked += 1

    ok = checked > 0 and worst <= 1e-12
    line = report(
        8, "event-window sums decompose into per-day averages", ok,
        f"{checked} aggregates, max gap {worst:.2e} (tolerance 1e-12)",
    )
    assert checked > 0, line
    assert worst <= 1e-12, line
