"""
End-to-end run: corpus in, shareholder-response table out
=========================================================

Generates a corpus with four planted negative events (each paired with
a -2% event-day return), runs classify + detect + study in one call,
scores the detected events against the planted truth, and prints the
final report. The same flow is available from the shell:

    esgrisk synth -c synth.yaml --outdir corpus
    esgrisk pipeline -c run.yaml
    esgrisk eval --events out/events.csv --truth corpus/ground_truth.json \
                 --market-index corpus/market_index.csv
"""

from datetime import date
from pathlib import Path

from esgrisk.pipeline import run_config_from_dict, run_pipeline
from esgrisk.synth import PlantedEvent, SynthConfig, generate, evaluate_detection
from esgrisk.taxonomy import Node

out = Path(__file__).parent / "output" / "pipeline_demo"
corpus = out / "corpus"

truth = generate(
    SynthConfig(
        seed=42,
        n_firms=2,
        n_days=300,
        start=date(2018, 1, 1),
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
    ),
    corpus,
)

cfg = run_config_from_dict(
    {
        "paths": {
            "messages": str(corpus / "messages.csv"),
            "prices": str(corpus / "prices.csv"),
            "market_index": str(corpus / "market_index.csv"),
            "earnings": str(corpus / "earnings.csv"),
            "controversy": str(corpus / "controversy.csv"),
            "esg_lexicon": str(corpus / "esg_lexicon.csv"),
            "sentiment_lexicon": str(corpus / "sentiment_lexicon.csv"),
            "outdir": str(out / "run"),
        },
        "robustness_est_len": 90,
    }
)

classify_out, detect_out, study_out = run_pipeline(cfg)

print(f"classified {classify_out.n_messages} messages "
      f"({classify_out.report.skips_total} rows skipped on ingest)")
print(f"detected {len(detect_out.detected)} events, kept {len(detect_out.kept)} "
      f"negative unconfounded, {len(detect_out.removed)} removed")

# score the kept events against what the generator planted, on detect's calendar
score = evaluate_detection(
    [(e.firm, e.node, e.day_index) for e in detect_out.kept],
    [(firm, node, detect_out.calendar.index_of(day)) for firm, node, day in truth.negative_keys()],
    tolerance=1,
)
print(f"vs planted truth: matched {score.matched}/{score.n_truth}, "
      f"precision {score.precision:.3f}, recall {score.recall:.3f}")

print(f"\nartifacts in {cfg.outdir()}:")
for f in sorted(cfg.outdir().iterdir()):
    print(f"  {f.name}")

print("\n" + study_out.results_text.read_text())
