"""
Abnormal message-volume detection, step by step
===============================================

First the bare spike rule on a constructed count series, then the full
detection stage (classify, aggregate, flag, filter, merge, exclude
confounded) on a generated corpus that plants one risk event and one
earnings release two days after it.
"""

from datetime import date
from pathlib import Path

import numpy as np

from esgrisk.detect import DetectionConfig, esd_outliers
from esgrisk.pipeline import run_classify, run_config_from_dict, run_detect
from esgrisk.synth import Confound, PlantedEvent, SynthConfig, generate
from esgrisk.taxonomy import Node

# --- the spike rule on raw counts ------------------------------------
# a day is flagged when it sits z standard deviations above the mean of
# the 250 days before it; the window must be complete, so nothing can
# fire before day 250
rng = np.random.default_rng(0)
counts = rng.poisson(5.0, 320)
counts[260] += 55
counts[300] += 8  # too small to clear z=2

config = DetectionConfig()  # z=2, window_len=250, spikes only
print("flagged day indexes:", list(esd_outliers(counts, config)))
print("with z=3:           ", list(esd_outliers(counts, DetectionConfig(z=3.0))))

# --- the full stage on a corpus --------------------------------------
out = Path(__file__).parent / "output" / "detect_demo"
corpus = out / "corpus"

truth = generate(
    SynthConfig(
        seed=7,
        n_firms=1,
        n_days=300,
        base_rate=5.0,
        filler_rate=4.0,
        planted=(PlantedEvent(firm=0, node=Node.CLIMATE_CHANGE, day=262, spike=12.0),),
        confounds=(Confound(firm=0, day=264, kind="earnings"),),
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
        }
    }
)

run_classify(cfg)
detection = run_detect(cfg)

planted = truth.planted[0]
print(f"\nplanted: {planted.firm}, {planted.node.value}, {planted.date}")
# each event carries its events.csv fate: an empty removal_reason means
# kept; the earnings release two trading days later knocks everything out
print(f"detected {len(detection.detected)} events, kept {len(detection.kept)}:")
for ev in detection.detected:
    fate = ev.removal_reason or "kept"
    if ev.distance_to_confound is not None:
        fate += f" at distance {ev.distance_to_confound:+d}"
    print(f"  {ev.firm}  {ev.node.value:22s} {ev.day}  sentiment {ev.score:+.3f}  {fate}")
