"""
Generate a synthetic firm-message corpus with planted risk events
=================================================================

Builds a two-firm, 300-trading-day world: Poisson background chatter,
daily prices driven by a common market factor, and two planted message
spikes with negative sentiment. Everything is seeded, so rerunning
reproduces the same bytes.
"""

from datetime import date
from pathlib import Path

from esgrisk.synth import PlantedEvent, SynthConfig, business_days, generate
from esgrisk.taxonomy import Node

OUT = Path(__file__).parent / "output" / "corpus"

config = SynthConfig(
    seed=42,
    n_firms=2,
    n_days=300,
    start=date(2018, 1, 1),
    base_rate=5.0,
    filler_rate=6.0,
    planted=(
        PlantedEvent(firm=0, node=Node.CLIMATE_CHANGE, day=262, spike=12.0),
        PlantedEvent(firm=1, node=Node.CORPORATE_GOVERNANCE, day=275, spike=12.0),
    ),
    injected_ar=-0.02,  # planted days also get a -2% abnormal return
)

truth = generate(config, OUT)

print(f"corpus written to {OUT}")
for f in sorted(OUT.iterdir()):
    print(f"  {f.name:24s} {f.stat().st_size:>9,d} bytes")

# the generator records what it planted, expanded to parent taxonomy
# levels, so detection output can be scored against it later
print(f"\n{len(truth.planted)} planted events, {len(truth.truth)} truth keys after rollup:")
for key in truth.truth:
    print(f"  {key.firm}  {key.node.value:22s} {key.date}")

days = business_days(config.start, config.n_days)
print(f"\ntrading calendar: {days[0]} .. {days[-1]} ({len(days)} days)")

with open(OUT / "messages.csv") as fh:
    head = [next(fh) for _ in range(4)]
print("\nfirst messages.csv rows:")
print("".join("  " + line for line in head), end="")
