import csv
import dataclasses
import filecmp
import io
import json
from datetime import date

import numpy as np
import pytest
from conftest import event_day_abnormals
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esgrisk.demodata import demo_esg_lexicon_path, demo_sentiment_lexicon_path
from esgrisk.errors import ConfigError
from esgrisk.ingest import parse_timestamp
from esgrisk.lexicon import tokenize
from esgrisk.pipeline import _ClassifyEngine, build_config
from esgrisk.sentiment import Sign
from esgrisk.study import EstimationConfig
from esgrisk.synth import (
    FILLER_WORDS,
    Confound,
    DetectionScore,
    GroundTruth,
    PlantedEvent,
    SynthConfig,
    TruthEvent,
    TruthKey,
    business_days,
    evaluate_detection,
    firm_name,
    generate,
    simulate_event_panel,
    synth_config_from_dict,
)
from esgrisk.taxonomy import Node, node_sort_key
from esgrisk.trading import TradingCalendar, assign_trading_index

CORPUS_FILES = (
    "messages.csv", "prices.csv", "market_index.csv", "earnings.csv",
    "controversy.csv", "esg_lexicon.csv", "sentiment_lexicon.csv",
    "ground_truth.json",
)


def small_config(**overrides):
    base = dict(
        seed=5, n_firms=2, n_days=30, base_rate=3.0, filler_rate=2.0,
        planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 20, 12.0),),
        injected_ar=-0.01,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_config_validation():
    small_config().validate()
    with pytest.raises(ConfigError, match="day index"):
        small_config(planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 30, 12.0),)).validate()
    with pytest.raises(ConfigError, match="firm index"):
        small_config(planted=(PlantedEvent(2, Node.CLIMATE_CHANGE, 5, 12.0),)).validate()
    with pytest.raises(ConfigError, match="spike must be positive"):
        small_config(planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 5, 0.0),)).validate()
    with pytest.raises(ConfigError, match="duplicate"):
        dup = PlantedEvent(0, Node.CLIMATE_CHANGE, 5, 12.0)
        small_config(planted=(dup, dup)).validate()
    with pytest.raises(ConfigError, match="background_sentiment"):
        small_config(background_sentiment="angry").validate()
    with pytest.raises(ConfigError, match="confound kind"):
        small_config(confounds=(Confound(0, 5, "merger"),)).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n_days=1).validate()


def test_config_from_dict():
    config = synth_config_from_dict(
        {
            "seed": 9,
            "n_days": 40,
            "start": "2019-06-03",
            "planted": [{"firm": 0, "node": "ClimateChange", "day": 30, "spike": 8.0}],
            "confounds": [{"firm": 0, "day": 12, "kind": "earnings"}],
        }
    )
    assert config.seed == 9
    assert config.start == date(2019, 6, 3)
    assert config.planted[0].node is Node.CLIMATE_CHANGE
    assert config.planted[0].sign is Sign.NEGATIVE
    assert config.confounds == (Confound(0, 12, "earnings"),)
    with pytest.raises(ConfigError, match="unknown"):
        synth_config_from_dict({"n_dayz": 40})
    assert synth_config_from_dict(dataclasses.asdict(config)) == config  # entry keys are field names


def test_business_days_skips_weekends():
    days = business_days(date(2020, 3, 6), 4)  # Friday start
    assert days == [date(2020, 3, 6), date(2020, 3, 9), date(2020, 3, 10), date(2020, 3, 11)]
    days = business_days(date(2020, 3, 7), 1)  # Saturday start rolls to Monday
    assert days == [date(2020, 3, 9)]
    assert all(d.weekday() < 5 for d in business_days(date(2018, 1, 1), 500))


def test_firm_name_padding():
    assert firm_name(0) == "FIRM00"
    assert firm_name(7) == "FIRM07"
    assert firm_name(12) == "FIRM12"


def test_generate_writes_complete_corpus(tmp_path):
    config = small_config()
    truth = generate(config, tmp_path)
    for name in CORPUS_FILES:
        assert (tmp_path / name).exists(), name
    day = business_days(config.start, config.n_days)[20]
    assert truth.injected_ar == -0.01
    assert truth.planted == (TruthEvent("FIRM00", Node.CLIMATE_CHANGE, day, 12.0, Sign.NEGATIVE),)
    # truth keys carry the full ancestor chain of the planted node, in report order
    assert truth.truth == (
        TruthKey("FIRM00", Node.ESG_ALL, day),
        TruthKey("FIRM00", Node.ENVIRONMENT, day),
        TruthKey("FIRM00", Node.CLIMATE_CHANGE, day),
    )


def test_generate_price_rows_cover_every_firm_day(tmp_path):
    config = small_config()
    generate(config, tmp_path)
    with open(tmp_path / "prices.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == config.n_firms * config.n_days
    firms = {row["firm"] for row in rows}
    assert firms == {"FIRM00", "FIRM01"}
    for row in rows:
        float(row["close"])
        float(row["return"])


def test_generate_is_deterministic(tmp_path):
    config = small_config()
    generate(config, tmp_path / "a")
    generate(config, tmp_path / "b")
    for name in CORPUS_FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


def test_generate_seed_changes_output(tmp_path):
    generate(small_config(seed=5), tmp_path / "a")
    generate(small_config(seed=6), tmp_path / "b")
    assert not filecmp.cmp(tmp_path / "a" / "messages.csv", tmp_path / "b" / "messages.csv", shallow=False)


def test_injected_ar_shifts_only_planted_day_returns(tmp_path):
    """The return injection must not perturb the RNG stream anywhere."""
    generate(small_config(injected_ar=0.0), tmp_path / "a")
    generate(small_config(injected_ar=-0.01), tmp_path / "b")
    assert filecmp.cmp(tmp_path / "a" / "messages.csv", tmp_path / "b" / "messages.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "a" / "market_index.csv", tmp_path / "b" / "market_index.csv", shallow=False)

    def returns(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return {(r["firm"], r["date"]): float(r["return"]) for r in csv.DictReader(fh)}

    base = returns(tmp_path / "a" / "prices.csv")
    shifted = returns(tmp_path / "b" / "prices.csv")
    planted_day = business_days(date(2018, 1, 1), 30)[20].isoformat()
    for key, r in base.items():
        if key == ("FIRM00", planted_day):
            assert shifted[key] == pytest.approx(r - 0.01, abs=1e-15)
        else:
            assert shifted[key] == r


def test_spike_day_volume_mean(tmp_path):
    """Planted-day chatter adds a Poisson(spike * base) on top of the
    Poisson(base) background, so the mean count is base * (1 + spike)."""
    base, spike = 5.0, 12.0
    calendar = TradingCalendar(business_days(date(2018, 1, 1), 3))
    counts = []
    for seed in range(200):
        config = SynthConfig(
            seed=seed, n_firms=1, n_days=3, base_rate=base, filler_rate=0.0,
            planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 2, spike),),
        )
        outdir = tmp_path / f"s{seed}"
        generate(config, outdir)
        n = 0
        with open(outdir / "messages.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                ts = parse_timestamp(row["timestamp"])
                if assign_trading_index(ts, calendar) == 2:
                    n += 1
        counts.append(n)
    mean = float(np.mean(counts))
    expected = base * (1.0 + spike)
    # 200 seeds put the standard error near 0.57, so +/- 2.5 is over 4 sigma
    assert abs(mean - expected) < 2.5


def read_messages(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@settings(max_examples=25, deadline=None)
@given(
    start=st.dates(date(2020, 2, 20), date(2020, 11, 10)),  # 2020 DST switches: Mar 8/29, Oct 25/Nov 1
    tz=st.sampled_from(["America/New_York", "Europe/London", "Asia/Tokyo"]),
)
@example(start=date(2020, 3, 2), tz="America/New_York")
@example(start=date(2020, 3, 23), tz="Europe/London")
@example(start=date(2020, 10, 19), tz="Europe/London")
@example(start=date(2020, 10, 26), tz="America/New_York")
def test_stamps_are_isoformat_and_fall_on_calendar_days(tmp_path_factory, start, tz):
    config = SynthConfig(seed=3, n_firms=1, n_days=20, base_rate=2.0, filler_rate=3.0, start=start,
                         exchange_tz=tz, planted=(PlantedEvent(0, Node.CLIMATE_CHANGE, 10, 3.0),))
    outdir = tmp_path_factory.mktemp("stamps")
    generate(config, outdir)
    calendar = TradingCalendar(business_days(start, config.n_days))
    rows = read_messages(outdir / "messages.csv")
    assert rows
    for row in rows:
        ts = parse_timestamp(row["timestamp"])
        assert row["timestamp"] == ts.isoformat()
        assert assign_trading_index(ts, calendar, tz) is not None


@pytest.mark.parametrize("background", ["neutral", "positive"])
def test_texts_classify_as_drawn(tmp_path, background):
    """Filler matches nothing; every other message carries exactly its firm's
    node, with the sign of its source."""
    plants = {"FIRM00": PlantedEvent(0, Node.CLIMATE_CHANGE, 8, 6.0),
              "FIRM01": PlantedEvent(1, Node.HUMAN_CAPITAL, 12, 6.0, sign=Sign.POSITIVE)}
    config = SynthConfig(seed=11, n_firms=2, n_days=20, base_rate=4.0, filler_rate=6.0,
                         background_sentiment=background, planted=tuple(plants.values()))
    generate(config, tmp_path)
    rows = read_messages(tmp_path / "messages.csv")
    calendar = TradingCalendar(business_days(config.start, config.n_days))
    engine = _ClassifyEngine(str(demo_esg_lexicon_path()), str(demo_sentiment_lexicon_path()))
    filler_lengths, kinds = set(), set()
    for row, (nodes, _, score) in zip(rows, engine.rows([r["text"] for r in rows])):
        words = row["text"].split()
        assert words[0] == "$" + row["firm"]
        if all(w in FILLER_WORDS for w in words[1:]):
            hits = engine.matcher.find(tokenize(row["text"]))
            assert not hits, row
            filler_lengths.add(len(words) - 1)
            kinds.add("filler")
            continue
        plant = plants[row["firm"]]
        assert nodes == 1 << node_sort_key(plant.node), row
        if words[1] in FILLER_WORDS:  # background: filler words, then the term
            expected = 1 if background == "positive" else 0
            kinds.add("background")
        else:  # planted: the term and its sentiment word come first
            day = assign_trading_index(parse_timestamp(row["timestamp"]), calendar)
            assert day == plant.day, row
            expected = -1 if plant.sign is Sign.NEGATIVE else 1
            kinds.add(f"planted {plant.sign.value}")
        assert np.sign(float(score)) == expected, row
    assert filler_lengths == {3, 4, 5, 6}
    assert kinds == {"filler", "background", "planted negative", "planted positive"}
    assert [r["id"] for r in rows] == [f"m{k:07d}" for k in range(1, len(rows) + 1)]


def test_message_count_matches_poisson_mean(tmp_path):
    """The total count is a sum of Poissons: within six standard deviations
    of filler and background chatter on every day plus the planted spikes."""
    plants = (PlantedEvent(0, Node.CLIMATE_CHANGE, 30, 12.0), PlantedEvent(0, Node.HUMAN_CAPITAL, 40, 8.0),
              PlantedEvent(2, Node.CORPORATE_GOVERNANCE, 50, 10.0, sign=Sign.POSITIVE))
    for seed in range(4):
        config = SynthConfig(seed=seed, n_firms=3, n_days=60, base_rate=5.0, filler_rate=6.0,
                             planted=plants)
        generate(config, tmp_path / str(seed))
        n = len(read_messages(tmp_path / str(seed) / "messages.csv"))
        background_nodes = 2 + 1  # two planted nodes on firm 0, one on firm 2
        mean = (config.n_days * (config.n_firms * config.filler_rate + background_nodes * config.base_rate)
                + sum(config.base_rate * ev.spike for ev in plants))
        assert abs(n - mean) <= 6 * np.sqrt(mean), (seed, n, mean)


_CSV_SPECIALS = (",", '"', "\r", "\n")  # what makes csv.writer's QUOTE_MINIMAL quote a cell


@pytest.mark.parametrize("background", ["neutral", "positive"])
def test_written_csvs_survive_a_csv_round_trip(tmp_path, background):
    """synth writes joined lines, not csv.writer rows: csv.writer must give the
    same bytes back, so no cell would have needed quoting. The lexicons are
    byte copies of the demo files and are not formatted by synth."""
    plants = (PlantedEvent(0, Node.CLIMATE_CHANGE, 8, 6.0),
              PlantedEvent(1, Node.HUMAN_CAPITAL, 12, 6.0, sign=Sign.POSITIVE))
    config = SynthConfig(seed=13, n_firms=2, n_days=20, base_rate=4.0, filler_rate=6.0,
                         background_sentiment=background, planted=plants,
                         confounds=(Confound(0, 3, "earnings"), Confound(1, 5, "controversy"),
                                    Confound(0, 2, "earnings")))
    generate(config, tmp_path)
    for name in ("messages.csv", "prices.csv", "market_index.csv", "earnings.csv", "controversy.csv"):
        raw = (tmp_path / name).read_bytes()
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1, name
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows(rows)
        assert buffer.getvalue().encode("utf-8") == raw, name


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("oil, spill")
@example('say "hi"\r\nnow')
def test_joined_tokens_need_no_csv_quoting(text):
    """Lexicon terms and sentiment words are joined tokens, so no text synth
    builds from them holds a character that csv.writer would quote."""
    joined = " ".join(tokenize(text))
    assert not any(c in joined for c in _CSV_SPECIALS)


def test_filler_words_and_firm_names_need_no_csv_quoting():
    for cell in (*FILLER_WORDS, *(firm_name(i) for i in (0, 7, 99, 100, 12345))):
        assert not any(c in cell for c in _CSV_SPECIALS), cell


def test_ground_truth_round_trip(tmp_path):
    truth = generate(small_config(), tmp_path)
    plain = json.loads(json.dumps(dataclasses.asdict(truth), default=str))
    assert build_config(GroundTruth, plain, "ground truth") == truth
    assert GroundTruth.load(tmp_path / "ground_truth.json") == truth


GOLDEN_GROUND_TRUTH = """\
{
  "injected_ar": -0.01,
  "planted": [
    {
      "date": "2018-01-29",
      "firm": "FIRM00",
      "node": "ClimateChange",
      "sign": "negative",
      "spike_size": 12.0
    },
    {
      "date": "2018-01-31",
      "firm": "FIRM01",
      "node": "HumanCapital",
      "sign": "positive",
      "spike_size": 8.5
    }
  ],
  "truth": [
    {
      "date": "2018-01-29",
      "firm": "FIRM00",
      "node": "ESG_ALL"
    },
    {
      "date": "2018-01-29",
      "firm": "FIRM00",
      "node": "Environment"
    },
    {
      "date": "2018-01-29",
      "firm": "FIRM00",
      "node": "ClimateChange"
    },
    {
      "date": "2018-01-31",
      "firm": "FIRM01",
      "node": "ESG_ALL"
    },
    {
      "date": "2018-01-31",
      "firm": "FIRM01",
      "node": "Social"
    },
    {
      "date": "2018-01-31",
      "firm": "FIRM01",
      "node": "HumanCapital"
    }
  ]
}
"""


def test_ground_truth_json_text_is_pinned(tmp_path):
    """The file's keys, value spellings, key order and indentation are fixed."""
    config = small_config(
        planted=(
            PlantedEvent(0, Node.CLIMATE_CHANGE, 20, 12.0),
            PlantedEvent(1, Node.HUMAN_CAPITAL, 22, 8.5, sign=Sign.POSITIVE),
        ),
    )
    truth = generate(config, tmp_path)
    assert (tmp_path / "ground_truth.json").read_text(encoding="utf-8") == GOLDEN_GROUND_TRUTH
    assert GroundTruth.load(tmp_path / "ground_truth.json") == truth


def test_ground_truth_negative_keys_exclude_positive_events(tmp_path):
    config = small_config(
        planted=(
            PlantedEvent(0, Node.CLIMATE_CHANGE, 20, 12.0),
            PlantedEvent(1, Node.HUMAN_CAPITAL, 22, 12.0, sign=Sign.POSITIVE),
        ),
    )
    truth = generate(config, tmp_path)
    days = business_days(config.start, config.n_days)
    assert truth.negative_keys() == frozenset(
        {
            ("FIRM00", Node.CLIMATE_CHANGE, days[20]),
            ("FIRM00", Node.ENVIRONMENT, days[20]),
            ("FIRM00", Node.ESG_ALL, days[20]),
        }
    )
    # but the full truth set still carries the positive plant
    assert TruthKey("FIRM01", Node.HUMAN_CAPITAL, days[22]) in truth.truth


def test_ground_truth_load_missing_file(tmp_path):
    from esgrisk.errors import DataError

    with pytest.raises(DataError):
        GroundTruth.load(tmp_path / "nope.json")


def test_simulate_event_panel_shape():
    rng = np.random.default_rng(3)
    firm, market, event_days = simulate_event_panel(rng, 4)
    assert firm.shape == market.shape == (4, 123)
    assert event_days.tolist() == [121] * 4


def test_simulate_event_panel_injection_recovered():
    # with negligible idiosyncratic noise the market-model prediction error
    # on the event day is the injected abnormal return
    rng = np.random.default_rng(4)
    config = EstimationConfig()
    ar, _ = event_day_abnormals(
        simulate_event_panel(rng, 5, idio_vol=1e-9, injected_ar=-0.003), config
    )
    assert len(ar) == 5
    assert ar == pytest.approx(np.full(5, -0.003), abs=1e-6)


def test_simulate_event_panel_null_has_no_drift():
    rng = np.random.default_rng(6)
    config = EstimationConfig()
    ars, _ = event_day_abnormals(simulate_event_panel(rng, 300), config)
    assert len(ars) == 300
    # mean AR ~ N(0, 0.02 / sqrt(300)): zero to within 4 standard errors
    assert abs(float(np.mean(ars))) < 4 * 0.02 / np.sqrt(300)


def test_evaluate_detection_exact_match():
    keys = [("A", Node.ESG_ALL, i) for i in (5, 15, 25)]
    score = evaluate_detection(keys, keys)
    assert score == DetectionScore(precision=1.0, recall=1.0, matched=3, n_detected=3, n_truth=3)


def test_evaluate_detection_nothing_detected():
    truth = [("A", Node.ESG_ALL, 5)]
    score = evaluate_detection([], truth)
    assert score.precision is None
    assert score.recall == 0.0
    assert score.matched == 0


def test_evaluate_detection_empty_truth():
    detected = [("A", Node.ESG_ALL, 5)]
    score = evaluate_detection(detected, [])
    assert score.recall is None
    assert score.precision == 0.0


def test_evaluate_detection_tolerance():
    truth = [("A", Node.ESG_ALL, 10)]
    off_by_one = [("A", Node.ESG_ALL, 11)]
    assert evaluate_detection(off_by_one, truth, tolerance=1).matched == 1
    assert evaluate_detection(off_by_one, truth, tolerance=0).matched == 0
    # node must match exactly, tolerance applies to days only
    wrong_node = [("A", Node.ENVIRONMENT, 10)]
    assert evaluate_detection(wrong_node, truth).matched == 0


def test_evaluate_detection_partial():
    truth = [("A", Node.ESG_ALL, 5 * i) for i in range(1, 11)]
    detected = truth[:9] + [("A", Node.ESG_ALL, 57)]
    score = evaluate_detection(detected, truth)
    assert score.matched == 9
    assert score.precision == pytest.approx(0.9)
    assert score.recall == pytest.approx(0.9)


def test_evaluate_detection_no_double_counting():
    truth = [("A", Node.ESG_ALL, 10), ("A", Node.ESG_ALL, 11)]
    detected = [("A", Node.ESG_ALL, 10)]
    score = evaluate_detection(detected, truth)
    assert score.matched == 1
    assert score.recall == pytest.approx(0.5)


def evaluate_detection_oracle(detected, truth, tolerance=1):
    """The (position, used) candidate scan evaluate_detection replaced, kept as its oracle."""
    detected = list(detected)
    truth = sorted(set(truth), key=lambda k: (k[0], node_sort_key(k[1]), k[2]))
    pool = {}
    for firm, node, day in detected:
        pool.setdefault((firm, node), []).append((day, False))
    for candidates in pool.values():
        candidates.sort()
    matched = 0
    for firm, node, idx in truth:
        candidates = pool.get((firm, node), [])
        best = None
        for j, (pos, used) in enumerate(candidates):
            if used or abs(pos - idx) > tolerance:
                continue
            if best is None or (abs(pos - idx), pos) < (abs(candidates[best][0] - idx), candidates[best][0]):
                best = j
        if best is not None:
            candidates[best] = (candidates[best][0], True)
            matched += 1
    n_detected, n_truth = len(detected), len(truth)
    return DetectionScore(
        precision=(matched / n_detected) if n_detected else None,
        recall=(matched / n_truth) if n_truth else None,
        matched=matched, n_detected=n_detected, n_truth=n_truth,
    )


_KEYS = st.tuples(st.sampled_from(["A", "B"]), st.sampled_from([Node.ESG_ALL, Node.SOCIAL]),
                  st.integers(0, 11))


@settings(max_examples=300, deadline=None)
@given(st.lists(_KEYS, max_size=12), st.lists(_KEYS, max_size=12), st.integers(0, 3))
@example([("A", Node.ESG_ALL, 5)] * 2, [("A", Node.ESG_ALL, 4), ("A", Node.ESG_ALL, 6)], 1)
@example([("A", Node.ESG_ALL, 4), ("A", Node.ESG_ALL, 6)], [("A", Node.ESG_ALL, 5)] * 3, 1)
@example([("A", Node.ESG_ALL, 4), ("A", Node.ESG_ALL, 6)], [("A", Node.ESG_ALL, 5), ("A", Node.ESG_ALL, 7)], 1)
def test_evaluate_detection_matches_candidate_scan(detected, truth, tolerance):
    """Repeated keys and ties in distance included, every score field agrees."""
    expected = evaluate_detection_oracle(detected, truth, tolerance)
    assert evaluate_detection(detected, truth, tolerance=tolerance) == expected
