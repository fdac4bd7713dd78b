import csv
import random
import re
from datetime import date

import pytest

from esgrisk.aggregate import build_series, label_mask
from esgrisk.detect import DetectionConfig, filter_and_merge
from esgrisk.errors import DataError, NumericError
from esgrisk.lexicon import tokenize
from esgrisk.pipeline import _ClassifyEngine
from esgrisk.sentiment import (
    SentimentEntry,
    SentimentScorer,
    Sign,
    classify_sign,
    load_sentiment_lexicon,
)
from esgrisk.taxonomy import Node, node_sort_key
from esgrisk.trading import TradingCalendar


def scorer(pairs):
    return SentimentScorer(
        SentimentEntry(term=tuple(t.split()), weight=w) for t, w in pairs
    )


def score(s, text):
    return s.score_tokens(tokenize(text))


def day_sentiment(scores):
    """The event score detect gives a day whose messages score `scores`, None
    when it has no messages (one message on the day before keeps the series alive)."""
    cal = TradingCalendar([date(2020, 1, 6), date(2020, 1, 7)])
    mask = label_mask({Node.PRODUCT_LIABILITY})
    day = [0] + [1] * len(scores)
    stack = build_series(([0] * len(day), day, [mask] * len(day), [0.9, *scores]), cal)
    row = node_sort_key(Node.PRODUCT_LIABILITY)
    config = DetectionConfig(min_tweets=0, min_share=0.0)  # no filter: the day's score as is
    try:
        (event,) = filter_and_merge([row * len(cal) + 1], stack, ["A"], cal, config)
    except NumericError:  # detect's verdict on a day without messages
        return None
    return event.score


def test_score_is_mean_of_matched_weights():
    s = scorer([("good", 0.8), ("bad", -0.2)])
    assert score(s, "good but bad") == pytest.approx(0.3)


def test_score_adds_weights_left_to_right(tmp_path):
    # sum() of floats is compensated from Python 3.12 on and would give 0.6 / 3 = 0.2
    assert score(scorer([("a", 0.1), ("b", 0.2), ("c", 0.3)]), "a b c") == 0.20000000000000004
    esg, senti = tmp_path / "esg.csv", tmp_path / "senti.csv"
    esg.write_text("term,node\noil spill,NaturalCapital\n", encoding="utf-8")
    senti.write_text("term,weight\na,0.1\nb,0.2\nc,0.3\n", encoding="utf-8")
    assert _ClassifyEngine(str(esg), str(senti)).rows(["a b c"]) == [(0, "", "0.20000000000000004")]


def test_score_no_match_is_zero():
    s = scorer([("good", 0.8)])
    assert score(s, "nothing here") == 0.0
    assert score(s, "") == 0.0


def test_score_single_term():
    s = scorer([("awful", -1.0)])
    assert score(s, "awful day") == -1.0


def test_repeated_term_counts_every_occurrence():
    # two "bad" and one "good": mean of (-0.2, -0.2, 0.8)
    s = scorer([("good", 0.8), ("bad", -0.2)])
    assert score(s, "bad bad good") == pytest.approx(0.4 / 3)


def test_multiword_sentiment_terms_match():
    s = scorer([("class action", -0.6)])
    assert score(s, "a class action was filed") == -0.6


def test_score_stays_in_unit_interval():
    rng = random.Random(3)
    vocab = [("w%d" % i, rng.uniform(-1, 1)) for i in range(30)]
    s = scorer(vocab)
    words = [t for t, _ in vocab] + ["zz", "qq"]
    for _ in range(200):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 15)))
        assert -1.0 <= score(s, text) <= 1.0


def test_daily_sentiment():
    assert day_sentiment([0.3, -0.5]) == pytest.approx(-0.1)
    assert day_sentiment([0.2]) == 0.2
    assert day_sentiment([]) is None


def test_daily_sentiment_order_invariant():
    rng = random.Random(5)
    scores = [rng.uniform(-1, 1) for _ in range(20)]
    shuffled = scores[:]
    rng.shuffle(shuffled)
    assert day_sentiment(scores) == pytest.approx(day_sentiment(shuffled))


def test_classify_sign_examples():
    assert classify_sign(0.04) is Sign.NEGATIVE
    assert classify_sign(0.05) is Sign.POSITIVE  # boundary is Positive
    assert classify_sign(-0.3) is Sign.NEGATIVE


def test_classify_sign_monotone_and_threshold_sweep():
    scores = [-0.2, 0.0, 0.04, 0.05, 0.07, 0.1, 0.5]
    for threshold in (0.0, 0.05, 0.1):
        signs = [classify_sign(s, threshold) for s in scores]
        # once positive, stays positive as score grows
        flipped = [s is Sign.POSITIVE for s in signs]
        assert flipped == sorted(flipped)
        assert classify_sign(threshold, threshold) is Sign.POSITIVE


def test_load_sentiment_lexicon_validation(tmp_path):
    def write(rows, name):
        path = tmp_path / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["term", "weight"])
            w.writerows(rows)
        return path

    good = write([["bad", "-0.5"], ["good", "0.5"]], "good.csv")
    entries = load_sentiment_lexicon(good)
    assert len(entries) == 2

    with pytest.raises(DataError):
        load_sentiment_lexicon(write([["bad", "-1.5"]], "range.csv"))
    with pytest.raises(DataError):
        load_sentiment_lexicon(write([["bad", "x"]], "nan.csv"))
    with pytest.raises(DataError):
        load_sentiment_lexicon(write([["bad", "-0.5"], ["bad", "-0.4"]], "dup.csv"))


@pytest.mark.parametrize("rows, error", [
    ([["bad", " "]], "2: term and weight are both required"),
    ([["$", "0.5"]], "2: term '$' has no tokens"),
    ([["a b c d e f", "0.5"]], "2: term 'a b c d e f' exceeds 5 tokens"),
    ([["bad", "x"], ["", ""]], "2: weight 'x' is not a number"),
    ([["good", "0.5"], ["bad", "nan"]], "3: weight nan outside [-1, 1]"),
    ([["bad", " -1.5 "]], "2: weight -1.5 outside [-1, 1]"),
    ([["good", "1"], ["bad", "-1"], ["worse", "-1.0001"]], "4: weight -1.0001 outside [-1, 1]"),
    ([["bad", "-0.5"], ["Bad", "-0.4"]], "3: duplicate sentiment term 'Bad'"),
])
def test_load_sentiment_lexicon_names_first_bad_row(tmp_path, rows, error):
    """Each row's first failed check, at the first failing row; the term checks are the ESG lexicon's."""
    path = tmp_path / "sent.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["term", "weight"], *rows])
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{error}')}$"):
        load_sentiment_lexicon(path)
