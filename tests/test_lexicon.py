import csv
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgrisk.demodata import demo_esg_lexicon_path
from esgrisk.errors import DataError
from esgrisk.lexicon import (
    EsgClassifier,
    LexiconEntry,
    TokenMatcher,
    load_esg_lexicon,
    tokenize,
)
from esgrisk.taxonomy import SUBCATEGORIES, Node


def test_tokenize_strips_urls_and_mentions():
    assert tokenize("Oil SPILL at @BP! https://t.co/x") == ["oil", "spill", "at"]


def test_tokenize_hashtags_and_cashtags():
    assert tokenize("#ClimateChange is real") == ["climatechange", "is", "real"]
    assert tokenize("$XOM up today") == ["xom", "up", "today"]


def test_tokenize_empty_and_www():
    assert tokenize("") == []
    assert tokenize("see www.example.com/page now") == ["see", "now"]
    assert tokenize("...!!!") == []


def three_pass_tokenize(text):
    """The former tokenize: URLs, then mentions, then \\w+ runs, each a regex pass."""
    text = text.lower()
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    return re.findall(r"\w+", text)


TEXT_PIECES = st.sampled_from([
    "foo", "Bar", "_", "x_1", "42", "www.x.com", "foowww.x.com", "@www.x.com", "HTTP://t.co/x",
    "https", "http", "www.", "@", "@user", "@_u1", "#Tag", "$AAPL", "\x1e", "\x00", " ", "\t",
    "\n", ".", "-", "é", "Ünïcode", "ß", "\u212a", "İ", "—", "٣", "\u00a0",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(TEXT_PIECES | st.text(max_size=4), max_size=12).map("".join))
def test_tokenize_matches_three_pass_oracle(text):
    assert tokenize(text) == three_pass_tokenize(text)


def test_tokenize_keeps_the_three_pass_edges():
    assert tokenize("foowww.x.com") == ["foo"]  # a URL glued to a word still goes
    assert tokenize("@www.x.com a_b 9") == ["a_b", "9"]
    assert tokenize("a\x1eb\u212a") == ["a", "bk"]


def write_lexicon(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["term", "node"])
        w.writerows(rows)
    return path


def test_load_demo_lexicon():
    entries = load_esg_lexicon(demo_esg_lexicon_path())
    assert len(entries) > 0
    assert all(e.node in SUBCATEGORIES for e in entries)
    assert all(1 <= len(e.term) <= 5 for e in entries)


def test_load_rejects_unknown_node(tmp_path):
    path = write_lexicon(tmp_path / "lex.csv", [["oil spill", "Pollution"]])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: unknown taxonomy node"):
        load_esg_lexicon(path)


def test_load_rejects_duplicates_and_long_terms(tmp_path):
    dup = write_lexicon(
        tmp_path / "dup.csv",
        [["oil spill", "PollutionAndWaste"], ["Oil Spill", "PollutionAndWaste"]],
    )
    with pytest.raises(DataError):
        load_esg_lexicon(dup)
    long = write_lexicon(
        tmp_path / "long.csv", [["a b c d e f", "PollutionAndWaste"]]
    )
    with pytest.raises(DataError):
        load_esg_lexicon(long)


@pytest.mark.parametrize("rows, error", [
    ([["oil spill", " "]], "2: term and node are both required"),
    ([["oil spill", "PollutionAndWaste"], ["", "ClimateChange"]], "3: term and node are both required"),
    ([["$ #", "ClimateChange"]], "2: term '$ #' has no tokens"),
    ([["a b c d e f", "ClimateChange"]], "2: term 'a b c d e f' exceeds 5 tokens"),
    ([["oil spill", "Pollution"], ["", ""]], "2: unknown taxonomy node: 'Pollution'"),
    ([["oil spill", "PollutionAndWaste"], ["Oil  Spill", "pollution_and_waste"]],
     "3: duplicate entry 'Oil  Spill' -> PollutionAndWaste"),
])
def test_load_esg_lexicon_names_first_bad_row(tmp_path, rows, error):
    """Each row's first failed check, at the first failing row; later rows are not read."""
    path = write_lexicon(tmp_path / "lex.csv", rows)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{error}')}$"):
        load_esg_lexicon(path)


def demo_classifier():
    return EsgClassifier(load_esg_lexicon(demo_esg_lexicon_path()))


def test_classify_single_match():
    clf = demo_classifier()
    got = clf.classify("m1", "Massive oil spill reported near the coast")
    assert got.nodes == frozenset({Node.POLLUTION_AND_WASTE})
    assert "oil spill" in got.matched_terms


def test_classify_multi_label():
    clf = demo_classifier()
    got = clf.classify("m2", "employee strike over executive pay")
    assert got.nodes == frozenset({Node.HUMAN_CAPITAL, Node.CORPORATE_GOVERNANCE})


def test_classify_no_match():
    clf = demo_classifier()
    got = clf.classify("m3", "nothing relevant here")
    assert got.nodes == frozenset()
    assert got.matched_terms == ()


def test_matched_terms_are_contiguous_subsequences():
    clf = demo_classifier()
    texts = [
        "climate change and toxic waste near the wind farm",
        "the data breach triggered a consumer boycott",
        "insider trading probe, bribery and tax evasion",
    ]
    for text in texts:
        tokens = tokenize(text)
        got = clf.classify_tokens("m", tokens)
        for term in got.matched_terms:
            gram = tuple(term.split())
            k = len(gram)
            assert any(
                tuple(tokens[i : i + k]) == gram for i in range(len(tokens) - k + 1)
            ), term


def test_classification_invariant_to_lexicon_order(tmp_path):
    """Permuting lexicon rows never changes any classification."""
    with demo_esg_lexicon_path().open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    rng = random.Random(7)
    texts = [
        "oil spill and toxic waste",
        "great quarter, strong momentum",
        "worker safety audit after the employee strike",
        "carbon emissions hit a net zero target milestone",
    ]
    base = None
    for _ in range(5):
        rng.shuffle(rows)
        path = write_lexicon(tmp_path / "shuffled.csv", rows)
        clf = EsgClassifier(load_esg_lexicon(path))
        got = [clf.classify(str(i), t).nodes for i, t in enumerate(texts)]
        if base is None:
            base = got
        assert got == base


def test_adding_entries_never_removes_nodes(tmp_path):
    with demo_esg_lexicon_path().open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    small = write_lexicon(tmp_path / "small.csv", rows[:20])
    big = write_lexicon(tmp_path / "big.csv", rows)
    clf_small = EsgClassifier(load_esg_lexicon(small))
    clf_big = EsgClassifier(load_esg_lexicon(big))
    rng = random.Random(11)
    vocab = [tok for term, _ in rows for tok in term.split()] + ["the", "a", "on"]
    for i in range(50):
        text = " ".join(rng.choice(vocab) for _ in range(12))
        assert clf_small.classify(str(i), text).nodes <= clf_big.classify(str(i), text).nodes


def test_token_matcher_reports_every_occurrence():
    entries = [
        LexiconEntry(term=("oil", "spill"), node=Node.POLLUTION_AND_WASTE),
        LexiconEntry(term=("spill",), node=Node.POLLUTION_AND_WASTE),
    ]
    matcher = TokenMatcher((e.term, e) for e in entries)
    tokens = ["oil", "spill", "then", "another", "oil", "spill"]
    hits = matcher.find(tokens)
    starts = sorted((start, len(gram)) for start, gram, _ in hits)
    # "oil spill" at 0 and 4, "spill" alone at 1 and 5
    assert starts == [(0, 2), (1, 1), (4, 2), (5, 1)]


# Entries the property test always indexes: overlapping terms, a term that
# is a prefix of another, a term mapped to two nodes, and one term that sits
# in both lexicons (Node and float payloads for the same tokens).
FIXED_ENTRIES = [
    (("a", "b"), Node.CLIMATE_CHANGE),
    (("b", "c"), Node.HUMAN_CAPITAL),
    (("a",), Node.NATURAL_CAPITAL),
    (("a", "b", "c", "d"), Node.PRODUCT_LIABILITY),
    (("c",), Node.CORPORATE_GOVERNANCE),
    (("c",), Node.CORPORATE_BEHAVIOR),
    (("d", "a"), Node.SOCIAL_OPPORTUNITIES),
    (("d", "a"), -0.5),
    (("b",), 0.25),
]

VOCAB = ["a", "b", "c", "d", "e"]
term_st = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5).map(tuple)
payload_st = st.one_of(
    st.sampled_from(SUBCATEGORIES), st.floats(-1.0, 1.0, allow_nan=False)
)


def brute_force_find(entries, tokens):
    """Every contiguous slice of every length, in (start, length, entry) order."""
    hits = []
    for start in range(len(tokens)):
        for length in range(1, len(tokens) - start + 1):
            gram = tuple(tokens[start : start + length])
            hits.extend((start, gram, payload) for term, payload in entries if term == gram)
    return hits


@settings(max_examples=300, deadline=None)
@given(
    extra=st.lists(st.tuples(term_st, payload_st), max_size=8),
    tokens=st.lists(st.sampled_from(VOCAB + ["zz"]), max_size=25),
)
def test_token_matcher_equals_brute_force(extra, tokens):
    entries = FIXED_ENTRIES + extra
    assert TokenMatcher(entries).find(tokens) == brute_force_find(entries, tokens)
