import itertools
import random
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esgrisk.aggregate import build_series, label_mask
from esgrisk.taxonomy import (
    PARENT,
    REPORT_ORDER,
    SUBCATEGORIES,
    Node,
    expand_to_ancestors,
    node_sort_key,
)
from esgrisk.trading import TradingCalendar

N_NODES = len(REPORT_ORDER)


def weekday_calendar(n, start=date(2020, 1, 6)):
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return TradingCalendar(days)


def msg(firm, day_index, nodes=(), score=0.0):
    return (firm, day_index, frozenset(nodes), score)


def build(records, cal):
    """build_series over (firm, day, nodes, score) records, firms coded in
    first-seen order; returns the stack and the firm names by code."""
    names: dict[str, int] = {}
    codes = [names.setdefault(firm, len(names)) for firm, _, _, _ in records]
    columns = (
        np.array(codes, dtype=np.int64),
        np.array([day for _, day, _, _ in records], dtype=np.int64),
        np.array([label_mask(nodes) for _, _, nodes, _ in records], dtype=np.int64),
        np.array([score for _, _, _, score in records], dtype=np.float64),
    )
    return build_series(columns, cal), list(names)


class Row(NamedTuple):
    firm: str
    node: Node
    counts: np.ndarray
    sums: np.ndarray
    totals: np.ndarray


def rows(records, cal):
    """The non-empty rows of the stack, in stack order."""
    stack, names = build(records, cal)
    return [
        Row(names[r // N_NODES], REPORT_ORDER[r % N_NODES], stack.counts[r], stack.sums[r],
            stack.totals[r // N_NODES])
        for r in range(len(stack))
        if stack.counts[r].any()
    ]


def by_key(row_list):
    return {(s.firm, s.node): s for s in row_list}


def test_closure_counting():
    cal = weekday_calendar(5)
    series = by_key(rows([msg("A", 2, {Node.CLIMATE_CHANGE}) for _ in range(3)], cal))
    for node in (Node.CLIMATE_CHANGE, Node.ENVIRONMENT, Node.ESG_ALL):
        assert series["A", node].counts[2] == 3
    assert ("A", Node.SOCIAL) not in series
    assert len(series) == 3


def test_totals_count_unmatched_messages():
    cal = weekday_calendar(3)
    records = [msg("A", 1, {Node.CORPORATE_GOVERNANCE}) for _ in range(4)]
    records += [msg("A", 1) for _ in range(96)]
    series = by_key(rows(records, cal))["A", Node.CORPORATE_GOVERNANCE]
    assert series.counts[1] == 4
    assert series.totals[1] == 100
    assert series.counts[1] / series.totals[1] == pytest.approx(0.04)


def test_missing_days_are_zero():
    cal = weekday_calendar(4)
    series = by_key(rows([msg("A", 0, {Node.HUMAN_CAPITAL})], cal))["A", Node.HUMAN_CAPITAL]
    assert list(series.counts) == [1, 0, 0, 0]
    assert list(series.totals) == [1, 0, 0, 0]
    assert list(series.sums) == [0.0] * 4


def test_total_conservation_and_hierarchy_bounds():
    cal = weekday_calendar(30)
    rng = random.Random(23)
    records = []
    for i in range(500):
        k = rng.randint(0, 2)
        nodes = frozenset(rng.sample(SUBCATEGORIES, k))
        records.append(msg(rng.choice("AB"), rng.randrange(30), nodes, rng.uniform(-1, 1)))
    series_list = rows(records, cal)
    series = by_key(series_list)

    # conservation: firm totals sum to the number of that firm's messages,
    # and every series of a firm shares that firm's totals
    for firm in ("A", "B"):
        firm_totals = [s.totals for s in series_list if s.firm == firm]
        assert firm_totals[0].sum() == sum(1 for r in records if r[0] == firm)
        assert all((t == firm_totals[0]).all() for t in firm_totals)

    # set-union counting: pillar >= subcategory, root >= pillar, pointwise
    for s in series_list:
        parent = PARENT[s.node]
        if parent is not None:
            assert (series[s.firm, parent].counts >= s.counts).all()
        assert (s.totals >= s.counts).all()


def test_daily_sentiment_is_mean_of_scores():
    cal = weekday_calendar(2)
    records = [
        msg("A", 0, {Node.PRODUCT_LIABILITY}, 0.3),
        msg("A", 0, {Node.PRODUCT_LIABILITY}, -0.5),
    ]
    series = by_key(rows(records, cal))["A", Node.PRODUCT_LIABILITY]
    assert series.sums[0] / series.counts[0] == pytest.approx(-0.1)


def test_multilabel_message_counts_once_per_node():
    cal = weekday_calendar(2)
    series_list = rows([msg("A", 0, {Node.HUMAN_CAPITAL, Node.CORPORATE_GOVERNANCE}, -0.2)], cal)
    series = by_key(series_list)
    assert series["A", Node.HUMAN_CAPITAL].counts[0] == 1
    assert series["A", Node.CORPORATE_GOVERNANCE].counts[0] == 1
    # one message under two pillars still counts once at the root
    assert series["A", Node.ESG_ALL].counts[0] == 1
    assert all(s.totals[0] == 1 for s in series_list)


def test_iteration_order_is_deterministic():
    cal = weekday_calendar(2)
    records = [
        msg("B", 0, {Node.CLIMATE_CHANGE}),
        msg("A", 0, {Node.CORPORATE_BEHAVIOR}),
        msg("A", 1, {Node.NATURAL_CAPITAL}),
    ]
    # B is coded 0, A is coded 1: rows go by firm code, then by REPORT_ORDER
    stack, names = build(records, cal)
    assert names == ["B", "A"]
    assert len(stack) == len(list(stack)) == 2 * N_NODES
    keys = [(s.firm, s.node) for s in rows(records, cal)]
    assert keys == sorted(keys, key=lambda k: (names.index(k[0]), node_sort_key(k[1])))
    # within firm A: Environment block precedes Governance block
    a_nodes = [node for firm, node in keys if firm == "A"]
    assert a_nodes.index(Node.NATURAL_CAPITAL) < a_nodes.index(Node.CORPORATE_BEHAVIOR)
    row = names.index("A") * N_NODES + node_sort_key(Node.NATURAL_CAPITAL)
    assert stack.counts[row].tolist() == [0, 1]


def dict_oracle(records, n_days):
    """Per-record accumulation into per-(firm, node) arrays, one scalar at a time."""
    totals, counts, senti = {}, {}, {}
    for firm, day, nodes, score in records:
        totals.setdefault(firm, np.zeros(n_days, dtype=np.int64))[day] += 1
        for node in expand_to_ancestors(nodes):
            key = (firm, node)
            if key not in counts:
                counts[key] = np.zeros(n_days, dtype=np.int64)
                senti[key] = np.zeros(n_days, dtype=np.float64)
            counts[key][day] += 1
            senti[key][day] += score
    return totals, counts, senti


# inexact values, so that adding them in another order changes the low bits
scores = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-17, 0.1, 0.7, -1 / 3, 2 / 3, -0.3]),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    n_days=st.integers(1, 8),
    raw=st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "AA"]),
            st.integers(0, 7),
            st.frozensets(st.sampled_from(SUBCATEGORIES), max_size=3),
            scores,
        ),
        max_size=120,
    ),
)
@example(n_days=1, raw=[("A", 0, frozenset({Node.HUMAN_CAPITAL}), x) for x in (1e-17, 1.0, -1.0)])
def test_build_series_equals_dict_oracle(n_days, raw):
    records = [(firm, day % n_days, nodes, score) for firm, day, nodes, score in raw]
    stack, names = build(records, weekday_calendar(n_days))
    totals, counts, senti = dict_oracle(records, n_days)

    assert stack.counts.dtype == np.int64 and stack.sums.dtype == np.float64
    assert stack.counts.shape == stack.sums.shape == (len(names) * N_NODES, n_days)
    assert stack.totals.shape == (len(names), n_days)
    for code, firm in enumerate(names):
        assert np.array_equal(stack.totals[code], totals[firm])
        for i, node in enumerate(REPORT_ORDER):
            row = code * N_NODES + i
            if (firm, node) not in counts:
                assert not stack.counts[row].any() and not stack.sums[row].any()
                continue
            assert np.array_equal(stack.counts[row], counts[firm, node])
            # same additions in the same order: equal to the last bit
            assert stack.sums[row].tobytes() == senti[firm, node].tobytes()


def test_no_records_gives_no_series():
    stack, names = build([], weekday_calendar(3))
    assert names == [] and len(stack) == 0 and list(stack) == []
    assert stack.counts.shape == (0, 3) and stack.totals.shape == (0, 3)


def test_label_mask_is_the_ancestor_closure_of_every_subset():
    for k in range(len(SUBCATEGORIES) + 1):
        for subset in itertools.combinations(SUBCATEGORIES, k):
            mask = label_mask(subset)
            held = {node for i, node in enumerate(REPORT_ORDER) if mask >> i & 1}
            assert held == expand_to_ancestors(frozenset(subset)), subset
            assert 0 <= mask < 1 << N_NODES
    assert label_mask([Node.ESG_ALL]) == 1
    assert label_mask([Node.GOVERNANCE, Node.CORPORATE_GOVERNANCE]) == label_mask(
        [Node.CORPORATE_GOVERNANCE]
    )
