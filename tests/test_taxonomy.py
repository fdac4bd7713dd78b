import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esgrisk.errors import DataError
from esgrisk.taxonomy import (
    PARENT,
    PILLARS,
    REPORT_ORDER,
    SUBCATEGORIES,
    Node,
    ancestors,
    expand_to_ancestors,
    node_sort_key,
    parse_node,
)


def test_tree_shape():
    assert len(PILLARS) == 3
    assert len(SUBCATEGORIES) == 10
    assert len(REPORT_ORDER) == 14
    assert PARENT[Node.ESG_ALL] is None
    for pillar in PILLARS:
        assert PARENT[pillar] is Node.ESG_ALL
    # E holds the first four subcategories, S the next four, G the last two
    assert [PARENT[n] for n in SUBCATEGORIES] == (
        [Node.ENVIRONMENT] * 4 + [Node.SOCIAL] * 4 + [Node.GOVERNANCE] * 2
    )


def test_report_order_groups_pillars():
    assert REPORT_ORDER[0] is Node.ESG_ALL
    # each subcategory appears after its pillar and before the next pillar
    for sub in SUBCATEGORIES:
        assert node_sort_key(sub) > node_sort_key(PARENT[sub])
    keys = [node_sort_key(n) for n in REPORT_ORDER]
    assert keys == sorted(keys) and len(set(keys)) == 14


def test_report_order_is_pinned():
    """Every report, output file and label-bits int depends on this order."""
    assert [n.value for n in REPORT_ORDER] == [
        "ESG_ALL",
        "Environment", "ClimateChange", "NaturalCapital", "PollutionAndWaste",
        "EnvironmentalOpportunities",
        "Social", "HumanCapital", "ProductLiability", "StakeholderOpposition", "SocialOpportunities",
        "Governance", "CorporateGovernance", "CorporateBehavior",
    ]
    assert PILLARS == (Node.ENVIRONMENT, Node.SOCIAL, Node.GOVERNANCE)
    assert SUBCATEGORIES == tuple(n for n in REPORT_ORDER if n not in PILLARS and n is not Node.ESG_ALL)


def test_parse_node_variants():
    assert parse_node("ClimateChange") is Node.CLIMATE_CHANGE
    assert parse_node("climate change") is Node.CLIMATE_CHANGE
    assert parse_node("Climate_Change") is Node.CLIMATE_CHANGE
    assert parse_node("POLLUTION AND WASTE") is Node.POLLUTION_AND_WASTE
    assert parse_node("esg") is Node.ESG_ALL
    assert parse_node("ESG_ALL") is Node.ESG_ALL
    assert parse_node("Governance") is Node.GOVERNANCE


def spellings(node):
    """Ways to write a node's name that parse_node accepts."""
    words = re.findall(r"[A-Z][a-z]*", node.value)
    yield from (node.value, node.name, node.value.lower(), node.value.upper())
    for sep in (" ", "-", "_", " - "):
        yield sep.join(words)
        yield sep.join(words).lower()


SPELLINGS = [name for node in Node for name in spellings(node)] + ["esg", "ESG", "E.S.G."]


def test_node_lookup_takes_every_parse_node_spelling():
    for name in SPELLINGS:
        assert Node(name) is parse_node(name), name


@given(st.one_of(st.sampled_from(SPELLINGS), st.text(max_size=30)))
def test_node_lookup_agrees_with_parse_node_on_any_text(name):
    try:
        expected = parse_node(name)
    except DataError:
        with pytest.raises(ValueError):
            Node(name)
    else:
        assert Node(name) is expected


def test_node_lookup_of_an_unknown_name_raises_value_error():
    for name in ("Bogus", "", "Sustainability", 5, None, ["Social"]):
        with pytest.raises(ValueError):
            Node(name)


def test_parse_node_unknown_is_fatal():
    with pytest.raises(DataError):
        parse_node("Sustainability")
    with pytest.raises(DataError):
        parse_node("")


def test_ancestors():
    assert ancestors(Node.CLIMATE_CHANGE) == (Node.ENVIRONMENT, Node.ESG_ALL)
    assert ancestors(Node.GOVERNANCE) == (Node.ESG_ALL,)
    assert ancestors(Node.ESG_ALL) == ()


def test_expand_to_ancestors():
    assert expand_to_ancestors({Node.CLIMATE_CHANGE}) == frozenset(
        {Node.CLIMATE_CHANGE, Node.ENVIRONMENT, Node.ESG_ALL}
    )
    got = expand_to_ancestors({Node.HUMAN_CAPITAL, Node.CORPORATE_BEHAVIOR})
    assert got == frozenset(
        {
            Node.HUMAN_CAPITAL,
            Node.CORPORATE_BEHAVIOR,
            Node.SOCIAL,
            Node.GOVERNANCE,
            Node.ESG_ALL,
        }
    )
    assert expand_to_ancestors(set()) == frozenset()
