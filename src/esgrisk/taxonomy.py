"""ESG taxonomy: one root, three pillars, ten subcategories.

Classification stores subcategory membership only; pillar and root
membership are always derived through :func:`expand_to_ancestors` so the
two can never drift apart.
"""

from __future__ import annotations

import enum
import re

from .errors import DataError


class Node(enum.Enum):
    """A node of the ESG taxonomy tree."""

    ESG_ALL = "ESG_ALL"
    ENVIRONMENT = "Environment"
    SOCIAL = "Social"
    GOVERNANCE = "Governance"
    CLIMATE_CHANGE = "ClimateChange"
    NATURAL_CAPITAL = "NaturalCapital"
    POLLUTION_AND_WASTE = "PollutionAndWaste"
    ENVIRONMENTAL_OPPORTUNITIES = "EnvironmentalOpportunities"
    HUMAN_CAPITAL = "HumanCapital"
    PRODUCT_LIABILITY = "ProductLiability"
    STAKEHOLDER_OPPOSITION = "StakeholderOpposition"
    SOCIAL_OPPORTUNITIES = "SocialOpportunities"
    CORPORATE_GOVERNANCE = "CorporateGovernance"
    CORPORATE_BEHAVIOR = "CorporateBehavior"

    def __str__(self) -> str:  # file columns carry the enum value
        return self.value

    @classmethod
    def _missing_(cls, value):
        # Node(name) takes every spelling parse_node does; others raise ValueError
        return _LOOKUP.get(_normalize(value)) if isinstance(value, str) else None


# Each node's parent, in the order of every report and output file: the
# root, then each pillar followed by its subcategories.
PARENT: dict[Node, Node | None] = {
    Node.ESG_ALL: None,
    Node.ENVIRONMENT: Node.ESG_ALL,
    Node.CLIMATE_CHANGE: Node.ENVIRONMENT,
    Node.NATURAL_CAPITAL: Node.ENVIRONMENT,
    Node.POLLUTION_AND_WASTE: Node.ENVIRONMENT,
    Node.ENVIRONMENTAL_OPPORTUNITIES: Node.ENVIRONMENT,
    Node.SOCIAL: Node.ESG_ALL,
    Node.HUMAN_CAPITAL: Node.SOCIAL,
    Node.PRODUCT_LIABILITY: Node.SOCIAL,
    Node.STAKEHOLDER_OPPOSITION: Node.SOCIAL,
    Node.SOCIAL_OPPORTUNITIES: Node.SOCIAL,
    Node.GOVERNANCE: Node.ESG_ALL,
    Node.CORPORATE_GOVERNANCE: Node.GOVERNANCE,
    Node.CORPORATE_BEHAVIOR: Node.GOVERNANCE,
}

REPORT_ORDER: tuple[Node, ...] = tuple(PARENT)
PILLARS: tuple[Node, ...] = tuple(node for node, parent in PARENT.items() if parent is Node.ESG_ALL)
# grouped by pillar, in report order
SUBCATEGORIES: tuple[Node, ...] = tuple(node for node, parent in PARENT.items() if parent in PILLARS)

_ORDER_INDEX = {node: i for i, node in enumerate(REPORT_ORDER)}


def node_sort_key(node: Node) -> int:
    return _ORDER_INDEX[node]


def _normalize(name: str) -> str:
    # "Pollution and Waste", "pollution_and_waste" and "PollutionAndWaste"
    # all collapse to the same key
    return re.sub(r"[^a-z0-9]", "", name.lower())


_LOOKUP = {_normalize(node.value): node for node in Node}
# pillar names written with "and" variants do not exist; "ESG" alone means the root
_LOOKUP.setdefault("esg", Node.ESG_ALL)


def parse_node(name: str) -> Node:
    """Resolve a node name as written in lexicon or output files.

    Case, spaces, hyphens and underscores are ignored. Unknown names raise
    DataError: a typo in a lexicon must never silently drop a category.
    """
    key = _normalize(name)
    try:
        return _LOOKUP[key]
    except KeyError:
        raise DataError(f"unknown taxonomy node: {name!r}") from None


def ancestors(node: Node) -> tuple[Node, ...]:
    """All strict ancestors of a node, nearest first."""
    out = []
    cur = PARENT[node]
    while cur is not None:
        out.append(cur)
        cur = PARENT[cur]
    return tuple(out)


def expand_to_ancestors(nodes: frozenset[Node] | set[Node]) -> frozenset[Node]:
    """Close a node set over parents.

    Empty stays empty; a subcategory brings in its pillar and ESG_ALL.
    """
    out: set[Node] = set()
    for node in nodes:
        out.add(node)
        out.update(ancestors(node))
    return frozenset(out)
