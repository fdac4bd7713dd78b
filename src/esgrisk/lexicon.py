"""Tokenization and lexicon-based multi-label classification.

Terms are short token sequences (one to five tokens). Matching is exact
contiguous subsequence matching over the message tokens, implemented with
an n-gram hash index behind a first-token prefilter: a start position whose
token begins no term is skipped, and the others look up only n-grams of the
exact lengths of the terms beginning with that token. Payloads are opaque,
so the classify stage indexes the ESG and sentiment lexicons together and
scans each message once.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .ingest import decoded, filled, fresh, read_columns, require
from .taxonomy import REPORT_ORDER, Node, node_sort_key, parse_node

MAX_TERM_TOKENS = 5

Hit = tuple[int, tuple[str, ...], object]  # (start position, term, payload)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WORD_RE = re.compile(r"\w+")
# every byte but [0-9A-Za-z_], which is what \w matches in ASCII text, becomes a space
_WORD_BYTES = (string.ascii_letters + string.digits + "_").encode()
_NON_WORD = bytes(c if c in _WORD_BYTES else 32 for c in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase and split a raw message into matchable tokens.

    URLs and @-mentions are removed entirely. Cashtags and hashtags keep
    their word with the marker stripped ("$AAPL" -> "aapl",
    "#ClimateChange" -> "climatechange"). Everything else splits on
    punctuation and whitespace.
    """
    text = text.lower()
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    # $ and # are not word characters, so cashtag/hashtag markers fall away
    if text.isascii():
        return text.encode("ascii").translate(_NON_WORD).decode("ascii").split()
    return _WORD_RE.findall(text)


@dataclass(frozen=True)
class LexiconEntry:
    """One lexicon line: a tokenized term mapped to a taxonomy node."""

    term: tuple[str, ...]
    node: Node

    @property
    def text(self) -> str:
        return " ".join(self.term)


class TokenMatcher:
    """n-gram index over tokenized terms with arbitrary payloads."""

    def __init__(self, entries: Iterable[tuple[tuple[str, ...], object]]):
        self._index: dict[tuple[str, ...], list[object]] = {}
        for term, payload in entries:
            if not term:
                raise DataError("empty term cannot be indexed")
            self._index.setdefault(term, []).append(payload)
        # first token -> the distinct lengths of the terms that start with it, ascending
        lengths: dict[str, set[int]] = {}
        for term in self._index:
            lengths.setdefault(term[0], set()).add(len(term))
        self._lengths = {token: sorted(ns) for token, ns in lengths.items()}

    def find(self, tokens: Sequence[str]) -> list[Hit]:
        """All occurrences of indexed terms in a token sequence.

        Hits are ordered by start, then term length, then the order payloads
        were indexed in; overlapping and repeated occurrences are all reported.
        """
        hits: list[Hit] = []
        index, lengths = self._index, self._lengths
        tokens = tuple(tokens)
        n = len(tokens)
        for start, token in enumerate(tokens):
            if token in lengths:
                for length in lengths[token]:
                    if start + length > n:
                        break
                    gram = tokens[start : start + length]
                    if gram in index:
                        for payload in index[gram]:
                            hits.append((start, gram, payload))
        return hits


def read_terms(path: str | Path, what: str, value: str):
    """Yield (lines, terms as written, tokenized terms, values, checks) per block of a term,<value> CSV.

    Cells are stripped; `checks` opens the loader's check table: a blank cell, no tokens, too many.
    """
    for lines, (raw_terms, raw_values) in read_columns(path, what, ("term", value)):
        raw_terms = [(raw or "").strip() for raw in raw_terms]
        values = [(raw or "").strip() for raw in raw_values]
        terms = [tuple(tokenize(raw)) for raw in raw_terms]
        size = np.fromiter(map(len, terms), np.int64, len(terms))
        yield lines, raw_terms, terms, values, [
            (filled(raw_terms) & filled(values), lambda k: f"term and {value} are both required"),
            (size > 0, lambda k: f"term {raw_terms[k]!r} has no tokens"),
            (size <= MAX_TERM_TOKENS, lambda k: f"term {raw_terms[k]!r} exceeds {MAX_TERM_TOKENS} tokens"),
        ]


def load_esg_lexicon(path: str | Path) -> list[LexiconEntry]:
    """Read a term,node CSV into lexicon entries.

    Unknown node names and duplicate (term, node) pairs are fatal: both
    indicate a broken lexicon rather than a skippable row.
    """
    entries: list[LexiconEntry] = []
    seen: set[tuple[tuple[str, ...], int]] = set()
    codes: dict[str, int] = {}  # node_sort_key per node name, -1 for an unknown one
    errors: dict[str, str] = {}
    for lines, raw_terms, terms, raw_nodes, checks in read_terms(path, "lexicon", "node"):
        node = decoded(raw_nodes, codes, lambda raw: node_sort_key(parse_node(raw)), errors)
        require(path, lines, [
            *checks,
            (node >= 0, lambda k: errors[raw_nodes[k]]),
            (fresh([*zip(terms, node.tolist())], seen),
             lambda k: f"duplicate entry {raw_terms[k]!r} -> {REPORT_ORDER[node[k]]}"),
        ])
        entries += map(LexiconEntry, terms, map(REPORT_ORDER.__getitem__, node.tolist()))
    return entries


def esg_labels(hits: Iterable[Hit]) -> tuple[frozenset, tuple[str, ...]]:
    """Label set and distinct matched terms, in hit order, of the label hits.

    Every payload that is not a float (a sentiment weight) is a label: a
    Node, or the label bits of the classify stage's engine.
    """
    esg = [(gram, label) for _, gram, label in hits if not isinstance(label, float)]
    return frozenset(n for _, n in esg), tuple(dict.fromkeys(" ".join(g) for g, _ in esg))


@dataclass(frozen=True)
class ClassifiedMessage:
    """Subcategory labels and the terms that produced them.

    `nodes` holds subcategories only; pillar and ESG_ALL membership is
    computed downstream via taxonomy closure.
    """

    message_id: str
    nodes: frozenset[Node]
    matched_terms: tuple[str, ...]


class EsgClassifier:
    """Multi-label classifier over a loaded ESG lexicon."""

    def __init__(self, entries: Iterable[LexiconEntry]):
        self.entries = list(entries)
        self._matcher = TokenMatcher((e.term, e.node) for e in self.entries)

    def classify_tokens(self, message_id: str, tokens: Sequence[str]) -> ClassifiedMessage:
        nodes, terms = esg_labels(self._matcher.find(tokens))
        return ClassifiedMessage(message_id=message_id, nodes=nodes, matched_terms=terms)

    def classify(self, message_id: str, text: str) -> ClassifiedMessage:
        return self.classify_tokens(message_id, tokenize(text))
