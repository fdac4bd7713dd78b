"""Dictionary sentiment scoring and sign classification.

A message scores the mean weight of every matched sentiment term
occurrence, 0.0 when nothing matches. The sign rule is deliberately
asymmetric: scores below the threshold (default 0.05) count as negative,
so weak or ambiguous days are treated as risk-relevant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .ingest import failures, floats, fresh
from .lexicon import Hit, TokenMatcher, read_terms

DEFAULT_SIGN_THRESHOLD = 0.05


class Sign(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SentimentEntry:
    term: tuple[str, ...]
    weight: float


def load_sentiment_lexicon(path: str | Path) -> list[SentimentEntry]:
    """Read a term,weight CSV; weights must be finite and within [-1, 1]."""
    entries: list[SentimentEntry] = []
    seen: set[tuple[str, ...]] = set()
    for lines, raw_terms, terms, raw_weights, checks in read_terms(path, "sentiment lexicon", "weight"):
        weight, parsed = floats(raw_weights)
        for k, reason in failures([
            *checks,
            (parsed, lambda k: f"weight {raw_weights[k]!r} is not a number"),
            (np.abs(weight) <= 1.0, lambda k: f"weight {float(weight[k])} outside [-1, 1]"),  # nan fails too
            (fresh(terms, seen), lambda k: f"duplicate sentiment term {raw_terms[k]!r}"),
        ]):
            raise DataError(f"{path}:{lines[k]}: {reason}")
        entries += map(SentimentEntry, terms, weight.tolist())
    return entries


def mean_weight(hits: Iterable[Hit]) -> float:
    """Mean of the float-payload hits' weights; 0.0 if none.

    The weights are added left to right in hit order, not with sum(),
    which compensates float error from Python 3.12 on, so a score reads
    the same on every Python version.
    """
    total, n = 0.0, 0
    for _, _, weight in hits:
        if isinstance(weight, float):
            total += weight
            n += 1
    return total / n if n else 0.0


class SentimentScorer:
    """Scores token sequences against a sentiment lexicon."""

    def __init__(self, entries: Iterable[SentimentEntry]):
        self.entries = list(entries)
        self._matcher = TokenMatcher((e.term, float(e.weight)) for e in self.entries)

    def score_tokens(self, tokens: Sequence[str]) -> float:
        """Mean weight over matched term occurrences; 0.0 if none match."""
        return mean_weight(self._matcher.find(tokens))


def classify_sign(score: float, threshold: float = DEFAULT_SIGN_THRESHOLD) -> Sign:
    """Positive iff score >= threshold; the boundary itself is Positive."""
    return Sign.POSITIVE if score >= threshold else Sign.NEGATIVE
