"""Scoring and ranking of candidate query structures.

A structure's score is the joint probability of its containment pattern:
the product of Pr[S*] over frequent substructures it contains, times the
product of (1 - Pr[S*]) over those it does not. Structures with the same
containment pattern therefore always score identically.

Products are accumulated in log space. Probabilities strictly inside
(0, 1) are clamped to [1e-6, 1 - 1e-6] so one confidently wrong predictor
cannot zero out a whole product; exact 0.0 and 1.0 (oracle indicator
probabilities) are taken at face value, keeping the ideal-condition
scores exactly 0 and 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .canon import StructureKey
from .graph import QueryGraph
from .mining import SubstructureCatalog, contained_frequent_keys, graph_to_json

PROB_CLAMP = 1e-6

EXISTING = "existing"
MERGED = "merged"


class MissingProbabilityError(KeyError):
    """A frequent substructure has no predicted probability."""


@dataclass(frozen=True)
class ScoredStructure:
    key: StructureKey
    representative: QueryGraph
    score: float
    provenance: str
    train_count: int = 0

    def rank_key(self) -> tuple:
        # descending score, then higher training count, smaller structure,
        # lexicographic canonical string
        return (-self.score, -self.train_count, self.key.triple_count,
                self.key.canonical)


def _clamped_log(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return 0.0
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return math.log(p)


def score_containment(contained: frozenset[StructureKey],
                      probs: dict[StructureKey, float],
                      catalog: SubstructureCatalog) -> float:
    total = 0.0
    for key in catalog.substructures:
        try:
            p = probs[key]
        except KeyError:
            raise MissingProbabilityError(
                f"no probability for frequent substructure {key.canonical!r}") from None
        log_term = _clamped_log(p) if key in contained else _clamped_log(1.0 - p)
        if log_term == -math.inf:
            return 0.0
        total += log_term
    return math.exp(total)


def score_bound(known: frozenset[StructureKey],
                probs: dict[StructureKey, float],
                catalog: SubstructureCatalog) -> float:
    """An upper bound on ``score_containment(pattern, ...)`` over every
    pattern that contains ``known``: the score of ``known`` plus every
    substructure more likely contained than not, which takes for each
    unknown substructure the larger of its two terms. Each term is at
    least the true one and float addition and ``exp`` are non-decreasing,
    so the bound holds exactly, not just up to rounding."""
    likely = {key for key in catalog.frequent_keys if probs.get(key, 0.0) > 0.5}
    return score_containment(known | likely, probs, catalog)


def containment_pattern(g: QueryGraph, catalog: SubstructureCatalog,
                        key: StructureKey | None = None) -> frozenset[StructureKey]:
    """Frequent substructures contained in ``g``; see ``contained_frequent_keys``."""
    return contained_frequent_keys(g, catalog, key)


def rank_existing(probs: dict[StructureKey, float],
                  catalog: SubstructureCatalog) -> list[ScoredStructure]:
    """Score every mined structure and sort them deterministically."""
    if not catalog.structures:
        raise ValueError("catalog has no structures")
    scored = []
    for key, entry in catalog.structures.items():
        score = score_containment(containment_pattern(entry.representative, catalog, key),
                                  probs, catalog)
        scored.append(ScoredStructure(key, entry.representative, score,
                                      EXISTING, entry.count))
    scored.sort(key=ScoredStructure.rank_key)
    return scored


def write_ranked_jsonl(ranked: list[ScoredStructure], fp) -> None:
    """Emit a ranked structure list as JSON lines:
    {rank, key, score, provenance, representative}."""
    for rank, s in enumerate(ranked):
        fp.write(json.dumps({
            "rank": rank,
            "key": s.key.canonical,
            "score": s.score,
            "provenance": s.provenance,
            "representative": graph_to_json(s.representative),
        }) + "\n")
