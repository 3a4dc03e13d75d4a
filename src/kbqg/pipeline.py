"""End-to-end query generation for a single question.

Wires the trained substructure predictors, the structure ranker, the
merger and the grounder together, and records a per-question trace
(predicted substructure probabilities, ranked structures, merged
structures, grounded queries) for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import CanonicalizationError, StructureKey
from .grounding import (
    GroundingResult,
    LinkingCandidate,
    NoValidGroundingError,
    extract_literal_candidates,
    ground,
)
from .kb import KnowledgeBase
from .merging import MergeConfig, merge_substructures
from .mining import SubstructureCatalog
from .predictor import TokenSequence, predict_all, preprocess
from .ranking import ScoredStructure, rank_existing

SETTINGS = ("full", "rank-w-sub", "rank-wo-sub", "merge-only")


class ModelCatalogMismatchError(ValueError):
    """The predictor models do not cover exactly the catalog's frequent
    substructures."""


@dataclass
class Trace:
    question: str
    tokens: tuple[str, ...]
    probabilities: dict[StructureKey, float]
    ranked: list[ScoredStructure]
    merged: list[ScoredStructure]
    results: list[GroundingResult] = field(default_factory=list)
    error: str | None = None

    def top_probabilities(self, n: int = 4):
        return sorted(self.probabilities.items(), key=lambda kv: -kv[1])[:n]


def combine_rankings(existing: list[ScoredStructure],
                     merged: list[ScoredStructure]) -> list[ScoredStructure]:
    """One ranked list over existing and merged structures; when a merged
    structure duplicates a mined one the mined entry wins (same score,
    but it carries the training count used for tie-breaking)."""
    by_key: dict[StructureKey, ScoredStructure] = {}
    for s in merged:
        by_key[s.key] = s
    for s in existing:
        by_key[s.key] = s
    return sorted(by_key.values(), key=ScoredStructure.rank_key)


class QueryGenerator:
    """Generates executable queries for questions, per the configured
    pipeline setting."""

    def __init__(self, catalog: SubstructureCatalog, models, kb: KnowledgeBase,
                 merge_cfg: MergeConfig | None = None, top_k: int = 5,
                 setting: str = "full", structure_classifier=None):
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
        if setting == "rank-wo-sub" and structure_classifier is None:
            raise ValueError("rank-wo-sub needs a structure classifier")
        frequent = catalog.substructures.keys()
        if models and models.keys() != frequent:
            missing = sorted(k.canonical for k in frequent - models.keys())
            extra = sorted(k.canonical for k in models.keys() - frequent)
            raise ModelCatalogMismatchError(
                f"models do not match the catalog's frequent substructures: "
                f"missing {missing}, extra {extra}")
        self.catalog = catalog
        self.models = models
        self.kb = kb
        self.merge_cfg = merge_cfg or MergeConfig()
        self.top_k = top_k
        self.setting = setting
        self.structure_classifier = structure_classifier

    def rank(self, seq: TokenSequence,
             probs_override: dict[StructureKey, float] | None = None,
             rounds_out: list | None = None
             ) -> tuple[dict, list[ScoredStructure], list[ScoredStructure]]:
        """Substructure probabilities, the final ranked list, and the
        merged structures (empty unless the setting merges). A list passed
        as ``rounds_out`` receives the merge rounds, as in
        ``merge_substructures``."""
        if self.setting == "rank-wo-sub":
            ranked = self.structure_classifier.rank(seq, self.catalog)
            return {}, ranked, []
        probs = probs_override if probs_override is not None \
            else predict_all(self.models, seq)
        merged: list[ScoredStructure] = []
        if self.setting in ("full", "merge-only"):
            merged = merge_substructures(probs, self.catalog, self.merge_cfg,
                                         rounds_out=rounds_out)
        if self.setting == "merge-only":
            return probs, merged, merged
        existing = rank_existing(probs, self.catalog)
        if self.setting == "rank-w-sub":
            return probs, existing, []
        return probs, combine_rankings(existing, merged), merged

    def generate(self, question: str,
                 mention_spans=(),
                 candidates: list[LinkingCandidate] | None = None,
                 probs_override: dict[StructureKey, float] | None = None,
                 rounds_out: list | None = None) -> Trace:
        """Trace the generation for one question. Bad mention spans, an over-budget
        canonical search or no valid grounding give a trace whose ``error`` says why."""
        try:
            seq = preprocess(question, mention_spans)
        except (TypeError, ValueError) as exc:
            return Trace(question, (), {}, [], [], error=f"bad mention spans: {exc}")
        try:
            probs, ranked, merged = self.rank(seq, probs_override, rounds_out)
        except CanonicalizationError as exc:
            return Trace(question, seq.tokens, {}, [], [], error=str(exc))
        trace = Trace(question, seq.tokens, probs, ranked, merged)
        all_candidates = list(candidates or [])
        symbols = {c.symbol for c in all_candidates}
        for lit in extract_literal_candidates(question):
            if lit.symbol not in symbols:
                all_candidates.append(lit)
        try:
            trace.results = ground(ranked, all_candidates, self.kb, self.top_k)
        except NoValidGroundingError as exc:
            trace.error = str(exc)
        return trace
