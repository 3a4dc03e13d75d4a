"""Dataset handling, cross-validation and end-to-end metrics.

Datasets are JSON arrays of {question, sparql, mentions?} records;
records whose queries fall outside the supported subset are skipped with
a count. Evaluation runs stratified k-fold cross-validation (the test
fold is 1/k of each structure's questions; a dev slice is carved from
the remainder for early stopping) and reports macro-averaged answer F1
plus Precision@1/Precision@5 per setting.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field

import numpy as np

from .canon import canonical_key
from .graph import CLASS, ENTITY, LITERAL, GraphError, QueryGraph
from .grounding import (
    KIND_CLASS,
    KIND_ENTITY,
    KIND_LITERAL,
    KIND_PROPERTY,
    LinkingCandidate,
    with_distractors,
)
from .io import InputError, located, read_json
from .kb import AnswerSet, KnowledgeBase, execute, format_answer
from .merging import MergeConfig
from .mining import (
    MAX_TRIPLES,
    Mention,
    QueryTooLargeError,
    TrainingPair,
    contained_frequent_keys,
    mine,
)
from .pipeline import SETTINGS, QueryGenerator
from .predictor import TrainConfig, train, train_structure_classifier
from .sparql import QuerySyntaxError, UnsupportedFeatureError, parse_query

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    name: str
    pairs: list[TrainingPair]
    skipped: int = 0


def load_dataset(path, prefixes=None, name: str | None = None) -> Dataset:
    """Load {question, sparql, mentions?} records, skipping (with a logged
    count) any record whose query cannot be parsed, is not a valid query
    graph or has more than ``MAX_TRIPLES`` triples to mine."""
    records = read_json(path)
    if not isinstance(records, list):
        raise InputError(path, 1, "expected a JSON array of records")
    pairs = []
    skipped = 0
    for i, rec in enumerate(records):
        with located(path, f"record {i}"):
            question = rec.get("question") or rec.get("corrected_question")
            sparql = rec.get("sparql") or rec.get("sparql_query")
            if not question or not sparql:
                skipped += 1
                log.info("skipping record %s: missing question/sparql", rec.get("id", i))
                continue
            if not isinstance(question, str) or not isinstance(sparql, str):
                raise ValueError("question and sparql must be strings")
            try:
                query = parse_query(sparql, prefixes)
                if query.triple_count > MAX_TRIPLES:
                    raise QueryTooLargeError(f"{query.triple_count} triples (limit {MAX_TRIPLES})")
            except (QuerySyntaxError, UnsupportedFeatureError, GraphError,
                    QueryTooLargeError) as exc:
                skipped += 1
                log.info("skipping record %s: %s", rec.get("id", i), exc)
                continue
            mentions = tuple(Mention(m["start"], m["end"],
                                     m.get("surface", question[m["start"]:m["end"]]))
                             for m in rec.get("mentions", []))
            pairs.append(TrainingPair(question, query, mentions,
                                      qid=str(rec.get("id", i))))
    if skipped:
        log.warning("skipped %d/%d records with unsupported queries",
                    skipped, len(records))
    return Dataset(name or str(path), pairs, skipped)


# ---------------------------------------------------------------------------
# folds


def make_folds(pairs, n_folds: int, seed: int) -> list[list[int]]:
    """Stratified fold assignment: each structure's questions are shuffled
    and dealt round-robin, so every fold sees every structure that has at
    least n_folds examples. Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    groups: dict = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(canonical_key(pair.query), []).append(i)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    offset = 0
    for key in sorted(groups, key=lambda k: k.sort_key()):
        idx = groups[key]
        perm = rng.permutation(len(idx))
        for j, p in enumerate(perm):
            folds[(offset + j) % n_folds].append(idx[p])
        offset += len(idx)
    return [sorted(f) for f in folds]


def split_fold(pairs, folds, fold: int, seed: int, dev_policy: str = "fraction"):
    """(train, dev, test) pairs for one fold: the fold is the test set and
    a dev slice is carved from the remainder for early stopping.

    ``fraction`` takes one eighth of the remainder at random (~10% of the
    data). ``stratified`` takes one question from every structure that
    still has at least three, which keeps per-structure training counts
    deterministic on small fixtures.
    """
    test_idx = set(folds[fold])
    rest = [i for i in range(len(pairs)) if i not in test_idx]
    rng = np.random.default_rng([seed, fold])
    if dev_policy == "stratified":
        groups: dict = {}
        for i in rest:
            groups.setdefault(canonical_key(pairs[i].query), []).append(i)
        dev_idx = set()
        for key in sorted(groups, key=lambda k: k.sort_key()):
            members = groups[key]
            if len(members) >= 3:
                dev_idx.add(members[int(rng.integers(len(members)))])
    else:
        perm = rng.permutation(len(rest))
        n_dev = max(1, len(rest) // 8)
        dev_idx = {rest[i] for i in perm[:n_dev]}
    train_pairs = [pairs[i] for i in rest if i not in dev_idx]
    dev_pairs = [pairs[i] for i in sorted(dev_idx)]
    test_pairs = [pairs[i] for i in sorted(test_idx)]
    return train_pairs, dev_pairs, test_pairs


# ---------------------------------------------------------------------------
# metrics


def answer_f1(predicted: AnswerSet, gold: AnswerSet) -> float:
    """Set-based F1 over answer elements; aggregates compare by exact
    value. Two empty answers count as a match."""
    if predicted.is_aggregate != gold.is_aggregate:
        return 0.0
    if gold.is_aggregate:
        return 1.0 if predicted.aggregate == gold.aggregate else 0.0
    if not predicted.values and not gold.values:
        return 1.0
    if not predicted.values or not gold.values:
        return 0.0
    inter = len(predicted.values & gold.values)
    if inter == 0:
        return 0.0
    p = inter / len(predicted.values)
    r = inter / len(gold.values)
    return 2 * p * r / (p + r)


def is_complex(query: QueryGraph) -> bool:
    """Complex questions: two or more triples, or any aggregation."""
    return query.triple_count >= 2 or query.aggregation_count > 0


# ---------------------------------------------------------------------------
# linking candidates


def gold_candidates(pair: TrainingPair) -> list[LinkingCandidate]:
    """The correct linking result, derived from the gold query: one
    candidate per symbol with score 1."""
    out = []
    seen = set()
    q = pair.query
    for v in q.vertices:
        if v.id in q.order_values:
            continue
        kind = {ENTITY: KIND_ENTITY, CLASS: KIND_CLASS, LITERAL: KIND_LITERAL}.get(v.kind)
        if kind is None or (kind, v.surface) in seen:
            continue
        seen.add((kind, v.surface))
        out.append(LinkingCandidate(v.surface, kind, v.surface, 1.0))
    for name in q.user_labels:
        if (KIND_PROPERTY, name) not in seen:
            seen.add((KIND_PROPERTY, name))
            out.append(LinkingCandidate(name, KIND_PROPERTY, name, 1.0))
    return out


def symbol_pools(pairs, kb: KnowledgeBase | None = None) -> dict:
    """Distractor pools for noisy-linking runs: every gold-query symbol by
    linking kind, plus (when the KB is given) per-entity pools restricted
    to entities sharing a class, mimicking a linker that confuses similar
    entities."""
    pools: dict[str, set[str]] = {KIND_ENTITY: set(), KIND_CLASS: set(),
                                  KIND_LITERAL: set(), KIND_PROPERTY: set()}
    for pair in pairs:
        for c in gold_candidates(pair):
            pools[c.kind].add(c.symbol)
    out = {k: sorted(v) for k, v in pools.items()}
    if kb is not None:
        entity_pools = {}
        entities = out[KIND_ENTITY]
        for sym in entities:
            classes = kb.classes_of(sym)
            if classes:
                same = [e for e in entities
                        if e != sym and kb.classes_of(e) & classes]
                if same:
                    entity_pools[sym] = same
        out["entity_pools"] = entity_pools
    return out


# ---------------------------------------------------------------------------
# pipeline configuration and reports


@dataclass
class PipelineConfig:
    gamma: int = 30
    merge: MergeConfig = field(default_factory=MergeConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    top_k: int = 5
    folds: int = 5
    seed: int = 13
    setting: str = "full"
    predictor: str = "bilstm"  # bilstm | bow | oracle
    linking: str = "gold"      # gold | gazetteer
    distractors: int = 0
    distractor_factor: float = 0.9
    dev_policy: str = "fraction"  # fraction | stratified

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}")
        if self.dev_policy not in ("fraction", "stratified"):
            raise ValueError("dev_policy must be fraction or stratified")
        if self.predictor not in ("bilstm", "bow", "oracle"):
            raise ValueError("predictor must be bilstm, bow or oracle")
        if self.linking not in ("gold", "gazetteer"):
            raise ValueError("linking must be gold or gazetteer")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.distractors < 0:
            raise ValueError("distractors must be >= 0")


@dataclass
class QuestionRecord:
    qid: str
    question: str
    f1: float
    hit_at_1: bool
    hit_at_5: bool
    complex: bool
    gold: str
    predicted: str | None
    error: str | None = None


@dataclass
class FoldReport:
    fold: int
    records: list[QuestionRecord]

    @property
    def f1(self) -> float:
        return statistics.fmean(r.f1 for r in self.records) if self.records else 0.0

    @property
    def precision_at_1(self) -> float:
        return (sum(r.hit_at_1 for r in self.records) / len(self.records)
                if self.records else 0.0)

    @property
    def precision_at_5(self) -> float:
        return (sum(r.hit_at_5 for r in self.records) / len(self.records)
                if self.records else 0.0)


@dataclass
class EvalReport:
    setting: str
    fold_reports: list[FoldReport]

    def _agg(self, attr: str) -> tuple[float, float]:
        vals = [getattr(f, attr) for f in self.fold_reports]
        mean = statistics.fmean(vals)
        std = statistics.pstdev(vals) if len(vals) > 1 else 0.0
        return mean, std

    @property
    def f1(self) -> tuple[float, float]:
        return self._agg("f1")

    @property
    def precision_at_1(self) -> tuple[float, float]:
        return self._agg("precision_at_1")

    @property
    def precision_at_5(self) -> tuple[float, float]:
        return self._agg("precision_at_5")

    def to_json(self) -> dict:
        f1_m, f1_s = self.f1
        p1_m, p1_s = self.precision_at_1
        p5_m, p5_s = self.precision_at_5
        return {
            "setting": self.setting,
            "aggregate": {"f1_mean": f1_m, "f1_std": f1_s,
                          "p_at_1_mean": p1_m, "p_at_1_std": p1_s,
                          "p_at_5_mean": p5_m, "p_at_5_std": p5_s},
            "folds": [{
                "fold": fr.fold,
                "f1": fr.f1,
                "p_at_1": fr.precision_at_1,
                "p_at_5": fr.precision_at_5,
                "questions": [{
                    "id": r.qid, "f1": r.f1, "hit_at_1": r.hit_at_1,
                    "hit_at_5": r.hit_at_5, "complex": r.complex,
                    "gold": r.gold, "predicted": r.predicted, "error": r.error,
                } for r in fr.records],
            } for fr in self.fold_reports],
        }

    def summary(self) -> str:
        f1_m, f1_s = self.f1
        p1_m, p1_s = self.precision_at_1
        p5_m, p5_s = self.precision_at_5
        return (f"setting={self.setting}  "
                f"F1={f1_m:.3f}±{f1_s:.3f}  "
                f"P@1={p1_m:.3f}±{p1_s:.3f}  "
                f"P@5={p5_m:.3f}±{p5_s:.3f}")


def build_generator(train_pairs, dev_pairs, kb: KnowledgeBase,
                    config: PipelineConfig) -> QueryGenerator:
    """Mine and train everything one fold needs."""
    catalog = mine(train_pairs, config.gamma)
    models = {}
    classifier = None
    if config.setting == "rank-wo-sub":
        classifier = train_structure_classifier(train_pairs, catalog,
                                                config.train, dev_pairs)
    elif config.predictor != "oracle":
        models = train(train_pairs, catalog, config.train, dev_pairs,
                       predictor=config.predictor)
    return QueryGenerator(catalog, models, kb, config.merge,
                          top_k=config.top_k, setting=config.setting,
                          structure_classifier=classifier)


def evaluate_questions(generator: QueryGenerator, test_pairs, kb: KnowledgeBase,
                       config: PipelineConfig, fold: int,
                       linker=None, pools=None) -> FoldReport:
    records = []
    pools = pools or {}
    for qi, pair in enumerate(test_pairs):
        gold_answers = execute(pair.query, kb)
        if config.linking == "gold":
            spans = [(m.start, m.end) for m in pair.mentions]
            candidates = gold_candidates(pair)
        else:
            spans, candidates = linker.link(pair.question)
            if pair.mentions:
                spans = [(m.start, m.end) for m in pair.mentions]
        if config.distractors > 0:
            rng = np.random.default_rng([config.seed, fold, qi])
            candidates = with_distractors(candidates, pools, config.distractors,
                                          config.distractor_factor, rng,
                                          pools.get("entity_pools"))
        probs_override = None
        if config.predictor == "oracle" and config.setting != "rank-wo-sub":
            pattern = contained_frequent_keys(pair.query, generator.catalog)
            probs_override = {k: (1.0 if k in pattern else 0.0)
                              for k in generator.catalog.substructures}
        trace = generator.generate(pair.question, spans, candidates, probs_override)
        f1 = 0.0
        hit1 = hit5 = False
        predicted = None
        if trace.results:
            predicted = trace.results[0].answers
            f1 = answer_f1(predicted, gold_answers)
            for i, res in enumerate(trace.results[:5]):
                if answer_f1(res.answers, gold_answers) == 1.0:
                    hit5 = True
                    if i == 0:
                        hit1 = True
                    break
        records.append(QuestionRecord(
            pair.qid or str(qi), pair.question, f1, hit1, hit5,
            is_complex(pair.query), format_answer(gold_answers),
            format_answer(predicted), trace.error))
    return FoldReport(fold, records)


def _check_linker(config: PipelineConfig, linker) -> None:
    if config.linking == "gazetteer" and linker is None:
        raise ValueError("gazetteer linking needs a linker")


def run_pipeline(dataset: Dataset, kb: KnowledgeBase, config: PipelineConfig,
                 linker=None, folds: list[int] | None = None) -> EvalReport:
    """Cross-validated end-to-end evaluation. ``folds`` restricts the run
    to a subset of fold indices (e.g. [0] for a single split)."""
    pairs = dataset.pairs
    if not pairs:
        raise ValueError("empty dataset")
    _check_linker(config, linker)
    assignments = make_folds(pairs, config.folds, config.seed)
    pools = symbol_pools(pairs, kb) if config.distractors > 0 else None
    fold_reports = []
    for fold in folds if folds is not None else range(config.folds):
        train_pairs, dev_pairs, test_pairs = split_fold(pairs, assignments, fold,
                                                        config.seed, config.dev_policy)
        generator = build_generator(train_pairs, dev_pairs, kb, config)
        fold_reports.append(evaluate_questions(generator, test_pairs, kb, config,
                                               fold, linker, pools))
    return EvalReport(config.setting, fold_reports)


def training_fraction_sweep(dataset: Dataset, kb: KnowledgeBase,
                            config: PipelineConfig, fractions,
                            linker=None) -> dict[float, EvalReport]:
    """Re-run fold 0 with the training set cut to each fraction."""
    _check_linker(config, linker)
    pairs = dataset.pairs
    assignments = make_folds(pairs, config.folds, config.seed)
    train_pairs, dev_pairs, test_pairs = split_fold(pairs, assignments, 0,
                                                    config.seed, config.dev_policy)
    out = {}
    for frac in fractions:
        rng = np.random.default_rng([config.seed, int(frac * 1000)])
        n = max(1, int(round(len(train_pairs) * frac)))
        keep = sorted(rng.permutation(len(train_pairs))[:n].tolist())
        subset = [train_pairs[i] for i in keep]
        generator = build_generator(subset, dev_pairs, kb, config)
        report = EvalReport(config.setting, [
            evaluate_questions(generator, test_pairs, kb, config, 0, linker)])
        out[frac] = report
    return out
