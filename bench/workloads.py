"""The benchmark's workloads: inputs, one measured round, output checks.

A round is one call of ``kbqg.evaluation.run_pipeline`` over the
workload's folds of the 5-fold split, with one client asking one
question at a time (a closed loop). The process-wide ``canonical_form``
cache is cleared before every round, so each round starts as a fresh
process would; ``catalog._pattern_cache`` lives on the catalog that each
fold mines anew.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from kbqg import evaluation
from kbqg import kb as kb_module
from kbqg.canon import canonical_form
from kbqg.evaluation import PipelineConfig, make_folds, run_pipeline, split_fold
from kbqg.graph import AGGREGATION_LABELS
from kbqg.kb import execute
from kbqg.merging import MergeConfig
from kbqg.predictor import TrainConfig
from kbqg.sparql import serialize_query

from refeval import Answer, RefKB, f1
from scalegen import KB_SEED
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
FIXTURE_DIR = BENCH_DIR.parent / "src" / "kbqg" / "data"

# the acceptance suite's training sizes; 30 epochs without early
# stopping keep training the largest stage while one fold fits a run
BILSTM_TRAIN = TrainConfig(d_e=24, d_h=24, learning_rate=5e-3, epochs=30,
                           batch_size=8, patience=1000, seed=13)
# the acceptance suite's cross-validation seed
ACCEPTANCE_SPLIT_SEED = 13


@dataclass(frozen=True)
class Inputs:
    dataset: Path
    kb: Path
    schema: Path
    gold: dict[str, Answer] | None = None   # from the generator's tables


@dataclass(frozen=True)
class Workload:
    """One workload of BENCHMARK.json; its ``why`` is written there."""

    name: str
    setting: str
    predictor: str
    min_f1: float
    folds: list[int] | None          # None: all five
    check_merges: bool = False
    generated: bool = False          # kb-scale inputs from scalegen.py
    distractors: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    split_seed: int | None = None    # None: the run's seed

    def config(self, seed: int) -> PipelineConfig:
        return PipelineConfig(
            gamma=2, dev_policy="stratified", folds=5, setting=self.setting,
            predictor=self.predictor, train=self.train, distractors=self.distractors,
            distractor_factor=0.9, seed=seed if self.split_seed is None else self.split_seed)

    def inputs(self) -> Inputs:
        if not self.generated:
            return Inputs(FIXTURE_DIR / "mini_dataset.json", FIXTURE_DIR / "toy_kb.tsv",
                          FIXTURE_DIR / "toy_schema.txt")
        out = WORK_DIR / f"{self.name}-{KB_SEED}"
        # a child process, so the generator's tables stay out of this
        # process's peak memory
        subprocess.run([sys.executable, str(BENCH_DIR / "scalegen.py"),
                        "--seed", str(KB_SEED), "--out", str(out)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        with open(out / "dataset.json", encoding="utf-8") as f:
            gold = {r["id"]: Answer.from_doc(r["gold"]) for r in json.load(f)}
        return Inputs(out / "dataset.json", out / "kb.tsv", out / "schema.txt", gold)


WORKLOADS = {w.name: w for w in [
    # one fold per round: a fold of the fixture already takes ~13 s with
    # oracle probabilities and ~28 s with BiLSTM training
    Workload("oracle-merge", setting="full", predictor="oracle", min_f1=1.0,
             folds=[0], check_merges=True),
    # The split is the acceptance suite's whatever the seed: with 8 test
    # questions per fold, F1 after 25 epochs ranged 0.75-1.0 over split
    # seeds 1-6, and the merge work on soft probabilities moves with it.
    Workload("bilstm-full", setting="full", predictor="bilstm", min_f1=0.85,
             folds=[0], train=BILSTM_TRAIN, split_seed=ACCEPTANCE_SPLIT_SEED),
    # all five folds, so every round answers every question whatever the
    # split; the seed moves only the split and the linking distractors
    Workload("kb-scale", setting="rank-w-sub", predictor="oracle", min_f1=0.0,
             folds=None, generated=True, distractors=4),
]}


def load_inputs(inputs: Inputs):
    """The program's own loaders: the work that ``setup_s`` times. They are
    looked up on their modules so that a traced load sees them."""
    dataset = evaluation.load_dataset(inputs.dataset)
    kb = kb_module.load_kb(inputs.kb, inputs.schema)
    return dataset, kb


# ---------------------------------------------------------------------------
# one round


# what an untraced round wraps: the offline stages, the answer-and-score
# loop and each question
ROUND_FUNCTIONS = [("kbqg.mining", "mine"), ("kbqg.predictor", "train"),
                   ("kbqg.evaluation", "evaluate_questions"),
                   ("kbqg.pipeline", "QueryGenerator.generate")]
GENERATE = "pipeline.QueryGenerator.generate"


@dataclass
class RoundResult:
    wall: float
    train: float                       # train time over the round's folds
    eval_wall: float
    latencies: list[float]
    traces: dict[str, object]          # qid -> Trace
    generators: dict[str, object]      # qid -> the QueryGenerator that answered
    report: object


def run_round(dataset, kb, config, folds, qid_of, tracer: Tracer | None = None,
              hooks: dict | None = None) -> RoundResult:
    """One timed ``run_pipeline`` call. ``tracer`` (default: one that wraps
    ``ROUND_FUNCTIONS``) must wrap at least those functions."""
    tracer = tracer or Tracer(ROUND_FUNCTIONS)
    traces, generators = {}, {}

    def keep(args, trace):
        qid = qid_of[args[1]]
        traces[qid] = trace
        generators[qid] = args[0]

    tracer.install({**(hooks or {}), GENERATE: (None, keep)})
    canonical_form.cache_clear()
    try:
        start = time.perf_counter()
        report = run_pipeline(dataset, kb, config, folds=folds)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return RoundResult(wall, tracer.site("evaluation.train")[1],
                       tracer.site("evaluation.evaluate_questions")[1],
                       tracer.durations(GENERATE), traces, generators, report)


def mine_calls(dataset, config, folds) -> list[tuple]:
    """(training questions, gamma) of each ``mine`` call that
    ``run_pipeline`` makes over ``folds``, from the same public split
    functions."""
    assignments = make_folds(dataset.pairs, config.folds, config.seed)
    return [(split_fold(dataset.pairs, assignments, fold, config.seed,
                        config.dev_policy)[0], config.gamma)
            for fold in (folds if folds is not None else range(config.folds))]


# ---------------------------------------------------------------------------
# checks against computations made apart from the program


def _connected(g) -> bool:
    triples = list(g.triples)
    reached = {triples[0].subject, triples[0].object}
    grew = True
    while grew:
        grew = False
        for t in triples:
            if (t.subject in reached) != (t.object in reached):
                reached |= {t.subject, t.object}
                grew = True
    return all(t.subject in reached for t in triples)


def _merge_problems(qid, trace, generator, cfg: MergeConfig) -> list[str]:
    """Restrictions and threshold of every merged structure; its score is
    recomputed from the containment pattern that mining derives."""
    from kbqg.mining import contained_frequent_keys

    problems = []
    catalog = generator.catalog
    for s in trace.merged:
        g = s.representative
        aggs = sum(1 for t in g.triples
                   if t.label.is_builtin and t.label.builtin in AGGREGATION_LABELS)
        if not _connected(g) or len(g.triples) > cfg.tau or aggs > cfg.delta:
            problems.append(f"{qid}: merged structure breaks a restriction")
        pattern = contained_frequent_keys(g, catalog)
        score = math.prod(trace.probabilities[k] if k in pattern
                          else 1.0 - trace.probabilities[k] for k in catalog.substructures)
        if not score > cfg.theta or score != s.score:
            problems.append(f"{qid}: merged score {s.score} vs recomputed {score}")
    return problems


@dataclass
class Verdict:
    problems: list[str]
    failed: int
    answer_f1: float
    p_at_1: float


def check_rounds(workload: Workload, rounds: list[RoundResult], dataset, kb,
                 inputs: Inputs, config) -> Verdict:
    ref = RefKB.load(inputs.kb)
    pairs = {p.qid: p for p in dataset.pairs}
    first = rounds[0]
    problems: list[str] = []
    program_answers: dict[str, object] = {}
    f1s, hits = [], []
    program_f1 = {r.qid: r.f1 for fr in first.report.fold_reports for r in fr.records}
    for qid, trace in first.traces.items():
        pair = pairs[qid]
        gold = inputs.gold[qid] if inputs.gold is not None else ref.evaluate(pair.query)
        if gold.is_empty or not gold.same_as(execute(pair.query, kb)):
            problems.append(f"{qid}: gold answer disagrees with kbqg.kb.execute")
        top = None
        for i, res in enumerate(trace.results):
            text = serialize_query(res.query)
            if text not in program_answers:
                program_answers[text] = execute(res.query, kb)
            mine = ref.evaluate(res.query)
            if mine.is_empty or not mine.same_as(program_answers[text]):
                problems.append(f"{qid}: answer of {text} differs from the reference")
            if i == 0:
                top = mine
        f1s.append(f1(top, gold))
        hits.append(f1s[-1] == 1.0)
        if abs(program_f1[qid] - f1s[-1]) > 1e-12:
            problems.append(f"{qid}: program F1 {program_f1[qid]} vs reference {f1s[-1]}")
        if workload.check_merges:
            problems += _merge_problems(qid, trace, first.generators[qid], config.merge)
    if len(first.traces) != sum(len(fr.records) for fr in first.report.fold_reports):
        problems.append("not every test question reached QueryGenerator.generate")

    def outputs(r: RoundResult):
        return {qid: [serialize_query(x.query) for x in t.results]
                for qid, t in r.traces.items()}

    reference = outputs(first)
    for r in rounds[1:]:
        if outputs(r) != reference:
            problems.append("a repeated round returned different queries")
    answer_f1 = sum(f1s) / len(f1s)
    if answer_f1 < workload.min_f1:
        problems.append(f"answer F1 {answer_f1:.3f} below {workload.min_f1}")
    failed = sum(1 for r in rounds for t in r.traces.values() if t.error is not None)
    if failed:
        problems.append(f"{failed} questions ended with Trace.error")
    return Verdict(problems, failed, answer_f1, sum(hits) / len(hits))
