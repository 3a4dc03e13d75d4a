"""The traced run: per-layer metrics from spans, counts and kernels."""

from __future__ import annotations

import time

from kbqg.evaluation import load_dataset

from kernels import run_kernels
from tracer import Tracer
from workloads import FIXTURE_DIR, WORK_DIR, load_inputs, run_round


def _question_hooks(tracer: Tracer, dataset) -> dict:
    """Tag spans with the question being answered, and count how often
    evaluation executes a query that grounding already executed."""
    gold_qid = {id(p.query): p.qid for p in dataset.pairs}
    grounded: dict[int, object] = {}

    def evaluation_execute(args, kwargs):
        qid = gold_qid.get(id(args[0]))
        if qid is not None:       # evaluate_questions starts each question here
            tracer.set_question(qid)
            grounded.clear()
        elif id(args[0]) in grounded:
            tracer.count("kb.reexecuted")

    def grounding_execute(args, kwargs):
        grounded[id(args[0])] = args[0]   # kept alive so ids stay unique

    def counter(name, size):
        return None, lambda args, result: tracer.count(name, size(result))

    return {
        "evaluation.execute": (evaluation_execute, None),
        "grounding.execute": (grounding_execute, None),
        "pipeline.merge_substructures": counter("merging.survivors", len),
        "merging.merge_pair": counter("merging.candidates", len),
        "pipeline.ground": counter("grounding.results", len),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(load: Tracer, tracer: Tracer, traced_round, cache_info,
                  kernels: dict) -> dict[str, float]:
    n = len(traced_round.latencies)

    def per_question_ms(*sites: str, part: int = 1) -> float:
        return 1e3 * sum(tracer.site(s)[part] for s in sites) / n

    attempts = tracer.site("grounding.validate_grammar")[0]
    grounding_executes = tracer.site("grounding.execute")[0]
    train_s = tracer.site("evaluation.train")[1]
    mine_s = tracer.site("evaluation.mine")[1]
    catalogs = {id(g.catalog): g.catalog for g in traced_round.generators.values()}
    parse_calls, parse_s, _ = load.site("evaluation.parse_query")
    cf_calls, _, cf_self = tracer.function("canonical_form")
    counts = tracer.counts
    metrics = {
        "merging.merge_ms": per_question_ms("pipeline.merge_substructures"),
        "merging.merge_pair_calls": tracer.function("merge_pair")[0],
        "merging.candidates": counts.get("merging.candidates", 0),
        "merging.kept_ratio": _ratio(counts.get("merging.survivors", 0),
                                     tracer.site("merging.containment_pattern")[0]),
        "canon.canonical_form_calls": cf_calls,
        "canon.canonical_form_self_s": cf_self,
        "canon.cache_hit_ratio": _ratio(cache_info.hits, cache_info.hits + cache_info.misses),
        "mining.mine_s": mine_s,
        "mining.frequent_substructures": _ratio(
            sum(len(c.substructures) for c in catalogs.values()), len(catalogs)),
        "predictor.train_s": train_s,
        "predictor.train_examples_per_s": _ratio(tracer.function("backward")[0], train_s),
        "predictor.predict_ms": per_question_ms("pipeline.predict_all"),
        "ranking.rank_ms": per_question_ms("pipeline.rank_existing"),
        "grounding.ground_ms": per_question_ms("pipeline.ground"),
        "grounding.fill_self_ms": per_question_ms("pipeline.ground", part=2),
        "grounding.validate_ms": per_question_ms("grounding.validate_grammar",
                                                 "grounding.check_domain_range"),
        "grounding.attempts": attempts,
        "grounding.accept_ratio": _ratio(counts.get("grounding.results", 0), attempts),
        "kb.execute_calls": grounding_executes,
        "kb.load_s": load.site("kb.load_kb")[1],
        "sparql.parse_us": 1e6 * _ratio(parse_s, parse_calls),
        "evaluation.score_ms": per_question_ms("evaluation.execute", "evaluation.answer_f1"),
        "kb.reexecute_ratio": _ratio(counts.get("kb.reexecuted", 0), grounding_executes),
    }
    metrics.update(kernels)
    return metrics


def traced_run(inputs, dataset, kb, config, folds, qid_of, name: str, seed: int):
    """One untraced round, one traced round, the kernels. Returns the
    rounds and the per-layer metrics; prints self times and overhead."""
    load = Tracer()
    load.install()
    try:
        load_inputs(inputs)
    finally:
        load.uninstall()

    untraced = run_round(dataset, kb, config, folds, qid_of)
    tracer = Tracer()
    traced_round = run_round(dataset, kb, config, folds, qid_of, tracer,
                             _question_hooks(tracer, dataset))
    cache_info = tracer.originals["canon.canonical_form"].cache_info()

    start = time.perf_counter()
    fixture = load_dataset(FIXTURE_DIR / "mini_dataset.json").pairs
    kb_queries = [p.query for p in dataset.pairs if int(p.qid.rsplit("-", 1)[1]) < 3]
    kernels = run_kernels(fixture, kb, kb_queries)
    kernel_s = time.perf_counter() - start

    metrics = layer_metrics(load, tracer, traced_round, cache_info, kernels)
    overhead = traced_round.wall / untraced.wall - 1.0
    print(f"untraced round {untraced.wall:.3f} s, traced round {traced_round.wall:.3f} s: "
          f"tracing overhead {100 * overhead:+.1f}%; kernels {kernel_s:.1f} s")
    # stages inside QueryGenerator.generate also get their share of answer time
    stages = {"mine": ["evaluation.mine"], "train": ["evaluation.train"],
              "predict": ["pipeline.predict_all"], "rank": ["pipeline.rank_existing"],
              "merge": ["pipeline.merge_substructures"], "ground": ["pipeline.ground"],
              "score": ["evaluation.execute", "evaluation.answer_f1"]}
    answer_s = tracer.site("pipeline.QueryGenerator.generate")[1]
    print("stages of the traced round: time, share of the round, share of answer time")
    for stage, sites in stages.items():
        total = sum(tracer.site(s)[1] for s in sites)
        answer_share = (f"{100 * _ratio(total, answer_s):6.1f}%"
                        if sites[0].startswith("pipeline.") else "")
        print(f"  {stage:8} {total:9.3f} s {100 * total / traced_round.wall:6.1f}% {answer_share}")
    print(f"{'site':44} {'calls':>9} {'total s':>9} {'self s':>9}")
    for site, calls, total, self_s in tracer.self_time_table():
        print(f"{site:44} {calls:9d} {total:9.3f} {self_s:9.3f}")
    base = WORK_DIR / f"trace-{name}-{seed}"
    load.dump(base.with_name(base.name + "-load"))
    path = tracer.dump(base)
    print(f"{len(tracer.span_start)} spans written to {path}")
    return [untraced, traced_round], metrics
