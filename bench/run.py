"""Benchmark of the kbqg pipeline.

    python3 bench/run.py --workload oracle-merge --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload (see ``workloads.py``) for about
``--seconds`` seconds: another round starts only while the previous
round's duration still fits before the deadline, and the first always
runs. Before, between and after the rounds it times repeated loads of
the inputs and replayed ``mine`` calls (``SideSamples``). The program's
outputs are checked against computations made apart from it. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.

A traced run measures one untraced round, then one round with every
public layer function wrapped (``tracer.py``), then the kernel
microbenchmarks (``kernels.py``). It prints the self time of every call
site and the tracing overhead, and writes the spans under ``bench/_work``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


# seconds of side samples taken before, between and after the rounds
SLICE_SECONDS = 2.0


class SideSamples:
    """Repeated loads of the inputs (``setup_s``) and replayed passes of
    the workload's ``mine`` calls (the mining part of ``offline_s``).

    Short timings follow the machine's speed of the moment, so they are
    taken in slices spread over the run: before the first round, between
    rounds and after the last. Within a slice, loads and mining passes
    alternate so that each takes about half of it, at least one of each.
    A mining pass clears the ``canonical_form`` cache and calls ``mine``
    on each fold's training questions in turn, as ``run_pipeline`` does.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.load_s: list[float] = []
        self.mine_s: list[float] = []
        self.loaded = None
        self.mine_calls: list = []

    def take_slice(self) -> None:
        from kbqg.canon import canonical_form
        from kbqg.mining import mine
        from workloads import load_inputs

        end = time.perf_counter() + SLICE_SECONDS
        load_total = mine_total = 0.0
        while True:
            self.loaded = None
            gc.collect()
            start = time.perf_counter()
            self.loaded = load_inputs(self.inputs)
            self.load_s.append(time.perf_counter() - start)
            load_total += self.load_s[-1]
            while self.mine_calls and mine_total < load_total:
                canonical_form.cache_clear()
                start = time.perf_counter()
                for train_pairs, gamma in self.mine_calls:
                    mine(train_pairs, gamma)
                self.mine_s.append(time.perf_counter() - start)
                mine_total += self.mine_s[-1]
            if time.perf_counter() >= end:
                break


def run_rounds(dataset, kb, config, folds, qid_of, seconds: float,
               samples: SideSamples) -> tuple[list, int]:
    """The rounds, and the peak resident memory in KiB after the first
    round, before later loads hold a second copy of the inputs."""
    from workloads import run_round

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + rounds[-1].wall <= deadline:
        gc.collect()
        rounds.append(run_round(dataset, kb, config, folds, qid_of))
        if len(rounds) == 1:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples.take_slice()
    return rounds, peak_rss_kb


# name -> unit, as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "cv_wall_s": "s", "offline_s": "s", "questions_per_s": "1/s",
    "peak_rss_mb": "MB", "answer_f1": "1", "p_at_1": "1",
}
PER_LAYER = {
    "merging.merge_ms": "ms", "merging.merge_pair_calls": "count",
    "merging.candidates": "count", "merging.kept_ratio": "1", "merging.merge_pair_us": "us",
    "canon.canonical_form_calls": "count", "canon.canonical_form_self_s": "s",
    "canon.cache_hit_ratio": "1", "canon.canonical_form_us": "us",
    "mining.mine_s": "s", "mining.frequent_substructures": "count",
    "mining.enumerate_substructures_us": "us",
    "predictor.train_s": "s", "predictor.train_examples_per_s": "1/s",
    "nn.backward_ms": "ms", "nn.backward_default_ms": "ms",
    "predictor.predict_ms": "ms", "nn.forward_ms": "ms", "nn.forward_default_ms": "ms",
    "ranking.rank_ms": "ms",
    "grounding.ground_ms": "ms", "grounding.fill_self_ms": "ms", "grounding.validate_ms": "ms",
    "grounding.attempts": "count", "grounding.accept_ratio": "1",
    "kb.execute_calls": "count", "kb.execute_ms": "ms",
    "kb.load_s": "s", "sparql.parse_us": "us",
    "evaluation.score_ms": "ms", "kb.reexecute_ratio": "1",
}


def end_to_end(samples: SideSamples, rounds, verdict, peak_rss_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(samples.load_s),
        "cv_wall_s": statistics.median(r.wall for r in rounds),
        "offline_s": (statistics.median(samples.mine_s)
                      + statistics.median(r.train for r in rounds)),
        "questions_per_s": statistics.median(len(r.latencies) / r.eval_wall for r in rounds),
        "peak_rss_mb": peak_rss_kb / 1024,
        "answer_f1": verdict.answer_f1,
        "p_at_1": verdict.p_at_1,
    }


def latency_line(rounds) -> str:
    """Median latency of one ``generate`` call and the highest whole
    percentile with at least ten latencies above it."""
    latencies = sorted(x for r in rounds for x in r.latencies)
    n = len(latencies)
    line = f"question latency: n={n}, p50={1e3 * statistics.median(latencies):.1f} ms"
    if n < 40:
        return line + ", too few for a tail percentile"
    pct = int(100 * (1 - 10 / n))
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return line + f", p{pct}={1e3 * value:.1f} ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kbqg benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "kbqg" / "__init__.py").is_file():
        print(f"error: the kbqg sources are missing ({SRC_DIR / 'kbqg'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    warnings.filterwarnings("ignore", category=UserWarning)

    from kbqg.evaluation import load_dataset
    from workloads import WORKLOADS, check_rounds, load_inputs, mine_calls

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.inputs()
    config = workload.config(args.seed)
    samples = SideSamples(inputs)
    if args.trace:
        dataset, kb = load_inputs(inputs)
    else:
        samples.mine_calls = mine_calls(load_dataset(inputs.dataset), config,
                                        workload.folds)
        samples.take_slice()
        dataset, kb = samples.loaded
    qid_of = {p.question: p.qid for p in dataset.pairs}
    if len(qid_of) != len(dataset.pairs):
        print("error: question texts are not unique", file=sys.stderr)
        return 2

    if args.trace:
        from traced import traced_run

        rounds, metrics = traced_run(inputs, dataset, kb, config, workload.folds,
                                     qid_of, args.workload, args.seed)
        verdict = check_rounds(workload, rounds, dataset, kb, inputs, config)
        units = PER_LAYER
    else:
        rounds, peak_rss_kb = run_rounds(dataset, kb, config, workload.folds, qid_of,
                                         args.seconds, samples)
        verdict = check_rounds(workload, rounds, dataset, kb, inputs, config)
        metrics = end_to_end(samples, rounds, verdict, peak_rss_kb)
        units = END_TO_END

    import numpy
    import scipy

    attempted = sum(len(r.latencies) for r in rounds)
    print(f"workload={workload.name} seed={args.seed} rounds={len(rounds)} "
          f"questions={attempted}")
    print(f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(latency_line(rounds))
    for problem in verdict.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
