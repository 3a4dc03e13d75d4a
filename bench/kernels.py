"""Microbenchmarks of the kernels named in the ROADMAP.

Each kernel runs whole passes over a fixed input list until about
``BUDGET`` seconds have passed (at least three passes) and reports the
median time of one call. Inputs:

- ``canonical_form`` and ``enumerate_substructures``: the 40 gold
  queries of the bundled fixture. ``canonical_form`` is timed without
  its process-wide cache (``__wrapped__``); the cache is cleared before
  each ``enumerate_substructures`` pass, which canonicalizes subsets.
- ``merge_pair``: the pairs that ``merge_substructures`` builds for one
  fixture question under oracle probabilities, with a catalog mined from
  all 40 fixture questions (``gamma=2``, default merge controls).
- ``nn.forward`` and ``nn.backward``: the 40 fixture questions encoded
  for a randomly initialised network at the benchmark's training sizes
  (``d_e=d_h=24``) and at the library defaults (``d_e=100``, ``d_h=128``).
- ``kb.execute``: gold queries of the workload on the workload's KB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from kbqg import canon, merging, mining, nn
from kbqg.kb import execute
from kbqg.predictor import build_vocab, encode, mention_spans_of, preprocess

from tracer import Tracer

MERGE_QUESTION = "s4-0"
# seconds per kernel
BUDGET = 0.6


def _per_call(fn, items, before_pass=None) -> float:
    """Median over passes of (pass time / len(items)), in seconds."""
    samples = []
    deadline = time.perf_counter() + BUDGET
    while len(samples) < 3 or time.perf_counter() < deadline:
        if before_pass is not None:
            before_pass()
        start = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - start) / len(items))
    return statistics.median(samples)


def record_merge_pairs(pairs) -> list[tuple]:
    """Arguments of every ``merge_pair`` call made while merging for
    ``MERGE_QUESTION`` under oracle probabilities."""
    catalog = mining.mine(pairs, 2)
    pair = next(p for p in pairs if p.qid == MERGE_QUESTION)
    pattern = mining.contained_frequent_keys(pair.query, catalog)
    probs = {k: float(k in pattern) for k in catalog.substructures}
    recorded = []
    tracer = Tracer([("kbqg.merging", "merge_pair")])
    tracer.install({"merging.merge_pair": (
        lambda args, kwargs: recorded.append((args, kwargs)), None)})
    try:
        merging.merge_substructures(probs, catalog, merging.MergeConfig())
    finally:
        tracer.uninstall()
    return recorded


def _nn_kernels(seqs, d_e: int, d_h: int, vocab_size: int):
    params = nn.init_params(vocab_size, d_e, d_h, 1, np.random.default_rng(0))
    caches = [nn.forward(params, ids, d_h) for ids in seqs]
    fwd = _per_call(lambda ids: nn.forward(params, ids, d_h), seqs)
    bwd = _per_call(lambda c: nn.backward(params, c, 1.0), caches)
    return fwd, bwd


def run_kernels(fixture_pairs, kb, kb_queries) -> dict[str, float]:
    """Per-call times: ``*_us`` in microseconds, ``*_ms`` in milliseconds."""
    gold = [p.query for p in fixture_pairs]
    out = {}
    out["canon.canonical_form_us"] = 1e6 * _per_call(
        canon.canonical_form.__wrapped__, gold)
    out["mining.enumerate_substructures_us"] = 1e6 * _per_call(
        mining.enumerate_substructures, gold,
        before_pass=canon.canonical_form.cache_clear)
    merge_args = record_merge_pairs(fixture_pairs)
    out["merging.merge_pair_us"] = 1e6 * _per_call(
        lambda c: merging.merge_pair(*c[0], **c[1]), merge_args,
        before_pass=canon.canonical_form.cache_clear)

    tokens = [preprocess(p.question, mention_spans_of(p)) for p in fixture_pairs]
    vocab = build_vocab(tokens)
    seqs = [np.array(encode(t, vocab)) for t in tokens]
    fwd, bwd = _nn_kernels(seqs, 24, 24, len(vocab))
    out["nn.forward_ms"], out["nn.backward_ms"] = 1e3 * fwd, 1e3 * bwd
    fwd, bwd = _nn_kernels(seqs, 100, 128, len(vocab))
    out["nn.forward_default_ms"], out["nn.backward_default_ms"] = 1e3 * fwd, 1e3 * bwd

    out["kb.execute_ms"] = 1e3 * _per_call(lambda q: execute(q, kb), kb_queries)
    return out
