#!/usr/bin/env python3
"""Ranking existing structures and building new ones by merging.

A structure's score is the joint probability of its containment pattern:
contained frequent substructures contribute Pr, absent ones (1 - Pr).
When the right structure never occurred in training, merging contained
substructures can still build it: seed with high-scoring substructures,
repeatedly merge in predicted-contained ones, keep connected results
within the size caps whose score beats the threshold.
"""

from kbqg.canon import canonical_key
from kbqg.merging import MergeConfig, merge_pair, merge_substructures
from kbqg.mining import contained_frequent_keys, mine
from kbqg.ranking import rank_existing
from kbqg.toydata import build_dataset, build_merge_corpus

# --- ranking over mined structures -----------------------------------------
pairs = build_dataset()
catalog = mine(pairs, gamma=2)

gold = next(p for p in pairs if p.qid == "s4-0")  # a how-many question
pattern = contained_frequent_keys(gold.query, catalog)
probs = {k: (0.95 if k in pattern else 0.05) for k in catalog.substructures}

print(f"question: {gold.question}")
print("ranked existing structures:")
for s in rank_existing(probs, catalog)[:4]:
    print(f"  {s.score:.4f}  (seen {s.train_count}x)  {s.representative}")

# --- merging toward an unseen structure -------------------------------------
train_pairs, unseen_gold = build_merge_corpus()
merge_catalog = mine(train_pairs, gamma=10)
unseen_key = canonical_key(unseen_gold)
print(f"\nunseen gold structure: {unseen_gold}")
print(f"present in TS? {unseen_key in merge_catalog.structures}")
print(f"frequent as a substructure? {unseen_key in merge_catalog.substructures}")

gold_pattern = contained_frequent_keys(unseen_gold, merge_catalog)
oracle_probs = {k: (1.0 if k in gold_pattern else 0.0)
                for k in merge_catalog.substructures}
merged = merge_substructures(oracle_probs, merge_catalog,
                             MergeConfig(k_max=2, theta=0.3, tau=5, delta=2))
print(f"\nmerged candidates: {len(merged)}")
print(f"gold reachable by merging? {unseen_key in {s.key for s in merged}}")

# --- what a single pairwise merge looks like --------------------------------
from kbqg.sparql import parse_query
from kbqg.graph import QueryGraph

a = parse_query("SELECT ?v WHERE { ?v :p Ent1 }")
b = parse_query("SELECT ?v WHERE { ?v :q ?w }")
a = QueryGraph(a.vertices, a.triples, None)
b = QueryGraph(b.vertices, b.triples, None)
print(f"\nall merges of {a} and {b} (each as its canonical representative):")
for key, graph in merge_pair(a, b).items():
    note = "" if graph.is_connected() else "   (disconnected: filtered later)"
    print(f"  {graph}{note}")
