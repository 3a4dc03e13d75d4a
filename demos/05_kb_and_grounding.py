#!/usr/bin/env python3
"""The in-memory KB, query execution, and grounding with validation.

Grounding fills a structure's placeholders (entities, classes, literals,
properties) from scored linking candidates, best overall score first,
and keeps the first queries that pass the grammar check, the
domain/range check, and a non-empty execution.
"""

from kbqg.canon import canonical_key
from kbqg.grounding import LinkingCandidate, ground, validate_grammar
from kbqg.kb import TYPE_KEY, execute
from kbqg.ranking import EXISTING, ScoredStructure
from kbqg.sparql import parse_query, serialize_query
from kbqg.toydata import build_gazetteer, build_kb

kb = build_kb()
print(f"toy KB: {kb.fact_count} facts, {len(kb.objects[TYPE_KEY])} typed symbols, "
      f"schema with {len(kb.schema.domains)} domains")

# direct execution
q = parse_query("SELECT ?f WHERE { ?f :director :S_Kubrick . ?f :runtime ?r } "
                "ORDER BY DESC(?r) LIMIT 1")
print(f"\nlongest Kubrick film: {sorted(execute(q, kb).values)}")

count = parse_query("SELECT (COUNT(?f) AS ?c) WHERE { ?f :director :T_Burton }")
print(f"Burton films: {execute(count, kb).aggregate}")

# grammar validation catches malformed graphs
bad = parse_query("SELECT ?x WHERE { ?x rdf:type :Film }")
print(f"\nwell-formed type query passes grammar: {validate_grammar(bad)}")

# grounding a ranked structure list with linking candidates
structure = parse_query("SELECT ?f WHERE { ?f rdf:type :Film . ?f :starring :X }")
ranked = [ScoredStructure(canonical_key(structure), structure, 0.9, EXISTING, 5)]
candidates = [
    LinkingCandidate("michael keaton", "entity", ":M_Keaton", 1.0),
    LinkingCandidate("michael keaton", "entity", ":M_Keaton_Wrong", 0.9),
    LinkingCandidate("star", "property", ":starring", 1.0),
    LinkingCandidate("films", "class", ":Film", 1.0),
]
results = ground(ranked, candidates, kb, top_k=3)
print("\ngrounded queries (validated, non-empty):")
for r in results:
    answer = sorted(execute(r.query, kb).values)
    print(f"  score={r.linking_score:.2f}  {serialize_query(r.query)}")
    print(f"    -> {answer}")

# the dictionary linker mock produces candidates from a gazetteer
linker = build_gazetteer()
spans, cands = linker.link("which films star Michael Keaton?")
print(f"\nlinker mentions: {spans}")
for c in cands:
    print(f"  {c.kind:8s} {c.symbol:12s} (from {c.mention!r})")
