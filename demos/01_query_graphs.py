#!/usr/bin/env python3
"""Query graphs, structural equivalence and canonical forms.

A formal query is a small directed graph: vertices are variables,
entities, classes or literals; edges carry user-defined properties or
the built-ins COUNT/AVG/MAX/MIN/MAXATN/MINATN/ISA. Two queries belong to
the same *structure* when a kind-preserving vertex bijection and a
built-in-fixing label bijection map one triple set onto the other.
"""

from kbqg import (
    canonical_form,
    canonical_key,
    is_equivalent,
    is_substructure,
    parse_query,
    serialize_query,
)

# a counting question in the supported SPARQL subset
count_query = parse_query(
    "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_Burton }")
print("parsed:      ", count_query)
print("serialized:  ", serialize_query(count_query))

# the structure erases symbols down to placeholders
print("structure:   ", canonical_form(count_query)[1])
print("canonical key:", canonical_key(count_query).canonical)

# variable names never matter
a = parse_query("SELECT ?x WHERE { ?x :director :S_Kubrick }")
b = parse_query("SELECT ?film WHERE { ?film :starring :J_Depp }")
print("\nrenamed/different symbols, same shape:", is_equivalent(a, b))

# ... but edge direction does: these are the two distinct simple structures
c = parse_query("SELECT ?x WHERE { :S_Kubrick :director ?x }")
print("direction flipped, same shape?         ", is_equivalent(a, c))

# ORDER BY DESC(?r) LIMIT 1 OFFSET 1 means "second largest"; the offset
# is part of the structure
second = parse_query(
    "SELECT ?f WHERE { ?f :runtime ?r } ORDER BY DESC(?r) LIMIT 1 OFFSET 1")
third = parse_query(
    "SELECT ?f WHERE { ?f :runtime ?r } ORDER BY DESC(?r) LIMIT 1 OFFSET 2")
print("offset 1 vs offset 2 equivalent?       ", is_equivalent(second, third))

# substructures: the counting fragment lives inside the full query
fragment = parse_query("SELECT (COUNT(?v) AS ?c) WHERE { ?v rdf:type :Film }")
print("\ncount+type fragment <= count query?    ",
      is_substructure(fragment, count_query))
print("count query <= fragment?               ",
      is_substructure(count_query, fragment))
