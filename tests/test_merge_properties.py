"""Property tests for the exact shortcuts the merger takes.

The merger checks restrictions before canonicalizing, skips the unions
that a score bound shows cannot make the beam, and
``contained_frequent_keys`` tests containment by embedding frequent
substructures instead of enumerating every triple subset. Each shortcut
is checked here against the plain computation it replaces.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqg.canon import StructureKey, canonical_key, is_substructure
from kbqg.merging import (
    ROUND_COUNTS,
    MergeConfig,
    merge_pair,
    merge_substructures,
    passes_restrictions,
)
from kbqg.mining import TrainingPair, contained_frequent_keys, enumerate_substructures, mine
from kbqg.ranking import score_containment

from .graphgen import random_graph
from .oracles import (
    oracle_containment_pattern,
    reference_canonical_form,
    reference_merge_pair,
    reference_merge_substructures,
)
from .test_merging import merge_fixture

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@settings(max_examples=150, deadline=None)
@given(seeds, seeds)
def test_is_substructure_agrees_with_enumeration(seed_g, seed_h):
    g = random_graph(random.Random(seed_g), max_triples=5)
    h = random_graph(random.Random(seed_h), max_triples=4)
    inside = enumerate_substructures(g)
    for key, rep in enumerate_substructures(h).items():
        assert is_substructure(rep, g) == (key in inside), (str(rep), str(g))
    # g's own parts are always found
    for key, rep in inside.items():
        assert canonical_key(rep) == key and is_substructure(rep, g)


def random_catalog(seed: int):
    """Every connected part of five random queries, each asked twice,
    is frequent."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, max_triples=4) for _ in range(5)]
    return mine([TrainingPair(f"q{i}", g) for i, g in enumerate(graphs * 2)], 1)


_RANDOM_CATALOGS = [random_catalog(seed) for seed in range(3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RANDOM_CATALOGS), seeds, seeds, seeds)
def test_contained_frequent_keys_agrees_with_enumeration_oracle(catalog, seed_a, seed_b,
                                                                 seed_known):
    a = random_graph(random.Random(seed_a), max_triples=3)
    b = random_graph(random.Random(seed_b), max_triples=3)
    rng = random.Random(seed_known)
    merges = list(merge_pair(a, b).values())
    for g in [a] + rng.sample(merges, min(3, len(merges))):
        expected = oracle_containment_pattern(g, catalog)
        known = frozenset(k for k in expected if rng.random() < 0.5)
        assert contained_frequent_keys(g, catalog, canonical_key(g), known) == expected
        assert contained_frequent_keys(g, catalog) == expected


@settings(max_examples=150, deadline=None)
@given(seeds, seeds, st.integers(1, 7), st.integers(0, 2))
def test_restricted_merge_pair_is_filtered_merge_pair(seed_a, seed_b, tau, delta):
    a = random_graph(random.Random(seed_a), max_triples=3)
    b = random_graph(random.Random(seed_b), max_triples=3)
    cfg = MergeConfig(tau=tau, delta=delta)
    expected = {k: v for k, v in merge_pair(a, b).items() if passes_restrictions(v, cfg)}
    counts = Counter()
    assert merge_pair(a, b, restrict=cfg, counts=counts) == expected
    assert counts["generated"] - counts["failed_restrictions"] >= len(expected)


@settings(max_examples=150, deadline=None)
@given(seeds, seeds, st.integers(1, 7), st.integers(0, 2), seeds)
def test_merge_pair_with_last_keeps_every_union_that_may_sort_first(seed_a, seed_b, tau,
                                                                    delta, seed_last):
    a = random_graph(random.Random(seed_a), max_triples=3)
    b = random_graph(random.Random(seed_b), max_triples=3)
    cfg = MergeConfig(tau=tau, delta=delta)
    counts = Counter()
    unions = merge_pair(a, b, restrict=cfg, counts=counts)
    assert counts["cut_by_bound"] == 0
    lasts = [(0, "")] + [key.sort_key() for key in unions]
    for last in [lasts[0], random.Random(seed_last).choice(lasts)]:
        last_counts = Counter()
        kept = merge_pair(a, b, restrict=cfg, counts=last_counts, last=last)
        # a key's unions share its triple count and prefix, so each key is
        # kept or cut whole, and keeps its first union's representative
        assert list(kept.items()) == [(k, v) for k, v in unions.items() if k in kept]
        assert {k for k in unions if k.sort_key() <= last} <= set(kept)
        n, canonical = last
        for key in kept:
            if key.sort_key() > last:
                prefix = key.canonical[:key.canonical.index("//") + 2]
                assert key.triple_count == n and canonical.startswith(prefix)
        assert (last_counts["generated"], last_counts["failed_restrictions"]) == \
            (counts["generated"], counts["failed_restrictions"])
        # each key cut stands for at least one union
        assert last_counts["cut_by_bound"] >= len(unions) - len(kept)
        assert (last_counts["cut_by_bound"] == 0) == (len(kept) == len(unions))
        if last == (0, ""):
            assert not kept


def assert_merge_pair_matches_reference(a, b, cfg):
    counts = Counter()
    got = merge_pair(a, b, restrict=cfg, counts=counts)
    expected, generated, failed = reference_merge_pair(a, b, restrict=cfg)
    assert list(got) == list(expected)
    # each key maps to the representative of the first union found with it
    assert list(got.values()) == [reference_canonical_form(union)[1]
                                  for union in expected.values()]
    assert (counts["generated"], counts["failed_restrictions"]) == (generated, failed)


@settings(max_examples=150, deadline=None)
@given(seeds, seeds, st.one_of(st.none(), st.builds(MergeConfig, tau=st.integers(1, 7),
                                                    delta=st.integers(0, 2))))
def test_merge_pair_matches_the_unite_reference(seed_a, seed_b, cfg):
    # random graphs may be disconnected, so the connectivity check runs too
    a = random_graph(random.Random(seed_a), max_triples=3)
    b = random_graph(random.Random(seed_b), max_triples=3)
    assert_merge_pair_matches_reference(a, b, cfg)


def test_merge_pair_renames_apart_from_names_it_gave_before():
    a = random_graph(random.Random(1), max_triples=3)
    b = random_graph(random.Random(2), max_triples=3)
    unions = list(merge_pair(a, b).values())
    for union in unions[:10]:
        assert_merge_pair_matches_reference(union, b, None)
        assert_merge_pair_matches_reference(union, union, MergeConfig(tau=7))


_CATALOG, _GOLD, _PROBS = merge_fixture()
_KEYS = sorted(_PROBS, key=lambda k: k.sort_key())
probabilities = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 1e-7, 1.0 - 1e-7]),
              st.floats(0.0, 0.1), st.floats(0.9, 1.0), st.floats(0.0, 1.0)),
    min_size=len(_KEYS), max_size=len(_KEYS))


@settings(max_examples=40, deadline=None)
@given(probabilities, st.sampled_from([0.0, 0.01, 0.3, 0.7]), st.sampled_from([3, 30]),
       st.integers(1, 2))
def test_merging_matches_enumeration_reference(ps, theta, beam, k_max):
    probs = dict(zip(_KEYS, ps))
    cfg = MergeConfig(k_max=k_max, theta=theta, beam=beam)
    got = [(s.key.canonical, s.score) for s in merge_substructures(probs, _CATALOG, cfg)]
    assert got == reference_merge_substructures(probs, _CATALOG, cfg)


def catalog_probabilities(catalog):
    """Probabilities for the catalog's substructures: the 0/1 indicator
    of a mined structure's containment pattern (as the oracle predicts
    it, so that many merges tie at 1.0), or 0/1, near-0/1 or uniform
    probabilities, or a mix."""
    keys = sorted(catalog.substructures, key=StructureKey.sort_key)
    patterns = [contained_frequent_keys(e.representative, catalog)
                for e in catalog.structures.values()]
    indicator = st.sampled_from(patterns).map(lambda pattern: [float(k in pattern)
                                                                for k in keys])
    zero_one = st.sampled_from([0.0, 1.0])
    near = st.one_of(st.sampled_from([1e-7, 1.0 - 1e-7]), st.floats(0.0, 0.05),
                     st.floats(0.95, 1.0))
    uniform = st.floats(0.0, 1.0)
    return st.one_of([indicator] + [
        st.lists(p, min_size=len(keys), max_size=len(keys))
        for p in (zero_one, near, uniform, st.one_of(zero_one, near, uniform))
    ]).map(lambda ps: dict(zip(keys, ps)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RANDOM_CATALOGS), st.data())
def test_score_bound_is_the_best_score_of_any_containing_pattern(catalog, data):
    keys = sorted(catalog.substructures, key=StructureKey.sort_key)
    probs = data.draw(catalog_probabilities(catalog))
    known = frozenset(data.draw(st.sets(st.sampled_from(keys))))
    # merging's bound, with ``likely`` built as ``merge_substructures`` builds it
    likely = frozenset(key for key in catalog.frequent_keys if probs.get(key, 0.0) > 0.5)
    bound = score_containment(known | likely, probs, catalog)
    best = known | {k for k in keys if probs[k] >= 1.0 - probs[k]}
    assert bound == score_containment(best, probs, catalog)
    for _ in range(5):
        pattern = known | data.draw(st.sets(st.sampled_from(keys)))
        assert score_containment(pattern, probs, catalog) <= bound


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_RANDOM_CATALOGS), st.data(), st.integers(1, 4), st.integers(1, 2),
       st.sampled_from([0.0, 0.3, 0.7]))
def test_pruned_merging_matches_the_reference_on_random_catalogs(catalog, data, beam, k_max,
                                                                 theta):
    probs = data.draw(catalog_probabilities(catalog))
    cfg = MergeConfig(k_max=k_max, theta=theta, beam=beam)
    rounds = []
    got = merge_substructures(probs, catalog, cfg, rounds_out=rounds)
    assert [(s.key.canonical, s.score) for s in got] == \
        reference_merge_substructures(probs, catalog, cfg)
    for s in got:
        assert reference_canonical_form(s.representative)[:2] == (s.key, s.representative)
    for r in rounds:
        decided = sum(r[name] for name in ROUND_COUNTS if name != "generated")
        assert r["generated"] == decided + len(r["members"])


@pytest.mark.parametrize("beam", [1, 2, 3, 4])
def test_pruned_oracle_merging_matches_the_reference_for_every_mined_structure(beam):
    # oracle probabilities tie many merges at 1.0, so sort keys decide the
    # beam; that is where a pair whose bound equals the last member's
    # score keys only its unions no larger than that member
    cfg = MergeConfig(theta=0.0, beam=beam)
    for catalog in _RANDOM_CATALOGS:
        for entry in catalog.structures.values():
            pattern = contained_frequent_keys(entry.representative, catalog)
            probs = {k: float(k in pattern) for k in catalog.substructures}
            got = [(s.key.canonical, s.score) for s in merge_substructures(probs, catalog, cfg)]
            assert got == reference_merge_substructures(probs, catalog, cfg)
