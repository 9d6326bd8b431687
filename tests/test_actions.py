"""Set transformations, automorphism orbits, and the Ramanujan search driver."""

import functools
import itertools
import json
import math
import random

import numpy as np
import pytest

from pairgraph import graphs
from pairgraph.actions import (
    SEARCH_BLOCK,
    SearchConfig,
    SearchResult,
    _generator_chain,
    apply_automorphism,
    automorphism_group,
    generating_set_orbit,
    random_candidate,
    right_translate_set,
    search_ramanujan,
)
from pairgraph.descriptors import builtin_subgroup
from pairgraph.errors import (
    IndexNotTwo,
    NotAnAutomorphism,
    SizeCapExceeded,
    ValidationError,
)
from pairgraph.graphs import PairGraph, build_pair_graph, degree_profile
from pairgraph.groups import (
    FiniteGroup,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.spectral import compute_spectrum, is_ramanujan, ramanujan_size_bound
from pairgraph.structure import connected_components, is_connected

from isomorphism import are_isomorphic, find_isomorphism
from helpers import index_two_pool, instance_corpus, random_generating_set, reference_mul


@pytest.fixture(scope="module")
def z20_evens():
    return subgroup_from_elements(make_cyclic(20), range(0, 20, 2))


def test_right_translate_examples(z20_evens):
    assert right_translate_set(z20_evens, [3, 5, 7], 4) == (7, 9, 11)
    assert right_translate_set(z20_evens, [3, 5, 7], 0) == (3, 5, 7)
    with pytest.raises(ValidationError):
        right_translate_set(z20_evens, [3, 5, 7], 1)  # not in the subgroup
    with pytest.raises(ValidationError):
        right_translate_set(z20_evens, [2, 3], 4)  # set meets the subgroup


def test_right_translation_preserves_spectrum():
    rng = random.Random(107)
    checked = 0
    for gen in instance_corpus(60, seed=109, outside_only=True):
        if gen.size == 0 or gen.subgroup.order < 2:
            continue
        h = gen.subgroup.elements[rng.randrange(gen.subgroup.order)]
        translated = right_translate_set(gen.subgroup, gen.elements, h)
        spec1 = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        spec2 = compute_spectrum(build_pair_graph(gen.subgroup, translated))
        assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=1e-6)
        checked += 1
    assert checked >= 30


def test_automorphism_group_sizes(monkeypatch):
    assert len(automorphism_group(make_cyclic(12))) == 4
    assert len(automorphism_group(make_cyclic(20))) == 8
    assert len(automorphism_group(make_symmetric(3))) == 6
    # Z/2049's class table would hold 2049^2 = 4198401 > 2^22 entries: refused before one product
    z2049 = make_cyclic(2049)

    def refuse(*args):
        raise AssertionError("the class table was built above the budget")

    monkeypatch.setattr(FiniteGroup, "product", refuse)
    with pytest.raises(SizeCapExceeded, match="exceeds the cap of 4194304 map entries"):
        automorphism_group(z2049)


def test_automorphism_group_brute_force_oracle():
    # tiny groups: compare against the set of all identity-fixing bijections
    import itertools

    for group in (make_cyclic(6), make_cyclic(8), make_symmetric(3)):
        m = group.order
        idx = np.arange(m)
        products = group.product(idx[:, None], idx)
        others = [x for x in range(m) if x != group.identity]
        psi = np.full((math.factorial(m - 1), m), group.identity)
        psi[:, others] = list(itertools.permutations(others))
        # psi(a*b) == psi(a)*psi(b) for every a, b, one row per bijection
        homomorphic = (psi[:, products] == group.product(psi[:, :, None], psi[:, None, :])).all(axis=(1, 2))
        expected = set(map(tuple, psi[homomorphic].tolist()))
        assert set(automorphism_group(group)) == expected


def _conjugations(group, by):
    """The maps x -> c^-1 * x * c for every c in ``by``, on the permutations of ``group``."""
    perms = list(map(tuple, group.images.tolist()))
    index = {perm: i for i, perm in enumerate(perms)}
    maps = set()
    for c in by.images.tolist():
        c_inv = tuple(sorted(range(len(c)), key=c.__getitem__))
        # left to right: apply c^-1, then x, then c
        maps.add(tuple(index[tuple(c[x[c_inv[v]]] for v in range(len(c)))] for x in perms))
    return sorted(maps)


def test_automorphism_group_independent_oracles():
    s4, s5 = make_symmetric(4), make_symmetric(5)
    # S4 and S5 have only inner automorphisms, and every automorphism of A5 is conjugation in S5
    assert automorphism_group(s4) == _conjugations(s4, s4)
    assert automorphism_group(s5) == _conjugations(s5, s5)
    assert automorphism_group(make_alternating(5)) == _conjugations(make_alternating(5), s5)
    # the automorphisms of Z/n are x -> u*x for the units u
    for n in (12, 20, 120, 121, 1009):
        units = [u for u in range(1, n) if np.gcd(u, n) == 1]
        assert automorphism_group(make_cyclic(n)) == sorted(tuple(u * x % n for x in range(n)) for u in units)


def test_automorphisms_are_homomorphisms_by_reference_product():
    """GL2(3) has 48 automorphisms; SL2(7) has |PGL2(7)| = 336, and lay above a former order cap of 120."""
    for group, count in ((make_gl2(3), 48), (make_sl2(7), 336)):
        mul, m = reference_mul(group), group.order
        table = np.array([[mul(a, b) for b in range(m)] for a in range(m)])
        auts = automorphism_group(group)
        assert len(auts) == count, group.name
        for psi in np.array(auts):
            assert (psi[table] == table[psi[:, None], psi]).all(), group.name


def test_automorphism_batch_cap():
    # Aut(F_2^6) = GL6(F2): the third generator's candidates would hold 63*62*63 maps of 64 entries
    with pytest.raises(SizeCapExceeded, match="exceeds the cap"):
        automorphism_group(make_field_additive(2, 6))


def test_apply_automorphism_examples(z20_evens):
    z20 = make_cyclic(20)
    times3 = [(3 * x) % 20 for x in range(20)]
    assert apply_automorphism(z20, times3, [3, 5, 7]) == (1, 9, 15)
    identity = list(range(20))
    assert apply_automorphism(z20, identity, [3, 5, 7]) == (3, 5, 7)
    with pytest.raises(NotAnAutomorphism):
        apply_automorphism(z20, [(x + 1) % 20 for x in range(20)], [3])
    with pytest.raises(NotAnAutomorphism):
        apply_automorphism(z20, [0] * 20, ())


def test_apply_automorphism_verifies_exactly_above_order_64():
    s5 = make_symmetric(5)
    rng = random.Random(5)
    others = [x for x in range(s5.order) if x != s5.identity]
    for c in rng.sample(range(s5.order), 6):
        conjugation = [s5.mul(s5.mul(s5.inv(c), x), c) for x in range(s5.order)]
        assert apply_automorphism(s5, conjugation, ()) == ()
        near = list(conjugation)
        u, v = rng.sample(others, 2)
        near[u], near[v] = near[v], near[u]
        with pytest.raises(NotAnAutomorphism):
            apply_automorphism(s5, near, ())
    # swapping two orbits of x -> g*x, power by power, commutes with the first
    # generator g, so only the later generators can reject the map
    g = _generator_chain(s5)[0]
    orbits, seen = [], set()
    for y in others:
        if y not in seen:
            orbit = [y]
            while s5.mul(g, orbit[-1]) != y:
                orbit.append(s5.mul(g, orbit[-1]))
            seen.update(orbit)
            orbits.append(orbit)
    first, second = [orbit for orbit in orbits if g not in orbit][:2]
    swapped = list(range(s5.order))
    for a, b in zip(first, second):
        swapped[a], swapped[b] = b, a
    with pytest.raises(NotAnAutomorphism):
        apply_automorphism(s5, swapped, ())


def test_apply_automorphism_preserves_structure():
    # negation on Z/12 with the index-3 subgroup: image keeps the component count
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    negate = [(-x) % 12 for x in range(12)]
    image = apply_automorphism(z12, negate, [1, 7])
    assert image == (5, 11)
    graph = build_pair_graph(sub, image)
    assert connected_components(graph).count == 6


def test_automorphism_invariance_of_spectra():
    rng = random.Random(113)
    pool = index_two_pool()
    aut_cache = {}
    checked = 0
    for _ in range(25):
        sub = pool[rng.randrange(len(pool))]
        group = sub.parent
        if group not in aut_cache:
            aut_cache[group] = automorphism_group(group)
        auts = aut_cache[group]
        psi = auts[rng.randrange(len(auts))]
        sub_set = set(sub.elements)
        if not all(psi[h] in sub_set for h in sub.elements):
            continue
        gen = random_generating_set(rng, sub, outside_only=True, min_size=1)
        image = apply_automorphism(group, psi, gen.elements)
        spec1 = compute_spectrum(build_pair_graph(sub, gen))
        spec2 = compute_spectrum(build_pair_graph(sub, image))
        assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=1e-6)
        checked += 1
    assert checked >= 20


def test_orbit_examples(z20_evens):
    orbit = generating_set_orbit(z20_evens, [3, 5, 7])
    assert (7, 9, 11) in orbit
    z12 = make_cyclic(12)
    evens12 = subgroup_from_elements(z12, range(0, 12, 2))
    singletons = generating_set_orbit(evens12, [1])
    assert singletons == [(1,), (3,), (5,), (7,), (9,), (11,)]
    whole = generating_set_orbit(evens12, [1, 3, 5, 7, 9, 11])
    assert whole == [(1, 3, 5, 7, 9, 11)]
    sub3 = subgroup_from_elements(z12, [0, 3, 6, 9])
    with pytest.raises(IndexNotTwo):
        generating_set_orbit(sub3, [1])


@pytest.mark.parametrize("s", [(), (1,), (1, 3), (1, 5), (1, 3, 5), (1, 3, 5, 7)])
def test_orbit_is_the_closure_of_single_moves(s):
    """The orbit against the closure under ``right_translate_set`` and ``apply_automorphism``, one set and map at a time.

    D4 > {e, r^2, s, s r^2}: half the automorphisms of D4 move this Klein subgroup, so the orbit must skip them.
    """
    sub = subgroup_generated(make_dihedral(4), [2, 4])
    group, automorphisms = sub.parent, automorphism_group(sub.parent)
    usable = [psi for psi in automorphisms if all(sub.contains(psi[h]) for h in sub.elements.tolist())]
    assert 0 < len(usable) < len(automorphisms)
    seen, queue = {s}, [s]
    while queue:
        current = queue.pop()
        moved = [right_translate_set(sub, current, h) for h in sub.elements.tolist()]
        for nxt in moved + [apply_automorphism(group, psi, current) for psi in usable]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    assert generating_set_orbit(sub, s) == generating_set_orbit(sub, s, automorphisms) == sorted(seen)


def test_orbit_members_share_invariants(z20_evens):
    orbit = generating_set_orbit(z20_evens, [1, 3, 7])
    reference = None
    for member in orbit:
        graph = build_pair_graph(z20_evens, member)
        profile = sorted(d for _, d, _ in degree_profile(graph))
        count = connected_components(graph).count
        spec = np.round(compute_spectrum(graph).eigenvalues, 8)
        if reference is None:
            reference = (profile, count, spec)
        else:
            assert profile == reference[0]
            assert count == reference[1]
            assert np.allclose(spec, reference[2], atol=1e-6)


def test_orbit_members_explicitly_isomorphic():
    # at order <= 24 back the spectral proxy with an explicit isomorphism search
    z12 = make_cyclic(12)
    evens12 = subgroup_from_elements(z12, range(0, 12, 2))
    orbit = generating_set_orbit(evens12, [1, 3, 5])
    base = build_pair_graph(evens12, orbit[0]).adjacency
    for member in orbit[1:]:
        other = build_pair_graph(evens12, member).adjacency
        assert are_isomorphic(base, other)


def test_isomorphism_helper_rejects_different_graphs():
    z12 = make_cyclic(12)
    evens12 = subgroup_from_elements(z12, range(0, 12, 2))
    a = build_pair_graph(evens12, [1, 3]).adjacency
    b = build_pair_graph(evens12, [1, 3, 5]).adjacency
    assert find_isomorphism(a, b) is None
    assert are_isomorphic(a, a)


def test_search_determinism(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair graph's edge list was built")

    # candidates are certified from (G, H, S): every read of indptr, indices or degrees,
    # through any module's reference to PairGraph, looks _build_edges up when it runs
    monkeypatch.setattr(graphs, "_build_edges", refuse)
    gl3 = make_gl2(3)
    sl3 = builtin_subgroup(gl3, "sl2_in_gl2")
    config = SearchConfig(subgroup=sl3, size=17, mode="random", trials=5, seed=42)
    first = search_ramanujan(config)
    assert any(r.connected and r.ramanujan for r in first)
    second = search_ramanujan(config)
    assert [json.dumps(r.to_json_dict(), sort_keys=True) for r in first] == [
        json.dumps(r.to_json_dict(), sort_keys=True) for r in second
    ]
    shifted = search_ramanujan(SearchConfig(subgroup=sl3, size=17, mode="random", trials=5, seed=43))
    assert [r.candidate for r in shifted] != [r.candidate for r in first]


@functools.cache
def _block_pair(name):
    if name == "gl2-3":
        return builtin_subgroup(make_gl2(3), "sl2_in_gl2")
    if name == "z20":
        return subgroup_from_elements(make_cyclic(20), range(0, 20, 2))
    if name == "a4xz2":  # K = V4 in A4 x 0, two FFT axes
        return subgroup_generated(make_direct_product(make_alternating(4), make_cyclic(2)), [2, 4, 6])
    return builtin_subgroup(make_symmetric(int(name[1:])), "alternating_in_symmetric")


def _search_one_at_a_time(config):
    """``search_ramanujan``'s results from one ``compute_spectrum`` and ``is_ramanujan`` per trial."""
    sub, outside = config.subgroup, config.subgroup.outside()
    if config.mode == "exhaustive":
        candidates = itertools.combinations(outside, config.size)
    else:
        candidates = (random_candidate(outside, config.size, config.seed, t) for t in range(config.trials))
    results = []
    for trial, cand in enumerate(candidates):
        gen = validate_generating_set(sub, cand)
        bound, connected = ramanujan_size_bound(gen), is_connected(gen).connected
        verdict, worst = (None if connected else False), None
        if connected and config.certify:
            graph = PairGraph(gen)
            report = is_ramanujan(graph, compute_spectrum(graph, config.tolerance), config.tolerance)
            verdict, worst = report.ramanujan, report.worst_nontrivial
        results.append(SearchResult(trial, cand, connected, verdict, worst, bound.bound, bound.satisfied))
    return results


def _assert_same_results(blocked, alone):
    assert blocked == alone
    def bits(results):
        return [None if r.worst_nontrivial is None else float.hex(r.worst_nontrivial) for r in results]

    assert bits(blocked) == bits(alone)


@pytest.mark.parametrize(
    "pair, size",
    [("gl2-3", 5), ("gl2-3", 17), ("z20", 5), ("a4xz2", 5), ("s4", 5), ("s5", 12), ("s6", 20)],
)
def test_search_blocks_match_one_trial_at_a_time(pair, size):
    """A search in blocks of ``SEARCH_BLOCK`` stacked solves gives the results, bits included, of one solve per trial."""
    sub = _block_pair(pair)
    for trials in (1, SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1, 2 * SEARCH_BLOCK + 3):
        config = SearchConfig(subgroup=sub, size=size, trials=trials, seed=trials)
        results = search_ramanujan(config)
        assert len(results) == trials and sum(r.worst_nontrivial is not None for r in results) > trials // 2
        _assert_same_results(results, _search_one_at_a_time(config))


def test_search_blocks_in_exhaustive_and_uncertified_modes(z20_evens):
    """Exhaustive blocks cross a block boundary; a block may mix connected and disconnected candidates."""
    for config in (
        SearchConfig(subgroup=z20_evens, size=3, mode="exhaustive"),
        SearchConfig(subgroup=_block_pair("gl2-3"), size=3, trials=SEARCH_BLOCK + 1, seed=1),
        SearchConfig(subgroup=_block_pair("gl2-3"), size=3, trials=SEARCH_BLOCK + 1, seed=1, certify=False),
    ):
        results = search_ramanujan(config)
        first = results[:SEARCH_BLOCK]
        assert len(results) > SEARCH_BLOCK and any(r.connected for r in first) and not all(r.connected for r in first)
        assert all((r.worst_nontrivial is not None) == (r.connected and config.certify) for r in results)
        _assert_same_results(results, _search_one_at_a_time(config))


def test_search_k1_never_connects(z20_evens):
    config = SearchConfig(subgroup=z20_evens, size=1, mode="exhaustive")
    results = search_ramanujan(config)
    assert len(results) == 10
    assert all(not r.connected and r.ramanujan is False for r in results)


def test_search_full_set_is_complete_bipartite():
    s4 = make_symmetric(4)
    a4 = builtin_subgroup(s4, "alternating_in_symmetric")
    config = SearchConfig(subgroup=a4, size=12, mode="exhaustive")
    results = search_ramanujan(config)
    assert len(results) == 1
    assert results[0].connected and results[0].ramanujan
    assert results[0].worst_nontrivial == pytest.approx(0.0, abs=1e-9)


def test_search_certify_flag(z20_evens):
    config = SearchConfig(subgroup=z20_evens, size=3, mode="random", trials=4, seed=9, certify=False)
    results = search_ramanujan(config)
    for r in results:
        if r.connected:
            assert r.ramanujan is None and r.worst_nontrivial is None


def test_search_config_validation(z20_evens):
    z12 = make_cyclic(12)
    sub3 = subgroup_from_elements(z12, [0, 3, 6, 9])
    with pytest.raises(IndexNotTwo):
        SearchConfig(subgroup=sub3, size=2)
    with pytest.raises(ValidationError):
        SearchConfig(subgroup=z20_evens, size=0)
    with pytest.raises(ValidationError):
        SearchConfig(subgroup=z20_evens, size=11)
    with pytest.raises(ValidationError):
        SearchConfig(subgroup=z20_evens, size=2, mode="bogus")
    big = subgroup_generated(make_cyclic(100), [2])
    with pytest.raises(SizeCapExceeded):
        SearchConfig(subgroup=big, size=25, mode="exhaustive")


@pytest.mark.parametrize("n", [1, 2, 24, 60, 360])
def test_random_candidate_is_seeded_shuffle_prefix(n):
    """At every size the replay takes the set that ``random.Random(...).shuffle`` takes: a skipped or reordered draw fails."""
    outside = tuple(range(7, 7 + 3 * n, 3))
    for seed, trial in [(0, 0), (5, 0), (5, 3), (1, 19), (2**31 - 1, 63)]:
        pool = list(outside)
        random.Random(seed + trial * 2654435761).shuffle(pool)
        for size in range(n + 1):
            assert random_candidate(outside, size, seed, trial) == tuple(sorted(pool[:size])), (seed, trial, size)


def test_random_candidate_rejects_sizes_out_of_range(z20_evens):
    outside = z20_evens.outside()
    assert random_candidate(outside, 0, 5, 0) == ()
    assert random_candidate(outside, 10, 5, 0) == outside
    for size in (-3, -1, 11, 100):
        with pytest.raises(ValidationError, match="outside 0..10"):
            random_candidate(outside, size, 5, 0)
