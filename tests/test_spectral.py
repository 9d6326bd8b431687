"""Spectra: closed-form eigenvalues, multiplicities, symmetry, Ramanujan checks."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairgraph import graphs, groups, spectral
from pairgraph.descriptors import builtin_subgroup
from pairgraph.errors import EigensolverError, NotConnected, NotRegular, PairGraphError, SizeCapExceeded, ValidationError
from pairgraph.graphs import build_pair_graph
from pairgraph.groups import (
    field_norm_preimage,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.spectral import (
    DEFAULT_TOLERANCE,
    Spectrum,
    _cluster,
    compare_complementary_spectra,
    compute_spectrum,
    is_ramanujan,
    largest_eigenvalue_multiplicity,
    ramanujan_size_bound,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from pairgraph.structure import connected_components
from pairgraph.actions import SearchConfig, random_candidate, search_ramanujan

from helpers import (
    dense_eigenvalues,
    generated_instances,
    index_two_pool,
    instance_corpus,
    random_generating_set,
    reference_abelian_subgroup,
    reference_element_order,
    reference_mul,
    subgroup_pool,
)


@pytest.fixture(scope="module")
def z20_evens():
    return subgroup_from_elements(make_cyclic(20), range(0, 20, 2))


def test_spectrum_basic_invariants():
    for gen in instance_corpus(60, seed=73):
        graph = build_pair_graph(gen.subgroup, gen)
        spec = compute_spectrum(graph)
        assert len(spec.eigenvalues) == graph.order
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        assert sum(c for _, c in spec.clusters) == graph.order
        assert abs(spec.eigenvalues.sum()) <= graph.order * 1e-9  # trace 0
        assert abs((spec.eigenvalues**2).sum() - graph.degrees.sum()) <= graph.order * 1e-8
        assert spec.scale == max(1, graph.degrees.max())


def test_edgeless_spectrum():
    sub = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
    spec = compute_spectrum(build_pair_graph(sub, []))
    assert spec.clusters == ((0.0, 12),)


def test_spectrum_eigenvalues_are_read_only(z20_evens):
    """A write into the eigenvalues once changed every later answer read from them, the clusters too."""
    spec = compute_spectrum(build_pair_graph(z20_evens, [1, 3]))
    clusters = spec.clusters
    with pytest.raises(ValueError, match="read-only"):
        spec.eigenvalues[0] = 7.0
    assert spec.clusters == clusters and np.isclose(spec.eigenvalues[0], 2.0)


def _oracle_instances():
    """The seeded corpus, plus empty, inside-only, outside-only and mixed sets on every
    pooled subgroup, GL2(5) > SL2(5) and F_{7^3} > F_7 with norm preimages."""
    rng = random.Random(107)
    gens = list(instance_corpus(200, seed=109))
    for sub in subgroup_pool():
        group = sub.parent
        inside = rng.sample([x for x in sub.elements if x != group.identity], min(2, sub.order - 1))
        inside = set(inside) | {group.inv(x) for x in inside}
        outside = set(rng.sample(sub.outside(), min(3, group.order - sub.order)))
        for s in (set(), inside, outside, inside | outside):
            gens.append(validate_generating_set(sub, s))
    gl5 = make_gl2(5)
    gens.append(random_generating_set(rng, builtin_subgroup(gl5, "sl2_in_gl2"), max_size=12, min_size=8))
    f343 = make_field_additive(7, 3)
    f7 = subgroup_from_elements(f343, range(7))
    gens.append(validate_generating_set(f7, field_norm_preimage(f343, [2, 3])))
    gens.append(validate_generating_set(f7, [1, 6, *field_norm_preimage(f343, [2])]))
    return gens


def test_block_spectrum_matches_dense_oracle():
    covered = set()
    one_row = set()
    for gen in _oracle_instances():
        one_row.add(gen.subgroup.abelian_orbits.inside == 1)
        graph = build_pair_graph(gen.subgroup, gen)
        spec = compute_spectrum(graph)
        dense = dense_eigenvalues(graph)
        atol = 1e-10 * max(1, int(graph.degrees.max()))
        assert spec.eigenvalues.shape == dense.shape
        assert np.abs(spec.eigenvalues - dense).max() <= atol, gen
        dense_clusters = _cluster(dense, spec.cluster_gap)
        assert [c for _, c in spec.clusters] == [c for _, c in dense_clusters], gen
        kind = ("empty", "outside", "inside", "mixed")[2 * bool(gen.inside) + bool(gen.outside)]
        covered.add((min(gen.subgroup.index, 3), kind, gen.group.descriptor["kind"]))
    cases = {(index, kind) for index, kind, _ in covered}
    kinds = ("empty", "outside", "inside", "mixed")
    assert cases >= {(1, "empty"), (1, "inside")} | {(i, k) for i in (2, 3) for k in kinds}
    families = {family for _, _, family in covered}
    assert families >= {
        "cyclic", "dihedral", "symmetric", "alternating", "product", "sl2", "gl2", "field_additive"
    }
    assert one_row == {True, False}  # both one-row (K = H) and multi-row blocks ran


def test_cluster_means_match_per_cluster_mean():
    # the vectorised means are bit-identical to one ``mean`` per cluster
    for gen in _oracle_instances():
        graph = build_pair_graph(gen.subgroup, gen)
        spec = compute_spectrum(graph)
        for values in (spec.eigenvalues, dense_eigenvalues(graph)):
            blocks = np.split(values, np.flatnonzero(values[:-1] - values[1:] > spec.cluster_gap) + 1)
            assert _cluster(values, spec.cluster_gap) == tuple((float(b.mean()), len(b)) for b in blocks)


def _cyclic_subgroups():
    """Cyclic H of every shape, so K = H and each block has one row."""
    s4, s5 = make_symmetric(4), make_symmetric(5)
    z12 = make_cyclic(12)
    return [
        subgroup_generated(make_cyclic(360), [3]),
        subgroup_generated(z12, [3]),
        subgroup_generated(make_dihedral(8), [1]),  # the rotations
        subgroup_generated(make_dihedral(6), [2]),
        subgroup_generated(s4, [perm_index(s4, "(1,2,3,4)")]),
        subgroup_generated(s5, [perm_index(s5, "(1,2,3,4,5)")]),
        subgroup_from_elements(make_field_additive(7, 2), range(7)),
        subgroup_from_elements(make_field_additive(3, 3), range(3)),
        # (1, 1) generates all of Z/3 x Z/4, and an order-6 subgroup of Z/2 x Z/6
        subgroup_generated(make_direct_product(make_cyclic(3), make_cyclic(4)), [5]),
        subgroup_generated(make_direct_product(make_cyclic(2), make_cyclic(6)), [7]),
        subgroup_generated(make_cyclic(10), []),
        subgroup_generated(make_symmetric(3), []),
        subgroup_generated(z12, [1]),
    ]


def _non_cyclic_subgroups():
    """H that are not cyclic: K = H with one-row blocks for the abelian V4 and F_{7^2}, else blocks of several rows."""
    s5 = make_symmetric(5)
    return [
        builtin_subgroup(make_alternating(4), "klein_in_a4"),
        builtin_subgroup(make_symmetric(4), "alternating_in_symmetric"),
        builtin_subgroup(make_gl2(3), "sl2_in_gl2"),
        builtin_subgroup(make_gl2(5), "sl2_in_gl2"),
        subgroup_generated(s5, [perm_index(s5, "(1,2)"), perm_index(s5, "(1,2,3,4)")]),  # S4, index 5
        subgroup_from_elements(make_field_additive(7, 2), range(49)),
        subgroup_from_elements(make_symmetric(3), range(6)),
    ]


def test_character_blocks_match_dense_oracle():
    rng = random.Random(113)
    kinds = set()
    for sub in _cyclic_subgroups() + _non_cyclic_subgroups():
        group = sub.parent
        for _ in range(2):
            inside = rng.sample([x for x in sub.elements if x != group.identity], min(2, sub.order - 1))
            inside = set(inside) | {group.inv(x) for x in inside}
            outside = set(rng.sample(sub.outside(), min(5, group.order - sub.order)))
            for s in {frozenset(), frozenset(inside), frozenset(outside), frozenset(inside | outside)}:
                gen = validate_generating_set(sub, s)
                graph = build_pair_graph(sub, gen)
                spec = compute_spectrum(graph)
                dense = dense_eigenvalues(graph)
                atol = 1e-10 * max(1, int(graph.degrees.max()))
                assert np.abs(spec.eigenvalues - dense).max() <= atol, (sub, sorted(s))
                multiplicities = [c for _, c in spec.clusters]
                assert [c for _, c in _cluster(dense, spec.cluster_gap)] == multiplicities, (sub, sorted(s))
                kinds.add(("empty", "outside", "inside", "mixed")[2 * bool(gen.inside) + bool(gen.outside)])
    assert kinds == {"empty", "outside", "inside", "mixed"}


def _abelian_subgroups():
    """Abelian H that are not cyclic, each of which K must equal."""
    return [
        subgroup_from_elements(make_direct_product(make_cyclic(4), make_cyclic(4)), range(16)),
        subgroup_from_elements(make_direct_product(make_cyclic(6), make_cyclic(10)), range(60)),
        subgroup_from_elements(make_field_additive(7, 4), range(49)),
        subgroup_from_elements(make_field_additive(2, 11), range(1024)),
        builtin_subgroup(make_alternating(4), "klein_in_a4"),
        subgroup_from_elements(make_field_additive(7, 2), range(49)),
    ]


def _check_abelian_orbits(sub):
    """The K contract: a basis of commuting elements of H, |K| = n_1 ... n_d distinct products, and the orbits."""
    group, orbits = sub.parent, sub.abelian_orbits
    listing, shape = orbits.listing, orbits.listing.shape
    n = listing.size
    basis = [int(listing[tuple(np.eye(len(shape), dtype=int)[i] % shape)]) for i in range(len(shape))]
    mul = reference_mul(group)
    assert set(basis) <= set(sub.elements) and set(listing.ravel().tolist()) <= set(sub.elements)
    assert all(mul(a, b) == mul(b, a) for a in basis for b in basis)
    assert [reference_element_order(group, k) for k in basis] == list(shape)
    assert len(set(listing.ravel().tolist())) == n == math.prod(shape)
    for index in np.ndindex(shape):
        x = group.identity
        for k, l in zip(basis, index):
            for _ in range(l):
                x = mul(x, k)
        assert listing[index] == x, (sub, index)
    # x = k^l * t with t the least element of the orbit K*x, the orbits in H first
    x = np.arange(group.order)
    assert np.array_equal(group.product(listing.ravel()[orbits.exponent], orbits.reps[orbits.orbit_of]), x)
    assert np.array_equal(np.bincount(orbits.orbit_of), np.full(len(orbits.reps), n))
    assert np.array_equal(np.minimum.reduceat(x[np.argsort(orbits.orbit_of, kind="stable")],
                                              np.arange(0, group.order, n)), orbits.reps)
    in_h = np.array([sub.contains(t) for t in orbits.reps])
    assert orbits.inside * n == sub.order
    assert in_h[: orbits.inside].all() and not in_h[orbits.inside :].any()
    assert np.all(np.diff(orbits.reps[: orbits.inside]) > 0)
    assert np.all(np.diff(orbits.reps[orbits.inside :]) > 0)
    for array in (orbits.listing, orbits.orbit_of, orbits.exponent, orbits.reps):
        assert not array.flags.writeable
    return orbits


def _largest_cyclic(sub):
    """k of largest order in H, least index on ties, and its order."""
    orders = [reference_element_order(sub.parent, h) for h in sub.elements]
    return sub.elements[orders.index(max(orders))], max(orders)


def test_abelian_orbits():
    for sub in _cyclic_subgroups() + _abelian_subgroups():
        orbits = _check_abelian_orbits(sub)
        assert orbits.listing.size == sub.order and orbits.inside == 1, sub  # K = H
    for sub in _cyclic_subgroups():
        # K = H listed as the powers of its least generator
        listing = sub.abelian_orbits.listing
        assert listing.ndim == 1 and _largest_cyclic(sub)[0] == listing[1 % sub.order]
    a6 = _check_abelian_orbits(builtin_subgroup(make_symmetric(6), "alternating_in_symmetric"))
    assert (a6.listing.shape, a6.inside) == ((3, 3), 40)
    a4 = _check_abelian_orbits(builtin_subgroup(make_symmetric(4), "alternating_in_symmetric"))
    assert (a4.listing.size, a4.inside) == (4, 3)
    # where no abelian K beats <k>, K stays <k>, listed as its consecutive powers
    s5 = make_symmetric(5)
    for sub in (
        builtin_subgroup(s5, "alternating_in_symmetric"),
        builtin_subgroup(make_gl2(3), "sl2_in_gl2"),
        builtin_subgroup(make_gl2(5), "sl2_in_gl2"),
        builtin_subgroup(make_gl2(7), "sl2_in_gl2"),
        subgroup_generated(s5, [perm_index(s5, "(1,2)"), perm_index(s5, "(1,2,3,4)")]),  # S4
        subgroup_from_elements(make_symmetric(3), range(6)),
    ):
        orbits = _check_abelian_orbits(sub)
        k, n = _largest_cyclic(sub)
        assert orbits.listing.shape == (n,) and orbits.listing[1] == k, sub
        assert orbits.listing.size < sub.order


def _largest_cyclic_listing(group, h):
    """The K that the chooser falls back to, built independently: the powers of k, k of largest order in H."""
    sub_elements = [int(x) for x in h]
    orders = [reference_element_order(group, x) for x in sub_elements]
    k, mul = sub_elements[orders.index(max(orders))], reference_mul(group)
    listing = [group.identity]
    while len(listing) < max(orders):
        listing.append(mul(listing[-1], k))
    return np.array(listing)


def _second_k_cases():
    """(subgroup factory, sets): A4 < S4, A6 < S6 and abelian H, where the chosen K beats the cyclic one."""
    rng = random.Random(131)
    s4, s6 = make_symmetric(4), make_symmetric(6)
    z4z4 = make_direct_product(make_cyclic(4), make_cyclic(4))
    z6z10 = make_direct_product(make_cyclic(6), make_cyclic(10))
    f2401, f2048, a4 = make_field_additive(7, 4), make_field_additive(2, 11), make_alternating(4)
    factories = [
        lambda: builtin_subgroup(s4, "alternating_in_symmetric"),
        lambda: builtin_subgroup(s6, "alternating_in_symmetric"),
        lambda: subgroup_from_elements(z4z4, range(16)),
        lambda: subgroup_from_elements(z6z10, range(60)),
        lambda: subgroup_from_elements(f2401, range(49)),
        lambda: subgroup_from_elements(f2048, range(1024)),
        lambda: builtin_subgroup(a4, "klein_in_a4"),
    ]
    for make in factories:
        sub = make()
        group = sub.parent
        inside = rng.sample([x for x in sub.elements if x != group.identity], min(3, sub.order - 1))
        inside = set(inside) | {group.inv(x) for x in inside}
        outside = set(rng.sample(sub.outside(), min(20, group.order - sub.order)))
        sets = [inside, outside, inside | outside]
        if group.order == 720:
            sets.append(set(rng.sample(sub.outside(), 340)))
        if group.order == 2048:
            sets = [outside]  # the cyclic K of order 2 leaves 512-row blocks: one set is enough
        yield make, [s for s in sets if s or sub.index == 1]


def _k_route(gen):
    """The spectrum by the characters of K, padded and sorted as ``_spectrum`` does, on every pair."""
    (values,) = spectral._character_values([gen])
    return np.sort(np.concatenate([values, np.zeros(gen.group.order - len(values))]))[::-1]


def _check_traces(values, gen, atol):
    """sum(lambda) = 0 and sum(lambda^2) = 2|E| = |H| (2|S_out| + |S_in|)."""
    m = gen.group.order
    assert abs(values.sum()) <= m * atol
    square_sum = gen.subgroup.order * (2 * len(gen.outside) + len(gen.inside))
    assert abs((values**2).sum() - square_sum) <= m * atol * gen.size


@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (6,), (2, 2), (3, 3), (4, 6), (6, 4), (2, 3, 4), (36, 6), (2,) * 10])
def test_conjugate_pairs_keep_each_character_once(shape):
    """On rfft's grid, last axis 0..n_d/2, one character j per pair {j, -j} of K, of weight the size of its pair."""
    keep, weight = spectral._conjugate_pairs(shape)
    grid = shape[:-1] + (shape[-1] // 2 + 1,)
    kept = [tuple(j) for j in np.transpose(np.unravel_index(np.arange(math.prod(grid))[keep], grid)).tolist()]
    pairs = [frozenset({j, tuple(-x % n for x, n in zip(j, shape))}) for j in kept]
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {frozenset({j, tuple(-x % n for x, n in zip(j, shape))}) for j in np.ndindex(shape)}
    assert weight.tolist() == [len(pair) for pair in pairs]
    assert weight.sum() == math.prod(shape)


def _stock_subgroups():
    """The pairs the benchmark, the README and the reference cases take a K of, and whole nonabelian groups."""
    subs = [builtin_subgroup(make_gl2(p), "sl2_in_gl2") for p in (3, 5, 7)]
    subs += [builtin_subgroup(make_symmetric(n), "alternating_in_symmetric") for n in (3, 4, 5, 6, 7)]
    subs += [subgroup_from_elements(g, range(g.order)) for g in (make_sl2(3), make_sl2(5), make_sl2(7), make_alternating(5))]
    subs += [subgroup_from_elements(make_field_additive(7, 4), range(7)), subgroup_from_elements(make_cyclic(3000), range(0, 3000, 3))]
    return subs + list(subgroup_pool()) + _abelian_subgroups()


def test_chooser_matches_every_start_on_stock_pairs(monkeypatch):
    subs = _stock_subgroups()

    def no_primality(p):
        raise AssertionError(f"the chooser tested {p} for primality: its primes are those of |H|")

    # patched once the groups are built, as their makers test primes; the oracle keeps its own filter
    monkeypatch.setattr(groups, "is_prime", no_primality)
    for sub in subs:
        chosen = groups._abelian_subgroup(sub.parent, sub.elements)
        oracle = reference_abelian_subgroup(sub.parent, sub.elements)
        assert chosen.shape == oracle.shape and np.array_equal(chosen, oracle), sub


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(generated_instances())
def test_chooser_matches_every_start_on_drawn_subgroups(gen):
    sub = gen.subgroup
    chosen = groups._abelian_subgroup(sub.parent, sub.elements)
    oracle = reference_abelian_subgroup(sub.parent, sub.elements)
    assert chosen.shape == oracle.shape and np.array_equal(chosen, oracle)


def test_chooser_skips_starts_whose_centraliser_cannot_win(monkeypatch):
    sub = builtin_subgroup(make_gl2(5), "sl2_in_gl2")
    orders = [reference_element_order(sub.parent, x) for x in sub.elements.tolist()]
    least = {n: sub.elements[orders.index(n)] for n in (10, 2, 3, 5)}
    powers, calls = groups._powers, []

    def recording(group, k):
        calls.append(k)
        return powers(group, k)

    monkeypatch.setattr(groups, "_powers", recording)
    assert groups._abelian_subgroup(sub.parent, sub.elements).shape == (10,)
    # start k of order 10 gives K = <k> = C_H(k); start -I, the central involution, gives <-I> x <g> with g the least
    # element of order 5, also of order 10; the starts of order 3 and 5, with centralisers of orders 6 and 10, are skipped
    assert calls == [least[10], least[2], least[5]]
    calls.clear()
    reference_abelian_subgroup(sub.parent, sub.elements)
    assert calls == [least[10], least[2], least[5], least[3], least[2], least[5], least[2]]


def test_second_choice_of_k_agrees(monkeypatch):
    """The spectrum by the chosen K against the spectrum by the largest cyclic K, the dense solve and the traces.

    Both sides call the K route directly: ``_spectrum`` takes the Young route on the S_n > A_n outside sets.
    """
    for make, sets in _second_k_cases():
        chosen, cyclic = make(), make()
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_abelian_subgroup", _largest_cyclic_listing)
            second = [_k_route(validate_generating_set(cyclic, s)) for s in sets]
        assert chosen.abelian_orbits.listing.size > cyclic.abelian_orbits.listing.size == max(
            reference_element_order(cyclic.parent, h) for h in cyclic.elements
        ), chosen
        for s, other in zip(sets, second):
            gen = validate_generating_set(chosen, s)
            values = _k_route(gen)
            atol = 1e-10 * max(1, gen.size)
            assert np.abs(values - other).max() <= atol, (chosen, sorted(s))
            if gen.group.order <= 720:
                assert np.abs(values - dense_eigenvalues(build_pair_graph(chosen, gen))).max() <= atol, chosen
            _check_traces(values, gen, atol)


@functools.cache
def _alternating_in_symmetric(n):
    return builtin_subgroup(make_symmetric(n), "alternating_in_symmetric")


def _young_cases():
    """S_n > A_n, n = 2..6, with random sets outside A_n, then the S4 and S6 sets of ``_second_k_cases``.

    The latter are empty, inside, outside (20 elements), mixed and, on S6, 340 outside.
    """
    rng = random.Random(167)
    for n in range(2, 7):
        sub = _alternating_in_symmetric(n)
        outside = sub.outside()
        for k in sorted({1, min(3, len(outside)), min(12, len(outside)), len(outside)}):
            yield validate_generating_set(sub, rng.sample(outside, k))
    for make, sets in itertools.islice(_second_k_cases(), 2):
        sub = make()
        yield from (validate_generating_set(sub, s) for s in sets)


def test_young_route_matches_k_route():
    """S outside A_n takes the Young route, which agrees with the K route; any other S keeps the K route bit for bit."""
    sizes = set()
    for gen in _young_cases():
        values = spectral.compute_spectrum(spectral.PairGraph(gen)).eigenvalues
        k_route = _k_route(gen)
        if gen.inside or not gen.outside:
            assert np.array_equal(values, k_route), gen
            continue
        sizes.add((gen.group.order, gen.size))
        assert np.array_equal(values, np.sort(spectral._young_values([gen])[0])[::-1]), gen
        atol = 1e-10 * max(1, gen.size)
        assert np.abs(values - k_route).max() <= atol, (gen.group, gen.elements)
        _check_traces(values, gen, atol)
    assert {(720, 20), (720, 340), (2, 1), (24, 12)} <= sizes


def test_young_route_above_the_vertex_cap():
    """S7 > A7 has 5040 vertices, over the cap of ``_spectrum``, so the route's own function is called."""
    sub = _alternating_in_symmetric(7)
    rng = random.Random(211)
    for k in (30, 200):
        gen = validate_generating_set(sub, rng.sample(sub.outside(), k))
        with pytest.raises(SizeCapExceeded):
            spectral.compute_spectrum(spectral.PairGraph(gen))
        values = np.sort(spectral._young_values([gen])[0])[::-1]
        assert len(values) == 5040
        atol = 1e-10 * k
        assert np.abs(values - _k_route(gen)).max() <= atol
        _check_traces(values, gen, atol)


@st.composite
def _odd_sets(draw):
    """A nonempty set outside A_n in S_n, n <= 5."""
    sub = _alternating_in_symmetric(draw(st.integers(2, 5)))
    outside = sub.outside()
    return validate_generating_set(sub, draw(st.sets(st.sampled_from(outside), min_size=1, max_size=len(outside))))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_odd_sets())
def test_generated_odd_sets_match_dense_oracle(gen):
    values = spectral.compute_spectrum(spectral.PairGraph(gen)).eigenvalues
    dense = dense_eigenvalues(build_pair_graph(gen.subgroup, gen))
    assert np.abs(values - dense).max() <= 1e-10 * gen.size, gen.elements


def test_search_on_s6_takes_no_abelian_subgroup(monkeypatch):
    def refuse(*args):
        raise AssertionError("the K route chose an abelian subgroup")

    monkeypatch.setattr(groups, "_abelian_subgroup", refuse)
    sub = builtin_subgroup(make_symmetric(6), "alternating_in_symmetric")
    results = search_ramanujan(SearchConfig(subgroup=sub, size=20, trials=5, seed=0))
    assert sum(r.worst_nontrivial is not None for r in results) == 5


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(generated_instances())
def test_generated_instances_match_dense_oracle(gen):
    sub = gen.subgroup
    orbits = _check_abelian_orbits(sub)
    mul = reference_mul(gen.group)
    abelian = all(mul(a, b) == mul(b, a) for a in sub.elements for b in sub.elements)
    assert (orbits.listing.size == sub.order) == abelian, sub
    values = spectral.compute_spectrum(spectral.PairGraph(gen)).eigenvalues
    dense = dense_eigenvalues(build_pair_graph(sub, gen))
    assert np.abs(values - dense).max() <= 1e-10 * max(1, gen.size), (sub, gen.elements)


def _crafted_spectrum(k, order, worst, with_minus_k):
    values = np.zeros(order)
    values[0], values[1] = k, worst
    if with_minus_k:
        values[-1] = -k
    return Spectrum(np.sort(values)[::-1], DEFAULT_TOLERANCE, float(k))


def test_ramanujan_boundary_pinned(z20_evens):
    graph = build_pair_graph(z20_evens, [1, 3, 5, 7, 9])  # connected, 5-regular
    k = 5
    bound = 2.0 * math.sqrt(k - 1)
    eps = DEFAULT_TOLERANCE * k
    for with_minus_k in (True, False):
        for sign in (1.0, -1.0):
            within = _crafted_spectrum(k, graph.order, sign * (bound + 0.5 * eps), with_minus_k)
            report = is_ramanujan(graph, within)
            assert report.ramanujan, (with_minus_k, sign)
            assert report.worst_nontrivial == pytest.approx(bound + 0.5 * eps, abs=1e-12)
            assert report.margin == pytest.approx(-0.5 * eps, abs=1e-12)
            beyond = _crafted_spectrum(k, graph.order, sign * (bound + 2.0 * eps), with_minus_k)
            report = is_ramanujan(graph, beyond)
            assert not report.ramanujan, (with_minus_k, sign)
            assert report.margin == pytest.approx(-2.0 * eps, abs=1e-12)


def _rational_rank(matrix) -> int:
    """Rank over Q, by Gaussian elimination on Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "k, seed, trial, at_bound",
    [(5, 1, 24, 3), (5, 1, 149, 3), (5, 0, 40, 3), (6, 1, 48, 3), (8, 0, 46, 2)],
)
def test_ramanujan_boundary_on_real_graphs(k, seed, trial, at_bound):
    # seeded GL2(3) > SL2(3) sets whose worst eigenvalue is exactly 2*sqrt(k - 1);
    # the sign of the float margin depends on the BLAS build, so only its size is pinned
    group = make_gl2(3)
    sub = builtin_subgroup(group, "sl2_in_gl2")
    s = random_candidate(sub.outside(), k, seed, trial)
    report = is_ramanujan(build_pair_graph(sub, s))
    assert report.ramanujan and abs(report.margin) <= 1e-12
    # second route: the squared eigenvalues are those of M = B B^T, B the H x (G - H) block,
    # and exactly 2*sqrt(k - 1) means the integer matrix M - 4(k - 1) I is singular over Q
    targets = group.product(np.array(sub.elements)[:, None], np.array(s))
    b = (targets[:, :, None] == np.array(sub.outside())).any(axis=1).astype(np.int64)
    m, c = b @ b.T, 4 * (k - 1)
    values = np.linalg.eigvalsh(m.astype(np.float64))
    near = np.abs(values - c) <= 1e-9
    assert sub.order - _rational_rank(m - c * np.eye(sub.order, dtype=np.int64)) == near.sum() == at_bound
    rest = values[~near]
    assert rest[-1] == pytest.approx(k * k) and rest[:-1].max() < c - 1e-6


def test_solver_failure_raises_eigensolver_error(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    s4, gl2 = make_symmetric(4), make_gl2(3)
    a4, sl2 = builtin_subgroup(s4, "alternating_in_symmetric"), builtin_subgroup(gl2, "sl2_in_gl2")
    x = int(sl2.elements[1])
    cases = [  # the Young route, then the K route by svd and by eigvalsh
        ("_young_values", validate_generating_set(a4, a4.outside()[:3])),
        ("_character_values", validate_generating_set(sl2, sl2.outside()[:9])),
        ("_character_values", validate_generating_set(sl2, [x, gl2.inv(x), *sl2.outside()[:4]])),
    ]
    monkeypatch.setattr(np.linalg, "svd", failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    for route, gen in cases:
        calls = []
        real = getattr(spectral, route)
        monkeypatch.setattr(spectral, route, lambda g, real=real: calls.append(g) or real(g))
        with pytest.raises(EigensolverError, match="^eigensolver did not converge: no convergence$"):
            spectral.compute_spectrum(spectral.PairGraph(gen))
        assert calls == [[gen]]
        monkeypatch.setattr(spectral, route, real)


def _covered_orbits(gen):
    """How many K-orbits outside H the products t*S of the orbit representatives t in H meet."""
    orbits = gen.subgroup.abelian_orbits
    met = orbits.orbit_of[gen.group.product(orbits.reps[: orbits.inside, None], np.array(gen.elements))]
    return len(np.unique(met[met >= orbits.inside]))


def _spectra_blocks():
    """Blocks of 12 sets of one size: outside H on seven pairs, then meeting H in {x, x^-1} as well.

    Index above 2 lets the sets of a block meet different numbers of K-orbits,
    so ``_character_values`` splits the block into stacks.
    """
    rng = random.Random(29)
    f16 = make_field_additive(2, 4)
    pairs = [
        (subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9]), 2),  # K = H, one axis, index 3
        (subgroup_generated(f16, [1, 2]), 2),  # K = H, two FFT axes, index 4
        (builtin_subgroup(make_gl2(5), "sl2_in_gl2"), 3),  # K < H, index 4
        (builtin_subgroup(make_gl2(3), "sl2_in_gl2"), 5),
        (subgroup_generated(make_direct_product(make_alternating(4), make_cyclic(2)), [2, 4, 6]), 4),  # K = V4
        (_alternating_in_symmetric(5), 12),  # the Young route
        (_alternating_in_symmetric(6), 20),
    ]
    for sub, k in pairs:
        outside = sub.outside()
        yield sub, [rng.sample(outside, k) for _ in range(12)]
        x = int(sub.elements[-1])
        yield sub, [[x, sub.parent.inv(x), *rng.sample(outside, k)] for _ in range(12)]


def test_compute_spectra_matches_blocks_of_one():
    """Each set of a stacked block gets the bits of its own ``compute_spectrum``, whatever the block mixes."""
    mixed = 0
    for sub, sets in _spectra_blocks():
        gens = [validate_generating_set(sub, s) for s in sets]
        mixed += len({_covered_orbits(gen) for gen in gens}) > 1
        for gen, spectrum in zip(gens, spectral.compute_spectra(gens, 1e-7)):
            alone = compute_spectrum(build_pair_graph(sub, gen), 1e-7)
            assert spectrum.eigenvalues.tobytes() == alone.eigenvalues.tobytes(), (sub, gen.elements)
            assert (spectrum.tolerance, spectrum.scale) == (alone.tolerance, alone.scale) == (1e-7, gen.size)
    assert mixed == 6  # Z/12, F16 and GL2(5), each with sets avoiding and meeting H
    assert spectral.compute_spectra([]) == []
    sub = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
    for sets in ([[1, 2], [1, 2, 4]], [[1, 2], [3, 9]]):
        with pytest.raises(ValidationError, match="^a block holds sets of one size on one subgroup, all meeting it"):
            spectral.compute_spectra([validate_generating_set(sub, s) for s in sets])
    other = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
    with pytest.raises(ValidationError, match="^a block holds sets of one size on one subgroup"):
        spectral.compute_spectra([validate_generating_set(sub, [1]), validate_generating_set(other, [1])])


def test_eigensolver_residuals():
    # spot-check: every eigenpair satisfies A v = lambda v to solver precision
    for gen in instance_corpus(10, seed=79):
        graph = build_pair_graph(gen.subgroup, gen)
        a = graph.adjacency.astype(np.float64)
        w, v = np.linalg.eigh(a)
        residual = np.abs(a @ v - v * w).max()
        norm = max(1.0, np.abs(w).max())
        assert residual <= 10 * 1e-8 * norm


def test_trivial_eigenvalue_examples():
    f49 = make_field_additive(7, 2)
    f7 = subgroup_from_elements(f49, range(7))
    gen = validate_generating_set(f7, field_norm_preimage(f49, [5, 6]))
    te = trivial_eigenvalues(gen)
    assert te.upper == pytest.approx(4 * math.sqrt(3), abs=1e-12)
    assert te.lower == pytest.approx(-4 * math.sqrt(3), abs=1e-12)
    assert sorted(te.coset_pattern) == [2, 2, 2, 2, 4, 4]

    a4 = make_alternating(4)
    klein = builtin_subgroup(a4, "klein_in_a4")
    words = ("(1,2)(3,4)", "(1,4)(2,3)", "(1,2,3)", "(1,4,3)", "(2,3,4)", "(2,4,3)")
    te = trivial_eigenvalues(validate_generating_set(klein, [perm_index(a4, w) for w in words]))
    assert (te.upper, te.lower) == (4.0, -2.0)

    with pytest.raises(ValidationError):
        trivial_eigenvalues(validate_generating_set(klein, []))


def test_trivial_eigenvalues_inside_only():
    # generating set inside the subgroup: only the upper value is claimed
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen = validate_generating_set(sub, [3, 9])
    te = trivial_eigenvalues(gen)
    assert te.upper == 2.0 and te.lower is None
    spec = compute_spectrum(build_pair_graph(sub, gen))
    assert spec.contains(2.0, 1e-9)


def _quadratic_residual(te, value: float) -> float:
    """x^2 - q x - sum(c_i^2) at x = value, zero at both trivial eigenvalues."""
    return value * value - te.inside_size * value - sum(c * c for c in te.coset_pattern)


def test_quadratic_identity_and_presence_on_corpus():
    for gen in instance_corpus(120, seed=83):
        if gen.size == 0:
            continue
        te = trivial_eigenvalues(gen)
        assert abs(_quadratic_residual(te, te.upper)) < 1e-8
        spec = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        assert spec.contains(te.upper, 1e-7)
        assert te.upper == pytest.approx(spec.eigenvalues[0], abs=1e-7)
        if te.lower is not None:
            assert abs(_quadratic_residual(te, te.lower)) < 1e-8
            assert spec.contains(te.lower, 1e-7)


def test_largest_multiplicity_examples(z20_evens):
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen1 = validate_generating_set(sub, [1, 7])
    assert largest_eigenvalue_multiplicity(gen1) == 2
    spec = compute_spectrum(build_pair_graph(sub, gen1))
    assert spec.clusters[0][1] == 2
    gen20 = validate_generating_set(z20_evens, [3, 5, 7])
    assert largest_eigenvalue_multiplicity(gen20) == 1
    with pytest.raises(ValidationError):
        largest_eigenvalue_multiplicity(validate_generating_set(sub, [3, 9]))


def test_largest_multiplicity_on_corpus():
    for gen in instance_corpus(120, seed=89):
        if not gen.outside:
            continue
        spec = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        assert spec.clusters[0][1] == largest_eigenvalue_multiplicity(gen)


def test_zero_multiplicity_examples():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen = validate_generating_set(sub, [1, 7])
    assert zero_multiplicity_lower_bound(gen) == 4
    f49 = make_field_additive(7, 2)
    f7 = subgroup_from_elements(f49, range(7))
    gen49 = validate_generating_set(f7, field_norm_preimage(f49, [5, 6]))
    assert zero_multiplicity_lower_bound(gen49) == 35
    s4 = make_symmetric(4)
    a4sub = builtin_subgroup(s4, "alternating_in_symmetric")
    words = ("(1,2)", "(1,3)", "(2,4)", "(3,4)", "(1,2,3,4)", "(1,3,2,4)", "(1,4,2,3)", "(1,4,3,2)")
    gen_s4 = validate_generating_set(a4sub, [perm_index(s4, w) for w in words])
    assert zero_multiplicity_lower_bound(gen_s4) == 0


def test_zero_multiplicity_bound_on_corpus():
    for gen in instance_corpus(120, seed=97):
        spec = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        assert spec.multiplicity_near(0.0) >= zero_multiplicity_lower_bound(gen)


def test_ramanujan_s4_example():
    s4 = make_symmetric(4)
    sub = builtin_subgroup(s4, "alternating_in_symmetric")
    words = ("(1,2)", "(1,3)", "(2,4)", "(3,4)", "(1,2,3,4)", "(1,3,2,4)", "(1,4,2,3)", "(1,4,3,2)")
    graph = build_pair_graph(sub, [perm_index(s4, w) for w in words])
    report = is_ramanujan(graph)
    assert report.ramanujan and report.degree == 8
    assert report.worst_nontrivial == pytest.approx(4.0, abs=1e-9)
    assert report.bound == pytest.approx(2 * math.sqrt(7), abs=1e-12)


def test_ramanujan_cycle(z20_evens):
    report = is_ramanujan(build_pair_graph(z20_evens, [1, 19]))
    assert report.ramanujan and report.degree == 2


def test_ramanujan_preconditions(z20_evens):
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    with pytest.raises(NotRegular):
        is_ramanujan(build_pair_graph(sub, [2, 4, 5, 7, 8]))
    with pytest.raises(NotConnected):
        is_ramanujan(build_pair_graph(z20_evens, [5, 15]))  # 2-regular, 5 components


def _graph_route(graph):
    """The certification read off the built graph: regularity from its degrees,
    connectivity from the least-label search, the worst value from the dense spectrum."""
    degrees = graph.degrees
    if degrees.min() != degrees.max():
        raise NotRegular("graph is not regular")
    if connected_components(graph).count != 1:
        raise NotConnected("graph is not connected")
    k = int(degrees[0])
    eps = DEFAULT_TOLERANCE * max(1, k)
    rest = dense_eigenvalues(graph)[1:]
    if len(rest) and rest[-1] <= -k + eps:
        rest = rest[:-1]
    worst = float(np.abs(rest).max()) if len(rest) else 0.0
    return k, worst <= (2.0 * math.sqrt(k - 1) if k else 0.0) + eps


def _certified(graph):
    report = is_ramanujan(graph)
    return report.degree, report.ramanujan


def _outcome(route, graph):
    try:
        return route(graph)
    except PairGraphError as exc:
        return type(exc), str(exc)


def test_certification_matches_graph_route():
    rng = random.Random(101)
    gens = instance_corpus(150, seed=97)
    gens += [random_generating_set(rng, sub, outside_only=True, min_size=1) for sub in index_two_pool() for _ in range(6)]
    z12 = make_cyclic(12)
    for sub, sets in [
        (subgroup_generated(make_cyclic(1), []), [[]]),
        (subgroup_generated(make_cyclic(2), []), [[]]),  # U = H = {0}, but the coset {1} is uncovered
        (subgroup_generated(z12, [1]), [[], [1, 11], [3, 9], [2, 3, 9, 10]]),  # H = G
        (subgroup_generated(z12, [4]), [[], [1, 2], [1, 5, 9]]),  # index 4
        (subgroup_generated(make_cyclic(20), [2]), [[5, 15], [1, 3, 5, 7, 9]]),
        # worst nontrivial 2.827 and 2.848 against the bound 2*sqrt(2) = 2.828
        (subgroup_generated(make_cyclic(30), [2]), [[1, 3, 5]]),
        (subgroup_generated(make_cyclic(32), [2]), [[1, 3, 5]]),
    ]:
        gens += [validate_generating_set(sub, s) for s in sets]
    seen = set()
    for gen in gens:
        graph = build_pair_graph(gen.subgroup, gen)
        expected = _outcome(_graph_route, graph)
        assert _outcome(_certified, graph) == expected, gen
        # the exception raised, else the verdict, and the kind of instance
        seen.add(expected[0] if isinstance(expected[0], type) else expected[1])
        index = gen.subgroup.index
        seen.update(kind for kind, found in [
            ("empty", not gen.size), ("whole", index == 1), ("index >= 3", index >= 3),
        ] if found)
    assert seen == {NotRegular, NotConnected, True, False, "empty", "whole", "index >= 3"}


def test_tolerance_must_be_finite_and_positive(z20_evens):
    graph = build_pair_graph(z20_evens, [1, 19])
    for tolerance in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite and positive"):
            compute_spectrum(graph, tolerance)
        with pytest.raises(ValidationError, match="finite and positive"):
            is_ramanujan(graph, tolerance=tolerance)
    assert compute_spectrum(graph, 1e-3).tolerance == 1e-3


def test_spectral_symmetry_z20(z20_evens):
    report = compare_complementary_spectra(z20_evens, [7, 9, 11], [1, 3, 5, 13, 15, 17, 19])
    assert report.ok
    assert report.max_interior_gap <= 1e-6
    assert report.first_spectrum.eigenvalues[0] == pytest.approx(3.0, abs=1e-9)
    assert report.second_spectrum.eigenvalues[0] == pytest.approx(7.0, abs=1e-9)


def test_complementary_spectra_build_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pair graph was built")

    rng = random.Random(37)
    splits = []
    for sub in index_two_pool():
        outside = list(sub.outside())
        first = set(rng.sample(outside, rng.randint(1, len(outside) - 1)))
        splits.append((sub, first, set(outside) - first))
    monkeypatch.setattr(graphs, "build_pair_graph", refuse)
    monkeypatch.setattr(spectral, "build_pair_graph", refuse)
    reports = [compare_complementary_spectra(*split) for split in splits]
    monkeypatch.undo()
    # the spectra read off (G, H, S) are those of the built graphs, bit for bit
    for (sub, first, second), report in zip(splits, reports):
        assert report.ok
        for s, spectrum in ((first, report.first_spectrum), (second, report.second_spectrum)):
            graph = build_pair_graph(sub, s)
            built = compute_spectrum(graph)
            assert spectrum.eigenvalues.tobytes() == built.eigenvalues.tobytes()
            assert spectrum.clusters == built.clusters
            assert spectrum.scale == graph.degrees.max() == len(s)


def test_spectral_symmetry_preconditions(z20_evens):
    with pytest.raises(ValidationError):
        compare_complementary_spectra(z20_evens, [], [1, 3, 5, 7, 9, 11, 13, 15, 17, 19])
    with pytest.raises(ValidationError):
        compare_complementary_spectra(z20_evens, [1, 3], [5, 7])  # does not cover
    z12 = make_cyclic(12)
    sub3 = subgroup_from_elements(z12, [0, 3, 6, 9])
    from pairgraph.errors import IndexNotTwo

    with pytest.raises(IndexNotTwo):
        compare_complementary_spectra(sub3, [1], [2])


def test_spectral_symmetry_random_splits():
    rng = random.Random(101)
    pool = index_two_pool()
    for _ in range(25):
        sub = pool[rng.randrange(len(pool))]
        outside = list(sub.outside())
        k = rng.randint(1, len(outside) - 1)
        s1 = set(rng.sample(outside, k))
        s2 = set(outside) - s1
        report = compare_complementary_spectra(sub, s1, s2)
        assert report.ok, (sub, k, report.max_interior_gap)


def test_disconnected_side_forces_top_value_in_complement(z20_evens):
    # 2-regular disconnected side with c components: the complement picks up
    # the value 2 with multiplicity at least c - 1
    gen1 = validate_generating_set(z20_evens, [5, 15])
    graph1 = build_pair_graph(z20_evens, gen1)
    c = connected_components(graph1).count
    assert c == 5
    s2 = sorted(set(z20_evens.outside()) - {5, 15})
    spec2 = compute_spectrum(build_pair_graph(z20_evens, s2))
    assert spec2.multiplicity_near(2.0, 1e-6) >= c - 1
    assert spec2.multiplicity_near(-2.0, 1e-6) >= c - 1


def test_disconnected_side_multiplicity_on_random_splits():
    rng = random.Random(131)
    pool = index_two_pool()
    exercised = 0
    for _ in range(200):
        sub = pool[rng.randrange(len(pool))]
        outside = list(sub.outside())
        k = rng.randint(1, len(outside) - 1)
        s1 = sorted(rng.sample(outside, k))
        graph1 = build_pair_graph(sub, s1)
        c = connected_components(graph1).count
        if c == 1:
            continue
        s2 = sorted(set(outside) - set(s1))
        spec2 = compute_spectrum(build_pair_graph(sub, s2))
        assert spec2.multiplicity_near(float(k), 1e-6) >= c - 1
        assert spec2.multiplicity_near(float(-k), 1e-6) >= c - 1
        exercised += 1
        if exercised >= 25:
            break
    assert exercised >= 10


def test_bipartite_spectra_are_symmetric():
    for gen in instance_corpus(60, seed=103, outside_only=True):
        spec = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        assert np.allclose(spec.eigenvalues, -spec.eigenvalues[::-1], atol=1e-8)


def test_regular_spectral_radius_is_degree():
    for sub in index_two_pool()[:6]:
        gen = random_generating_set(random.Random(sub.parent.order), sub, outside_only=True, min_size=1)
        spec = compute_spectrum(build_pair_graph(sub, gen))
        assert spec.eigenvalues[0] == pytest.approx(gen.size, abs=1e-9)
        assert np.abs(spec.eigenvalues).max() <= gen.size + 1e-9


def test_size_bound_examples():
    gl3 = make_gl2(3)
    sl3 = builtin_subgroup(gl3, "sl2_in_gl2")
    seventeen = random_candidate(sl3.outside(), 17, 0, 0)
    bound = ramanujan_size_bound(validate_generating_set(sl3, seventeen))
    assert bound.bound == pytest.approx(24 + 2 - 2 * math.sqrt(24), abs=1e-12)
    assert bound.satisfied
    seven = sorted(set(sl3.outside()) - set(seventeen))
    bound7 = ramanujan_size_bound(validate_generating_set(sl3, seven))
    assert not bound7.satisfied
    # ... yet that 7-regular graph is still Ramanujan: the bound is not necessary
    report = is_ramanujan(build_pair_graph(sl3, seven))
    assert report.ramanujan
    # |H| = 36 is a square, so the bound 36 + 2 - 2*6 = 26 is attained: 26 odd residues satisfy it, 25 do not
    evens = subgroup_from_elements(make_cyclic(72), range(0, 72, 2))
    odd = list(range(1, 72, 2))
    bound26 = ramanujan_size_bound(validate_generating_set(evens, odd[:26]))
    assert bound26.bound == 26.0 and bound26.satisfied
    assert not ramanujan_size_bound(validate_generating_set(evens, odd[:25])).satisfied
    assert is_ramanujan(build_pair_graph(evens, odd[:26])).ramanujan


def test_spectrum_size_cap():
    big = subgroup_from_elements(make_cyclic(3001), [0])
    with pytest.raises(SizeCapExceeded):
        compute_spectrum(build_pair_graph(big, [1, 3000]))


def test_coarse_tolerance_merges_clusters(z20_evens):
    # a misconfigured coarse tolerance fuses the nearby irrational clusters,
    # which cluster-count comparisons catch
    graph = build_pair_graph(z20_evens, [3, 5, 7])
    fine = compute_spectrum(graph)
    coarse = compute_spectrum(graph, tolerance=1e-2)
    assert len(fine.clusters) == 12
    assert len(coarse.clusters) < len(fine.clusters)


def test_cluster_gap_boundary():
    # a step equal to the gap joins its neighbours; a step just above it splits them
    below = np.nextafter(1.5, 0.0)
    assert 2.0 - below > 0.5
    assert _cluster(np.array([3.0, 2.5, 1.75, 1.0]), 0.5) == ((2.75, 2), (1.75, 1), (1.0, 1))
    assert _cluster(np.array([1.0, 0.5]), 0.5) == ((0.75, 2),)
    assert _cluster(np.array([2.0, 1.5]), 0.5) == ((1.75, 2),)
    assert _cluster(np.array([2.0, below]), 0.5) == ((2.0, 1), (below, 1))
    assert _cluster(np.array([2.0]), 0.5) == ((2.0, 1),)
