"""Spectra: closed-form eigenvalues, multiplicities, symmetry, Ramanujan checks."""

import math
import random

import numpy as np
import pytest

from pairgraph.descriptors import builtin_subgroup
from pairgraph.errors import NotConnected, NotRegular, SizeCapExceeded, ValidationError
from pairgraph.graphs import build_pair_graph
from pairgraph.groups import (
    field_norm_preimage,
    make_alternating,
    make_cyclic,
    make_field_additive,
    make_gl2,
    make_symmetric,
    perm_index,
    subgroup_from_elements,
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
from pairgraph.actions import random_candidate

from helpers import (
    dense_eigenvalues,
    index_two_pool,
    instance_corpus,
    random_generating_set,
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


def test_edgeless_spectrum():
    sub = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
    spec = compute_spectrum(build_pair_graph(sub, []))
    assert spec.clusters == ((0.0, 12),)


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
    for gen in _oracle_instances():
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


def _crafted_spectrum(k, order, worst, with_minus_k):
    values = np.zeros(order)
    values[0], values[1] = k, worst
    if with_minus_k:
        values[-1] = -k
    return Spectrum(np.sort(values)[::-1], (), DEFAULT_TOLERANCE, float(k))


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


def test_quadratic_identity_and_presence_on_corpus():
    for gen in instance_corpus(120, seed=83):
        if gen.size == 0:
            continue
        te = trivial_eigenvalues(gen)
        assert abs(te.quadratic_residual(te.upper)) < 1e-8
        spec = compute_spectrum(build_pair_graph(gen.subgroup, gen))
        assert spec.contains(te.upper, 1e-7)
        assert te.upper == pytest.approx(spec.eigenvalues[0], abs=1e-7)
        if te.lower is not None:
            assert abs(te.quadratic_residual(te.lower)) < 1e-8
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


def test_spectral_symmetry_z20(z20_evens):
    report = compare_complementary_spectra(z20_evens, [7, 9, 11], [1, 3, 5, 13, 15, 17, 19])
    assert report.ok
    assert report.max_interior_gap <= 1e-6
    assert report.first_spectrum.eigenvalues[0] == pytest.approx(3.0, abs=1e-9)
    assert report.second_spectrum.eigenvalues[0] == pytest.approx(7.0, abs=1e-9)


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
