"""Bundled reference cases: worked instances with independently known answers.

Each case rebuilds one of the stock constructions from scratch and compares
degrees, component counts, matrices, eigenvalues or Ramanujan verdicts against
frozen expected values.  ``run_all`` is the regression harness behind the
``verify`` CLI command and acceptance criteria 1-4, 6 and 7 of the tests.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .actions import SearchConfig, random_candidate, right_translate_set, search_ramanujan
from .descriptors import builtin_subgroup
from .errors import ValidationError
from .graphs import (
    adjacency_rows_via_group_matrix,
    build_pair_graph,
    degree_profile,
    is_cayley_reduction,
    isolated_vertices,
)
from .groups import (
    Subgroup,
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
from .spectral import (
    compare_complementary_spectra,
    compute_spectrum,
    is_ramanujan,
    ramanujan_size_bound,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from .structure import (
    component_count_by_formula,
    connected_components,
    is_bipartite,
    is_connected,
    sign_homomorphism_exists,
)

# frozen seeds for the random matrix-group instances (see the search driver
# for how a (seed, trial) pair expands into a candidate set)
GL2F5_SET_SEED = 5
GL2F3_SEARCH_SEED = 0

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _rows_match(graph, vertices, rows: np.ndarray) -> bool:
    """Whether each vertex's CSR neighbours are the columns of the ones in its 0/1 row."""
    neighbours = (graph.indices[graph.indptr[v] : graph.indptr[v + 1]] for v in vertices)
    return all(np.array_equal(n, np.flatnonzero(row)) for n, row in zip(neighbours, rows))


def _z12_sub() -> Subgroup:
    return subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])


def case_z12_degrees() -> list[Check]:
    sub = _z12_sub()
    graph = build_pair_graph(sub, [2, 4, 5, 7, 8])
    profile = degree_profile(graph)
    formula = component_count_by_formula(graph.gen)
    return [
        _check("degree profile (5,2,3)", profile == [(0, 5, 4), (1, 2, 4), (2, 3, 4)], str(profile)),
        _check("one component (search)", connected_components(graph).count == 1),
        _check("one component (formula)", formula.total == 1, str(formula)),
    ]


def case_z12_group_matrix() -> list[Check]:
    sub = _z12_sub()
    expected = np.array(
        [
            [0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1],
            [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
        ],
        dtype=np.int8,
    )
    rows = adjacency_rows_via_group_matrix(sub, [2, 4, 5, 7, 8])
    graph = build_pair_graph(sub, [2, 4, 5, 7, 8])
    return [
        _check("evaluated matrix rows", np.array_equal(rows, expected)),
        _check("matches subgroup rows of the adjacency", _rows_match(graph, sub.elements, rows)),
    ]


def case_s3_cayley_matrix() -> list[Check]:
    group = make_symmetric(3)
    sub = subgroup_from_elements(group, range(6))
    gen = [perm_index(group, w) for w in ("(1,2)", "(1,2,3)", "(1,3,2)")]
    expected = np.array(
        [
            [0, 0, 1, 1, 1, 0],
            [0, 0, 1, 1, 0, 1],
            [1, 1, 0, 0, 0, 1],
            [1, 1, 0, 0, 1, 0],
            [1, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 1, 0],
        ],
        dtype=np.int8,
    )
    graph = build_pair_graph(sub, gen)
    rows = adjacency_rows_via_group_matrix(sub, gen)
    return [
        _check("full-group pair graph = Cayley adjacency", _rows_match(graph, range(graph.order), expected)),
        _check("evaluated group matrix", np.array_equal(rows, expected)),
    ]


def case_z12_components() -> list[Check]:
    sub = _z12_sub()
    gen1 = validate_generating_set(sub, [1, 7])
    gen2 = validate_generating_set(sub, [4, 5, 6, 10, 11])
    f1 = component_count_by_formula(gen1)
    f2 = component_count_by_formula(gen2)
    g1 = build_pair_graph(sub, gen1)
    g2 = build_pair_graph(sub, gen2)
    return [
        _check("first set: 6 components (search)", connected_components(g1).count == 6),
        _check(
            "first set: terms (2,8,4)",
            (f1.subgroup_index_term, f1.outside_term, f1.covered_term) == (2, 8, 4),
            str(f1),
        ),
        _check("second set: 2 components (search)", connected_components(g2).count == 2),
        _check(
            "second set: terms (2,8,8)",
            (f2.subgroup_index_term, f2.outside_term, f2.covered_term) == (2, 8, 8),
            str(f2),
        ),
        _check("first set isolates one coset", isolated_vertices(g1).tolist() == [2, 5, 8, 11]),
    ]


def case_star_graph() -> list[Check]:
    group = make_cyclic(6)
    sub = subgroup_from_elements(group, [0])
    graph = build_pair_graph(sub, range(1, 6))
    degs = sorted(int(d) for d in graph.degrees)
    return [
        _check("no isolated vertices", isolated_vertices(graph).tolist() == []),
        _check("star degrees", degs == [1, 1, 1, 1, 1, 5], str(degs)),
        _check("connected", connected_components(graph).count == 1),
    ]


def case_f49_norm() -> list[Check]:
    group = make_field_additive(7, 2)
    sub = subgroup_from_elements(group, range(7))
    gen_set = field_norm_preimage(group, [5, 6])
    graph = build_pair_graph(sub, gen_set)
    degs = sorted(d for _, d, _ in degree_profile(graph))
    te = trivial_eigenvalues(graph.gen)
    spectrum = compute_spectrum(graph)
    target = 4.0 * math.sqrt(3.0)
    bound = zero_multiplicity_lower_bound(graph.gen)
    return [
        _check("norm preimage size 16", len(gen_set) == 16, str(len(gen_set))),
        _check("degrees 2,4,16", degs == [2, 2, 2, 2, 4, 4, 16], str(degs)),
        _check("trivial eigenvalues +/- 4*sqrt(3)", abs(te.upper - target) < 1e-12 and abs(te.lower + target) < 1e-12),
        _check("spectrum contains them", spectrum.contains(target) and spectrum.contains(-target)),
        _check("zero multiplicity >= 35", bound == 35 and spectrum.multiplicity_near(0.0) >= 35),
    ]


def case_gl2f5_random_set() -> list[Check]:
    group = make_gl2(5)
    sub = builtin_subgroup(group, "sl2_in_gl2")
    candidate = random_candidate(sub.outside(), 7, GL2F5_SET_SEED, 0)
    gen = validate_generating_set(sub, candidate)
    graph = build_pair_graph(sub, gen)
    degs = sorted(d for _, d, _ in degree_profile(graph))
    te = trivial_eigenvalues(gen)
    spectrum = compute_spectrum(graph)
    target = math.sqrt(17.0)
    return [
        _check("480 vertices", group.order == 480),
        _check("degrees 2,2,3,7", degs == [2, 2, 3, 7], str(degs)),
        _check("connected", connected_components(graph).count == 1),
        _check("trivial eigenvalues +/- sqrt(17)", abs(te.upper - target) < 1e-12 and abs(te.lower + target) < 1e-12),
        _check("spectrum contains them", spectrum.contains(target) and spectrum.contains(-target)),
    ]


def case_a4_klein_bipartite() -> list[Check]:
    group = make_alternating(4)
    sub = builtin_subgroup(group, "klein_in_a4")
    words = ("(1,2)(3,4)", "(1,4)(2,3)", "(1,2,3)", "(1,4,3)", "(2,3,4)", "(2,4,3)")
    gen_set = [perm_index(group, w) for w in words]
    graph = build_pair_graph(sub, gen_set)
    te = trivial_eigenvalues(graph.gen)
    spectrum = compute_spectrum(graph)
    return [
        _check("bipartite", is_bipartite(graph).bipartite),
        _check("no sign homomorphism exists", not sign_homomorphism_exists(group, gen_set)),
        _check("trivial eigenvalues (4, -2)", te.upper == 4.0 and te.lower == -2.0, str(te)),
        _check("spectrum contains them", spectrum.contains(4.0) and spectrum.contains(-2.0)),
    ]


def case_z20_table() -> list[Check]:
    group = make_cyclic(20)
    sub = subgroup_from_elements(group, range(0, 20, 2))
    r5 = math.sqrt(5.0)
    positive = sorted(
        [3, (3 + r5) / 2, (3 + r5) / 2, (1 + r5) / 2, (1 + r5) / 2, 1,
         (r5 - 1) / 2, (r5 - 1) / 2, (3 - r5) / 2, (3 - r5) / 2],
        reverse=True,
    )
    g1 = build_pair_graph(sub, [3, 5, 7])
    g2 = build_pair_graph(sub, [1, 3, 5, 13, 15, 17, 19])
    spec1 = compute_spectrum(g1)
    spec2 = compute_spectrum(g2)
    translated = right_translate_set(sub, [3, 5, 7], 4)
    report = compare_complementary_spectra(sub, translated, [1, 3, 5, 13, 15, 17, 19])
    return [
        _check(  # bipartite: the negative half mirrors the positive one
            "3-regular positive spectrum",
            np.allclose(spec1.eigenvalues, positive + [-v for v in positive[::-1]], atol=1e-6),
        ),
        _check(
            "7-regular spectrum differs only in the extremes",
            np.allclose(spec2.eigenvalues[:10], [7.0] + positive[1:], atol=1e-6)
            and np.allclose(spec2.eigenvalues[1:-1], spec1.eigenvalues[1:-1], atol=1e-6),
        ),
        _check("right translate by 4", translated == (7, 9, 11), str(translated)),
        _check("complementary interior spectra agree", report.ok, f"gap={report.max_interior_gap:.2e}"),
    ]


def case_s4_a4_ramanujan() -> list[Check]:
    group = make_symmetric(4)
    sub = builtin_subgroup(group, "alternating_in_symmetric")
    words = ("(1,2)", "(1,3)", "(2,4)", "(3,4)", "(1,2,3,4)", "(1,3,2,4)", "(1,4,2,3)", "(1,4,3,2)")
    gen_set = [perm_index(group, w) for w in words]
    graph = build_pair_graph(sub, gen_set)
    spectrum = compute_spectrum(graph)
    clusters = [(round(v, 6) + 0.0, c) for v, c in spectrum.clusters]
    report = is_ramanujan(graph, spectrum)
    bound = ramanujan_size_bound(graph.gen)
    small_words = ("(1,2)", "(3,4)", "(1,3,2,4)", "(1,4,2,3)")
    small = build_pair_graph(sub, [perm_index(group, w) for w in small_words])
    return [
        _check(
            "clusters (+-8 x1, +-4 x2, 0 x18)",
            clusters == [(8.0, 1), (4.0, 2), (0.0, 18), (-4.0, 2), (-8.0, 1)],
            str(clusters),
        ),
        _check("Ramanujan", report.ramanujan, f"worst={report.worst_nontrivial:.6f} bound={report.bound:.6f}"),
        _check("size bound satisfied", bound.satisfied, str(bound)),
        _check("4-regular companion has 3 components", connected_components(small).count == 3),
        _check("companion set is symmetric (Cayley reduction)", is_cayley_reduction(small)),
    ]


def case_gl2f3_ramanujan() -> list[Check]:
    group = make_gl2(3)
    sub = builtin_subgroup(group, "sl2_in_gl2")
    config = SearchConfig(subgroup=sub, size=17, mode="random", trials=20, seed=GL2F3_SEARCH_SEED)
    results = search_ramanujan(config)
    connected = [r for r in results if r.connected]
    all_ram = all(r.ramanujan for r in connected)
    all_qualify = all(r.bound_satisfied for r in results)
    outside = set(sub.outside())
    complement_hit = None
    for r in results:
        comp = tuple(sorted(outside - set(r.candidate)))
        gen_c = validate_generating_set(sub, comp)
        if not is_connected(gen_c).connected:
            continue
        rep = is_ramanujan(build_pair_graph(sub, gen_c))
        bound_c = ramanujan_size_bound(gen_c)
        if rep.ramanujan and not bound_c.satisfied:
            complement_hit = (r.trial, rep.worst_nontrivial, bound_c.bound)
            break
    bound17 = results[0].bound
    return [
        _check("|G|=48, |H|=24", group.order == 48 and sub.order == 24),
        _check("size bound is about 16.2 (so 17 qualifies)", 16.2 < bound17 < 16.3 and all_qualify, str(bound17)),
        _check("connected 17-sets found", len(connected) > 0, f"{len(connected)}/20"),
        _check("all connected 17-sets Ramanujan", all_ram),
        _check(
            "a 7-regular complement is Ramanujan yet under the bound",
            complement_hit is not None,
            str(complement_hit),
        ),
    ]


CASES: dict[str, Callable[[], list[Check]]] = {
    "z12-degrees": case_z12_degrees,
    "z12-group-matrix": case_z12_group_matrix,
    "s3-cayley-matrix": case_s3_cayley_matrix,
    "z12-components": case_z12_components,
    "star-graph": case_star_graph,
    "f49-norm": case_f49_norm,
    "gl2f5-random-set": case_gl2f5_random_set,
    "a4-klein-bipartite": case_a4_klein_bipartite,
    "z20-table": case_z20_table,
    "s4-a4-ramanujan": case_s4_a4_ramanujan,
    "gl2f3-ramanujan": case_gl2f3_ramanujan,
}


def run_all(only: str | None = None) -> tuple[bool, list[tuple[str, list[Check]]]]:
    """Run every case, or only the one named; each result is (case id, its checks)."""
    if only and only not in CASES:
        raise ValidationError(f"unknown reference case {only!r}; known: {list(CASES)}")
    results = [(case_id, CASES[case_id]()) for case_id in ([only] if only else CASES)]
    return all(ok for _, checks in results for _, ok, _ in checks), results
