"""Pair-graph construction, the group-matrix oracle, degrees, and exports."""

import json
import random

import numpy as np
import pytest

from pairgraph.errors import IdentityInGeneratingSet, IndexNotTwo, PairGraphError, SymmetryViolation, ValidationError
from pairgraph.graphs import (
    PairGraph,
    adjacency_rows_via_group_matrix,
    build_pair_graph,
    degree_profile,
    graph_to_dot,
    graph_to_json,
    is_cayley_reduction,
    isolated_vertices,
    RegularityReport,
    regularity_check,
)
from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.groups import (
    ORDER_CAP,
    make_cyclic,
    make_symmetric,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.spectral import compare_complementary_spectra, compute_spectrum, is_ramanujan, trivial_eigenvalues
from pairgraph.structure import connected_components, is_bipartite, is_connected

from helpers import (
    analyze_large_pairs,
    analyze_large_set,
    count_products,
    coset_members,
    index_two_pool,
    instance_corpus,
    left_translation_matrix,
    reference_csr,
    reference_group_matrix,
    subgroup_pool,
)


@pytest.fixture(scope="module")
def z12_sub():
    z12 = make_cyclic(12)
    return subgroup_from_elements(z12, [0, 3, 6, 9])


def test_example_degree_profile(z12_sub):
    graph = build_pair_graph(z12_sub, [2, 4, 5, 7, 8])
    assert degree_profile(graph) == [(0, 5, 4), (1, 2, 4), (2, 3, 4)]
    assert graph.degrees.sum() == 4 * 5 + 4 * 2 + 4 * 3


def test_adjacency_shape_invariants(z12_sub):
    graph = build_pair_graph(z12_sub, [2, 4, 5, 7, 8])
    a = graph.adjacency
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()
    outside = [v for v in range(12) if not z12_sub.contains(v)]
    assert not a[np.ix_(outside, outside)].any()  # no edges between outer vertices


def test_inner_edges_only_from_inside_part():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen = validate_generating_set(sub, [3, 9, 1])
    graph = build_pair_graph(sub, gen)
    inside = list(sub.elements)
    block = graph.adjacency[np.ix_(inside, inside)]
    for i, h in enumerate(inside):
        for j, h2 in enumerate(inside):
            expected = 1 if any(z12.mul(h, s) == h2 for s in gen.inside) else 0
            assert block[i, j] == expected


def test_group_matrix_printed_example(z12_sub):
    expected = np.array(
        [
            [0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1],
            [0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
        ],
        dtype=np.int8,
    )
    assert np.array_equal(adjacency_rows_via_group_matrix(z12_sub, [2, 4, 5, 7, 8]), expected)


def test_group_matrix_empty_set(z12_sub):
    assert not adjacency_rows_via_group_matrix(z12_sub, []).any()


def test_s3_cayley_matrix():
    s3 = make_symmetric(3)
    whole = subgroup_from_elements(s3, range(6))
    gen = [perm_index(s3, w) for w in ("(1,2)", "(1,2,3)", "(1,3,2)")]
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
    graph = build_pair_graph(whole, gen)
    assert np.array_equal(graph.adjacency, expected)
    assert np.array_equal(adjacency_rows_via_group_matrix(whole, gen), expected)


def test_group_matrix_matches_pairwise_reference():
    # H = {e} (index |G|), H = G, S6 > A6 (17 row blocks of 22, the last of 8),
    # Z/300 > <3> (blocks of 81 and 19 rows), a direct product, F_{7^2} > F_7
    s4, s6, z300 = make_symmetric(4), make_symmetric(6), make_cyclic(300)
    product = group_from_descriptor({"kind": "product", "params": ["dihedral:4", "cyclic:6"]})
    f49 = group_from_descriptor("field_additive:7,2")
    pairs = [
        subgroup_generated(s4, []),
        subgroup_generated(s4, range(s4.order)),
        builtin_subgroup(s6, "alternating_in_symmetric"),
        subgroup_generated(z300, [3]),
        subgroup_generated(product, [1 * 6, 2]),  # <(r, 0), (e, 2)>, index 4
        subgroup_generated(f49, [1]),
    ]
    rng = random.Random(59)
    for sub in pairs:
        group = sub.parent
        inside = set(rng.sample([x for x in sub.elements.tolist() if x != group.identity], min(2, sub.order - 1)))
        inside |= {group.inv(x) for x in inside}
        outside = rng.sample(sub.outside(), min(12, sub.parent.order - sub.order))
        for s in ([], sorted(inside), outside, sorted(inside) + outside):
            rows = adjacency_rows_via_group_matrix(sub, s)
            assert rows.dtype == np.int8 and rows.flags.c_contiguous
            assert np.array_equal(rows, reference_group_matrix(sub, s)), (sub, s)


def test_group_matrix_takes_square_of_subgroup_plus_group_products(monkeypatch):
    # Z/12000 > <120>: |H|^2 + |G| = 10 000 + 12 000 products, not |H|*|G| = 1 200 000
    sub = subgroup_generated(make_cyclic(12000), [120])
    gen = validate_generating_set(sub, [1, 11999, 120, 11880])
    count = count_products(monkeypatch)
    rows = adjacency_rows_via_group_matrix(sub, gen)
    assert count[0] == sub.order**2 + sub.parent.order == 22000
    assert rows.sum() == sub.order * gen.size


def test_group_matrix_on_large_pairs_matches_reference_csr():
    # Z/12000 > <120> and Z/20000 > evens list their cells h*t as 0..|G|-1 and skip the column
    # reorder; S7 > S4 and GL2(3) x Z/100 > SL2(3) x 1 keep it.  reference_group_matrix is too slow here
    rng, large = random.Random(97), analyze_large_pairs()
    evens = subgroup_generated(make_cyclic(20000), [2])
    cases = [
        (large["cyclic"], analyze_large_set("cyclic", rng), True),
        (evens, sorted(rng.sample(evens.outside(), 30) + [2, 19998]), True),
        (large["s7"], analyze_large_set("s7", rng), False),
        (large["product"], analyze_large_set("product", rng), False),
    ]
    for sub, s, in_order in cases:
        group, h = sub.parent, sub.elements
        cells = group.product(h[:, None], sub.coset_reps)
        assert np.array_equal(cells.ravel(), np.arange(group.order)) == in_order
        gen = validate_generating_set(sub, s)
        _, indices, degrees = reference_csr(gen)
        position = np.full(group.order, -1)
        position[h] = np.arange(sub.order)
        rows_of_edges = position[np.repeat(np.arange(group.order), degrees)]
        expected = np.zeros((sub.order, group.order), dtype=np.int8)
        expected[rows_of_edges[rows_of_edges >= 0], indices[rows_of_edges >= 0]] = 1
        rows = adjacency_rows_via_group_matrix(sub, gen)
        assert rows.dtype == np.int8 and rows.flags.c_contiguous
        assert np.array_equal(rows, expected), sub


def test_cayley_adjacency_rejects_out_of_range_elements():
    # the group matrix with H = G is the Cayley graph's adjacency, under the same set rules;
    # -1 once wrapped to 5, -3 to 3, and 7 raised a bare IndexError
    z6 = make_cyclic(6)
    whole = subgroup_from_elements(z6, range(6))
    for s, bad in (([-1, 1, 5], -1), ([3, -3], -3), ([1, 5, 7], 7)):
        with pytest.raises(ValidationError, match=f"generating element {bad} out of range"):
            adjacency_rows_via_group_matrix(whole, s)
    with pytest.raises(ValidationError, match="identity element is not allowed"):
        adjacency_rows_via_group_matrix(whole, [0, 1, 5])
    with pytest.raises(ValidationError, match="element 1 lies in the subgroup but its inverse 5 is not in the set"):
        adjacency_rows_via_group_matrix(whole, [1, 2, 4])


def test_oracle_equivalence_on_corpus():
    for gen in instance_corpus(150, seed=23):
        graph = build_pair_graph(gen.subgroup, gen)
        rows = adjacency_rows_via_group_matrix(gen.subgroup, gen)
        assert np.array_equal(rows, graph.adjacency[list(gen.subgroup.elements), :])


def test_degree_laws_on_corpus():
    for gen in instance_corpus(150, seed=29):
        graph = build_pair_graph(gen.subgroup, gen)
        sub = gen.subgroup
        for cid, members in enumerate(coset_members(sub)):
            degs = {int(graph.degrees[v]) for v in members}
            assert len(degs) == 1  # one degree per coset
            expected = gen.size if cid == 0 else gen.coset_counts[cid]
            assert degs == {expected}
        # degree sum identity and the subgroup-degree inequality
        total = sub.order * gen.size + sub.order * sum(gen.coset_counts[1:])
        assert int(graph.degrees.sum()) == total
        assert gen.size >= len(gen.outside)
        if not gen.inside:
            assert gen.size == len(gen.outside)


def test_empty_set_graph(z12_sub):
    graph = build_pair_graph(z12_sub, [])
    assert graph.edge_count() == 0
    assert isolated_vertices(graph).tolist() == list(range(12))
    assert degree_profile(graph)[0] == (0, 0, 4)


def test_validation_errors(z12_sub):
    with pytest.raises(IdentityInGeneratingSet):
        build_pair_graph(z12_sub, [0, 2])
    with pytest.raises(SymmetryViolation):
        build_pair_graph(z12_sub, [3])
    # empty intersection with the subgroup is vacuously symmetric
    graph = build_pair_graph(z12_sub, [1, 2])
    assert graph.edge_count() > 0


def test_isolated_vertices_examples(z12_sub):
    graph = build_pair_graph(z12_sub, [1, 7])
    assert isolated_vertices(graph).tolist() == [2, 5, 8, 11]
    star_group = make_cyclic(6)
    star = build_pair_graph(subgroup_from_elements(star_group, [0]), range(1, 6))
    assert isolated_vertices(star).tolist() == []
    assert sorted(star.degrees) == [1, 1, 1, 1, 1, 5]


def test_regularity_examples(z12_sub):
    z20 = make_cyclic(20)
    evens = subgroup_from_elements(z20, range(0, 20, 2))
    report = regularity_check(build_pair_graph(evens, [3, 5, 7]))
    assert report.regular and report.degree == 3 and report.matches_criterion
    report = regularity_check(build_pair_graph(z12_sub, [2, 4, 5, 7, 8]))
    assert not report.regular and report.matches_criterion is False
    s3 = make_symmetric(3)
    whole = subgroup_from_elements(s3, range(6))
    gen = [perm_index(s3, w) for w in ("(1,2)", "(1,2,3)", "(1,3,2)")]
    report = regularity_check(build_pair_graph(whole, gen))
    assert report.regular and report.degree == 3


def test_regularity_criterion_on_corpus():
    for gen in instance_corpus(150, seed=31):
        report = regularity_check(build_pair_graph(gen.subgroup, gen))
        if gen.size:
            assert report.matches_criterion == report.regular


def test_cayley_reduction():
    z20 = make_cyclic(20)
    evens = subgroup_from_elements(z20, range(0, 20, 2))
    cycle = build_pair_graph(evens, [1, 19])
    assert is_cayley_reduction(cycle)
    assert np.array_equal(cycle.adjacency, adjacency_rows_via_group_matrix(subgroup_from_elements(z20, range(20)), [1, 19]))
    assert sorted(cycle.degrees) == [2] * 20
    assert not is_cayley_reduction(build_pair_graph(evens, [3, 5, 7]))  # inv(3)=17 missing
    z12 = make_cyclic(12)
    sub3 = subgroup_from_elements(z12, [0, 3, 6, 9])
    with pytest.raises(IndexNotTwo):
        is_cayley_reduction(build_pair_graph(sub3, [1, 11]))


def test_cayley_reduction_matches_dense_cayley_matrix():
    rng = random.Random(41)
    checked = 0
    for sub in index_two_pool():
        group = sub.parent
        whole = subgroup_from_elements(group, range(group.order))
        outside = list(sub.outside())
        for _ in range(8):
            chosen = set(rng.sample(outside, rng.randint(1, min(6, len(outside)))))
            if rng.random() < 0.7:
                chosen |= {group.inv(x) for x in chosen}
            graph = build_pair_graph(sub, chosen)
            symmetric = all(group.inv(x) in chosen for x in chosen)
            assert is_cayley_reduction(graph) == symmetric
            if symmetric:
                assert np.array_equal(graph.adjacency, adjacency_rows_via_group_matrix(whole, chosen))
                checked += 1
    assert checked >= 40


def test_cayley_reduction_rejects_a_moved_edge():
    # the 20-cycle Z/20 on S = {1, 19}, with the edge {0, 1} moved to {0, 3}
    evens = subgroup_from_elements(make_cyclic(20), range(0, 20, 2))
    cycle = build_pair_graph(evens, [1, 19])
    edges = [(0, 3) if edge == (0, 1) else edge for edge in cycle.edges()]
    pairs = sorted(edges + [(v, u) for u, v in edges])
    us, vs = np.array(pairs).T
    degrees = np.bincount(us, minlength=20)
    moved = PairGraph(cycle.gen)
    vars(moved).update(indptr=np.concatenate([[0], np.cumsum(degrees)]), indices=vs, degrees=degrees)
    with pytest.raises(PairGraphError, match="does not match its Cayley graph"):
        is_cayley_reduction(moved)


def test_involution_sets_always_reduce():
    # sets of self-inverse outside elements are symmetric
    s4 = make_symmetric(4)
    a4 = subgroup_from_elements(s4, [i for i, p in enumerate(s4.perms) if sum(
        1 for x in range(4) for y in range(x + 1, 4) if p[x] > p[y]) % 2 == 0])
    transpositions = [perm_index(s4, w) for w in ("(1,2)", "(3,4)")]
    assert is_cayley_reduction(build_pair_graph(a4, transpositions))


def test_left_translation_commutes():
    rng = random.Random(17)
    for gen in instance_corpus(40, seed=37):
        if gen.group.order > 48:
            continue
        graph = build_pair_graph(gen.subgroup, gen)
        a = graph.adjacency.astype(np.int32)
        for h in gen.subgroup.elements:
            p = left_translation_matrix(gen.group, h).astype(np.int32)
            assert np.array_equal(p @ a, a @ p)
        # a random non-subgroup element usually breaks commutation on non-regular graphs
        outside = gen.subgroup.outside()
        if outside and gen.size and not regularity_check(graph).regular:
            g = outside[rng.randrange(len(outside))]
            p = left_translation_matrix(gen.group, g).astype(np.int32)
            degs = graph.degrees
            if degs[gen.group.mul(g, gen.subgroup.elements[0])] != degs[gen.subgroup.elements[0]]:
                assert not np.array_equal(p @ a, a @ p)


def test_json_export(z12_sub):
    graph = build_pair_graph(z12_sub, [2, 4, 5, 7, 8])
    payload = graph_to_json(graph)
    assert payload["n"] == 12
    assert sorted(payload["coset_of"]) == sorted(z12_sub.coset_of)
    assert len(payload["edges"]) == graph.edge_count()
    assert all(u < v for u, v in payload["edges"])
    json.dumps(payload)  # serializable


def test_dot_export(z12_sub):
    graph = build_pair_graph(z12_sub, [1, 7])
    dot = graph_to_dot(graph)
    assert dot.startswith("graph pairgraph {")
    assert dot.count("shape=box") == 4
    assert dot.count(" -- ") == graph.edge_count()


def test_edges_match_upper_triangle_listing():
    # the CSR listing equals the np.triu scan of the dense matrix,
    # in the same order, so JSON and DOT exports are unchanged
    for gen in instance_corpus(80, seed=113):
        graph = build_pair_graph(gen.subgroup, gen)
        us, vs = np.nonzero(np.triu(graph.adjacency))
        expected = list(zip(us.tolist(), vs.tolist()))
        assert graph.edges() == expected
        assert json.dumps(graph_to_json(graph)["edges"]) == json.dumps([[u, v] for u, v in expected])


def test_build_matches_sort_and_dedupe_reference():
    rng = random.Random(29)
    s6 = make_symmetric(6)
    large = [
        builtin_subgroup(s6, "alternating_in_symmetric"),
        subgroup_generated(make_cyclic(12000), [2]),  # no table: the kernel multiplies
        # the packed keys at the order cap, with the largest vertex ORDER_CAP - 1 in the set
        builtin_subgroup(make_cyclic(ORDER_CAP), "evens"),
        builtin_subgroup(make_symmetric(7), "alternating_in_symmetric"),  # the matrix-product route, blocked
    ]
    gens = instance_corpus(200, seed=29)
    for sub in subgroup_pool() + tuple(large):
        group, outside = sub.parent, list(sub.outside())
        inside = set(rng.sample([x for x in sub.elements if x != group.identity], min(3, sub.order - 1)))
        inside |= {group.inv(x) for x in inside}
        outside = rng.sample(outside, min(len(outside), 340 if sub in large else 4))
        if sub in large:
            outside = sorted({*outside, group.order - 1})
        for s in ([], inside, outside, [*inside, *outside]):
            gens.append(validate_generating_set(sub, s))
    kinds = set()
    for gen in gens:
        graph = build_pair_graph(gen.subgroup, gen)
        indptr, indices, degrees = reference_csr(gen)
        assert graph.indices.dtype == np.int32
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)
        assert np.array_equal(graph.degrees, degrees)
        kinds.add((bool(gen.inside), bool(gen.outside)))
    assert len(kinds) == 4


def test_storage_is_linear_in_edges():
    # Z/20000 > evens with 30 odd generators: 300 000 edges on 20 000 vertices;
    # every stored array is CSR-sized, none is the 4*10^8-entry dense matrix
    group = make_cyclic(20000)
    evens = subgroup_from_elements(group, range(0, 20000, 2))
    s = range(1, 60, 2)
    graph = build_pair_graph(evens, s)
    bound = graph.order + 1 + 2 * evens.order * len(s)
    graph.indices
    arrays = [v for v in vars(graph).values() if isinstance(v, np.ndarray)]
    assert all(a.size <= bound for a in arrays)
    assert len(arrays) == 3
    assert connected_components(graph).count == 1
    assert is_bipartite(graph).bipartite
    assert len(graph.edges()) == evens.order * len(s)


def _stored_arrays(graph):
    return [name for name, value in vars(graph).items() if isinstance(value, np.ndarray)]


def test_edge_list_is_built_on_first_read_only():
    # the spectrum, the certificate, the trivial eigenvalues and connectivity
    # read (G, H, S) alone, so none of them builds the CSR edge list
    s6 = make_symmetric(6)
    a6 = builtin_subgroup(s6, "alternating_in_symmetric")
    outside = list(a6.outside())
    first = sorted(random.Random(0).sample(outside, 20))
    second = sorted(set(outside) - set(first))
    graphs = [build_pair_graph(a6, first), build_pair_graph(a6, second)]
    assert all(_stored_arrays(graph) == [] for graph in graphs)
    report = compare_complementary_spectra(a6, first, second)
    assert report.ok
    for graph, spectrum in zip(graphs, (report.first_spectrum, report.second_spectrum)):
        is_ramanujan(graph, spectrum)
        compute_spectrum(graph)
        is_ramanujan(graph)
        trivial_eigenvalues(graph.gen)
        is_connected(graph.gen)
        assert _stored_arrays(graph) == []
    graph = graphs[0]
    indices = graph.indices
    assert _stored_arrays(graph) == ["indptr", "indices", "degrees"]
    stored = dict(vars(graph))
    assert graph.indices is indices
    assert all(getattr(graph, name) is stored[name] for name in ("indptr", "indices", "degrees"))
    reference = reference_csr(graph.gen)
    assert all(np.array_equal(a, b) for a, b in zip((graph.indptr, graph.indices, graph.degrees), reference))


@pytest.mark.parametrize("first", ["indptr", "indices", "degrees", "adjacency"])
def test_lazy_edge_list_gives_the_same_structure(z12_sub, first):
    # whichever read builds the edge list, the structure layer sees the same graph
    graph = build_pair_graph(z12_sub, [2, 4, 5, 7, 8])
    getattr(graph, first)
    assert _stored_arrays(graph) == ["indptr", "indices", "degrees"]
    components = connected_components(graph)
    assert (components.count, components.component_of.tolist()) == (1, [0] * 12)
    bipartite = is_bipartite(graph)
    assert bipartite.bipartite and bipartite.coloring.tolist() == [0, 1, 1] * 4
    assert regularity_check(graph) == RegularityReport(False, None, False, "criterion agrees: inside=0, index=3")
    eager = reference_csr(graph.gen)
    expected = np.zeros((12, 12), dtype=np.int8)
    expected[np.repeat(np.arange(12), eager[2]), eager[1]] = 1
    assert np.array_equal(graph.adjacency, expected)
