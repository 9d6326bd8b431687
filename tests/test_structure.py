"""Components (search vs closed formula), connectivity, translation, bipartiteness."""

import pytest

from pairgraph.errors import ValidationError
from pairgraph.graphs import build_pair_graph
from pairgraph.groups import (
    make_alternating,
    make_cyclic,
    make_symmetric,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.descriptors import builtin_subgroup
from pairgraph.structure import (
    component_count_by_formula,
    connected_components,
    identity_component_by_closure,
    is_bipartite,
    is_connected,
    reachable_subgroup,
    sign_homomorphism_exists,
    translate_component,
)

from helpers import instance_corpus, reference_bipartite, reference_components, subgroup_pool


@pytest.fixture(scope="module")
def z12_sub():
    return subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])


def test_component_counts_examples(z12_sub):
    for s, expected, terms in [
        ([2, 4, 5, 7, 8], 1, (1, 8, 8)),
        ([1, 7], 6, (2, 8, 4)),
        ([4, 5, 6, 10, 11], 2, (2, 8, 8)),
    ]:
        gen = validate_generating_set(z12_sub, s)
        graph = build_pair_graph(z12_sub, gen)
        formula = component_count_by_formula(gen)
        assert connected_components(graph).count == expected
        assert (formula.subgroup_index_term, formula.outside_term, formula.covered_term) == terms
        assert formula.total == expected


def test_empty_set_formula(z12_sub):
    gen = validate_generating_set(z12_sub, [])
    assert component_count_by_formula(gen).total == 12
    graph = build_pair_graph(z12_sub, gen)
    assert connected_components(graph).count == 12


def test_formula_matches_search_on_corpus():
    for gen in instance_corpus(200, seed=41):
        graph = build_pair_graph(gen.subgroup, gen)
        assert component_count_by_formula(gen).total == connected_components(graph).count


def test_connectivity_criterion(z12_sub):
    gen = validate_generating_set(z12_sub, [2, 4, 5, 7, 8])
    report = is_connected(gen)
    assert report.connected and report.witness is None
    gen1 = validate_generating_set(z12_sub, [1, 7])
    report1 = is_connected(gen1)
    assert not report1.connected
    assert not report1.closure_generates and report1.closure_order == 2
    assert report1.uncovered_cosets == (2,)
    assert reachable_subgroup(gen1).elements == (0, 6)
    gen2 = validate_generating_set(z12_sub, [4, 5, 6, 10, 11])
    report2 = is_connected(gen2)
    assert not report2.connected
    assert report2.uncovered_cosets == ()  # only the closure clause fails
    assert "order 2" in report2.witness


def test_connectivity_matches_search_on_corpus():
    for gen in instance_corpus(200, seed=43):
        graph = build_pair_graph(gen.subgroup, gen)
        assert is_connected(gen).connected == (connected_components(graph).count == 1)


def test_identity_component(z12_sub):
    gen = validate_generating_set(z12_sub, [1, 7])
    assert identity_component_by_closure(gen) == (0, 1, 6, 7)
    empty = validate_generating_set(z12_sub, [])
    assert identity_component_by_closure(empty) == (0,)
    connected = validate_generating_set(z12_sub, [2, 4, 5, 7, 8])
    assert identity_component_by_closure(connected) == tuple(range(12))


def test_identity_component_matches_search_on_corpus():
    for gen in instance_corpus(150, seed=47):
        if gen.size == 0:
            continue
        graph = build_pair_graph(gen.subgroup, gen)
        assert identity_component_by_closure(gen) == connected_components(graph).identity_component


def test_least_labels_match_breadth_first_reference():
    z4000 = subgroup_generated(make_cyclic(4000), [1])
    trivial = subgroup_generated(make_cyclic(1), [])
    cases = [(gen.subgroup, gen) for gen in instance_corpus(400, seed=83)]
    cases += [(trivial, [])] + [(sub, []) for sub in subgroup_pool()]
    cases += [(z4000, [1, 3999]), (z4000, [679, 3321])]
    verdicts = set()
    for sub, s in cases:
        graph = build_pair_graph(sub, s)
        assert connected_components(graph) == reference_components(graph)
        assert is_bipartite(graph) == reference_bipartite(graph)
        verdicts.add(is_bipartite(graph).bipartite)
    assert verdicts == {True, False}


def test_translate_component(z12_sub):
    gen = validate_generating_set(z12_sub, [1, 7])
    graph = build_pair_graph(z12_sub, gen)
    assert translate_component(graph, 3, (0, 1, 6, 7)) == (3, 4, 9, 10)
    assert translate_component(graph, 0, (0, 1, 6, 7)) == (0, 1, 6, 7)
    with pytest.raises(ValidationError):
        translate_component(graph, 1, (0, 1, 6, 7))


def test_translation_permutes_components():
    for gen in instance_corpus(60, seed=53):
        graph = build_pair_graph(gen.subgroup, gen)
        decomp = connected_components(graph)
        components = {}
        for v, cid in enumerate(decomp.component_of):
            components.setdefault(cid, []).append(v)
        component_sets = {tuple(sorted(vs)) for vs in components.values()}
        for h in gen.subgroup.elements:
            images = {translate_component(graph, h, comp) for comp in component_sets}
            assert images == component_sets


def test_component_cardinalities():
    # every component is a singleton or has the identity component's profile
    for gen in instance_corpus(80, seed=59):
        graph = build_pair_graph(gen.subgroup, gen)
        decomp = connected_components(graph)
        components = {}
        for v, cid in enumerate(decomp.component_of):
            components.setdefault(cid, []).append(v)
        e_size = len(decomp.identity_component)
        idc = set(decomp.identity_component)
        h_part = len(idc & set(gen.subgroup.elements))
        for vs in components.values():
            if len(vs) == 1 and not gen.subgroup.contains(vs[0]):
                continue
            assert len(vs) == e_size
            assert len(set(vs) & set(gen.subgroup.elements)) == h_part


def test_bipartite_examples(z12_sub):
    # any set outside the subgroup gives a bipartite graph
    graph = build_pair_graph(z12_sub, [2, 4, 5, 7, 8])
    report = is_bipartite(graph)
    assert report.bipartite
    for u, v in graph.edges():
        assert report.coloring[u] != report.coloring[v]
    # odd Cayley cycle is not bipartite
    z3 = make_cyclic(3)
    triangle = build_pair_graph(subgroup_from_elements(z3, range(3)), [1, 2])
    assert not is_bipartite(triangle).bipartite


def test_outside_sets_are_bipartite_on_corpus():
    for gen in instance_corpus(100, seed=61, outside_only=True):
        graph = build_pair_graph(gen.subgroup, gen)
        assert is_bipartite(graph).bipartite


def test_a4_klein_example():
    a4 = make_alternating(4)
    klein = builtin_subgroup(a4, "klein_in_a4")
    words = ("(1,2)(3,4)", "(1,4)(2,3)", "(1,2,3)", "(1,4,3)", "(2,3,4)", "(2,4,3)")
    gen_set = [perm_index(a4, w) for w in words]
    graph = build_pair_graph(klein, gen_set)
    assert is_bipartite(graph).bipartite
    # bipartite, yet no sign homomorphism: the sufficient condition is not necessary
    assert not sign_homomorphism_exists(a4, gen_set)


def test_sign_homomorphism_cases():
    z20 = make_cyclic(20)
    assert sign_homomorphism_exists(z20, [3, 5, 7])  # parity
    assert not sign_homomorphism_exists(z20, [2, 3])  # 2 lies in every index-2 subgroup
    a4 = make_alternating(4)
    assert not sign_homomorphism_exists(a4, [1])  # no index-2 subgroup at all
    s4 = make_symmetric(4)
    assert sign_homomorphism_exists(s4, [perm_index(s4, "(1,2)"), perm_index(s4, "(1,2,3,4)")])
    assert not sign_homomorphism_exists(s4, [perm_index(s4, "(1,2,3)")])


def test_sign_homomorphism_implies_bipartite():
    hits = 0
    for gen in instance_corpus(150, seed=71):
        if gen.size == 0:
            continue
        if sign_homomorphism_exists(gen.group, gen.elements):
            graph = build_pair_graph(gen.subgroup, gen)
            assert is_bipartite(graph).bipartite
            hits += 1
    assert hits > 10  # the implication was actually exercised
