"""Components (search vs closed formula), connectivity, translation, bipartiteness."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairgraph import graphs, groups, structure
from pairgraph.actions import SearchConfig, _generator_chain, search_ramanujan
from pairgraph.graphs import build_pair_graph, isolated_vertices
from pairgraph.groups import (
    generated_elements,
    make_alternating,
    make_cyclic,
    make_gl2,
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
    sign_homomorphism_exists,
)

from helpers import (
    analyze_large_pairs,
    analyze_large_set,
    count_products,
    differing_fields,
    generated_instances,
    instance_corpus,
    reference_bipartite,
    reference_components,
    reference_mul,
    reference_reachable,
    subgroup_pool,
)


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
    assert gen1.reachable.tolist() == [0, 6]
    gen2 = validate_generating_set(z12_sub, [4, 5, 6, 10, 11])
    report2 = is_connected(gen2)
    assert not report2.connected
    assert report2.uncovered_cosets == ()  # only the closure clause fails
    assert "order 2" in report2.witness


def test_reachable_subgroup_built_once_per_generating_set(z12_sub, monkeypatch):
    calls = []
    closure = groups.generated_elements
    monkeypatch.setattr(groups, "generated_elements", lambda *args: calls.append(args) or closure(*args))
    gen = validate_generating_set(z12_sub, [1, 7])
    component_count_by_formula(gen)
    is_connected(gen)
    identity_component_by_closure(gen)
    assert len(calls) == 1
    assert gen.reachable is gen.reachable


def test_connectivity_matches_search_on_corpus():
    for gen in instance_corpus(200, seed=43):
        graph = build_pair_graph(gen.subgroup, gen)
        assert is_connected(gen).connected == (connected_components(graph).count == 1)


@pytest.fixture(scope="module")
def z24_evens():
    return subgroup_generated(make_cyclic(24), [2])


def _refuse_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(groups, "generated_elements", refuse)


def test_half_of_h_falls_through_to_the_closure(z24_evens, monkeypatch):
    # Q = R = U = <4> has order 6 = |H|/2: Lagrange cannot decide, so the closure must
    calls = []
    closure = groups.generated_elements
    monkeypatch.setattr(groups, "generated_elements", lambda *args: calls.append(args) or closure(*args))
    gen = validate_generating_set(z24_evens, [1, 5, 9, 13, 17, 21])
    report = is_connected(gen)
    assert len(calls) == 1
    assert gen.reachable.tolist() == [0, 4, 8, 12, 16, 20]
    assert not report.connected and report.closure_order == 6
    assert connected_components(build_pair_graph(z24_evens, gen)).count == 2


def test_more_than_half_of_h_certifies_without_the_closure(z24_evens, monkeypatch):
    _refuse_closure(monkeypatch)
    # Q = {0, 2, 4, 8}, Q' = {0, 2, 4}: R adds 6, 10 and 12, seven elements of the twelve
    gen = validate_generating_set(z24_evens, [1, 3, 5, 9])
    assert gen.reachable is z24_evens.elements
    assert is_connected(gen).connected


@pytest.mark.parametrize(
    "case, s",
    [("trivial H", []), ("trivial H", [1, 5]), ("evens", []), ("evens", [2, 22]), ("evens", [2, 4, 20, 22])],
)
def test_reachable_edge_cases_match_reference(z24_evens, case, s):
    sub = z24_evens if case == "evens" else subgroup_generated(make_cyclic(24), [])
    gen = validate_generating_set(sub, s)
    assert gen.reachable.tolist() == list(reference_reachable(gen))
    assert not gen.reachable.flags.writeable


def test_seeds_over_half_of_h_take_no_products(monkeypatch):
    sub = builtin_subgroup(make_symmetric(6), "alternating_in_symmetric")
    gen = validate_generating_set(sub, sub.outside())
    _refuse_closure(monkeypatch)
    count = count_products(monkeypatch)
    assert gen.reachable is sub.elements
    assert count[0] == 360  # the quotients s*t_c^-1 alone


def _count_closures(monkeypatch) -> list:
    calls = []
    closure = groups.generated_elements
    monkeypatch.setattr(groups, "generated_elements", lambda *args: calls.append(args) or closure(*args))
    return calls


def test_second_round_certifies_analyze_large_cyclic_sets(monkeypatch):
    # Z/12000 > <120> as analyze-large draws it: one round left the closure to all 30 of
    # these sets, and two leave it 16, 4 of them with U < H; the other 14 certify
    rng, sub = random.Random(0), analyze_large_pairs()["cyclic"]
    sets = [analyze_large_set("cyclic", rng) for _ in range(30)]
    calls, closed = _count_closures(monkeypatch), []
    for s in sets:
        gen, before = validate_generating_set(sub, s), len(calls)
        assert gen.reachable.tolist() == list(reference_reachable(gen))
        closed.append(len(calls) > before)
    assert sum(closed) == 16
    _refuse_closure(monkeypatch)
    for s in (s for s, ran in zip(sets, closed) if not ran):
        assert validate_generating_set(sub, s).reachable is sub.elements


def test_second_round_certifies_s6_sets_of_ten(monkeypatch):
    # k = 10 on S6 > A6: one round left the closure to every set
    sub = builtin_subgroup(make_symmetric(6), "alternating_in_symmetric")
    rng = random.Random(7)
    _refuse_closure(monkeypatch)
    for _ in range(50):
        assert validate_generating_set(sub, rng.sample(sub.outside(), 10)).reachable is sub.elements


def test_s6_search_sets_take_one_round_of_products(monkeypatch):
    # k = 20 on S6 > A6, the search workload's sets: the quotients and one R*R' call certify
    sub = builtin_subgroup(make_symmetric(6), "alternating_in_symmetric")
    rng, shapes = random.Random(11), []
    product = groups.FiniteGroup.product
    monkeypatch.setattr(
        groups.FiniteGroup, "product", lambda self, a, b: shapes.append(np.broadcast(a, b).shape) or product(self, a, b)
    )
    _refuse_closure(monkeypatch)
    for _ in range(20):
        gen = validate_generating_set(sub, rng.sample(sub.outside(), 20))
        shapes.clear()
        assert gen.reachable is sub.elements
        assert len(shapes) == 2 and shapes[0] == (20,), shapes


def test_s6_search_trials_certify_without_the_closure(monkeypatch):
    _refuse_closure(monkeypatch)
    sub = builtin_subgroup(make_symmetric(6), "alternating_in_symmetric")
    results = search_ramanujan(SearchConfig(subgroup=sub, size=20, trials=5, seed=0))
    assert sum(r.connected and r.worst_nontrivial is not None for r in results) == 5


def _certified_after(gen):
    """The rounds after which the Lagrange rule certifies U = H for this set alone, or None if it leaves the closure to run."""
    group, order, coset_of = gen.group, gen.subgroup.order, gen.subgroup.coset_of.tolist()

    def mul(a, b):
        return int(group.product(a, b))

    least: dict[int, int] = {}
    for s in gen.outside:
        least.setdefault(coset_of[s], s)
    reached = {group.identity, *gen.inside, *(mul(s, group.inv(least[coset_of[s]])) for s in gen.outside)}
    for rounds in range(3):
        if 2 * len(reached) > order:
            return rounds
        if rounds == 2 or len(reached) == 1:
            return None
        members = sorted(reached)
        reached |= {mul(a, b) for a in members for b in members[: -(-order // len(members))]}


def _seed_closure(gen) -> list[int]:
    """The closure of the inside part and of every quotient s*t^-1 of outside elements in one coset."""
    coset_of = gen.subgroup.coset_of
    quotients = [int(gen.group.product(s, gen.group.inv(t))) for s in gen.outside for t in gen.outside if coset_of[s] == coset_of[t]]
    return generated_elements(gen.group, [*gen.inside, *quotients]).tolist()


def _check_block(block, calls):
    reached = groups.reachable_subgroups(block)
    # the closure runs once for each set that the rule alone leaves uncertified, on its inside part and quotients
    uncertified = [gen for gen in block if _certified_after(gen) is None]
    assert [(group, len(seeds)) for group, seeds in calls] == [(gen.group, gen.size) for gen in uncertified]
    for gen, u in zip(block, reached):
        assert gen.reachable is u and not u.flags.writeable
        if _certified_after(gen) is not None:
            assert u is gen.subgroup.elements
        assert u.tolist() == _seed_closure(gen)


def test_block_certificate_mixes_rounds_and_proper_subgroups(z24_evens, monkeypatch):
    # |H| = 12: seven distinct quotients certify at once, {0, 2, 4, 8} after one round and
    # {0, 2, 6} after two; <4> and <12> are proper, and {0, 2} generates H but reaches
    # only 5 elements in two rounds, so the closure runs for the last three sets alone
    sets = {(1, 3, 5, 7, 9, 11, 13): 0, (1, 3, 5, 9): 1, (1, 3, 7): 2, (1, 5, 9, 13, 17, 21): None, (1, 13): None, (1, 3): None}
    block = [validate_generating_set(z24_evens, s) for s in sets]
    assert [_certified_after(gen) for gen in block] == list(sets.values())
    calls = _count_closures(monkeypatch)
    _check_block(block, calls)
    assert [gen.reachable.size for gen in block] == [12, 12, 12, 6, 2, 12]


def test_block_seeds_take_one_product_call(monkeypatch):
    # 17 outside elements of GL2(3) > SL2(3) give 17 distinct quotients, over |H|/2 = 12: a block of
    # 20 such sets certifies by its seeds alone, which one product call gives, and runs no round
    sub = builtin_subgroup(make_gl2(3), "sl2_in_gl2")
    rng = random.Random(0)
    block = [validate_generating_set(sub, rng.sample(sub.outside(), 17)) for _ in range(20)]
    assert all(_certified_after(gen) == 0 for gen in block)
    shapes = []
    product = groups.FiniteGroup.product
    monkeypatch.setattr(
        groups.FiniteGroup, "product", lambda self, a, b: shapes.append(np.broadcast(a, b).shape) or product(self, a, b)
    )
    _refuse_closure(monkeypatch)
    assert all(u is sub.elements for u in groups.reachable_subgroups(block))
    assert shapes == [(20 * 17,)]


@st.composite
def _generated_blocks(draw):
    """A generated instance and up to five more sets on its subgroup."""
    first = draw(generated_instances())
    sub, group = first.subgroup, first.group
    element = st.integers(0, group.order - 1).filter(lambda x: x != group.identity)
    more = draw(st.lists(st.sets(element, max_size=12), max_size=5))
    return [first, *(validate_generating_set(sub, s | {group.inv(x) for x in s if sub.contains(x)}) for s in more)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_generated_blocks())
def test_block_certificate_matches_the_closure_on_generated_blocks(block):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_closures(monkeypatch)
        _check_block(block, calls)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(generated_instances())
def test_generated_connectivity_matches_the_graph(gen):
    assert gen.reachable.tolist() == list(reference_reachable(gen))
    graph = build_pair_graph(gen.subgroup, gen)
    assert is_connected(gen).connected == (connected_components(graph).count == 1)


def _identity_component(graph) -> np.ndarray:
    component_of = connected_components(graph).component_of
    return np.flatnonzero(component_of == component_of[graph.group.identity])


def test_identity_component(z12_sub):
    gen = validate_generating_set(z12_sub, [1, 7])
    assert identity_component_by_closure(gen).tolist() == [0, 1, 6, 7]
    empty = validate_generating_set(z12_sub, [])
    assert identity_component_by_closure(empty).tolist() == [0]
    connected = validate_generating_set(z12_sub, [2, 4, 5, 7, 8])
    assert identity_component_by_closure(connected).tolist() == list(range(12))


def test_identity_component_matches_search_on_corpus():
    for gen in instance_corpus(150, seed=47):
        if gen.size == 0:
            continue
        graph = build_pair_graph(gen.subgroup, gen)
        assert np.array_equal(identity_component_by_closure(gen), _identity_component(graph))


def test_vertex_sets_are_read_only_int_arrays(z12_sub):
    gen = validate_generating_set(z12_sub, [1, 7])
    graph = build_pair_graph(z12_sub, gen)
    for vertices in (
        connected_components(graph).component_of,
        is_bipartite(graph).coloring,
        isolated_vertices(graph),
        identity_component_by_closure(gen),
        graph.indptr,
        graph.indices,
        graph.degrees,
        graph.cover_labels,
    ):
        assert isinstance(vertices, np.ndarray) and vertices.dtype.kind == "i"
        assert not vertices.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vertices[0] = 1


def test_least_labels_match_breadth_first_reference(monkeypatch):
    z4000 = subgroup_generated(make_cyclic(4000), [1])
    trivial = subgroup_generated(make_cyclic(1), [])
    cases = [(gen.subgroup, gen) for gen in instance_corpus(400, seed=83)]
    cases += [(trivial, [])] + [(sub, []) for sub in subgroup_pool()]
    cases += [(z4000, [1, 3999]), (z4000, [679, 3321])]
    # mostly isolated vertices, as in the analyze-large benchmark: 9400 of Z/12000's
    # 12000 lie outside every edge, 4680 of S7's 5040, and all 20000 of the edgeless Z/20000
    rng, large = random.Random(89), analyze_large_pairs()
    cases += [(large[kind], analyze_large_set(kind, rng)) for kind in ("cyclic", "cyclic", "s7", "s7", "product")]
    cases += [(subgroup_generated(make_cyclic(20000), [2]), [])]
    # components and the coloring share one labelling of the double cover, whichever asks first
    labellings, least_labels = [], graphs._least_labels
    monkeypatch.setattr(graphs, "_least_labels", lambda *csr: labellings.append(csr) or least_labels(*csr))
    verdicts = set()
    for sub, s in cases:
        for bipartite_first in (False, True):
            graph = build_pair_graph(sub, s)
            if bipartite_first:
                report, comp = is_bipartite(graph), connected_components(graph)
            else:
                comp, report = connected_components(graph), is_bipartite(graph)
            expected, sizes, identity_component = reference_components(graph)
            assert differing_fields(comp, expected) == []
            assert np.bincount(comp.component_of).tolist() == sizes
            assert _identity_component(graph).tolist() == identity_component
            assert differing_fields(report, reference_bipartite(graph)) == []
            verdicts.add(report.bipartite)
            assert len(labellings) == 1 and labellings.pop()[0] is graph.indptr
    assert verdicts == {True, False}


def _components(decomp) -> set[tuple[int, ...]]:
    components = {}
    for v, cid in enumerate(decomp.component_of.tolist()):
        components.setdefault(cid, []).append(v)
    return {tuple(vs) for vs in components.values()}


def test_translate_component(z12_sub):
    graph = build_pair_graph(z12_sub, [1, 7])
    component_of = connected_components(graph).component_of
    identity = _identity_component(graph)
    for h, image in ((3, [3, 4, 9, 10]), (0, [0, 1, 6, 7])):
        assert np.sort(z12_sub.parent.product(h, identity)).tolist() == image
        assert np.flatnonzero(component_of == component_of[h]).tolist() == image


def test_translation_permutes_components():
    for gen in instance_corpus(60, seed=53):
        graph = build_pair_graph(gen.subgroup, gen)
        component_sets = _components(connected_components(graph))
        for h in gen.subgroup.elements:
            images = {tuple(np.sort(gen.group.product(h, comp)).tolist()) for comp in component_sets}
            assert images == component_sets


def test_component_cardinalities():
    # every component is a singleton or has the identity component's profile
    for gen in instance_corpus(80, seed=59):
        graph = build_pair_graph(gen.subgroup, gen)
        idc = set(_identity_component(graph).tolist())
        h_part = len(idc & set(gen.subgroup.elements.tolist()))
        for vs in _components(connected_components(graph)):
            if len(vs) == 1 and not gen.subgroup.contains(vs[0]):
                continue
            assert len(vs) == len(idc)
            assert len(set(vs) & set(gen.subgroup.elements.tolist())) == h_part


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


def test_sign_homomorphism_takes_linear_products(monkeypatch):
    """W is seeded by the |G| squares and the |S| products s*t0, not by all |S|^2 products s*t."""
    group, s = make_cyclic(2000), range(1, 1000, 2)
    count = count_products(monkeypatch)
    seeding = []
    closure = structure.generated_elements

    def recording(group, gens):
        seeding.append(count[0])
        return closure(group, gens)

    monkeypatch.setattr(structure, "generated_elements", recording)
    assert sign_homomorphism_exists(group, s)
    assert seeding == [group.order + len(s)]
    assert count[0] < len(s) ** 2 / 4, count[0]


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


def _brute_force_signs(group):
    """Every homomorphism to {1, -1}: each sign choice on the generators, kept when multiplicative on all pairs."""
    mul = reference_mul(group)
    gens = _generator_chain(group)
    kept = []
    for choice in range(1 << len(gens)):
        sign = {group.identity: 1}
        frontier = [group.identity]
        while frontier:
            reached = []
            for u in frontier:
                for bit, g in enumerate(gens):
                    v = mul(u, g)
                    if v not in sign:
                        sign[v] = sign[u] * (-1 if choice >> bit & 1 else 1)
                        reached.append(v)
            frontier = reached
        m = group.order
        if all(sign[mul(a, b)] == sign[a] * sign[b] for a in range(m) for b in range(m)):
            kept.append(sign)
    return kept


def test_sign_homomorphism_matches_brute_force():
    rng = random.Random(97)
    groups_seen = {}
    checked = found = 0
    for sub in subgroup_pool():
        group = sub.parent
        if group not in groups_seen:
            groups_seen[group] = _brute_force_signs(group)
        signs = groups_seen[group]
        for _ in range(12):
            s = rng.sample(range(group.order), min(rng.randint(0, 6), group.order))
            if s and rng.random() < 0.2:
                s[0] = group.identity
            expected = any(-1 in sign.values() and all(sign[x] == -1 for x in s) for sign in signs)
            assert sign_homomorphism_exists(group, s) == expected, (group, s)
            checked += 1
            found += expected
    assert checked >= 200 and 20 <= found <= checked - 20
