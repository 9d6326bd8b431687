"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import math
import random
from contextlib import contextmanager

import numpy as np

from pairgraph.actions import (
    SearchConfig,
    apply_automorphism,
    automorphism_group,
    random_candidate,
    right_translate_set,
    search_ramanujan,
)
from pairgraph.descriptors import builtin_subgroup
from pairgraph.graphs import (
    adjacency_rows_via_group_matrix,
    build_pair_graph,
    degree_profile,
)
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
    compare_complementary_spectra,
    compute_spectrum,
    is_ramanujan,
    largest_eigenvalue_multiplicity,
    ramanujan_size_bound,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from pairgraph.structure import (
    component_count_by_formula,
    connected_components,
    is_connected,
)

from helpers import index_two_pool, instance_corpus, left_translation_matrix, random_generating_set

ATOL = 1e-6


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_z12_degrees_and_connectivity():
    with criterion(1, "Z/12 degree profile (5,2,3) and a single component, both routes"):
        sub = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
        graph = build_pair_graph(sub, [2, 4, 5, 7, 8])
        assert degree_profile(graph) == [(0, 5, 4), (1, 2, 4), (2, 3, 4)]
        assert connected_components(graph).count == 1
        assert component_count_by_formula(graph.gen).total == 1


def test_criterion_2_z12_component_counts():
    with criterion(2, "Z/12 component counts 6 and 2 with formula terms (2,8,4) / (2,8,8)"):
        sub = subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9])
        gen1 = validate_generating_set(sub, [1, 7])
        gen2 = validate_generating_set(sub, [4, 5, 6, 10, 11])
        f1 = component_count_by_formula(gen1)
        f2 = component_count_by_formula(gen2)
        assert (f1.subgroup_index_term, f1.outside_term, f1.covered_term, f1.total) == (2, 8, 4, 6)
        assert (f2.subgroup_index_term, f2.outside_term, f2.covered_term, f2.total) == (2, 8, 8, 2)
        assert connected_components(build_pair_graph(sub, gen1)).count == 6
        assert connected_components(build_pair_graph(sub, gen2)).count == 2


def test_criterion_3_trivial_eigenvalues():
    with criterion(3, "trivial eigenvalues: 4*sqrt(3), sqrt(17), and (4, -2), present numerically"):
        f49 = make_field_additive(7, 2)
        f7 = subgroup_from_elements(f49, range(7))
        gen = validate_generating_set(f7, field_norm_preimage(f49, [5, 6]))
        te = trivial_eigenvalues(gen)
        target = 4.0 * math.sqrt(3.0)
        assert abs(te.upper - target) < 1e-12 and abs(te.lower + target) < 1e-12
        spec = compute_spectrum(build_pair_graph(f7, gen))
        assert spec.contains(target, ATOL) and spec.contains(-target, ATOL)

        gl5 = make_gl2(5)
        sl5 = builtin_subgroup(gl5, "sl2_in_gl2")
        candidate = random_candidate(sl5.outside(), 7, 5, 0)  # frozen seed: pattern (2,2,3)
        gen5 = validate_generating_set(sl5, candidate)
        assert sorted(gen5.coset_counts[1:]) == [2, 2, 3]
        te5 = trivial_eigenvalues(gen5)
        target5 = math.sqrt(17.0)
        assert abs(te5.upper - target5) < 1e-12 and abs(te5.lower + target5) < 1e-12
        spec5 = compute_spectrum(build_pair_graph(sl5, gen5))
        assert spec5.contains(target5, ATOL) and spec5.contains(-target5, ATOL)

        a4 = make_alternating(4)
        klein = builtin_subgroup(a4, "klein_in_a4")
        words = ("(1,2)(3,4)", "(1,4)(2,3)", "(1,2,3)", "(1,4,3)", "(2,3,4)", "(2,4,3)")
        gen_a4 = validate_generating_set(klein, [perm_index(a4, w) for w in words])
        te_a4 = trivial_eigenvalues(gen_a4)
        assert te_a4.upper == 4.0 and te_a4.lower == -2.0
        spec_a4 = compute_spectrum(build_pair_graph(klein, gen_a4))
        assert spec_a4.contains(4.0, ATOL) and spec_a4.contains(-2.0, ATOL)


def test_criterion_4_z20_table():
    with criterion(4, "Z/20 table: 3-regular positive spectrum; 7-regular differs only at the extreme"):
        sub = subgroup_from_elements(make_cyclic(20), range(0, 20, 2))
        r5 = math.sqrt(5.0)
        positive = sorted(
            [3, (3 + r5) / 2, (3 + r5) / 2, (1 + r5) / 2, (1 + r5) / 2, 1,
             (r5 - 1) / 2, (r5 - 1) / 2, (3 - r5) / 2, (3 - r5) / 2],
            reverse=True,
        )
        spec1 = compute_spectrum(build_pair_graph(sub, [3, 5, 7]))
        assert np.allclose(spec1.eigenvalues[:10], positive, atol=ATOL)
        assert np.allclose(spec1.eigenvalues[10:], [-v for v in reversed(positive)], atol=ATOL)
        spec2 = compute_spectrum(build_pair_graph(sub, [1, 3, 5, 13, 15, 17, 19]))
        assert np.allclose(spec2.eigenvalues[:10], [7.0] + positive[1:], atol=ATOL)
        assert np.allclose(spec2.eigenvalues[1:-1], spec1.eigenvalues[1:-1], atol=ATOL)


def test_criterion_5_complementary_interior_spectra():
    with criterion(5, ">=100 seeded complementary index-2 pairs share interior spectra (1e-6)"):
        plan = []
        for m in range(2, 12):
            plan += [("cyclic", 2 * m)] * 6
        plan += [("s4", None)] * 20
        plan += [("gl2f3", None)] * 20
        assert len(plan) >= 100
        subs = {
            "s4": builtin_subgroup(make_symmetric(4), "alternating_in_symmetric"),
            "gl2f3": builtin_subgroup(make_gl2(3), "sl2_in_gl2"),
        }
        cyclics = {2 * m: subgroup_from_elements(make_cyclic(2 * m), range(0, 2 * m, 2)) for m in range(2, 12)}
        rng = random.Random(20260808)
        checked = 0
        for family, n in plan:
            sub = cyclics[n] if family == "cyclic" else subs[family]
            outside = list(sub.outside())
            k = rng.randint(1, len(outside) - 1)
            first = set(rng.sample(outside, k))
            second = set(outside) - first
            report = compare_complementary_spectra(sub, first, second, atol=ATOL)
            assert report.ok, f"{family} k={k} gap={report.max_interior_gap}"
            checked += 1
        assert checked >= 100


def test_criterion_6_s4_ramanujan_example():
    with criterion(6, "S4/A4 spectrum clusters {(+-8,1),(+-4,2),(0,18)}, Ramanujan; companion has 3 components"):
        s4 = make_symmetric(4)
        sub = builtin_subgroup(s4, "alternating_in_symmetric")
        words = ("(1,2)", "(1,3)", "(2,4)", "(3,4)", "(1,2,3,4)", "(1,3,2,4)", "(1,4,2,3)", "(1,4,3,2)")
        graph = build_pair_graph(sub, [perm_index(s4, w) for w in words])
        spec = compute_spectrum(graph)
        expected = [(8.0, 1), (4.0, 2), (0.0, 18), (-4.0, 2), (-8.0, 1)]
        assert len(spec.clusters) == len(expected)
        for (value, count), (evalue, ecount) in zip(spec.clusters, expected):
            assert abs(value - evalue) < ATOL and count == ecount
        assert is_ramanujan(graph, spec).ramanujan
        small_words = ("(1,2)", "(3,4)", "(1,3,2,4)", "(1,4,2,3)")
        small = build_pair_graph(sub, [perm_index(s4, w) for w in small_words])
        assert connected_components(small).count == 3


def test_criterion_7_gl2f3_bound_soundness():
    with criterion(7, "GL2(F3): 20 seeded 17-sets all certify; a 7-set complement beats the bound"):
        sub = builtin_subgroup(make_gl2(3), "sl2_in_gl2")
        results = search_ramanujan(
            SearchConfig(subgroup=sub, size=17, mode="random", trials=20, seed=0)
        )
        connected = [r for r in results if r.connected]
        assert connected, "no connected 17-set found"
        assert all(r.ramanujan for r in connected)
        assert all(r.bound_satisfied for r in results)
        outside = set(sub.outside())
        witness = None
        for r in results:
            complement = sorted(outside - set(r.candidate))
            gen_c = validate_generating_set(sub, complement)
            if not is_connected(gen_c).connected:
                continue
            report = is_ramanujan(build_pair_graph(sub, gen_c))
            if report.ramanujan and not ramanujan_size_bound(gen_c).satisfied:
                witness = r.trial
                break
        assert witness is not None


def test_criterion_8_oracle_equivalences():
    with criterion(8, "500 instances: matrix oracle bit-exact, formula=search, top and zero multiplicities"):
        corpus = instance_corpus(500, seed=20260808)
        assert len(corpus) == 500
        top_checked = 0
        for gen in corpus:
            sub = gen.subgroup
            graph = build_pair_graph(sub, gen)
            rows = adjacency_rows_via_group_matrix(sub, gen)
            assert np.array_equal(rows, graph.adjacency[list(sub.elements), :])
            assert component_count_by_formula(gen).total == connected_components(graph).count
            spec = compute_spectrum(graph)
            assert spec.multiplicity_near(0.0) >= zero_multiplicity_lower_bound(gen)
            if gen.outside:
                te = trivial_eigenvalues(gen)
                assert abs(spec.eigenvalues[0] - te.upper) < ATOL
                assert spec.clusters[0][1] == largest_eigenvalue_multiplicity(gen)
                top_checked += 1
        assert top_checked >= 300


def test_criterion_9_invariance_suite():
    with criterion(9, "50+50 transformed sets keep spectra (1e-6); left translations commute bit-exactly"):
        rng = random.Random(424242)
        pool = index_two_pool()

        translations = 0
        while translations < 50:
            sub = pool[rng.randrange(len(pool))]
            gen = random_generating_set(rng, sub, outside_only=True, min_size=1)
            h = sub.elements[rng.randrange(sub.order)]
            moved = right_translate_set(sub, gen.elements, h)
            spec1 = compute_spectrum(build_pair_graph(sub, gen))
            spec2 = compute_spectrum(build_pair_graph(sub, moved))
            assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=ATOL)
            translations += 1

        aut_cache = {}
        automorphisms = 0
        while automorphisms < 50:
            sub = pool[rng.randrange(len(pool))]
            group = sub.parent
            if group not in aut_cache:
                aut_cache[group] = automorphism_group(group)
            psi = aut_cache[group][rng.randrange(len(aut_cache[group]))]
            members = set(sub.elements)
            assert all(psi[h] in members for h in sub.elements)  # index 2: preserved
            gen = random_generating_set(rng, sub, outside_only=True, min_size=1)
            image = apply_automorphism(group, psi, gen.elements)
            spec1 = compute_spectrum(build_pair_graph(sub, gen))
            spec2 = compute_spectrum(build_pair_graph(sub, image))
            assert np.allclose(spec1.eigenvalues, spec2.eigenvalues, atol=ATOL)
            automorphisms += 1

        commuted = 0
        for gen in instance_corpus(40, seed=515151):
            if gen.group.order > 48:
                continue
            graph = build_pair_graph(gen.subgroup, gen)
            a = graph.adjacency.astype(np.int32)
            for h in gen.subgroup.elements:
                p = left_translation_matrix(gen.group, h).astype(np.int32)
                assert np.array_equal(p @ a, a @ p)
            commuted += 1
        assert commuted >= 30
