"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criteria 1-4, 6 and 7 are worked examples of the paper:
they run the bundled reference cases of ``pairgraph verify``, which hold
their checks and tolerances.  Criteria 5, 8 and 9 check generated corpora,
which the reference cases cannot hold, and pin their tolerance here.
"""

import random
from contextlib import contextmanager

import numpy as np

from pairgraph.actions import apply_automorphism, right_translate_set
from pairgraph.descriptors import builtin_subgroup
from pairgraph.graphs import adjacency_rows_via_group_matrix, build_pair_graph
from pairgraph.groups import make_cyclic, make_gl2, make_symmetric, subgroup_from_elements
from pairgraph.reference_cases import run_all
from pairgraph.spectral import (
    compare_complementary_spectra,
    compute_spectrum,
    largest_eigenvalue_multiplicity,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from pairgraph.structure import component_count_by_formula, connected_components

from helpers import (
    index_two_pool,
    instance_corpus,
    left_translation_matrix,
    random_generating_set,
    reference_automorphisms,
)

ATOL = 1e-6


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def assert_cases_pass(*case_ids):
    """Run the named reference cases, the one source of their checks; fail on any failing check."""
    for case_id in case_ids:
        _, [(_, checks)] = run_all(case_id)
        failed = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
        assert not failed, f"{case_id}: {failed}"


def test_criterion_1_z12_degrees_and_connectivity():
    with criterion(1, "Z/12 degree profile (5,2,3) and a single component, both routes"):
        assert_cases_pass("z12-degrees")


def test_criterion_2_z12_component_counts():
    with criterion(2, "Z/12 component counts 6 and 2 with formula terms (2,8,4) / (2,8,8)"):
        assert_cases_pass("z12-components")


def test_criterion_3_trivial_eigenvalues():
    with criterion(3, "trivial eigenvalues: 4*sqrt(3), sqrt(17), and (4, -2), present numerically"):
        assert_cases_pass("f49-norm", "gl2f5-random-set", "a4-klein-bipartite")


def test_criterion_4_z20_table():
    with criterion(4, "Z/20 table: 3-regular positive spectrum; 7-regular differs only at the extreme"):
        assert_cases_pass("z20-table")


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
        assert_cases_pass("s4-a4-ramanujan")


def test_criterion_7_gl2f3_bound_soundness():
    with criterion(7, "GL2(F3): 20 seeded 17-sets all certify; a 7-set complement beats the bound"):
        assert_cases_pass("gl2f3-ramanujan")


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

        automorphisms = 0
        while automorphisms < 50:
            sub = pool[rng.randrange(len(pool))]
            group = sub.parent
            auts = reference_automorphisms(group)
            psi = auts[rng.randrange(len(auts))]
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
