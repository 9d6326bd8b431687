"""Refusals and argument forms of the public functions: each raises its documented error and message."""

import re

import numpy as np
import pytest

from pairgraph import actions, spectral
from pairgraph.actions import (
    SearchConfig,
    apply_automorphism,
    generating_set_orbit,
    random_candidate,
    right_translate_set,
    search_ramanujan,
)
from pairgraph.cli import main
from pairgraph.descriptors import set_from_descriptor, subgroup_from_descriptor
from pairgraph.errors import IndexNotTwo, NotAnAutomorphism, NotASubgroup, SizeCapExceeded, ValidationError
from pairgraph.graphs import build_pair_graph, is_cayley_reduction
from pairgraph.groups import (
    generated_elements,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_from_cycles,
    perm_index,
    reachable_subgroups,
    subgroup_from_elements,
    validate_generating_set,
)
from pairgraph.spectral import compare_complementary_spectra, ramanujan_size_bound


@pytest.fixture
def z12_evens():
    return subgroup_from_elements(make_cyclic(12), range(0, 12, 2))


def test_orbit_refusals(z12_evens, monkeypatch):
    with pytest.raises(ValidationError, match="^orbit needs a set outside the subgroup$"):
        generating_set_orbit(z12_evens, [2, 10, 1])
    swap = list(range(12))
    swap[1], swap[2] = 2, 1
    with pytest.raises(NotAnAutomorphism):
        generating_set_orbit(z12_evens, [1, 3], [list(range(12)), swap])
    monkeypatch.setattr(actions, "ORBIT_SIZE_CAP", 2)
    with pytest.raises(SizeCapExceeded, match="^orbit exceeded the size cap$"):
        generating_set_orbit(z12_evens, [1, 3])


def test_orbit_under_the_identity_alone_is_the_translation_orbit(z12_evens):
    s = [1, 3]
    translates = {tuple(sorted((x + h) % 12 for x in s)) for h in z12_evens.elements.tolist()}
    assert generating_set_orbit(z12_evens, s, [list(range(12))]) == sorted(translates)


def test_search_needs_a_trial(z12_evens):
    with pytest.raises(ValidationError, match="^random mode needs at least one trial$"):
        SearchConfig(subgroup=z12_evens, size=2, trials=0)


def test_certified_search_above_the_vertex_cap_refuses_before_any_solve(monkeypatch, capsys):
    """S7 > A7 has 5040 vertices: the block's solve refuses before either route allocates a stacked array."""

    def refuse(gens):
        raise AssertionError("a spectral route ran above the vertex cap")

    monkeypatch.setattr(spectral, "_young_values", refuse)
    monkeypatch.setattr(spectral, "_character_values", refuse)
    sub = subgroup_from_descriptor(make_symmetric(7), "alternating_in_symmetric")
    for trials in (1, actions.SEARCH_BLOCK + 1):
        with pytest.raises(SizeCapExceeded, match="^graph order 5040 exceeds the dense solver cap 3000$"):
            actions.search_ramanujan(SearchConfig(subgroup=sub, size=30, trials=trials, seed=1))
    argv = ["search", "--group", "symmetric:7", "--subgroup", "alternating_in_symmetric", "--k", "30", "--trials", "3"]
    assert main([*argv, "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: graph order 5040 exceeds the dense solver cap 3000\n"
    assert len(actions.search_ramanujan(SearchConfig(subgroup=sub, size=30, trials=3, seed=1, certify=False))) == 3


def test_permutation_refusals():
    with pytest.raises(ValidationError, match="^cannot parse cycles '1,2'$"):
        perm_from_cycles(4, "1,2")
    with pytest.raises(ValidationError, match="^Z/4 is not a permutation group$"):
        perm_index(make_cyclic(4), "(1,2)")
    s4 = make_symmetric(4)
    assert s4.images[perm_index(s4, (1, 0, 3, 2))].tolist() == [1, 0, 3, 2]
    assert perm_index(s4, (1, 0, 3, 2)) == perm_index(s4, "(1,2)(3,4)")
    with pytest.raises(ValidationError, match=r"^permutation '\(1,2\)' not in A4$"):
        perm_index(make_alternating(4), "(1,2)")
    for group in (make_alternating(4), make_cyclic(4)):
        with pytest.raises(ValidationError, match=f"^chain_index needs a symmetric group, not {group.name}$"):
            group.chain_index


@pytest.mark.parametrize(
    "spec, message",
    [
        ([1, (2, 3)], "cycle 1 in [1, (2, 3)] is not a list or tuple"),
        ([[1, 2], 3], "cycle 3 in [[1, 2], 3] is not a list or tuple"),
        ([(1, "a")], "permutation entry 'a' in [(1, 'a')] is not an integer"),
        ([(1.5, 2)], "permutation entry 1.5 in [(1.5, 2)] is not an integer"),
        ([(True, 2)], "permutation entry True in [(True, 2)] is not an integer"),
        (("1", 0, 3, 2), "permutation entry '1' in ('1', 0, 3, 2) is not an integer"),
        ((1.0, 0, 3, 2), "permutation entry 1.0 in (1.0, 0, 3, 2) is not an integer"),
        ((1, 0, 3), "permutation (1, 0, 3) not in S4"),
        ((1, 0, 3, 2, 4), "permutation (1, 0, 3, 2, 4) not in S4"),
        ((1, 1, 3, 2), "permutation (1, 1, 3, 2) not in S4"),
        (5, "permutation 5 is not cycles or an image tuple"),
        (None, "permutation None is not cycles or an image tuple"),
        (None, "cycles None are not a string, list or tuple"),
    ],
    ids=["int-cycle-first", "int-cycle-last", "str-in-cycle", "float-in-cycle", "bool-in-cycle", "str-image",
         "float-image", "short-images", "long-images", "repeated-image", "int-spec", "none-spec", "none-cycles"],
)
def test_malformed_permutation_specs(spec, message, request):
    """Each once escaped as a TypeError or was coerced by ``int``; only int entries are read."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        if request.node.callspec.id == "none-cycles":
            perm_from_cycles(4, spec)
        else:
            perm_index(make_symmetric(4), spec)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g, h: subgroup_from_elements(g, [0.0, 6.5]), NotASubgroup, "element 0.0 is not an integer"),
        (lambda g, h: subgroup_from_elements(g, 5), NotASubgroup, "elements must be a list, got 5"),
        (lambda g, h: validate_generating_set(h, [2.9, True]), ValidationError,
         "generating element 2.9 is not an integer"),
        (lambda g, h: validate_generating_set(h, [1, True]), ValidationError,
         "generating element True is not an integer"),
        (lambda g, h: h.contains("3"), ValidationError, "element '3' is not an integer"),
        (lambda g, h: right_translate_set(subgroup_from_elements(g, range(0, 12, 2)), [1, 3], 2.5),
         ValidationError, "translating element 2.5 is not an integer"),
        (lambda g, h: generated_elements(g, np.array([3.0])), ValidationError,
         f"generator {np.float64(3.0)!r} is not an integer"),
    ],
    ids=["float-subgroup", "bare-int-subgroup", "float-set", "bool-set", "str-contains", "float-translate",
         "float-array"],
)
def test_elements_are_ints_only(call, error, message):
    """Each once passed through ``int``, or escaped as a TypeError; only ints and numpy integers are read."""
    group = make_cyclic(12)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(group, subgroup_from_elements(group, [0, 3, 6, 9]))


def test_numpy_integers_are_read_as_ints():
    group = make_cyclic(12)
    assert generated_elements(group, np.array([4], dtype=np.uint8)).tolist() == [0, 4, 8]
    gen = validate_generating_set(subgroup_from_elements(group, [0, 3, 6, 9]), (np.int64(1), 11))
    assert gen.elements == (1, 11) and all(type(x) is int for x in gen.elements)


MAKERS = {  # one maker per parameter, the other parameter held at a valid value
    "cyclic": make_cyclic,
    "symmetric": make_symmetric,
    "alternating": make_alternating,
    "dihedral": make_dihedral,
    "gl2": make_gl2,
    "sl2": make_sl2,
    "field-prime": lambda v: make_field_additive(v, 2),
    "field-degree": lambda v: make_field_additive(7, v),
}


@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(3)], ids=["float", "bool", "str", "np-float"])
@pytest.mark.parametrize("maker", MAKERS.values(), ids=MAKERS.keys())
def test_group_parameters_are_ints_only(maker, value):
    """Each once built a group of a float order, named Z/True, or escaped as a bare TypeError."""
    with pytest.raises(ValidationError, match=f" {re.escape(repr(value))} is not an integer$"):
        maker(value)


def test_numpy_integer_group_parameters_give_int_groups():
    for group in (make_cyclic(np.int64(12)), make_symmetric(np.int64(3)), make_alternating(np.int64(4)),
                  make_dihedral(np.int64(4)), make_gl2(np.int64(3)), make_sl2(np.int64(3)),
                  make_field_additive(np.int64(7), np.int64(2))):
        assert type(group.order) is int and all(type(v) is int for v in group.descriptor["params"]), group.name
    assert make_cyclic(np.int64(12)).order == 12 and make_cyclic(np.int64(12)).name == "Z/12"


@pytest.mark.parametrize(
    "field, value",
    [("size", 2.5), ("trials", 2.5), ("size", True), ("seed", 1.5), ("seed", "a"), ("trials", np.float64(3))],
)
def test_search_parameters_are_ints_only(z12_evens, field, value):
    """A float size or trials escaped as a TypeError, True searched 1-sets, and seed 1.5 drew a set no int seed draws."""
    with pytest.raises(ValidationError, match=f"^search {field} {re.escape(repr(value))} is not an integer$"):
        SearchConfig(subgroup=z12_evens, **{"size": 2, field: value})


def test_search_reads_numpy_integers_as_ints(z12_evens):
    config = SearchConfig(subgroup=z12_evens, size=np.int64(2), trials=np.int32(3), seed=np.int64(4))
    assert all(type(getattr(config, name)) is int for name in ("size", "trials", "seed"))
    assert search_ramanujan(config) == search_ramanujan(SearchConfig(subgroup=z12_evens, size=2, trials=3, seed=4))


@pytest.mark.parametrize("size, seed, trial, bad", [(True, 0, 0, True), (2, 1.5, 0, 1.5), (2, 0, 0.5, 0.5)])
def test_random_candidate_reads_ints_only(z12_evens, size, seed, trial, bad):
    with pytest.raises(ValidationError, match=f"^size, seed or trial {bad!r} is not an integer$"):
        random_candidate(z12_evens.outside(), size, seed, trial)


@pytest.mark.parametrize(
    "seed, trial, message",
    [
        (-3, 0, "seed -3 is outside 0..2654435760"),
        (-2654435761, 1, "seed -2654435761 is outside 0..2654435760"),
        (2654435761, 0, "seed 2654435761 is outside 0..2654435760"),
        (0, -1, "trial -1 is negative"),
    ],
)
def test_random_candidate_refuses_seeds_that_alias(z12_evens, seed, trial, message):
    """Seed -3 drew the sets of seed 3, (-SEED_STRIDE, 1) the set of (0, 0) and (SEED_STRIDE, 0) that of (0, 1)."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        random_candidate(z12_evens.outside(), 2, seed, trial)
    assert len(random_candidate(z12_evens.outside(), 2, actions.SEED_STRIDE - 1, 0)) == 2  # the largest seed draws


def test_cli_refuses_a_seed_out_of_range(capsys):
    for argv in (["analyze", "--set-random", "3"], ["search", "--k", "3", "--trials", "2"]):
        assert main([*argv, "--group", "cyclic:12", "--subgroup", "evens", "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: seed -3 is outside 0..2654435760\n"


@pytest.mark.parametrize(
    "psi, message",
    [
        ([float(x) for x in range(12)], "map entry 0.0 is not an integer"),
        ([False, True, *range(2, 12)], "map entry False is not an integer"),
        ([str(x) for x in range(12)], "map entry '0' is not an integer"),
        ([0] * 12, "map is not a permutation of the elements"),
        ([10**30, *range(1, 12)], "map is not a permutation of the elements"),
        ([1, 0, *range(2, 12)], "map does not fix the identity"),
        ([0, 2, 1, *range(3, 12)], "map breaks the product of 1 and 1"),
    ],
    ids=["float", "bool", "str", "constant", "huge", "moves-identity", "not-a-homomorphism"],
)
def test_automorphism_map_refusals(psi, message):
    """A float map once passed, as did one starting False, True, and a map of strings read as moving the identity."""
    with pytest.raises(NotAnAutomorphism, match=f"^{re.escape(message)}$"):
        apply_automorphism(make_cyclic(12), psi, [1, 3])
    assert apply_automorphism(make_cyclic(12), np.arange(12) * 5 % 12, [1, 3]) == (3, 5)


def test_orbit_names_the_bad_map_among_good_ones(z12_evens, monkeypatch):
    units = [[u * x % 12 for x in range(12)] for u in (1, 5, 7, 11)]
    assert generating_set_orbit(z12_evens, [1, 3], units) == generating_set_orbit(z12_evens, [1, 3])
    chains, chain = [], actions._generator_chain  # the supplied maps are verified together, along one chain
    monkeypatch.setattr(actions, "_generator_chain", lambda g: chains.append(g) or chain(g))
    generating_set_orbit(z12_evens, [1, 3], units)
    assert len(chains) == 1
    assert generating_set_orbit(z12_evens, [1, 3], np.array(units)) == generating_set_orbit(z12_evens, [1, 3])
    for bad, message in [
        ([0, 2, 1, *range(3, 12)], "map 2 breaks the product of 1 and 1"),
        ([x + 1 for x in range(11)] + [0], "map 2 does not fix the identity"),
        ([0] * 12, "map 2 is not a permutation of the elements"),
        ([0, 1.0, *range(2, 12)], "map entry 1.0 is not an integer"),
    ]:
        with pytest.raises(NotAnAutomorphism, match=f"^{re.escape(message)}$"):
            generating_set_orbit(z12_evens, [1, 3], [*units[:2], bad, *units[2:]])

def test_constructor_refusals():
    # D_n has a lower bound only: its order 2n bounds it above
    with pytest.raises(ValidationError, match="^dihedral parameter must be >= 1$"):
        make_dihedral(0)
    with pytest.raises(ValidationError, match="^extension degree must be >= 1$"):
        make_field_additive(7, 0)
    # p below 2 is refused as no prime before the field cap could name 1^13 as an order over 4096
    with pytest.raises(ValidationError, match="^1 is not prime$"):
        make_field_additive(1, 13)


def test_generating_set_of_another_subgroup(z12_evens):
    thirds = subgroup_from_elements(z12_evens.parent, [0, 3, 6, 9])
    gen = validate_generating_set(thirds, [1, 2])
    with pytest.raises(ValidationError, match="^generating set was validated against a different subgroup$"):
        build_pair_graph(z12_evens, gen)


def test_reachable_blocks_of_no_set_and_of_two_subgroups(z12_evens):
    assert reachable_subgroups([]) == []
    thirds = subgroup_from_elements(z12_evens.parent, [0, 3, 6, 9])
    block = [validate_generating_set(z12_evens, [1]), validate_generating_set(thirds, [1])]
    with pytest.raises(ValidationError, match="^a block holds sets on one subgroup$"):
        reachable_subgroups(block)


def test_cayley_reduction_needs_a_set_outside(z12_evens):
    graph = build_pair_graph(z12_evens, [2, 10, 1])
    with pytest.raises(ValidationError, match="^Cayley reduction needs the generating set outside the subgroup$"):
        is_cayley_reduction(graph)


def test_complementary_spectra_refusals(z12_evens):
    with pytest.raises(ValidationError, match="^both sets must avoid the subgroup$"):
        compare_complementary_spectra(z12_evens, [2, 10, 1], [3, 5, 7, 9, 11])
    with pytest.raises(ValidationError, match="^the sets must be disjoint$"):
        compare_complementary_spectra(z12_evens, [1, 3], [3, 5, 7, 9, 11])


def test_size_bound_refusals(z12_evens):
    thirds = subgroup_from_elements(z12_evens.parent, [0, 3, 6, 9])
    with pytest.raises(IndexNotTwo, match="^the size bound applies to index-2 subgroups$"):
        ramanujan_size_bound(validate_generating_set(thirds, [1]))
    with pytest.raises(ValidationError, match="^the size bound applies to sets outside the subgroup$"):
        ramanujan_size_bound(validate_generating_set(z12_evens, [2, 10, 1]))


def test_iterable_descriptors():
    # bare lists and iterables, text, JSON text and dicts: every form of one subgroup or set reads the same
    z12 = make_cyclic(12)
    for elements in (
        [0, 3, 6, 9], range(0, 12, 3), " 0, 3,6 ,+9", '{"elements": [0, "3", 6, 9]}', {"elements": [0, 3, 6, 9]},
        ' {"generators": [3]}', {"generators": ["3"]},
    ):
        assert subgroup_from_descriptor(z12, elements).elements.tolist() == [0, 3, 6, 9]
    for evens in ("evens", ' {"builtin": "evens"} ', {"builtin": "evens"}):
        assert subgroup_from_descriptor(z12, evens).elements.tolist() == list(range(0, 12, 2))
    for elements in ([1, 5], iter([1, 5]), " 1,+5 ", '{"elements": ["1", 5]}', {"elements": [1, 5]}):
        assert set_from_descriptor(z12, elements) == (1, 5)
    f9 = make_field_additive(3, 2)
    expected = set_from_descriptor(f9, {"norm_preimage": [1]})
    assert len(expected) == 4 and set_from_descriptor(f9, '{"norm_preimage": ["1"]}') == expected


def test_field_labels_with_higher_powers():
    f27 = make_field_additive(3, 3)
    assert [f27.labels[i] for i in (9, 18, 13, 26)] == ["a^2", "2a^2", "a^2+a+1", "2a^2+2a+2"]
