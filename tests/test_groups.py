"""Group constructors, subgroup machinery, and generating-set validation."""

import itertools
import random
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairgraph import groups
from pairgraph.actions import apply_automorphism, right_translate_set
from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.errors import (
    IdentityInGeneratingSet,
    NotASubgroup,
    SizeCapExceeded,
    SymmetryViolation,
    ValidationError,
)
from pairgraph.fields import CONWAY_POLYNOMIALS, is_prime, reducing_polynomial
from pairgraph.groups import (
    ORDER_CAP,
    closed_subgroup,
    field_norm_preimage,
    generated_elements,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_additive,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_from_cycles,
    perm_index,
    subgroup_from_elements,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.structure import sign_homomorphism_exists

from helpers import (
    GENERATED_FACTORS,
    count_products,
    coset_members,
    difference_set,
    differing_fields,
    generated_group,
    instance_corpus,
    reference_element_order,
    reference_chain,
    reference_mul,
    reference_subgroup,
    subgroup_pool,
)


def assert_group_axioms(group, rng=None, samples=10000):
    """Associativity on every triple up to order 64, else on ``samples`` random triples.

    Each side is one broadcast ``product`` call over all the triples; the
    identity and inverse laws are checked on every element.
    """
    e, idx = group.identity, np.arange(group.order)
    if group.order <= 64:
        a, b, c = idx[:, None, None], idx[None, :, None], idx
    else:
        rng = rng or random.Random(0)
        a, b, c = np.array([
            (rng.randrange(group.order), rng.randrange(group.order), rng.randrange(group.order))
            for _ in range(samples)
        ]).T
    assert np.array_equal(group.product(group.product(a, b), c), group.product(a, group.product(b, c)))
    assert np.array_equal(group.product(e, idx), idx) and np.array_equal(group.product(idx, e), idx)
    assert np.array_equal(group.product(idx, group.inverses), np.full(group.order, e))
    assert np.array_equal(group.inverses[group.inverses], idx)


@pytest.mark.parametrize(
    "maker,args,order",
    [
        (make_cyclic, (1,), 1),
        (make_cyclic, (12,), 12),
        (make_symmetric, (4,), 24),
        (make_alternating, (4,), 12),
        (make_dihedral, (6,), 12),
        (make_sl2, (3,), 24),
        (make_gl2, (3,), 48),
        (make_field_additive, (7, 2), 49),
    ],
)
def test_axioms_exhaustive_small(maker, args, order):
    group = maker(*args)
    assert group.order == order
    assert_group_axioms(group)


def test_axioms_sampled_large():
    s7 = make_symmetric(7)
    assert s7.order == 5040
    assert_group_axioms(s7, rng=random.Random(7))
    gl11 = make_gl2(11)
    assert gl11.order == 13200
    assert_group_axioms(gl11, rng=random.Random(11))


SMALL_FAMILIES = [
    lambda: make_cyclic(12),
    lambda: make_symmetric(4),
    lambda: make_alternating(4),
    lambda: make_dihedral(6),
    lambda: make_sl2(3),
    lambda: make_gl2(3),
    lambda: make_field_additive(7, 2),
    lambda: make_field_additive(2, 5),
    lambda: make_direct_product(make_cyclic(3), make_symmetric(3)),
    lambda: make_direct_product(make_dihedral(4), make_cyclic(2)),
]

LARGE_DESCRIPTORS = [
    "symmetric:7",
    "cyclic:12000",
    {"kind": "product", "params": ["gl2:3", "cyclic:100"]},
]


@pytest.mark.parametrize("maker", SMALL_FAMILIES)
def test_products_match_reference_on_all_pairs(maker):
    group = maker()
    assert group.order <= 64
    ref = reference_mul(group)
    for a in range(group.order):
        expected = [ref(a, b) for b in range(group.order)]
        assert group.left_row(a).tolist() == expected
        assert [group.mul(a, b) for b in range(group.order)] == expected
        assert ref(a, group.inv(a)) == group.identity


@pytest.mark.parametrize("descriptor", LARGE_DESCRIPTORS, ids=str)
def test_products_match_reference_above_table_cap(descriptor):
    group = group_from_descriptor(descriptor)
    ref = reference_mul(group)
    rng = random.Random(group.order)
    pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(2000)]
    assert [group.mul(a, b) for a, b in pairs] == [ref(a, b) for a, b in pairs]
    a, b = np.array(pairs).T
    assert group.product(a, b).tolist() == [ref(x, y) for x, y in pairs]
    for x in rng.sample(range(group.order), 3):
        assert group.left_row(x).tolist() == [ref(x, y) for y in range(group.order)]
        assert ref(x, group.inv(x)) == group.identity


def test_cyclic_examples():
    assert make_cyclic(1).order == 1
    assert make_cyclic(12).mul(9, 5) == 2
    assert make_cyclic(20).inv(3) == 17
    with pytest.raises(ValidationError):
        make_cyclic(0)


def test_documented_orders():
    assert make_gl2(5).order == 480
    assert make_sl2(5).order == 120
    assert make_symmetric(5).order == 120
    assert make_dihedral(8).order == 16
    assert make_direct_product(make_cyclic(3), make_cyclic(4)).order == 12


def test_constructor_caps():
    with pytest.raises(ValidationError):
        make_gl2(4)  # composite
    with pytest.raises(SizeCapExceeded):
        make_gl2(17)  # order 78336 > hard cap
    with pytest.raises(SizeCapExceeded):
        make_gl2(13)  # order 26208 > hard cap
    with pytest.raises(SizeCapExceeded):
        make_symmetric(9)
    with pytest.raises(SizeCapExceeded):
        make_symmetric(8)  # 40320 > hard cap
    with pytest.raises(SizeCapExceeded):
        make_alternating(8)  # 20160 > hard cap
    with pytest.raises(SizeCapExceeded):
        make_field_additive(2, 13)
    with pytest.raises(SizeCapExceeded):
        make_direct_product(make_symmetric(7), make_symmetric(7))


class _NoListing:
    """numpy as seen from ``groups``, minus the calls that allocate a family's first array.

    ``np.indices`` lists the matrix quads and the even permutations,
    ``np.zeros`` and ``np.empty`` hold the permutation rows level by level,
    ``np.arange`` lists Z/n's and a field's inverses, and ``np.asarray``
    holds the dihedral inverses.
    """

    def __getattr__(self, name):
        if name in ("indices", "zeros", "empty", "arange", "asarray", "array", "full"):
            raise AssertionError(f"np.{name} used before the order cap was checked")
        return getattr(np, name)


def test_caps_checked_before_enumeration(monkeypatch):
    monkeypatch.setattr(groups, "np", _NoListing())
    for maker, arg in [(make_symmetric, 8), (make_alternating, 8), (make_gl2, 13), (make_symmetric, 9)]:
        with pytest.raises(SizeCapExceeded):
            maker(arg)


# each family's largest accepted parameters, their order, its smallest refused ones and the order its refusal names
BOUNDARIES = [
    (make_cyclic, (20000,), 20000, (20001,), "group order 20001"),
    (make_dihedral, (10000,), 20000, (10001,), "group order 20002"),
    (make_symmetric, (7,), 5040, (8,), "group order 8!"),
    (make_alternating, (7,), 2520, (8,), "group order 8!/2"),
    (make_gl2, (11,), 13200, (13,), "group order 26208"),
    (make_sl2, (23,), 12144, (29,), "group order 24360"),
    (make_field_additive, (2, 12), 4096, (4099, 1), "field order 4099^1"),
    (make_field_additive, (2, 12), 4096, (67, 2), "field order 67^2"),
]


@pytest.mark.parametrize(
    "maker, largest, order, refused, message", BOUNDARIES, ids=[f"{m.__name__}{r}" for m, _, _, r, _ in BOUNDARIES]
)
def test_each_family_bounded_by_its_order(monkeypatch, maker, largest, order, refused, message):
    assert maker(*largest).order == order
    # the refusal comes from the order formula, before the family's first array is allocated
    monkeypatch.setattr(groups, "np", _NoListing())
    cap = 4096 if maker is make_field_additive else ORDER_CAP
    with pytest.raises(SizeCapExceeded, match=f"^{re.escape(message)} exceeds the cap {cap}$"):
        maker(*refused)


def test_caps_checked_before_the_arithmetic(monkeypatch):
    # trial division of 2^61 - 1 once ran for minutes before the cap was read; the order is read first
    def no_primality(p):
        raise AssertionError(f"is_prime({p}) ran before the order cap was checked")

    monkeypatch.setattr(groups, "is_prime", no_primality)
    p = 2**61 - 1
    for maker, message in [
        (make_gl2, f"group order {(p * p - 1) * (p * p - p)} exceeds the cap 20000"),
        (make_sl2, f"group order {p * (p * p - 1)} exceeds the cap 20000"),
        (lambda p: make_field_additive(p, 1), f"field order {p}^1 exceeds the cap 4096"),
    ]:
        with pytest.raises(SizeCapExceeded, match=f"^{re.escape(message)}$"):
            maker(p)
    monkeypatch.undo()
    # 2^(10^9) took seconds to form before the field-order cap compared it, and (10^9)! would never finish
    for maker, message in [
        (lambda: make_field_additive(2, 10**9), "field order 2^1000000000 exceeds the cap 4096"),
        (lambda: make_symmetric(10**9), "group order 1000000000! exceeds the cap 20000"),
        (lambda: make_alternating(10**9), "group order 1000000000!/2 exceeds the cap 20000"),
    ]:
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match=f"^{re.escape(message)}$"):
            maker()
        assert time.perf_counter() - start < 0.5
    assert make_field_additive(2, 12).order == 4096  # the largest field under the cap is still built
    with pytest.raises(SizeCapExceeded):
        make_field_additive(3, 8)  # 6561, with k below the bit-length bound


def _z12_instance():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    return z12, sub


# every entry point that reads element indices, with the error and the word it names a bad one by
INDEX_ENTRY_POINTS = {
    "subgroup_from_elements": (lambda z, sub, x: subgroup_from_elements(z, [0, x]), NotASubgroup, "element"),
    "generated_elements": (lambda z, sub, x: generated_elements(z, [3, x]), ValidationError, "generator"),
    "validate_generating_set": (
        lambda z, sub, x: validate_generating_set(sub, [1, x]), ValidationError, "generating element"),
    "sign_homomorphism_exists": (
        lambda z, sub, x: sign_homomorphism_exists(z, [1, x]), ValidationError, "element"),
    "right_translate_set-set": (
        lambda z, sub, x: right_translate_set(sub, [1, x], 3), ValidationError, "element"),
    "right_translate_set-h": (
        lambda z, sub, x: right_translate_set(sub, [1], x), ValidationError, "translating element"),
    "apply_automorphism": (
        lambda z, sub, x: apply_automorphism(z, range(12), [2, x]), ValidationError, "element"),
    "Subgroup.contains": (lambda z, sub, x: sub.contains(x), ValidationError, "element"),
}


@pytest.mark.parametrize("bad", [-1, 12])
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
def test_element_indices_outside_the_group_are_refused(entry, bad):
    # right_translate_set once gave (2,) for [-1] and the non-element (-2,) for h = -3,
    # apply_automorphism (2, 11) for [-1, 2], and contains(-1) read the last coset id
    call, error, what = INDEX_ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{what} {bad} out of range$"):
        call(*_z12_instance(), bad)


def test_least_index_outside_the_group_is_named():
    z12, sub = _z12_instance()
    for elements, bad in (([14, 1, -2, 13, -5], -5), ([14, 1, 13, 12], 12), ([13, 2, 40], 13)):
        with pytest.raises(ValidationError, match=f"generating element {bad} out of range"):
            validate_generating_set(sub, elements)


def test_permutation_composition_is_left_to_right():
    s3 = make_symmetric(3)
    a = perm_index(s3, "(2,3)")
    b = perm_index(s3, "(1,2)")
    # apply (2,3) first, then (1,2): 1->1->2, 2->3->3, 3->2->1
    assert s3.labels[s3.mul(a, b)] == "(1,2,3)"


def test_perm_from_cycles_roundtrip():
    assert perm_from_cycles(4, "(1,2)(3,4)") == (1, 0, 3, 2)
    assert perm_from_cycles(4, "e") == (0, 1, 2, 3)
    assert perm_from_cycles(3, [(1, 2, 3)]) == (1, 2, 0)
    with pytest.raises(ValidationError):
        perm_from_cycles(3, "(1,5)")
    # a cycle that repeats an entry describes no permutation
    for spec, cycle in [("(1,2,3,2)", "(1, 2, 3, 2)"), ("(1,1)", "(1, 1)"), ([(2, 3), (1, 3, 1)], "(1, 3, 1)")]:
        with pytest.raises(ValidationError, match=re.escape(f"cycle {cycle} repeats an entry")):
            perm_from_cycles(3, spec)
    assert perm_from_cycles(3, "(1,2,3)(2)") == (1, 2, 0)  # a 1-cycle repeats nothing
    # every entry is a number; a stray or empty token is named
    for spec, token in [("(a,2)", "a"), ("(1,,2)", ""), ("(1,2,)", "")]:
        with pytest.raises(ValidationError, match=re.escape(f"bad cycle entry {token!r} in {spec!r}")):
            perm_from_cycles(3, spec)
    assert builtin_subgroup(make_alternating(4), "klein_in_a4").order == 4


@pytest.mark.parametrize("n", range(2, 8))
def test_chain_index_is_the_place_in_the_product_built_chain(n):
    group = make_symmetric(n)
    chain = group.chain_index
    assert sorted(chain.tolist()) == list(range(group.order))
    assert chain[reference_chain(group)].tolist() == list(range(group.order))


@pytest.mark.parametrize("make", [make_symmetric, make_alternating])
@pytest.mark.parametrize("n", range(1, 8))
def test_perm_index_is_the_row_of_images(make, n):
    group = make(n)
    assert [perm_index(group, row) for row in group.images] == list(range(group.order))


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_listings_are_lexicographic(n):
    perms = [list(x) for x in itertools.permutations(range(n))]
    even = [x for x in perms if sum(a > b for i, a in enumerate(x) for b in x[i + 1 :]) % 2 == 0]
    s, a = make_symmetric(n), make_alternating(n)
    assert s.images.tolist() == perms
    assert a.images.tolist() == even
    for group in (s, a):
        # composed with its inverse either way round, each row is the identity
        rows, inverse_rows = group.images, group.images[group.inverses]
        assert (np.take_along_axis(inverse_rows, rows, axis=1) == np.arange(n)).all()
        assert (np.take_along_axis(rows, inverse_rows, axis=1) == np.arange(n)).all()


def test_closed_forms_multiply_nothing(monkeypatch):
    s6, a6 = make_symmetric(6), make_alternating(6)
    count = count_products(monkeypatch)
    assert s6.chain_index[146] == 473
    assert [perm_index(s6, "(1,2,3)(4,5)"), perm_index(a6, "(1,2,3)"), perm_index(a6, (5, 4, 3, 2, 0, 1))] == [146, 72, 359]
    assert count == [0]


def test_field_norm_preimage():
    f49 = make_field_additive(7, 2)
    assert len(field_norm_preimage(f49, [5, 6])) == 16
    assert field_norm_preimage(f49, []) == ()
    assert field_norm_preimage(f49, [0]) == (0,)
    # every nonzero norm value has a fiber of size (49-1)/(7-1) = 8
    for v in range(1, 7):
        assert len(field_norm_preimage(f49, [v])) == 8
    with pytest.raises(ValidationError):
        field_norm_preimage(f49, [7])
    with pytest.raises(ValidationError):
        field_norm_preimage(make_cyclic(49), [1])
    # values are read as ints only: int() would round 5.9 to 5 and read True as 1
    for values, bad in (([5.9], "5.9"), ([True], "True"), (["5"], "'5'"), ([5, 6.0], "6.0")):
        with pytest.raises(ValidationError, match=re.escape(f"norm value {bad} is not an integer")):
            field_norm_preimage(f49, values)
    assert field_norm_preimage(f49, (np.int64(5), 6)) == field_norm_preimage(f49, [5, 6])


def test_reducing_polynomial_table():
    assert reducing_polynomial(7, 2) == (3, 6, 1)
    assert (7, 2) in CONWAY_POLYNOMIALS
    # beyond the Conway table, the tabled first irreducible
    poly = reducing_polynomial(2, 5)
    assert len(poly) == 6 and poly[-1] == 1


def test_subgroup_from_elements():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    assert sub.index == 3
    assert sub.elements.tolist() == [0, 3, 6, 9]
    assert sub.coset_of.tolist() == [0, 1, 2] * 4
    assert sub.coset_reps.tolist() == [0, 1, 2]
    assert coset_members(sub) == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]
    trivial = subgroup_from_elements(z12, [0])
    assert trivial.index == 12
    z20 = make_cyclic(20)
    evens = subgroup_from_elements(z20, range(0, 20, 2))
    assert evens.index == 2


def _large_subgroup_cases():
    s7 = make_symmetric(7)
    s4 = subgroup_generated(s7, [perm_index(s7, "(1,2)"), perm_index(s7, "(1,2,3,4)")])
    yield s7, s4.elements
    # lexicographic neighbours share a coset, so each batch meets cosets twice
    yield s7, (0, perm_index(s7, "(6,7)"))
    yield make_cyclic(12000), range(0, 12000, 120)
    # one coset per element: more cosets than one batch holds
    yield make_cyclic(12000), (0,)


def test_vectorised_cosets_match_reference_loop():
    cases = [(sub.parent, sub.elements) for sub in subgroup_pool()]
    for group, elems in cases + list(_large_subgroup_cases()):
        new = subgroup_from_elements(group, elems)
        old = reference_subgroup(group, elems, reference_mul(group))
        assert differing_fields(new, old) == [], group


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is what the test compares
        return type(exc)
    return None


def test_bad_sets_raise_like_reference_loop():
    z12 = make_cyclic(12)
    s3 = make_symmetric(3)
    transpositions = [perm_index(s3, "(1,2)"), perm_index(s3, "(2,3)")]
    bad = [
        (z12, [0, 1, 2]),  # inverse missing
        (z12, [0, 1, 11]),  # inverse-closed, product escapes
        (z12, [3, 6, 9]),  # identity missing
        (z12, []),
        (z12, [0, 12]),  # out of range
        (s3, [s3.identity] + transpositions),  # involutions whose product escapes
    ]
    for group, elems in bad:
        assert _raised(subgroup_from_elements, group, elems) is NotASubgroup
        assert _raised(reference_subgroup, group, elems, reference_mul(group)) is NotASubgroup


@st.composite
def _candidate_sets(draw):
    """A group of order <= 120 and a set: a generated subgroup, one with elements dropped or added, or any subset."""
    first = draw(st.sampled_from(GENERATED_FACTORS))
    second = draw(st.none() | st.sampled_from(GENERATED_FACTORS))
    group = generated_group(first, second)
    assume(group.order <= 120)
    element = st.integers(0, group.order - 1)
    kind = draw(st.sampled_from(["subgroup", "dropped", "added", "subset"]))
    if kind == "subset":
        return group, sorted(draw(st.sets(element, max_size=24)))
    elems = set(generated_elements(group, draw(st.lists(element, min_size=1, max_size=2))).tolist())
    if kind == "dropped":
        elems -= draw(st.sets(element, min_size=1, max_size=2))
    if kind == "added":
        elems |= draw(st.sets(element, min_size=1, max_size=2))
    return group, sorted(elems)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_candidate_sets())
def test_generated_sets_decided_like_reference(case):
    group, elems = case
    try:
        new = subgroup_from_elements(group, elems)
    except NotASubgroup:
        with pytest.raises(NotASubgroup):
            reference_subgroup(group, elems, reference_mul(group))
    else:
        assert differing_fields(new, reference_subgroup(group, elems, reference_mul(group))) == []


def test_explicit_subgroup_takes_linear_products(monkeypatch):
    """An explicit list is checked by one closure, not by its |H|^2 pairwise products."""
    cases = [
        builtin_subgroup(make_symmetric(7), "alternating_in_symmetric"),
        builtin_subgroup(make_gl2(11), "sl2_in_gl2"),
        builtin_subgroup(make_cyclic(20000), "evens"),
    ]
    count = count_products(monkeypatch)
    for sub in cases:
        count[0] = 0
        rebuilt = subgroup_from_elements(sub.parent, sub.elements.tolist())
        assert count[0] <= 20 * sub.parent.order, (sub, count[0])
        assert differing_fields(rebuilt, sub) == []


def test_subgroup_rejects_bad_sets():
    z12 = make_cyclic(12)
    # the least element of the generated subgroup that the set lacks is named
    with pytest.raises(NotASubgroup, match="not closed: the set generates 3, which it does not contain"):
        subgroup_from_elements(z12, [0, 1, 2])
    with pytest.raises(NotASubgroup, match="not closed: the set generates 0, which it does not contain"):
        subgroup_from_elements(z12, [3, 6, 9])  # identity missing
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(z12, [])


def test_subgroup_generated():
    z12 = make_cyclic(12)
    assert subgroup_generated(z12, [0, 6]).elements.tolist() == [0, 6]
    assert subgroup_generated(z12, []).elements.tolist() == [0]
    # oracle: closure of {3} under repeated addition
    expected = set()
    x = 0
    while True:
        expected.add(x)
        x = (x + 3) % 12
        if x == 0:
            break
    assert set(subgroup_generated(z12, [3]).elements) == expected == {0, 3, 6, 9}


def test_subgroup_generated_idempotent():
    for sub in subgroup_pool()[:12]:
        again = subgroup_generated(sub.parent, sub.elements)
        assert np.array_equal(again.elements, sub.elements)


def test_closed_subgroup_matches_checked_build():
    s6 = make_symmetric(6)
    cases = [(sub.parent, sub.elements) for sub in subgroup_pool()]
    cases.append((s6, builtin_subgroup(s6, "alternating_in_symmetric").elements))
    for group, elems in cases:
        checked = subgroup_from_elements(group, elems)
        # any order, repeats allowed, as the checked build accepts them
        unchecked = closed_subgroup(group, list(reversed(elems.tolist())) + [group.identity])
        assert differing_fields(unchecked, checked) == [], checked


def test_difference_set():
    z12 = make_cyclic(12)
    assert difference_set(z12, [1, 7], [1, 7]) == (0, 6)
    assert difference_set(z12, [], [1, 2]) == ()
    # oracle: enumerate all 16 pairwise differences explicitly
    a = [4, 5, 10, 11]
    expected = sorted({(x - y) % 12 for x in a for y in a})
    assert list(difference_set(z12, a, a)) == expected == [0, 1, 5, 6, 7, 11]


def test_index_two_differences_land_inside():
    z20 = make_cyclic(20)
    evens = subgroup_from_elements(z20, range(0, 20, 2))
    rng = random.Random(3)
    for _ in range(20):
        s = rng.sample(evens.outside(), rng.randint(1, 9))
        assert all(evens.contains(d) for d in difference_set(z20, s, s))


def test_cosets_partition_the_group():
    for sub in subgroup_pool():
        group = sub.parent
        assert group.order % sub.order == 0  # Lagrange
        cosets = coset_members(sub)
        sizes = [len(members) for members in cosets]
        assert sum(sizes) == group.order
        assert set(sizes) == {sub.order}
        # each coset is H*x for its representative, the minimal member; the subgroup is coset 0
        assert sub.coset_reps.tolist() == [members[0] for members in cosets]
        assert sub.coset_reps[1:].tolist() == sorted(sub.coset_reps[1:].tolist())
        for members in cosets:
            assert sorted(group.product(sub.elements, members[0]).tolist()) == members
        assert cosets[0] == sub.elements.tolist()


def test_subgroup_arrays_are_read_only():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen = validate_generating_set(sub, [2, 4, 5, 7, 8])
    whole = subgroup_from_elements(z12, range(12))  # one coset: its representative array is a slice
    arrays = [sub.elements, sub.coset_of, sub.coset_reps, whole.coset_reps, generated_elements(z12, [4]), gen.reachable]
    for array in arrays:
        assert array.dtype.kind == "i"
        with pytest.raises(ValueError):
            array[0] = 1
    assert sub.contains(3) is True and sub.contains(4) is False
    assert sub.outside() == (1, 2, 4, 5, 7, 8, 10, 11)
    assert all(type(x) is int for x in sub.outside())
    assert sub.outside() is sub.outside()  # built once per subgroup


def test_generating_set_validation():
    z12 = make_cyclic(12)
    sub = subgroup_from_elements(z12, [0, 3, 6, 9])
    gen = validate_generating_set(sub, [2, 4, 5, 7, 8])
    assert gen.inside == ()
    assert gen.outside == (2, 4, 5, 7, 8)
    assert gen.coset_counts == (0, 2, 3)
    with pytest.raises(IdentityInGeneratingSet):
        validate_generating_set(sub, [0, 1])
    with pytest.raises(SymmetryViolation):
        validate_generating_set(sub, [3, 1])  # 3 inside, inverse 9 missing
    mixed = validate_generating_set(sub, [3, 9, 1])
    assert mixed.inside == (3, 9)
    assert sum(mixed.coset_counts) == mixed.size
    with pytest.raises(ValidationError):
        validate_generating_set(sub, [99])


def test_generating_set_split_properties():
    for gen in instance_corpus(120, seed=11):
        assert set(gen.elements) == set(gen.inside) | set(gen.outside)
        assert gen.coset_counts[0] == len(gen.inside)
        assert sum(gen.coset_counts) == gen.size
        group = gen.group
        assert all(group.inv(x) in set(gen.inside) for x in gen.inside)
        for cid in gen.covered_cosets():
            members = set(coset_members(gen.subgroup)[cid])
            assert len(members & set(gen.outside)) == gen.coset_counts[cid]


def test_kernel_builtins_equal_checked_subgroups():
    # built without the closure check: the all-pairs check runs here instead
    cases = [(make_cyclic(n), "evens") for n in (2, 4, 12, 30)]
    cases += [(make_symmetric(n), "alternating_in_symmetric") for n in (1, 2, 3, 4, 5)]
    cases += [(make_gl2(p), "sl2_in_gl2") for p in (2, 3, 5)]
    for group, name in cases:
        built = builtin_subgroup(group, name)
        checked = subgroup_from_elements(group, built.elements)
        assert differing_fields(built, checked) == [], (group, name)


def test_element_orders_match_reference():
    for sub in subgroup_pool():
        group = sub.parent
        x = np.arange(group.order)
        expected = [reference_element_order(group, a) for a in range(group.order)]
        orders, low = groups._element_orders(group, x, group.order)
        assert orders.tolist() == expected
        assert groups._element_orders(group, x[list(sub.elements)], sub.order)[0].tolist() == [
            expected[h] for h in sub.elements
        ]
        # low[p][a] generates the subgroup of order p of <a>, or is e where p does not divide a's order
        assert sorted(low) == [p for p in range(2, group.order + 1) if group.order % p == 0 and is_prime(p)]
        mul = reference_mul(group)
        for a in range(group.order):
            powers, power = {group.identity}, a
            while power != group.identity:
                powers.add(power)
                power = mul(power, a)
            for p, y in low.items():
                assert y[a] in powers
                assert reference_element_order(group, int(y[a])) == (1 if expected[a] % p else p)


def test_dihedral_relations():
    d6 = make_dihedral(6)
    r, s = 1, 6
    assert reference_element_order(d6, r) == 6 and reference_element_order(d6, s) == 2
    # s r s = r^-1
    assert d6.mul(d6.mul(s, r), s) == d6.inv(r)
    assert all(d6.inv(x) == x for x in range(6, 12))  # reflections are involutions


def test_direct_product_componentwise():
    g = make_direct_product(make_cyclic(3), make_symmetric(3))
    assert g.order == 18
    assert_group_axioms(g)
    # (1, (1,2)) * (2, (1,2)) = (0, e)
    s3 = make_symmetric(3)
    t = perm_index(s3, "(1,2)")
    a = 1 * 6 + t
    b = 2 * 6 + t
    assert g.mul(a, b) == g.identity
    assert g.labels[a] == "(1,(1,2))"


def test_labels_are_human_readable():
    s4 = make_symmetric(4)
    assert s4.labels[s4.identity] == "e"
    assert "(1,2)" in s4.labels
    gl3 = make_gl2(3)
    assert gl3.labels[gl3.identity] == "[[1,0],[0,1]]"
    f49 = make_field_additive(7, 2)
    assert f49.labels[0] == "0"
    assert f49.labels[8] == "a+1"
