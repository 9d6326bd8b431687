"""The gather kernels, labels built on first read, and the fast closures, each against its reference route."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairgraph import groups
from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.groups import (
    ORDER_CAP,
    field_norm_preimage,
    generated_elements,
    make_field_additive,
    make_symmetric,
    subgroup_from_elements,
    validate_generating_set,
)

from helpers import (
    count_products,
    instance_corpus,
    perm_parities,
    reference_generated_elements,
    reference_mul,
    reference_reachable,
    reference_table,
    subgroup_pool,
)

ALL_PAIRS = [
    "symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5", "symmetric:6",
    "alternating:1", "alternating:2", "alternating:3", "alternating:4", "alternating:5", "alternating:6",
    "gl2:3", "gl2:5", "sl2:5", "field_additive:2,3", "field_additive:2,4", "field_additive:3,3", "field_additive:5,2",
    "field_additive:7,2",
    # k = 1: F_p adds as Z/p, by (a + b) % p
    "field_additive:3,1", "field_additive:5,1", "field_additive:7,1", "field_additive:11,1",
    "cyclic:1", "cyclic:2", "cyclic:60", '{"kind": "product", "params": ["cyclic:3", "dihedral:4"]}',
]
SAMPLED = [
    "symmetric:7", "alternating:7", "gl2:11", "sl2:13", "field_additive:2,12",
    # k >= 2: k = 9, 3, 7 and 5 leave the high digit half shorter than the low one; F_{13^3}'s is the largest table
    "field_additive:2,9", "field_additive:7,4", "field_additive:3,7", "field_additive:5,5", "field_additive:13,3",
    "field_additive:13,2",
    "cyclic:12000", '{"kind": "product", "params": ["gl2:3", "cyclic:100"]}',
    # bounded by their order alone: F_p as Z/p up to F_4093, p past 13, and D_n past n = 8
    "field_additive:13,1", "field_additive:17,1", "field_additive:4093,1", "field_additive:17,2", "field_additive:61,2",
    "sl2:17", "sl2:23", "dihedral:9", "dihedral:10000",
]
TABLES = ["gl2:5", "field_additive:2,6"]


def assert_every_shape(group, a, b, expected):
    """The kernel and ``product`` on a (p,) and b (q,) in every broadcast shape the library passes.

    ``expected(x, y)`` gives the reference products of two index arrays of one shape.
    """
    def check(x, y):
        x, y = np.asarray(x), np.asarray(y)
        want = expected(*np.broadcast_arrays(x, y))
        assert np.array_equal(group._kernel(x, y), want)
        assert np.array_equal(group.product(x, y), want)

    k = min(len(a), len(b))
    for x, y in zip(a[:k], b[:k]):
        check(x, y)  # 0-d x 0-d
    for x in a:
        check(x, b)  # 0-d x (q,)
    check(a[:k], b[:k])  # (p,) x (p,)
    check(a[:, None], b)  # (p, 1) x (q,): the matrix-product route of a permutation kernel
    check(a[:, None], b[None])  # (p, 1) x (1, q), as ``product`` passes a blocked row
    check(b, a[:, None])  # (q,) x (p, 1)
    check(np.stack([a, a[::-1]])[..., None], b)  # (p, q, 1) x (r,)


@pytest.mark.parametrize("descriptor", ALL_PAIRS)
def test_kernel_matches_reference_on_all_pairs(descriptor):
    group = group_from_descriptor(descriptor)
    idx = np.arange(group.order)
    expected = reference_table(group)
    # the kernel itself, as one broadcast call, and ``product`` running it in blocks
    assert np.array_equal(group._kernel(idx[:, None], idx), expected)
    assert np.array_equal(group.product(idx[:, None], idx), expected)
    assert np.array_equal(expected[idx, group.inverses], np.full(group.order, group.identity))
    shuffled = np.random.default_rng(group.order).permutation(idx)
    assert_every_shape(group, idx, shuffled, lambda x, y: expected[x, y])


@pytest.mark.parametrize("descriptor", SAMPLED)
def test_kernel_matches_reference_on_sampled_pairs(descriptor):
    group = group_from_descriptor(descriptor)
    mul = reference_mul(group)
    rng = random.Random(group.order)
    a, b = np.array([(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(2000)]).T
    expected = [mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert group._kernel(a, b).tolist() == expected
    assert group.product(a, b).tolist() == expected
    assert [group.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == expected
    assert all(mul(x, group.inv(x)) == group.identity for x in a.tolist())
    assert_every_shape(group, a[:40], b[:50], np.vectorize(mul, otypes=[np.int64]))


def test_exact_key_bounds():
    # a permutation kernel's matrix-product key sums integers below n^(n-1): exact in float32 for every
    # degree the order cap admits, the largest n with n!/2 <= ORDER_CAP (A_n's order, S_n's halved)
    n = next(n for n in itertools.count(1) if math.factorial(n + 1) // 2 > ORDER_CAP)
    assert n == 7
    assert n ** (n - 1) < 2**24
    # ``build_pair_graph`` packs an edge (u, v) as u << 15 | v
    assert ORDER_CAP < 1 << 15


@pytest.mark.parametrize("descriptor", TABLES)
def test_table_matches_reference(descriptor):
    # the whole multiplication table, as ``product`` builds it block by block
    group = group_from_descriptor(descriptor)
    idx = np.arange(group.order)
    assert np.array_equal(group.product(idx[:, None], idx), reference_table(group))


def test_construction_formats_no_label(monkeypatch):
    def refuse(perm):
        raise AssertionError("a label was formatted during construction")

    monkeypatch.setattr(groups, "perm_cycle_label", refuse)
    s6 = make_symmetric(6)
    builtin_subgroup(s6, "alternating_in_symmetric")
    with pytest.raises(AssertionError):
        s6.labels
    monkeypatch.undo()
    assert s6.labels[s6.identity] == "e"
    assert s6.labels is s6.labels


def reference_parity(perm) -> int:
    """Parity from the cycle decomposition: a cycle of length l is l-1 transpositions."""
    seen, parity = set(), 0
    for start in range(len(perm)):
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = perm[v]
            length += 1
        parity ^= max(length - 1, 0) & 1
    return parity


@pytest.mark.parametrize("n", range(1, 7))
def test_parities_match_cycle_count(n):
    perms = list(itertools.permutations(range(n)))
    assert perm_parities(np.array(perms).reshape(-1, n)).tolist() == [reference_parity(p) for p in perms]


def test_reachable_matches_all_quotients_on_corpus():
    for gen in instance_corpus(300, seed=91):
        assert gen.reachable.tolist() == list(reference_reachable(gen))


def test_reachable_matches_all_quotients_on_norm_preimages():
    f2401 = make_field_additive(7, 4)
    f7 = subgroup_from_elements(f2401, range(7))
    for values in ([1], [5, 6], [0, 4]):
        gen = validate_generating_set(f7, set(field_norm_preimage(f2401, values)) - {0})
        assert gen.reachable.tolist() == list(reference_reachable(gen))


def test_generated_elements_match_breadth_first_closure():
    rng = random.Random(17)
    for sub in subgroup_pool():
        group = sub.parent
        assert np.array_equal(generated_elements(group, sub.elements), sub.elements)
        for _ in range(6):
            seeds = rng.sample(range(group.order), rng.randint(0, min(5, group.order)))
            assert generated_elements(group, seeds).tolist() == list(reference_generated_elements(group, seeds))
    s6 = make_symmetric(6)
    for seed in range(5):
        seeds = random.Random(seed).sample(range(720), 1 + seed)
        assert generated_elements(s6, seeds).tolist() == list(reference_generated_elements(s6, seeds))
    z101 = groups.make_cyclic(101)
    for seeds in ([1], [2], [3, 50], [0, 100]):
        assert generated_elements(z101, seeds).tolist() == list(reference_generated_elements(z101, seeds))


# every family, and Z/12000 with its seeds drawn from <120>, of order 100: not a power of two
CLOSURE_GROUPS = {
    "cyclic:12000": range(0, 12000, 120), "cyclic:360": None, "dihedral:7": None, "symmetric:5": None,
    "symmetric:7": None, "alternating:6": None, "gl2:5": None, "sl2:7": None, "field_additive:7,2": None,
    "field_additive:2,8": None, '{"kind": "product", "params": ["gl2:3", "cyclic:100"]}': None,
}


@st.composite
def _closure_seeds(draw):
    descriptor = draw(st.sampled_from(sorted(CLOSURE_GROUPS)))
    group = group_from_descriptor(descriptor)
    pool = CLOSURE_GROUPS[descriptor] or range(group.order)
    return group, draw(st.lists(st.sampled_from(pool), max_size=4))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_closure_seeds())
def test_generated_elements_match_breadth_first_closure_on_drawn_seeds(case):
    group, seeds = case
    assert generated_elements(group, seeds).tolist() == list(reference_generated_elements(group, seeds))


def test_first_seed_listed_by_doubling(monkeypatch):
    # <120> in Z/12000 is reached by doubling alone, 1 + 2 + ... + 64 products and one g^m per block,
    # where a breadth-first closure multiplies each of the 100 elements by every adjoined square
    z = groups.make_cyclic(12000)
    count = count_products(monkeypatch)
    assert generated_elements(z, [0, 120]).tolist() == list(range(0, 12000, 120))
    assert count == [127 + 7]


def test_generated_elements_bound_a_long_cycle():
    # 19997 is prime with 2 a primitive root, so the repeated squares 2^j of 1
    # run through every nonzero residue; the chain must stop at the bit length
    z = groups.make_cyclic(19997)
    bits = z.order.bit_length()
    product, spent = z.product, []

    def budgeted(a, b):
        spent.append(int(np.broadcast(np.asarray(a), np.asarray(b)).size))
        assert len(spent) <= 3 * bits and sum(spent) <= 2 * bits * z.order
        return product(a, b)

    z.product = budgeted
    assert generated_elements(z, [1]).tolist() == list(range(z.order))
