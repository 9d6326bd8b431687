"""Finite-field arithmetic backing the norm-preimage constructor: the vectorised norms against scalar arithmetic."""

import math
import random
import re

import numpy as np
import pytest

from pairgraph import fields
from pairgraph.errors import SizeCapExceeded, ValidationError
from pairgraph.fields import CONWAY_POLYNOMIALS, FIRST_IRREDUCIBLES, PrimePowerField, is_prime, reducing_polynomial
from pairgraph.groups import FIELD_ORDER_CAP, make_field_additive

from helpers import ScalarField, UnpowerableInt, first_irreducible, prime_divisors

# every (p, k) that make_field_additive accepts
SUPPORTED = [(p, k) for p in range(2, FIELD_ORDER_CAP + 1) if is_prime(p) for k in range(1, 13) if p**k <= FIELD_ORDER_CAP]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_field_axioms(p, k):
    gf = ScalarField(p, k)
    rng = random.Random(p * 100 + k)
    elems = [rng.randrange(gf.order) for _ in range(12)]
    for a in elems:
        for b in elems:
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.add(a, b) == gf.add(b, a)
            for c in elems[:6]:
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    for a in elems:
        assert gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
        if a != 0:
            # inverse through the unit-group order
            assert gf.mul(a, gf.pow(a, gf.order - 2)) == 1


def test_multiplicative_group_is_cyclic_of_right_order():
    gf = ScalarField(7, 2)
    for a in range(1, gf.order):
        assert gf.pow(a, gf.order - 1) == 1


def test_norm_is_multiplicative_and_surjective():
    gf = ScalarField(7, 2)
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.randrange(1, 49), rng.randrange(1, 49)
        assert gf.norm(gf.mul(a, b)) == (gf.norm(a) * gf.norm(b)) % 7
    fibers = {v: 0 for v in range(7)}
    for a in range(49):
        fibers[gf.norm(a)] += 1
    assert fibers[0] == 1
    assert all(fibers[v] == 8 for v in range(1, 7))


def test_norm_restricted_to_prime_field():
    # on the prime field the norm is x^(k-fold product of conjugates) = x^... = x * x^p = x^2 for k=2
    gf = ScalarField(7, 2)
    for x in range(7):
        assert gf.norm(x) == (x * x) % 7


def test_reducing_polynomial_is_irreducible():
    # a modulus is irreducible exactly when its quotient ring has a unit of order p^k - 1
    assert (4093, 1) in SUPPORTED and (2, 12) in SUPPORTED and (2, 13) not in SUPPORTED
    for p, k in SUPPORTED:
        gf = ScalarField(p, k)
        assert len(gf.field.modulus) == k + 1 and gf.field.modulus[-1] == 1
        n = gf.order - 1
        assert any(
            gf.pow(g, n) == 1 and all(gf.pow(g, n // ell) != 1 for ell in prime_divisors(n)) for g in range(1, gf.order)
        ), (p, k)


def test_degree_one_field():
    gf = ScalarField(7, 1)
    assert gf.order == 7
    assert gf.mul(3, 5) == 1
    assert gf.norm(5) == 5


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # negatives, 0, 1, prime squares, 4093 and 4096 against the reference factoring
    assert [n for n in range(-3, 5001) if is_prime(n)] == [n for n in range(2, 5001) if prime_divisors(n) == [n]]


def test_create_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        PrimePowerField.create(6, 2)
    with pytest.raises(ValidationError):
        PrimePowerField.create(7, 0)


def test_tabled_moduli_are_the_first_irreducibles():
    # the table holds every supported (p, k >= 2) that the Conway table does not, each the search's answer
    beyond_conway = [(p, k) for p, k in SUPPORTED if k >= 2 and (p, k) not in CONWAY_POLYNOMIALS]
    assert len(beyond_conway) == 31 and sorted(FIRST_IRREDUCIBLES) == beyond_conway
    for (p, k), modulus in FIRST_IRREDUCIBLES.items():
        assert modulus == first_irreducible(p, k) == reducing_polynomial(p, k), (p, k)
    # a prime field outside the Conway table is realized by x, as the search finds too
    for p in (17, 61, 4093):
        assert (p, 1) not in CONWAY_POLYNOMIALS
        assert reducing_polynomial(p, 1) == first_irreducible(p, 1) == (0, 1)
    with pytest.raises(ValidationError, match="no reducing polynomial is tabled"):
        reducing_polynomial(2, 13)


def test_create_refuses_fields_over_the_cap(monkeypatch):
    # the cap is read before the primality test and before any modulus work
    def no_primality(p):
        raise AssertionError(f"is_prime({p}) ran before the field-order cap was checked")

    monkeypatch.setattr(fields, "is_prime", no_primality)
    for p, k in [(2, 13), (67, 2), (3, 8), (2**61 - 1, 1)]:
        with pytest.raises(SizeCapExceeded, match=re.escape(f"field order {p}^{k} exceeds the cap 4096")):
            PrimePowerField.create(p, k)
    # refused from k's bit length: forming 2^(10^9) first took seconds
    with pytest.raises(SizeCapExceeded, match=r"field order 2\^1000000000 exceeds the cap 4096"):
        PrimePowerField.create(UnpowerableInt(2), 10**9)
    monkeypatch.undo()
    # make_field_additive leaves the cap to create, with the message it gave before
    with pytest.raises(SizeCapExceeded, match=r"^field order 2\^13 exceeds the cap 4096$"):
        make_field_additive(2, 13)
    assert PrimePowerField.create(2, 12).order == FIELD_ORDER_CAP


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2), (13, 3), (7, 4), (2, 12)])
def test_vectorised_norms_match_scalar_norm(p, k):
    gf = ScalarField(p, k)
    norms, oracle = gf.field.norms(), gf.norms()
    assert norms.shape == (gf.order,)
    assert norms.tolist() == oracle.tolist()
    # the square-and-multiply oracle against one element at a time
    rng = random.Random(p * 100 + k)
    xs = range(gf.order) if gf.order <= 200 else [0, 1, *rng.sample(range(2, gf.order), 60)]
    assert [int(oracle[x]) for x in xs] == [gf.norm(x) for x in xs]


@pytest.mark.parametrize("k", range(1, 13))
def test_norms_match_square_and_multiply_on_every_supported_field(k):
    for p in [p for p, d in SUPPORTED if d == k]:
        gf = ScalarField(p, k)
        assert gf.field.norms().tolist() == gf.norms().tolist(), (p, k)


def test_norms_of_a_field_built_directly():
    # norms read only p, k and the modulus, so a field built without ``create`` has them too
    direct = PrimePowerField(7, 2, (3, 6, 1))
    assert direct.norms().tolist() == PrimePowerField.create(7, 2).norms().tolist()
    # another irreducible modulus packs F_49 otherwise, and the oracle reads the same modulus
    other = PrimePowerField(7, 2, (1, 0, 1))
    assert other.norms().tolist() == ScalarField(7, 2, (1, 0, 1)).norms().tolist()
    # over F_5, x^2 + 1 = (x - 2)(x - 3); over F_2, x^12 and (x + 1)(x^11 + x^2 + 1)
    for p, k, modulus in [(5, 2, (1, 0, 1)), (2, 12, (0,) * 12 + (1,)), (2, 12, (1, 1, 1, 1) + (0,) * 7 + (1, 1))]:
        with pytest.raises(ValidationError, match="reducible"):
            PrimePowerField(p, k, modulus).norms()


class _CountingNumpy:
    """numpy as seen from ``fields``: the rows that ``np.remainder`` writes into a listing, and the candidates in
    each stacked product of the order test, one ``np.copyto`` per product."""

    def __init__(self):
        self.rows, self.stacks = 0, []

    def remainder(self, x, p, out):
        self.rows += len(out)
        return np.remainder(x, p, out=out)

    def copyto(self, dst, src, where):
        self.stacks.append(len(dst))
        return np.copyto(dst, src, where=where)

    def __getattr__(self, name):
        return getattr(np, name)


def test_reducible_modulus_with_units_of_field_orders_is_refused_in_bounded_work(monkeypatch):
    # over F_7, x^2 + 1 and x^2 + x + 3 are irreducible, so the ring is F_49 x F_49: every unit has an
    # order dividing 48, which divides q - 1 = 2400, and the first non-unit is x^2 + 1 = 50 in packed order
    modulus = (3, 1, 4, 1, 1)  # (x^2 + 1)(x^2 + x + 3), coefficients ascending
    numpy = _CountingNumpy()
    monkeypatch.setattr(fields, "np", numpy)
    with pytest.raises(ValidationError, match=re.escape(f"modulus {modulus} is reducible over F_7")):
        PrimePowerField(7, 4, modulus).norms()
    # the 43 units fail the order test, and the non-unit passes it and is listed once, never reaching 1;
    # listing every candidate whole would take 44 * 2400 rows
    assert 2400 <= numpy.rows <= 2400 + 43 * 64
    assert numpy.rows == 2400
    # candidates 7..54 in six stacks of eight, each squared bit_length(2400) - 1 = 11 times
    assert numpy.stacks == [8] * 6 * 11
    # a field lists only its primitive element: the five candidates before it in F_{7^4} share its stack
    numpy.rows, numpy.stacks = 0, []
    PrimePowerField.create(7, 4).norms()
    assert (numpy.rows, numpy.stacks) == (2400, [8] * 11)


def test_order_test_stacks_fewer_candidates_of_large_degree(monkeypatch):
    # a stacked k x k product costs about k^3 per candidate: 8 candidates up to k = 4, then fewer
    for (p, k), stack in {(7, 2): 8, (13, 3): 8, (3, 5): 4, (2, 6): 2, (2, 7): 1, (2, 12): 1}.items():
        numpy = _CountingNumpy()
        monkeypatch.setattr(fields, "np", numpy)
        oracle = ScalarField(p, k).norms()
        assert PrimePowerField.create(p, k).norms().tolist() == oracle.tolist()
        assert set(numpy.stacks) == {stack} and numpy.rows == p**k - 1, (p, k)


def test_norms_of_the_field_of_two(monkeypatch):
    # q - 1 = 1 has no prime divisor, so the first candidate, 1, passes with no stacked product
    numpy = _CountingNumpy()
    monkeypatch.setattr(fields, "np", numpy)
    assert PrimePowerField.create(2, 1).norms().tolist() == [0, 1]
    assert (numpy.rows, numpy.stacks) == (1, [])


def test_no_candidate_passing_the_order_test_is_refused(monkeypatch):
    # every candidate failing cannot happen (a field has a primitive element, a reducible ring a non-unit),
    # so the test's verdict is forced; the loop ends, after every stack, with the refusal
    numpy = _CountingNumpy()
    numpy.flatnonzero = lambda a: np.array([], dtype=np.intp)
    monkeypatch.setattr(fields, "np", numpy)
    with pytest.raises(ValidationError, match=re.escape("modulus (2, 4, 1) is reducible over F_5: no element has order 24")):
        PrimePowerField.create(5, 2).norms()
    assert numpy.rows == 0 and len(numpy.stacks) == math.ceil((25 - 5) / 8) * 4


def test_prime_factors_match_trial_division():
    # the primes of q - 1 for the order test, and of a subgroup's order for ``groups._element_orders``
    assert [fields._prime_factors(n) for n in range(1, 20001)] == [prime_divisors(n) for n in range(1, 20001)]
