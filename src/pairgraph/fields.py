"""Small finite fields F_{p^k}: packed elements, reducing polynomials and the norm map.

Field elements are packed integers: the element with polynomial coordinates
(c_0, c_1, ..., c_{k-1}) over F_p is the index c_0 + c_1*p + ... + c_{k-1}*p^(k-1).
The prime field therefore occupies the indices 0..p-1.

A field has at most ``FIELD_ORDER_CAP`` elements, checked before any other
work.  The reducing polynomial per (p, k) is looked up, never searched for:
the Conway polynomial where we carry it, x for the other prime fields, and
otherwise the lexicographically first monic irreducible polynomial of degree
k (ordered by packed index of the non-leading coefficients), tabled for the
31 such (p, k) under the cap.  The chosen polynomial is exposed via
``PrimePowerField.modulus`` so that constructions are reproducible.  The norm
of every element is one gather along the listing of the powers of a
primitive element, found by one stacked order test of several candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapExceeded, ValidationError

FIELD_ORDER_CAP = 4096
# candidates per order test in ``PrimePowerField.norms`` up to k = 4, then fewer by k^3, the cost of a k x k product
ORDER_TEST_BATCH = 8

# Conway polynomials, coefficients ascending (constant term first), monic.
CONWAY_POLYNOMIALS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
}

# the lexicographically first monic irreducible of every other (p, k >= 2) with p^k <= FIELD_ORDER_CAP, as above
FIRST_IRREDUCIBLES = {
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (17, 2): (3, 0, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (2, 0, 1),
    (31, 2): (1, 0, 1),
    (37, 2): (2, 0, 1),
    (41, 2): (3, 0, 1),
    (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1),
    (53, 2): (2, 0, 1),
    (59, 2): (1, 0, 1),
    (61, 2): (2, 0, 1),
}


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division up to sqrt(n)."""
    primes = []
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            primes.append(d)
        while n % d == 0:
            n //= d
    return primes + [n] * (n > 1)


def reducing_polynomial(p: int, k: int) -> tuple[int, ...]:
    """The fixed monic irreducible used to realize F_{p^k}, for p^k <= ``FIELD_ORDER_CAP``: a table lookup."""
    if (p, k) in CONWAY_POLYNOMIALS:
        return CONWAY_POLYNOMIALS[(p, k)]
    if k == 1:
        return (0, 1)
    if (p, k) not in FIRST_IRREDUCIBLES:
        raise ValidationError(f"no reducing polynomial is tabled for p={p}, k={k}")
    return FIRST_IRREDUCIBLES[(p, k)]


@dataclass(frozen=True)
class PrimePowerField:
    """F_{p^k} with packed-integer elements, its reducing polynomial and its norm map."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @classmethod
    def create(cls, p: int, k: int) -> "PrimePowerField":
        if k < 1:
            raise ValidationError("extension degree must be >= 1")
        # p^k >= 2^k, so a k of the cap's bit length or more exceeds it without forming the power
        if k >= FIELD_ORDER_CAP.bit_length() or p**k > FIELD_ORDER_CAP:
            raise SizeCapExceeded(f"field order {p}^{k} exceeds the cap {FIELD_ORDER_CAP}")
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        return cls(p=p, k=k, modulus=reducing_polynomial(p, k))

    @property
    def order(self) -> int:
        return self.p**self.k

    def digits(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return digits

    def norms(self) -> np.ndarray:
        """The norm down to the prime field, a^((q-1)/(p-1)) with q = p^k, of every element a; 0 has norm 0.

        Multiplying by c is F_p-linear on digit rows, by M_c = sum_d c_d M_x^d, M_x the
        companion matrix of the modulus.  Candidates g are tested in stacks: their squares
        M_g^(2^j) are taken once, and for each prime l | q - 1, g^((q-1)/l) is row 0 of
        the product of the squares at the set bits of (q-1)/l.  Only the first g with
        none of these powers 1 is listed, g^i for i < q, by doubling, L[m:2m] = L[:m] M_g^m;
        as the norm is multiplicative, N(g^i) = g^(i(q-1)/(p-1)) is a gather along the
        listing.  In a field that g has order q - 1.  A listing that does not end in
        g^(q-1) = 1 (a non-unit, or a unit of an order not dividing q - 1) proves the
        modulus reducible, and raises.
        """
        p, k, q = self.p, self.k, self.order
        mx = np.eye(k, k, 1, dtype=np.int64)
        mx[-1] = np.negative(self.modulus[:-1]) % p
        xpow = np.empty((k, k, k), dtype=np.int64)
        xpow[0] = np.eye(k, dtype=np.int64)
        for d in range(1, k):
            xpow[d] = xpow[d - 1] @ mx % p
        xpow = xpow.reshape(k, k * k)
        weights = p ** np.arange(k)
        # an exponent (q-1)/l <= (q-1)/2 sets bits j < bits - 1 only; the listing takes M_g^(2^j) for all j < bits
        exponents, bits = [(q - 1) // l for l in _prime_factors(q - 1)], (q - 1).bit_length()
        keep = np.array([[not e >> j & 1 for j in range(bits - 1)] for e in exponents], dtype=bool)
        # the prime field's units have orders dividing p - 1, so for k > 1 none has order q - 1
        batch = max(1, min(ORDER_TEST_BATCH, ORDER_TEST_BATCH * 4**3 // k**3))
        for first in range(p if k > 1 else 1, q, batch):
            candidates = np.arange(first, min(first + batch, q))
            # M_g^(2^j) over a row g^e per exponent: one product squares the one and multiplies the others,
            # each keeping its row where bit j of its exponent is 0
            stack = np.zeros((len(candidates), k + len(exponents), k), dtype=np.int64)
            stack[:, :k] = (candidates[:, None] // weights % p @ xpow % p).reshape(-1, k, k)
            stack[:, k:, 0] = 1
            squares = [stack[:, :k]]
            for j in range(bits - 1):
                product = stack @ squares[-1] % p
                np.copyto(product[:, k:], stack[:, k:], where=keep[:, j, None])
                stack = product
                squares.append(stack[:, :k])
            passed = np.flatnonzero((stack[:, k:] @ weights != 1).all(axis=1))
            if passed.size:
                break
        else:
            passed, squares = [0], []  # no candidate passed: the listing stays at g^0, and the check below raises
        listing, g = np.zeros((q, k), dtype=np.int64), int(passed[0])
        listing[0, 0] = 1
        for j, square in enumerate(squares):
            np.remainder(listing[: min(1 << j, q - (1 << j))] @ square[g], p, out=listing[1 << j : 2 << j])
        packed = listing @ weights
        if packed[-1] != 1:
            raise ValidationError(f"modulus {self.modulus} is reducible over F_{p}: no element has order {q - 1}")
        # N(g^i) = g^((i mod (p-1))(q-1)/(p-1)): listed in rows of p - 1, column c has the norm g^(c(q-1)/(p-1))
        norms = np.zeros(q, dtype=np.int64)
        norms[packed[:-1].reshape(-1, p - 1)] = packed[: q - 1 : (q - 1) // (p - 1)]
        if norms.max() >= p:
            raise ValidationError("norm did not land in the prime field")
        return norms

    def label(self, a: int) -> str:
        digits = self.digits(a)
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("a" if c == 1 else f"{c}a")
            else:
                terms.append(f"a^{i}" if c == 1 else f"{c}a^{i}")
        return "+".join(terms) if terms else "0"
