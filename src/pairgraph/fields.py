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
primitive element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapExceeded, ValidationError

FIELD_ORDER_CAP = 4096

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
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _unpack(value: int, k: int, p: int) -> list[int]:
    digits = []
    for _ in range(k):
        value, r = divmod(value, p)
        digits.append(r)
    return digits


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
        return _unpack(a, self.k, self.p)

    def norms(self) -> np.ndarray:
        """The norm down to the prime field, a^((q-1)/(p-1)) with q = p^k, of every element a; 0 has norm 0.

        Multiplying by c is F_p-linear on digit rows, by M_c = sum_d c_d M_x^d with
        M_x the companion matrix of the modulus.  The powers g^i, i < q, of the least
        g of order q - 1 are listed by doubling, L[m:2m] = L[:m] M_g^m, and as the
        norm is multiplicative, N(g^i) = g^(i(q-1)/(p-1)) is a gather along the
        listing.  A candidate's listing stops at the first block holding a 1, at
        index g's order: in a field that order divides q - 1, and below q - 1 the
        next candidate is tried.  A first 1 at an order not dividing q - 1, or no 1
        at all, proves the modulus reducible, and raises at once.
        """
        p, k, q = self.p, self.k, self.order
        mx = np.eye(k, k, 1, dtype=np.int64)
        mx[-1] = np.negative(self.modulus[:-1]) % p
        xpow = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            xpow.append(xpow[-1] @ mx % p)
        xpow = np.reshape(xpow, (k, k * k))
        weights = p ** np.arange(k)
        # the prime field's units have orders dividing p - 1, so for k > 1 none has order q - 1
        for g in range(p if k > 1 else 1, q):
            listing, step = np.eye(1, k, dtype=np.int64), (self.digits(g) @ xpow % p).reshape(k, k)
            packed, order = [np.ones(1, dtype=np.int64)], 0
            while not order and len(listing) < q:
                block = listing[: q - len(listing)] @ step % p
                packed.append(block @ weights)
                ones = np.flatnonzero(packed[-1] == 1)
                order = len(listing) + int(ones[0]) if ones.size else 0
                listing = np.concatenate([listing, block])
                step = step @ step % p
            if order == q - 1 or not order or (q - 1) % order:
                break
        if order != q - 1:
            raise ValidationError(f"modulus {self.modulus} is reducible over F_{p}: no element has order {q - 1}")
        packed = np.concatenate(packed)
        norms = np.zeros(q, dtype=np.int64)
        norms[packed[:-1]] = packed[np.arange(q - 1) * ((q - 1) // (p - 1)) % (q - 1)]
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
