"""Small finite fields F_{p^k}: packed elements, reducing polynomials and the norm map.

Field elements are packed integers: the element with polynomial coordinates
(c_0, c_1, ..., c_{k-1}) over F_p is the index c_0 + c_1*p + ... + c_{k-1}*p^(k-1).
The prime field therefore occupies the indices 0..p-1.

The reducing polynomial per (p, k) is the Conway polynomial where we carry it
in the table below, and otherwise the lexicographically first monic irreducible
polynomial of degree k (ordered by packed index of the non-leading
coefficients).  The chosen polynomial is exposed via ``PrimePowerField.modulus``
so that constructions are reproducible.  The norm of every element is one
gather along the listing of the powers of a primitive element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num by the monic polynomial den, coefficients mod p."""
    num = [c % p for c in num]
    deg_den = len(den) - 1
    while len(num) > deg_den:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - deg_den
            for i, c in enumerate(den[:-1]):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p**d):
            den = _unpack(packed, d, p) + [1]
            if _poly_mod(list(poly), tuple(den), p) == [0]:
                return False
    # degree-1 factors were covered above for deg >= 2; deg 1 is irreducible
    return True


def _unpack(value: int, k: int, p: int) -> list[int]:
    digits = []
    for _ in range(k):
        value, r = divmod(value, p)
        digits.append(r)
    return digits


def reducing_polynomial(p: int, k: int) -> tuple[int, ...]:
    """The fixed monic irreducible used to realize F_{p^k}."""
    if (p, k) in CONWAY_POLYNOMIALS:
        return CONWAY_POLYNOMIALS[(p, k)]
    for packed in range(p**k):
        cand = tuple(_unpack(packed, k, p) + [1])
        if _is_irreducible(cand, p):
            return cand
    raise ValidationError(f"no irreducible polynomial found for p={p}, k={k}")


@dataclass(frozen=True)
class PrimePowerField:
    """F_{p^k} with packed-integer elements, its reducing polynomial and its norm map."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @classmethod
    def create(cls, p: int, k: int) -> "PrimePowerField":
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if k < 1:
            raise ValidationError("extension degree must be >= 1")
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
        listing.  A modulus with no element of order q - 1 is reducible, and raises.
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
            while True:
                listing = np.concatenate([listing, listing[: q - len(listing)] @ step % p])
                if len(listing) == q:
                    break
                step = step @ step % p
            packed = listing @ weights
            # a field has g^(q-1) = 1 for every g != 0, and g^i = 1 for no 0 < i < q - 1 when g has order q - 1
            if packed[-1] != 1 or np.count_nonzero(packed == 1) == 2:
                break
        if packed[-1] != 1 or np.count_nonzero(packed == 1) != 2:
            raise ValidationError(f"modulus {self.modulus} is reducible over F_{p}: no element has order {q - 1}")
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
