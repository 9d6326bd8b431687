"""Exact finite group arithmetic on dense integer element indices.

Concrete structure (permutation images, matrix entries, the field) lives in one read-only
array or object per family, which labels, ``perm_index`` and ``FiniteGroup.chain_index`` read;
every other module works with indices 0..order-1, the product and the inverse map.

Each family supplies one vectorised kernel, a numpy function that multiplies
two index arrays elementwise under broadcasting.  The slow families multiply
by gathers from small per-family arrays: a permutation's composite is keyed
by its first n-1 images, as one float32 dot product of two gathered rows for
every pair of factors, and a dense rank array maps the key to the index; a
matrix acts on the p^2 column vectors through one m x p^2 array, and the
product is looked up by its two column codes; a cyclic sum, F_p's included,
is reduced by ``% n``, F_{2^k} adds by XOR, and any other F_{p^k} by two
gathers from one table of digitwise sums on half the digits; a direct product
reads each element's two components from precomputed arrays.
``FiniteGroup.product`` is the one multiplication path: it runs the kernel
in blocks of at most ``BLOCK`` products, so a batch allocates at most a few
megabytes of temporaries, and ``mul`` and ``left_row`` derive from it.  No
group keeps an order x order table.  A family's one size limit is its
order: at most ``ORDER_CAP``, checked from the family's order formula before
any array is allocated or any primality test runs, and at most
``FIELD_ORDER_CAP`` for ``F_{p^k}``.  Element labels
are formatted on first read.  Permutations compose left to right:
``(p*q)(x) = q(p(x))``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    IdentityInGeneratingSet,
    NotASubgroup,
    SizeCapExceeded,
    SymmetryViolation,
    ValidationError,
)
from .fields import FIELD_ORDER_CAP, PrimePowerField, _prime_factors, is_prime
from .records import Record

ORDER_CAP = 20000
# products per kernel call: a permutation kernel then holds under half a
# megabyte of temporaries, and large frees do not make malloc keep freed heap
BLOCK = 1 << 13

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


class FiniteGroup:
    """A finite group on element indices 0..order-1.

    ``kernel(a, b)`` returns the products of two broadcastable integer index
    arrays, 0-d included; ``inverses`` is the inverse map as an array.
    ``make_labels()`` lists the element labels; it runs on the first read of
    ``labels``.
    """

    def __init__(
        self,
        *,
        name: str,
        order: int,
        make_labels: Callable[[], Iterable[str]],
        identity: int,
        inverse: Sequence[int],
        kernel: Kernel,
        descriptor: Optional[dict] = None,
    ) -> None:
        if order == 0:
            raise ValidationError("a group needs at least the identity element")
        _check_order(order)
        self.order = order
        self.name = name
        self._make_labels = make_labels
        self.identity = int(identity)
        self.descriptor = descriptor or {}
        self.inverses = np.asarray(inverse, dtype=np.int32)
        self._kernel = kernel
        # the concrete elements, set by the constructors that have them
        self.images: Optional[np.ndarray] = None  # S_n, A_n: read-only order x n, row x the images of 0..n-1
        self.matrices: Optional[np.ndarray] = None  # GL2, SL2: read-only order x 4, row x (a, b, c, d)
        self.field: Optional[PrimePowerField] = None

    @cached_property
    def labels(self) -> list[str]:
        return [str(x) for x in self._make_labels()]

    def product(self, a, b) -> np.ndarray:
        """Products a*b for index arrays a and b, elementwise under broadcasting.

        Computed by the family kernel in blocks of at most ``BLOCK`` products.
        """
        a, b = np.asarray(a), np.asarray(b)
        shape = np.broadcast(a, b).shape  # a third of the time of np.broadcast_shapes
        if math.prod(shape) <= BLOCK:
            return self._kernel(a, b)
        # split along the first axis only where an operand has it, so a
        # kernel gathers for a row vector, not for its broadcast block
        a, b = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (a, b))
        out = np.empty(shape, dtype=np.int32)
        rows = max(1, BLOCK // math.prod(shape[1:]))
        for i in range(0, shape[0], rows):
            out[i : i + rows] = self._kernel(*(x[i : i + rows] if len(x) > 1 else x for x in (a, b)))
        return out

    def mul(self, a: int, b: int) -> int:
        return int(self.product(a, b))

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def left_row(self, a: int) -> np.ndarray:
        """Products a*g for every g, as one vector."""
        return self.product(a, np.arange(self.order))

    @cached_property
    def chain_index(self) -> np.ndarray:
        """For S_n: each element's place in the ``coset_chain`` listing, a Lehmer code of its images x.

        c_i at level j sends j to i and moves i..j-1 up by one, so digit j (0-indexed) is #{k < j : x(k) < x(j)},
        of radix j + 1, digit 1 leading: the place sums n! / (j + 1)! over the pairs k < j with x(k) < x(j).
        """
        if self.descriptor.get("kind") != "symmetric":  # elsewhere the code is no position in the group
            raise ValidationError(f"chain_index needs a symmetric group, not {self.name}")
        n = self.images.shape[1]
        k, j = np.triu_indices(n, 1)
        weights = np.array([math.factorial(n) // math.factorial(x + 1) for x in j.tolist()], dtype=np.int64)
        return _read_only((self.images[:, k] < self.images[:, j]) @ weights)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def coset_chain(n: int, one, s: Sequence, multiply: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The chain S_1 < ... < S_n of S_n = <s_1, ..., s_(n-1)> under ``multiply``, for n >= 2.

    At level j, c_i = s_(j-1) * ... * s_i for i = 1..j (c_j = ``one``): the
    minimal representatives of S_(j-1) \\ S_j in the Coxeter group, with S_j
    generated by s_1..s_(j-1).  So each element of S_n is c_(i_2) * ... *
    c_(i_n) for one digit string.  Returns those of S_(n-1), i_2 leading in
    mixed radix, and the n representatives c_1..c_n of the last level.
    """
    listing = np.asarray(one)[None]
    for j in range(2, n + 1):
        reps = [one]
        for i in range(j - 1, 0, -1):  # c_i = c_(i+1) * s_i
            reps.insert(0, multiply(reps[0], s[i - 1]))
        reps = np.array(reps)
        if j < n:
            listing = multiply(listing[:, None], reps).reshape(-1, *np.shape(one))
    return listing, reps


def _check_order(order: int, shown: Optional[str] = None) -> None:
    if order > ORDER_CAP:
        raise SizeCapExceeded(f"group order {order if shown is None else shown} exceeds the cap {ORDER_CAP}")


def _parameter(value, what: str, low: int, order: Callable[[int], int], shown: Optional[str] = None, prime=False) -> int:
    """A family's parameter n, checked in turn: an integer, at least ``low``, of an order ``order(n)`` within
    ``ORDER_CAP`` (named as ``shown.format(n)`` if given), and prime if ``prime``: no trial division past the cap."""
    (n,) = _int_entries([value], what)
    if n < low:
        raise ValidationError(f"{n} is not prime" if prime else f"{what} must be >= {low}")
    _check_order(order(n), shown and shown.format(n))
    if prime and not is_prime(n):
        raise ValidationError(f"{n} is not prime")
    return n


def _int_entries(values: Iterable, what: str, error=ValidationError, within=None) -> list[int]:
    """``values`` as ints; an entry that is not an int or numpy integer (a bool, float or str) raises
    ``error`` naming it as ``what``, and ``within`` if given.  All ints, the usual case, take one pass,
    and an integer array is read whole."""
    ints = values.tolist() if isinstance(values, np.ndarray) and values.dtype.kind in "iu" else list(values)
    if all(type(v) is int for v in ints):
        return ints
    for v in ints:
        if type(v) is not int and not isinstance(v, np.integer):
            where = "" if within is None else f" in {within!r}"
            raise error(f"{what} {v!r}{where} is not an integer")
    return list(map(int, ints))


def _element_indices(
    group: FiniteGroup, elements: Iterable[int], what: str = "element", error: type[ValidationError] = ValidationError
) -> list[int]:
    """``elements`` as ascending distinct ints; ``error`` names, as ``what``, an entry that is not an int
    or numpy integer, else the least one outside 0..order-1."""
    if isinstance(elements, Iterable):
        elems = sorted(set(_int_entries(elements, what, error)))
    else:
        raise error(f"{what}s must be a list, got {elements!r}")
    if elems and (elems[0] < 0 or elems[-1] >= group.order):
        bad = next(x for x in elems if not 0 <= x < group.order)
        raise error(f"{what} {bad} out of range")
    return elems


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> FiniteGroup:
    """Z/nZ with addition; the identity is 0."""
    n = _parameter(n, "cyclic group order", 1, lambda n: n)
    kernel, inverse = _sum_mod(n)
    return FiniteGroup(
        name=f"Z/{n}",
        order=n,
        make_labels=lambda: map(str, range(n)),
        identity=0,
        inverse=inverse,
        kernel=kernel,
        descriptor={"kind": "cyclic", "params": [n]},
    )


def _sum_mod(n: int) -> tuple[Kernel, np.ndarray]:
    """The kernel (a + b) % n of Z/n, and its inverse map."""
    return (lambda a, b: (a + b) % n), (-np.arange(n)) % n


def perm_from_cycles(n: int, spec) -> tuple[int, ...]:
    """Permutation of degree n from 1-indexed cycles, e.g. "(1,2)(3,4)" or [(1,2),(3,4)].

    Cycles are applied left to right in the written order.
    """
    if isinstance(spec, str):
        text = spec.replace(" ", "")
        if text in ("", "e", "()"):
            cycles = []
        else:
            if not (text.startswith("(") and text.endswith(")")):
                raise ValidationError(f"cannot parse cycles {spec!r}")
            tokens = [part.split(",") for part in text[1:-1].split(")(")]
            bad = next((v for part in tokens for v in part if not v.isdecimal()), None)
            if bad is not None:
                raise ValidationError(f"bad cycle entry {bad!r} in {spec!r}")
            cycles = [tuple(map(int, part)) for part in tokens]
    elif not isinstance(spec, Iterable):
        raise ValidationError(f"cycles {spec!r} are not a string, list or tuple")
    else:
        bad = next((c for c in spec if not isinstance(c, (list, tuple))), None)
        if bad is not None:
            raise ValidationError(f"cycle {bad!r} in {spec!r} is not a list or tuple")
        cycles = [tuple(_int_entries(c, "permutation entry", within=spec)) for c in spec]
    result = list(range(n))
    for cyc in cycles:
        if any(not 1 <= v <= n for v in cyc):
            raise ValidationError(f"cycle entry out of range 1..{n}: {cyc}")
        if len(set(cyc)) != len(cyc):
            raise ValidationError(f"cycle {cyc} repeats an entry")
        images = list(range(n))
        for i, v in enumerate(cyc):
            images[v - 1] = cyc[(i + 1) % len(cyc)] - 1
        result = [images[x] for x in result]  # left to right: the cycles written earlier apply first
    return tuple(result)


def perm_cycle_label(perm: Sequence[int]) -> str:
    """Canonical 1-indexed cycle notation, "e" for the identity."""
    seen, parts = set(), []
    for x in range(len(perm)):
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        if len(cycle) > 1:
            parts.append("(" + ",".join(cycle) + ")")
    return "".join(parts) or "e"


def perm_index(group: FiniteGroup, spec) -> int:
    """Index of a permutation given by cycles (or image tuple x) in a permutation group.

    That is the lexicographic rank of x, of length m: the sum over j of #{k > j : x(k) < x(j)} * (m - 1 - j)!,
    halved in A_n, where ranks 2i and 2i + 1 swap the last two images and one is even.  x is in the
    group exactly when it is that row of ``images``.
    """
    images = group.images
    if images is None:
        raise ValidationError(f"{group.name} is not a permutation group")
    n = images.shape[1]
    if not isinstance(spec, Iterable):
        raise ValidationError(f"permutation {spec!r} is not cycles or an image tuple")
    if isinstance(spec, str) or any(isinstance(c, (list, tuple)) for c in spec):
        perm = perm_from_cycles(n, spec)
    else:
        perm = _int_entries(spec, "permutation entry", within=spec)
    m = len(perm)
    rank = sum(sum(y < x for y in perm[j + 1 :]) * math.factorial(m - 1 - j) for j, x in enumerate(perm))
    if len(images) < math.factorial(n):
        rank //= 2
    if rank >= len(images) or images[rank].tolist() != list(perm):
        raise ValidationError(f"permutation {spec!r} not in {group.name}")
    return rank


def _even_rows(n: int) -> np.ndarray:
    """Mask of the even rows of S_n's lexicographic listing (see ``_permutation_group``)."""
    return np.indices(range(n, 0, -1)).sum(0).ravel() % 2 == 0


def _permutation_group(kind: str, n: int) -> FiniteGroup:
    """Permutations of degree n in lexicographic order, all of them or, for A_n, the even ones.

    S_m's listing is, for each first image f, f followed by S_(m-1)'s listing
    mapped in order onto the values other than f: one gather per level from
    S_0's empty row.  The f smaller values all follow f, so row r has as many
    inversions as the digit sum of r in the factorial base, and A_n keeps the
    rows where that sum is even, as ``_even_rows`` marks them.

    A permutation is fixed by its first n-1 images (its first image when
    n = 1), so ``rank`` maps their base-n key to the element index: n^(n-1)
    entries, 470 KB at n = 7.  The key of a*b is the dot product
    ``placed[a] . columns[b]``, ``placed[a]`` holding the weight of image i at
    position a[i] and ``columns[b]`` the images of b, both in float32.  A
    column of a against a row of b, the shape of every bulk call, takes its
    keys from one matrix product, and every other shape from one ``einsum``
    over the last axis.  Each is exact, as every partial sum is an integer
    below n^(n-1) <= 7^6 < 2^24, 7 the largest n with n!/2 <= ``ORDER_CAP``.
    One ``argsort`` of the rows gives every inverse permutation, which holds
    i at position a[i]: ``placed`` gathers the weights (0 for the last image)
    by it, and the inverse's key is read from it as any other.
    """
    even_only, b = kind == "alternating", ORDER_CAP.bit_length()
    # the order n! (n!/2 in A_n) from min(n, b)!: n!/2 >= 2^n from n = 5 and 2^b > ORDER_CAP, so any n >= b is over
    shown = "{}!/2" if even_only else "{}!"
    n = _parameter(n, f"{kind} group degree", 1, lambda n: math.factorial(min(n, b)) >> even_only, shown)
    images = np.zeros((1, 0), dtype=np.int32)
    for m in range(1, n + 1):
        first = np.arange(m, dtype=np.int32)[:, None, None]
        block = np.empty((m, len(images), m), dtype=np.int32)
        block[..., :1] = first
        block[..., 1:] = images + (images >= first)
        images = block.reshape(-1, m)
    if even_only:
        images = images[_even_rows(n)]
    order, width = len(images), max(n - 1, 1)
    weights = n ** np.arange(width - 1, -1, -1, dtype=np.int32)
    rank = np.zeros(n**width, dtype=np.int32)
    rank[images[:, :width] @ weights] = np.arange(order, dtype=np.int32)
    inverse = np.argsort(images, axis=1)
    placed = np.append(weights, [0] * (n - width)).astype(np.float32)[inverse]
    columns = images.astype(np.float32)

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape == (a.size, 1) and b.shape in ((b.size,), (1, b.size)):
            key = placed[a.ravel()] @ columns[b.ravel()].T
        else:
            key = np.einsum("...i,...i->...", placed[a], columns[b])
        return rank[key.astype(np.intp)]

    g = FiniteGroup(
        name=f"{kind[0].upper()}{n}",
        order=order,
        make_labels=lambda: map(perm_cycle_label, images.tolist()),
        identity=0,
        inverse=rank[inverse[:, :width] @ weights],
        kernel=kernel,
        descriptor={"kind": kind, "params": [n]},
    )
    g.images = _read_only(images)
    return g


def make_symmetric(n: int) -> FiniteGroup:
    """S_n on image tuples in lexicographic order."""
    return _permutation_group("symmetric", n)


def make_alternating(n: int) -> FiniteGroup:
    """A_n: the even permutations of S_n, lexicographic order."""
    return _permutation_group("alternating", n)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of the n-gon, order 2n; elements s^f r^j with r s = s r^-1."""
    n = _parameter(n, "dihedral parameter", 1, lambda n: 2 * n)
    order = 2 * n

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        f1, j1 = np.divmod(a, n)
        f2, j2 = np.divmod(b, n)
        return (f1 ^ f2) * n + (j2 + j1 - 2 * f2 * j1) % n

    inverse = [(-a) % n if a < n else a for a in range(order)]
    return FiniteGroup(
        name=f"D{n}",
        order=order,
        make_labels=lambda: ["e"] + [f"r^{j}" for j in range(1, n)] + ["s"] + [f"s·r^{j}" for j in range(1, n)],
        identity=0,
        inverse=inverse,
        kernel=kernel,
        descriptor={"kind": "dihedral", "params": [n]},
    )


def make_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element a*|G2| + b represents the pair (a, b)."""
    _check_order(g1.order * g2.order)
    o2 = g2.order
    # each element's two components, read by gathers rather than divided out per product
    first, second = np.divmod(np.arange(g1.order * o2), o2)

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return g1.product(first[x], first[y]) * o2 + g2.product(second[x], second[y])

    return FiniteGroup(
        name=f"{g1.name}x{g2.name}",
        order=g1.order * o2,
        make_labels=lambda: (f"({x},{y})" for x in g1.labels for y in g2.labels),
        identity=g1.identity * o2 + g2.identity,
        inverse=(g1.inverses[:, None] * o2 + g2.inverses).ravel(),
        kernel=kernel,
        descriptor={"kind": "product", "params": [g1.descriptor, g2.descriptor]},
    )


def _matrix_group(name: str, p: int, keep_det, descriptor: dict) -> FiniteGroup:
    """2x2 matrices over F_p with an admissible determinant, lexicographic (a,b,c,d) order.

    x*y is x applied to the two columns of y.  The column (u, v) has code
    u*p + v; ``act[x*p^2 + c]`` is the code of x applied to column c, and
    ``by_columns[c1*p^2 + c2]`` the index of the matrix with columns c1, c2,
    so a product is gathers only and pays no ``% p``.
    """
    x = np.arange(p)  # a, b, c, d on four axes, so np.argwhere lists the kept ones in (a, b, c, d) order
    a, b, c, d = x[:, None, None, None], x[:, None, None], x[:, None], x
    mats = np.argwhere(keep_det((a * d - b * c) % p))
    a, b, c, d = mats.T
    p2 = p * p
    first, second = a * p + c, b * p + d
    by_columns = np.full(p2 * p2, -1, dtype=np.int32)
    by_columns[first * p2 + second] = np.arange(len(mats))
    # x applied to (v1, v2) is v1 * first(x) + v2 * second(x): multiples and
    # sums of column codes come from p x p^2 and p^2 x p^2 tables
    v1, v2 = np.divmod(np.arange(p2), p)
    add = ((v1[:, None] + v1) % p * p + (v2[:, None] + v2) % p).astype(np.min_scalar_type(p2 - 1)).ravel()
    scalar = np.arange(p)[:, None]
    multiples = scalar * v1 % p * p + scalar * v2 % p
    first_multiples, second_multiples = multiples[:, first].T * p2, multiples[:, second].T
    act = np.empty((len(mats), p, p), dtype=add.dtype)
    for v in range(p):
        act[:, v] = add[first_multiples[:, v, None] + second_multiples]
    act = act.ravel()

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        offset = x * p2
        return by_columns[act[offset + first[y]].astype(np.intp) * p2 + act[offset + second[y]]]

    det_inverse = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)])[(a * d - b * c) % p]
    # the inverse is det^-1 * [[d, -b], [-c, a]]
    a, b, c, d = (v * det_inverse % p for v in (d, -b, -c, a))
    g = FiniteGroup(
        name=name,
        order=len(mats),
        make_labels=lambda: ("[[{},{}],[{},{}]]".format(*m) for m in mats.tolist()),
        identity=int(by_columns[p * p2 + 1]),
        inverse=by_columns[(a * p + c) * p2 + b * p + d],
        kernel=kernel,
        descriptor=descriptor,
    )
    g.matrices = _read_only(mats)
    return g


def make_gl2(p: int) -> FiniteGroup:
    """GL_2(F_p), order (p^2-1)(p^2-p), matrices in lexicographic (a,b,c,d) order."""
    p = _parameter(p, "prime", 2, lambda p: (p * p - 1) * (p * p - p), prime=True)
    return _matrix_group(f"GL2(F{p})", p, lambda det: det != 0, {"kind": "gl2", "params": [p]})


def make_sl2(p: int) -> FiniteGroup:
    """SL_2(F_p), order p(p^2-1)."""
    p = _parameter(p, "prime", 2, lambda p: p * (p * p - 1), prime=True)
    return _matrix_group(f"SL2(F{p})", p, lambda det: det == 1, {"kind": "sl2", "params": [p]})


def make_field_additive(p: int, k: int) -> FiniteGroup:
    """The additive group of F_{p^k}; the field structure rides along in ``.field``.

    ``PrimePowerField.create`` checks p^k against ``FIELD_ORDER_CAP`` before p's primality.  F_p adds as Z/p,
    by ``(a + b) % p``, and F_{2^k} by XOR.  Otherwise (odd p, k >= 2) an index is low + half * high, low its
    first ceil(k/2) digits, so high has no more digits than low, and a digitwise sum of two lows or of two highs
    is an entry of one half x half table (F_{13^3}'s, 169 x 169, is the largest), read at a pre-scaled row; the
    table grows by a leading digit at a time, and the 0 in each of its rows marks that row's negative.
    """
    (p,) = _int_entries([p], "prime")
    if p < 2:  # else the field cap would name p^k, no field's order, for a large k
        raise ValidationError(f"{p} is not prime")
    (k,) = _int_entries([k], "extension degree")
    gf = PrimePowerField.create(p, k)
    if k == 1:
        kernel, inverse = _sum_mod(p)
    elif p == 2:  # binary digits add by XOR, and every element is its own negative
        kernel, inverse = (lambda a, b: a ^ b), np.arange(gf.order)
    else:
        half, digit, table = p ** ((k + 1) // 2), np.arange(p, dtype=np.int32), np.zeros((1, 1), dtype=np.int32)
        for w in (p**d for d in range((k + 1) // 2)):
            table = (((digit[:, None] + digit) % p * w)[:, None, :, None] + table[:, None]).reshape(p * w, p * w)
        high, low = np.divmod(np.arange(gf.order), half)
        negative, table, high_row, low_row = table.argmin(axis=1), table.ravel(), high * half, low * half
        inverse = negative[low] + negative[high] * half

        def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return table[low_row[a] + low[b]] + table[high_row[a] + high[b]] * half

    g = FiniteGroup(
        name=f"F{p}^{k}" if k > 1 else f"F{p}",
        order=gf.order,
        make_labels=lambda: map(gf.label, range(gf.order)),
        identity=0,
        inverse=inverse,
        kernel=kernel,
        descriptor={"kind": "field_additive", "params": [p, k]},
    )
    g.field = gf
    return g


def field_norm_preimage(group: FiniteGroup, values: Iterable[int]) -> tuple[int, ...]:
    """Elements of F_{p^k} whose field norm lies in the given prime-field values."""
    if group.field is None:
        raise ValidationError("norm preimages need a group built by make_field_additive")
    gf = group.field
    values = set(_int_entries(values, "norm value"))
    for v in values:
        if not 0 <= v < gf.p:
            raise ValidationError(f"value {v} is outside the prime field F_{gf.p}")
    return tuple(np.flatnonzero(np.isin(gf.norms(), list(values))).tolist())


# ---------------------------------------------------------------------------
# subgroups and generating sets


class AbelianOrbits(Record, eq=False):
    """An abelian K = <k_1> x ... x <k_d> <= H and its orbits K*t on the parent.

    ``listing`` has shape (n_1, ..., n_d), n_i the order of k_i, and holds
    k_1^l_1 * ... * k_d^l_d at [l_1, ..., l_d]; the basis k_i sits at the unit
    vectors.  Orbit ``orbit_of[x]`` is the right coset K*x; ``reps`` holds
    each orbit's least element t, the orbits inside H first, then the rest,
    each part by ascending t, with ``inside`` the number of orbits in H; and
    ``exponent[x]`` is the flat index of k^l in ``listing``, where x = k^l * t.
    """

    listing: np.ndarray
    orbit_of: np.ndarray
    exponent: np.ndarray
    reps: np.ndarray
    inside: int


class Subgroup(Record, eq=False):
    """A subgroup together with the right-coset decomposition of its parent.

    ``elements`` (ascending), ``coset_of`` (the coset id of every element of
    the parent) and ``coset_reps`` are read-only int arrays.  Coset 0 is the
    subgroup itself; the remaining cosets are numbered by ascending minimal
    element index, and each representative is the minimal element of its
    coset.
    """

    parent: FiniteGroup
    elements: np.ndarray
    coset_of: np.ndarray
    coset_reps: np.ndarray

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    def contains(self, x: int) -> bool:
        (x,) = _element_indices(self.parent, [x])
        return not self.coset_of[x]

    def outside(self) -> tuple[int, ...]:
        """The parent's elements outside the subgroup, ascending: built on the first call and kept."""
        return self._outside

    @cached_property
    def _outside(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.coset_of).tolist())

    @cached_property
    def abelian_orbits(self) -> AbelianOrbits:
        """The right cosets K*x in the parent of the abelian K <= H that ``_abelian_subgroup`` chooses.

        Chosen on first read, which the first spectrum of a pair graph on H makes.
        """
        group, n = self.parent, self.order
        listing = _abelian_subgroup(group, self.elements)
        flat = listing.ravel()
        cosets = self if flat.size == n else closed_subgroup(group, flat)
        coset_of, reps = cosets.coset_of, cosets.coset_reps
        # renumber the orbits by (outside H, least element): those in H come first
        outside = self.coset_of[reps] != 0
        old = np.lexsort((reps, outside))
        renumber = np.empty(len(reps), dtype=np.int64)
        renumber[old] = np.arange(len(reps))
        power = np.empty(group.order, dtype=np.int64)
        power[flat] = np.arange(flat.size)
        return AbelianOrbits(
            listing=_read_only(listing),
            orbit_of=_read_only(renumber[coset_of]),
            exponent=_read_only(power[group.product(np.arange(group.order), group.inverses[reps[coset_of]])]),
            reps=_read_only(reps[old]),
            inside=int(np.count_nonzero(~outside)),
        )

    @cached_property
    def coset_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, np.ndarray]:
        """(cells, position, natural, in_order, inverses) for ``adjacency_rows_via_group_matrix``, on first read.

        cells[i, j] = h_i * t_j over the sorted h_i and the representatives t_j; position[h_i] = i;
        natural[g] is g's flat cell; in_order says natural is 0..|G|-1; inverses[i] = h_i^-1.
        """
        group, h = self.parent, self.elements
        cells = group.product(h[:, None], self.coset_reps)
        position = np.cumsum(self.coset_of == 0, dtype=np.int32) - 1  # the count of elements of H <= each h, less 1
        natural = np.argsort(cells, axis=None)
        in_order = np.array_equal(natural, np.arange(group.order))
        return (*map(_read_only, (cells, position, natural)), in_order, _read_only(group.inverses[h]))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index} in {self.parent.name})"


def _abelian_subgroup(group: FiniteGroup, h: np.ndarray) -> np.ndarray:
    """An abelian K = <k_1> x ... x <k_d> <= H, listed as in ``AbelianOrbits.listing``.

    K grows from each of several starts: k, an element of largest order in
    H, least index on ties, then the least element of order p for each prime
    p | |H|, taken from ``_prime_factors`` (one exists by Cauchy).  Each
    step adjoins the element g of largest order, least index on ties, that
    commutes with K and whose cyclic group meets K only in e, found by g's
    elements of prime order lying outside K; so K<g> = K x <g>.  The largest
    K wins, ties going to the earliest start, so K = <k> unless a larger K
    is found, and K = H when H is cyclic.  The K grown from a start s lies in
    its centraliser C_H(s), so a start whose centraliser is no larger than
    the best K so far is skipped.  For abelian H the first start
    already gives K = H: <k> is a direct factor of H, and when K is one, with
    H = K x C, the image of g in H/K ~ C has g's order, the largest in C, so
    it spans a direct factor of C and K x <g> is a direct factor of H too.
    This is the basis by lifting from the quotient of Buchmann and Schmidt,
    "Computing the structure of a finite abelian group", Math. Comp. 74
    (2005), each p-part at once.
    """
    n = len(h)
    order, low = _element_orders(group, h, n)
    first = int(order.argmax())
    if order[first] == n:
        return _powers(group, h[first])
    # largest order first, least index on ties; the identity, last, never qualifies
    by_order = np.argsort(-order, kind="stable")[:-1]
    h, order, low = h[by_order], order[by_order], np.array(list(low.values()))[:, by_order]
    # k, then the least element of each prime order p | n, which exists for every such p
    best = None
    for start in dict.fromkeys([0, *(int(np.argmax(order == p)) for p in _prime_factors(n))]):
        free = np.flatnonzero(group.product(h, h[start]) == group.product(h[start], h))
        if best is not None and free.size + 1 <= best.size:  # K <= C_H(start), which holds e and h[free]
            continue
        listing = _powers(group, h[start])
        while True:
            in_k = np.zeros(group.order, dtype=bool)
            in_k[listing] = True
            in_k[group.identity] = False  # where p does not divide the order, low holds e
            # an element meeting K in more than e meets every larger K so too
            free = free[~in_k[low[:, free]].any(axis=0)]
            if not free.size:
                break
            g = h[free[0]]
            listing = group.product(listing[..., None], _powers(group, g))
            free = free[group.product(h[free], g) == group.product(g, h[free])]
        if best is None or listing.size > best.size:
            best = listing
    return best


def _powers(group: FiniteGroup, k: int) -> np.ndarray:
    """k^0, ..., k^(n-1) for k of order n, by doubling, k^m..k^(2m-1) = k^0..k^(m-1) times k^m, cut where e recurs."""
    listing = np.array([group.identity])
    while True:
        block = group.product(listing, group.product(listing[-1], k))
        recur = np.flatnonzero(block == group.identity)
        listing = np.concatenate([listing, block[: recur[0]] if recur.size else block])
        if recur.size:
            return listing


def _element_orders(group: FiniteGroup, x: np.ndarray, n: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The order of every entry of x, given that each order divides n, and its elements of prime order.

    For each prime power p^a exactly dividing n, x^(n / p^a) has order the
    p-part of x's order, found by raising it to the p-th power until it is
    the identity, for all of x at once; the last power before the identity
    is ``low[p]``, an element of order p in <x>, or e where p does not divide
    x's order.
    """
    order = np.ones(np.shape(x), dtype=np.int64)
    low = {}
    for p in _prime_factors(n):
        part = p
        while n % (part * p) == 0:
            part *= p
        y = _power(group, x, n // part)
        low[p] = np.full(np.shape(x), group.identity)
        while (moved := y != group.identity).any():
            order[moved] *= p
            low[p][moved] = y[moved]
            y = _power(group, y, p)
    return order, low


def _power(group: FiniteGroup, x: np.ndarray, e: int) -> np.ndarray:
    """x^e for every entry of x and e >= 1, by square-and-multiply."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else group.product(result, x)
        e >>= 1
        if not e:
            return result
        x = group.product(x, x)


def subgroup_from_elements(group: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """Validate closure and build the right-coset decomposition.

    X is a subgroup exactly when the subgroup it generates, which holds X, has |X| elements.
    """
    members = _element_indices(group, elems, error=NotASubgroup)
    if not members:
        raise NotASubgroup("a subgroup cannot be empty")
    closure = generated_elements(group, members)
    if len(closure) > len(members):
        missing = np.setdiff1d(closure, members)[0]
        raise NotASubgroup(f"not closed: the set generates {missing}, which it does not contain")
    return closed_subgroup(group, closure)


def closed_subgroup(group: FiniteGroup, elems: np.ndarray | Sequence[int]) -> Subgroup:
    """The right-coset decomposition by a set closed by construction, without the closure check.

    For generated sets and the listings of an abelian K; an explicit element list goes
    through ``subgroup_from_elements``, which checks it first.
    """
    h = _sorted_unique(np.asarray(elems, dtype=np.int64))
    rows = max(1, BLOCK // len(h))
    # right cosets H*x, numbered in the order of their least elements.  Each
    # pass takes the lowest BLOCK // |H| unassigned elements; the least element
    # of each one's coset is unassigned and lower, so in the batch as well
    coset_of = np.full(group.order, -1, dtype=np.int64)
    coset_of[h] = 0
    reps = h[:1]  # a pass's new least elements, ascending, represent its new cosets
    free = np.flatnonzero(coset_of < 0)
    while free.size:
        batch = group.product(h[:, None], free[:rows])
        least, first = np.unique(batch.min(axis=0), return_index=True)
        coset_of[batch[:, first]] = len(reps) + np.arange(first.size)
        reps = np.concatenate([reps, least])
        free = free[coset_of[free] < 0]
    return Subgroup(parent=group, elements=_read_only(h), coset_of=_read_only(coset_of), coset_reps=_read_only(reps))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: the form of every per-element result."""
    array.flags.writeable = False
    return array


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order, by a sort: a plain ``np.unique`` hashes, far slower."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def generated_elements(group: FiniteGroup, gens: Iterable[int]) -> np.ndarray:
    """Elements of the subgroup generated by ``gens``, as a sorted read-only array.

    The seeds are taken in ascending order, and one is adjoined only when
    the closure has not reached it yet; each such seed at least doubles the
    closure, so at most log2 |G| seeds are adjoined.  The least seed g other
    than e starts the closure with its cyclic group, listed by ``_powers``,
    and adjoins its powers g^(2^j) for 2^j < n, n the order of g: every power
    of g is a product of them.  A later seed g adjoins its powers g^(2^j) for
    2^j < 2^b, b the bit length of |G|, so a long cycle takes at most b
    rounds, not one round a step, and a seed brings at most b elements.  The
    closure so far is closed under right multiplication by the elements
    adjoined before, so adjoining g starts a breadth-first search from the
    products x*g^(2^j) and multiplies each new element by every adjoined
    element.
    """
    pending = np.array(_element_indices(group, gens, "generator"), dtype=np.int64)
    pending = pending[pending != group.identity]
    cycle = _powers(group, pending[0]) if pending.size else np.array([group.identity])
    seen = np.zeros(group.order, dtype=bool)
    seen[cycle] = True
    adjoined = cycle[1 << np.arange((len(cycle) - 1).bit_length())]
    while (pending := pending[~seen[pending]]).size:
        powers = [pending[0]]
        for _ in range(group.order.bit_length() - 1):
            square = group.product(powers[-1], powers[-1])
            if square == group.identity or square in powers:
                break
            powers.append(square)
        adjoined = np.append(adjoined, powers)
        frontier = group.product(np.flatnonzero(seen)[:, None], powers)
        while frontier.size:
            frontier = _sorted_unique(frontier[~seen[frontier]])
            seen[frontier] = True
            frontier = group.product(frontier[:, None], adjoined)
    return _read_only(np.flatnonzero(seen))


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``; the empty set yields {e}."""
    return closed_subgroup(group, generated_elements(group, gens))


class GeneratingSet(Record, eq=False):
    """A validated generating set split along the subgroup.

    ``coset_counts[0]`` is the size of the part inside the subgroup,
    ``coset_counts[i]`` for i >= 1 the intersection size with coset i.
    """

    subgroup: Subgroup
    elements: tuple[int, ...]
    inside: tuple[int, ...]
    outside: tuple[int, ...]
    coset_counts: tuple[int, ...]
    _covered: tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent

    @property
    def size(self) -> int:
        return len(self.elements)

    def covered_cosets(self) -> tuple[int, ...]:
        """Nontrivial coset ids met by the outside part, ascending: found once, from the set's own coset ids."""
        return self._covered

    def covered_vertex_count(self) -> int:
        """Size of the union of the cosets met by the outside part."""
        return len(self._covered) * self.subgroup.order

    @property
    def regular(self) -> bool:
        """Whether the pair graph is regular, of degree |S|, read off (G, H, S).

        A vertex of H has |S| neighbours and one of Hx has |S ∩ Hx|, so exactly
        when S is empty, or S avoids H and [G:H] = 2, or H = G.
        """
        index = self.subgroup.index
        return self.size == 0 or (not self.inside and index == 2) or index == 1

    @cached_property
    def reachable(self) -> np.ndarray:
        """The elements of U = <H ∩ (inside ∪ outside·outside^-1)> <= H, sorted, read-only and built once.

        ``reachable_subgroups`` on a block of one: a product call, up to two R·R' rounds, else the closure.
        """
        return reachable_subgroups([self])[0]

    def __repr__(self) -> str:
        return f"GeneratingSet(size={self.size}, inside={len(self.inside)}, outside={len(self.outside)})"


def reachable_subgroups(gens: Sequence[GeneratingSet]) -> list[np.ndarray]:
    """U of each set of a block on one subgroup, stored as the set's ``reachable``.

    s·t^-1 lies in H exactly when H·s = H·t, and it is then
    (s·t_c^-1)·(t·t_c^-1)^-1 for any t_c in that coset; so the inside part
    and the quotients s·t_c^-1, t_c the set's least element in coset c,
    generate U.  One product call gives every set's seeds, the inside part
    as x·e^-1, as rows padded by e; one sort and a distinct count per row
    give |R| for R = {e} ∪ Q, Q the distinct seeds.

    Then a Lagrange certificate: |U| divides |H|, so R ⊆ U with |R| > |H|/2
    forces U = H.  Each set with 1 < |R| <= |H|/2 runs up to two rounds
    R := R ∪ R·R' on its own R, R' its first ceil(|H|/|R|) members, each
    under |H| + |R| products: random seeds in A_n almost always pass after
    one.  A certified set gets H's own element array; the closure runs on
    each other set alone.
    """
    if not gens:
        return []
    sub = gens[0].subgroup
    if any(g.subgroup is not sub for g in gens[1:]):
        raise ValidationError("a block holds sets on one subgroup")
    group, order, e = sub.parent, sub.order, sub.parent.identity
    # each row: the inside part, the outside part, then e padding; a row without
    # padding has an outside part, whose t_c·t_c^-1 = e
    width = max(g.size + (not g.outside) for g in gens)
    padded = [[*g.inside, *g.outside, *[e] * (width - g.size)] for g in gens]
    s = np.array(padded, dtype=np.int64)
    t = []
    for row, cosets in zip(padded, sub.coset_of[s].tolist()):
        fixed = {0: e}  # the inside part and the padding, in coset 0, over e
        t.append([fixed.setdefault(c, x) for c, x in zip(cosets, row)])
    seeds = group.product(s.ravel(), group.inverses[np.array(t, dtype=np.int64).ravel()]).reshape(s.shape)
    # in-place sorts and ufunc reductions: numpy's Python-level wrappers cost more than the work on a few rows
    reached = seeds.copy()
    reached.sort(axis=1)
    sizes = (width - np.add.reduce(reached[:, 1:] == reached[:, :-1], axis=1)).tolist()
    for i, (g, size) in enumerate(zip(gens, sizes)):
        if 1 < size <= order // 2:
            r = _sorted_unique(reached[i])
            for _ in range(2):
                r = _sorted_unique(np.append(r, group.product(r[:, None], r[: -(-order // r.size)])))
                if 2 * r.size > order:
                    break
            size = r.size
        if 2 * size > order:
            u = sub.elements
        else:
            u = generated_elements(group, seeds[i, : g.size].tolist())
        g.__dict__["reachable"] = u  # where cached_property keeps it
    return [g.reachable for g in gens]


def validate_generating_set(subgroup: Subgroup, elements: Iterable[int]) -> GeneratingSet:
    """Check the generating-set rules and compute the coset split.

    Rejects the identity (loops) and any set whose part inside the subgroup is
    not closed under inversion.
    """
    group = subgroup.parent
    elems = _element_indices(group, elements, "generating element")
    if group.identity in elems:
        raise IdentityInGeneratingSet("the identity element is not allowed in a generating set")
    cosets = subgroup.coset_of[elems].tolist()
    inside = [x for x, c in zip(elems, cosets) if not c]
    inside_set = set(inside)
    for x in inside:
        if group.inv(x) not in inside_set:
            raise SymmetryViolation(
                f"element {x} lies in the subgroup but its inverse {group.inv(x)} is not in the set"
            )
    outside = [x for x, c in zip(elems, cosets) if c]
    counts = [0] * subgroup.index
    for c in cosets:
        counts[c] += 1
    return GeneratingSet(
        subgroup=subgroup,
        elements=tuple(elems),
        inside=tuple(inside),
        outside=tuple(outside),
        coset_counts=tuple(counts),
        _covered=tuple(sorted(set(cosets).difference((0,)))),
    )
