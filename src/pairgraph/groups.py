"""Exact finite group arithmetic on dense integer element indices.

Concrete structure (permutations, matrices, field elements) lives only in the
constructors and in element labels; every other module works with indices
0..order-1, the product and the inverse map.

Each family supplies one vectorised kernel, a numpy function that multiplies
two index arrays elementwise under broadcasting.  ``FiniteGroup.product`` runs
it in blocks of at most ``BLOCK`` products, so a batch allocates at most a few
megabytes of temporaries; ``mul``, ``left_row`` and the full order x order
table all derive from it, and the table is kept as a cache for groups of
order up to ``TABLE_CAP``.  The hard cap on group order is ``ORDER_CAP``,
checked from each family's order formula before any element is listed.
Permutations compose left to right: ``(p*q)(x) = q(p(x))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    IdentityInGeneratingSet,
    NotASubgroup,
    SizeCapExceeded,
    SymmetryViolation,
    ValidationError,
)
from .fields import PrimePowerField, is_prime

TABLE_CAP = 4096
ORDER_CAP = 20000
PERMUTATION_DEGREE_CAP = 8
PRIME_CAP = 13
# products per kernel call: a permutation kernel then holds under half a
# megabyte of temporaries, and large frees do not make malloc keep freed heap
BLOCK = 1 << 13

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


class FiniteGroup:
    """A finite group on element indices 0..order-1.

    ``kernel(a, b)`` returns the products of two broadcastable integer index
    arrays, 0-d included; ``inverses`` is the inverse map as an array.
    """

    def __init__(
        self,
        *,
        name: str,
        labels: Sequence[str],
        identity: int,
        inverse: Sequence[int],
        kernel: Kernel,
        descriptor: Optional[dict] = None,
    ) -> None:
        order = len(labels)
        if order == 0:
            raise ValidationError("a group needs at least the identity element")
        _check_order(order)
        self.order = order
        self.name = name
        self.labels = [str(x) for x in labels]
        self.identity = int(identity)
        self.descriptor = descriptor or {}
        self.inverses = np.asarray(inverse, dtype=np.int32)
        self._kernel = kernel
        self.table: Optional[np.ndarray] = None
        if order <= TABLE_CAP:
            idx = np.arange(order, dtype=np.int32)
            self.table = self.product(idx[:, None], idx).astype(np.int32, copy=False)
        # concrete views, set by the constructors that have them
        self.perms: Optional[list[tuple[int, ...]]] = None
        self.matrices: Optional[list[tuple[int, int, int, int]]] = None
        self.field: Optional[PrimePowerField] = None

    def product(self, a, b) -> np.ndarray:
        """Products a*b for index arrays a and b, elementwise under broadcasting.

        Read from the table when the group keeps one, else computed by the
        kernel in blocks of ``BLOCK`` products.
        """
        if self.table is not None:
            return self.table[a, b]
        a, b = np.asarray(a), np.asarray(b)
        shape = np.broadcast_shapes(a.shape, b.shape)
        if math.prod(shape) <= BLOCK:
            return self._kernel(a, b)
        a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
        out = np.empty(shape, dtype=np.int32)
        rows = max(1, BLOCK // math.prod(shape[1:]))
        for i in range(0, shape[0], rows):
            out[i : i + rows] = self._kernel(a[i : i + rows], b[i : i + rows])
        return out

    def mul(self, a: int, b: int) -> int:
        return int(self.product(a, b))

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def left_row(self, a: int) -> np.ndarray:
        """Products a*g for every g, as one vector."""
        return self.product(a, np.arange(self.order))

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _check_order(order: int) -> None:
    if order > ORDER_CAP:
        raise SizeCapExceeded(f"group order {order} exceeds the cap {ORDER_CAP}")


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> FiniteGroup:
    """Z/nZ with addition; the identity is 0."""
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    _check_order(n)
    return FiniteGroup(
        name=f"Z/{n}",
        labels=[str(i) for i in range(n)],
        identity=0,
        inverse=(-np.arange(n)) % n,
        kernel=lambda a, b: (a + b) % n,
        descriptor={"kind": "cyclic", "params": [n]},
    )


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right: apply p first, then q
    return tuple(q[x] for x in p)

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
            cycles = [
                tuple(int(v) for v in part.split(",") if v)
                for part in text[1:-1].split(")(")
            ]
    else:
        cycles = [tuple(c) for c in spec]
    result = tuple(range(n))
    for cyc in cycles:
        if any(not 1 <= v <= n for v in cyc):
            raise ValidationError(f"cycle entry out of range 1..{n}: {cyc}")
        images = list(range(n))
        for i, v in enumerate(cyc):
            images[v - 1] = cyc[(i + 1) % len(cyc)] - 1
        result = _compose(result, tuple(images))
    return result


def perm_cycle_label(perm: tuple[int, ...]) -> str:
    """Canonical 1-indexed cycle notation, "e" for the identity."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def perm_parity(perm: tuple[int, ...]) -> int:
    """0 for even permutations, 1 for odd."""
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def perm_index(group: FiniteGroup, spec) -> int:
    """Index of a permutation given by cycles (or image tuple) in a permutation group."""
    if group.perms is None:
        raise ValidationError(f"{group.name} is not a permutation group")
    n = len(group.perms[0])
    if isinstance(spec, str) or any(isinstance(c, (list, tuple)) for c in spec):
        perm = perm_from_cycles(n, spec)
    else:
        perm = tuple(int(v) for v in spec)
    try:
        return group.perms.index(perm)
    except ValueError:
        raise ValidationError(f"permutation {spec!r} not in {group.name}") from None


def _permutation_group(name: str, n: int, even_only: bool, descriptor: dict) -> FiniteGroup:
    """Permutations of degree n in lexicographic order, all of them or the even ones.

    The base-n key of an image tuple is then increasing along the element
    order, so the kernel finds a composed permutation by binary search.
    """
    perms = [p for p in itertools.permutations(range(n)) if not even_only or perm_parity(p) == 0]
    images = np.array(perms, dtype=np.int64)
    powers = n ** np.arange(n - 1, -1, -1)
    keys = images @ powers

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.searchsorted(keys, images[b[..., None], images[a]] @ powers)

    g = FiniteGroup(
        name=name,
        labels=[perm_cycle_label(p) for p in perms],
        identity=0,
        inverse=np.searchsorted(keys, np.argsort(images, axis=1) @ powers),
        kernel=kernel,
        descriptor=descriptor,
    )
    g.perms = perms
    return g


def _check_degree(n: int, kind: str) -> None:
    if not 1 <= n <= PERMUTATION_DEGREE_CAP:
        raise ValidationError(f"{kind} group degree must be 1..{PERMUTATION_DEGREE_CAP}")


def make_symmetric(n: int) -> FiniteGroup:
    """S_n on image tuples in lexicographic order."""
    _check_degree(n, "symmetric")
    _check_order(math.factorial(n))
    return _permutation_group(f"S{n}", n, False, {"kind": "symmetric", "params": [n]})


def make_alternating(n: int) -> FiniteGroup:
    """A_n: the even permutations of S_n, lexicographic order."""
    _check_degree(n, "alternating")
    _check_order(max(1, math.factorial(n) // 2))
    return _permutation_group(f"A{n}", n, True, {"kind": "alternating", "params": [n]})


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of the n-gon, order 2n; elements s^f r^j with r s = s r^-1."""
    if not 1 <= n <= 8:
        raise ValidationError("dihedral parameter must be 1..8")
    order = 2 * n

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        f1, j1 = np.divmod(a, n)
        f2, j2 = np.divmod(b, n)
        return (f1 ^ f2) * n + (j2 + j1 - 2 * f2 * j1) % n

    labels = []
    for f in (0, 1):
        for j in range(n):
            if f == 0:
                labels.append("e" if j == 0 else f"r^{j}")
            else:
                labels.append("s" if j == 0 else f"s·r^{j}")
    inverse = [(-a) % n if a < n else a for a in range(order)]
    return FiniteGroup(
        name=f"D{n}",
        labels=labels,
        identity=0,
        inverse=inverse,
        kernel=kernel,
        descriptor={"kind": "dihedral", "params": [n]},
    )


def make_direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element a*|G2| + b represents the pair (a, b)."""
    _check_order(g1.order * g2.order)
    o2 = g2.order

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        a1, b1 = np.divmod(x, o2)
        a2, b2 = np.divmod(y, o2)
        return g1.product(a1, a2) * o2 + g2.product(b1, b2)

    labels = [f"({g1.labels[a]},{g2.labels[b]})" for a in range(g1.order) for b in range(o2)]
    inverse = [g1.inv(a) * o2 + g2.inv(b) for a in range(g1.order) for b in range(o2)]
    return FiniteGroup(
        name=f"{g1.name}x{g2.name}",
        labels=labels,
        identity=g1.identity * o2 + g2.identity,
        inverse=inverse,
        kernel=kernel,
        descriptor={"kind": "product", "params": [g1.descriptor, g2.descriptor]},
    )


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if p > PRIME_CAP:
        raise ValidationError(f"prime {p} exceeds the cap {PRIME_CAP}")


def _matrix_group(name: str, p: int, order: int, keep_det, descriptor: dict) -> FiniteGroup:
    """2x2 matrices over F_p with an admissible determinant, lexicographic (a,b,c,d) order."""
    _check_prime(p)
    _check_order(order)
    quads = np.array(list(itertools.product(range(p), repeat=4)), dtype=np.int64)
    a, b, c, d = quads.T
    mats = quads[keep_det((a * d - b * c) % p)]
    lookup = np.full(p**4, -1, dtype=np.int32)
    lookup[mats @ p ** np.arange(3, -1, -1)] = np.arange(len(mats))
    a, b, c, d = mats.T.astype(np.int32)

    def key(ra, rb, rc, rd):
        return lookup[(((ra % p) * p + rb % p) * p + rc % p) * p + rd % p]

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ax, bx, cx, dx, ay, by, cy, dy = a[x], b[x], c[x], d[x], a[y], b[y], c[y], d[y]
        return key(ax * ay + bx * cy, ax * by + bx * dy, cx * ay + dx * cy, cx * by + dx * dy)

    det_inverse = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)])[(a * d - b * c) % p]
    g = FiniteGroup(
        name=name,
        labels=["[[{},{}],[{},{}]]".format(*m) for m in mats.tolist()],
        identity=int(lookup[p**3 + 1]),
        inverse=key(d * det_inverse, -b * det_inverse, -c * det_inverse, a * det_inverse),
        kernel=kernel,
        descriptor=descriptor,
    )
    g.matrices = [tuple(m) for m in mats.tolist()]
    return g


def make_gl2(p: int) -> FiniteGroup:
    """GL_2(F_p), order (p^2-1)(p^2-p), matrices in lexicographic (a,b,c,d) order."""
    order = (p * p - 1) * (p * p - p)
    return _matrix_group(f"GL2(F{p})", p, order, lambda det: det != 0, {"kind": "gl2", "params": [p]})


def make_sl2(p: int) -> FiniteGroup:
    """SL_2(F_p), order p(p^2-1)."""
    order = p * (p * p - 1)
    return _matrix_group(f"SL2(F{p})", p, order, lambda det: det == 1, {"kind": "sl2", "params": [p]})


def make_field_additive(p: int, k: int) -> FiniteGroup:
    """The additive group of F_{p^k}; the field structure rides along in ``.field``."""
    _check_prime(p)
    if k < 1:
        raise ValidationError("extension degree must be >= 1")
    if p**k > TABLE_CAP:
        raise SizeCapExceeded(f"field order {p}^{k} exceeds the cap {TABLE_CAP}")
    gf = PrimePowerField.create(p, k)
    weights = [p**d for d in range(k)]

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # digit d of a // w plus digit d of b // w, mod p: higher digits vanish
        return sum((a // w + b // w) % p * w for w in weights)

    idx = np.arange(gf.order)
    g = FiniteGroup(
        name=f"F{p}^{k}" if k > 1 else f"F{p}",
        labels=[gf.label(i) for i in range(gf.order)],
        identity=0,
        inverse=sum((-(idx // w)) % p * w for w in weights),
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
    values = set(int(v) for v in values)
    for v in values:
        if not 0 <= v < gf.p:
            raise ValidationError(f"value {v} is outside the prime field F_{gf.p}")
    return tuple(x for x in range(gf.order) if gf.norm(x) in values)


# ---------------------------------------------------------------------------
# subgroups and generating sets


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup together with the right-coset decomposition of its parent.

    Coset 0 is the subgroup itself; the remaining cosets are numbered by
    ascending minimal element index, and each representative is the minimal
    element of its coset.
    """

    parent: FiniteGroup
    elements: tuple[int, ...]
    coset_of: tuple[int, ...]
    coset_reps: tuple[int, ...]
    coset_members: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    def contains(self, x: int) -> bool:
        return self.coset_of[x] == 0

    def outside(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.parent.order) if self.coset_of[x] != 0)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index} in {self.parent.name})"


def subgroup_from_elements(group: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """Validate closure and build the right-coset decomposition."""
    members = sorted(set(int(x) for x in elems))
    if not members:
        raise NotASubgroup("a subgroup cannot be empty")
    for x in members:
        if not 0 <= x < group.order:
            raise NotASubgroup(f"element {x} out of range")
    h = np.array(members)
    inside = np.zeros(group.order, dtype=bool)
    inside[h] = True
    if not inside[group.identity]:
        raise NotASubgroup("the identity is missing")
    missing = h[~inside[group.inverses[h]]]
    if missing.size:
        raise NotASubgroup(f"inverse of {missing[0]} is missing")
    rows = max(1, BLOCK // len(h))
    for i in range(0, len(h), rows):
        escaped = np.argwhere(~inside[group.product(h[i : i + rows, None], h)])
        if escaped.size:
            r, c = escaped[0]
            raise NotASubgroup(f"product of {h[i + r]} and {h[c]} escapes the set")
    # right cosets H*x, numbered in the order of their least elements.  Each
    # pass takes the lowest BLOCK // |H| unassigned elements; the least element
    # of each one's coset is unassigned and lower, so in the batch as well
    coset_of = np.full(group.order, -1, dtype=np.int64)
    coset_of[h] = 0
    free = np.flatnonzero(coset_of < 0)
    while free.size:
        batch = group.product(h[:, None], free[:rows])
        _, first = np.unique(batch.min(axis=0), return_index=True)
        coset_of[batch[:, first]] = coset_of.max() + 1 + np.arange(first.size)
        free = free[coset_of[free] < 0]
    # a stable sort groups the elements by coset, each coset in ascending order
    cosets = np.argsort(coset_of, kind="stable").reshape(-1, len(h))
    return Subgroup(
        parent=group,
        elements=tuple(members),
        coset_of=tuple(coset_of.tolist()),
        coset_reps=tuple(cosets[:, 0].tolist()),
        coset_members=tuple(map(tuple, cosets.tolist())),
    )


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order, by a sort: a plain ``np.unique`` hashes, far slower."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def generated_elements(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Elements of the subgroup generated by ``gens`` (breadth-first closure)."""
    gens = sorted(set(int(x) for x in gens))
    for x in gens:
        if not 0 <= x < group.order:
            raise ValidationError(f"generator {x} out of range")
    gens_arr = np.array(gens, dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    while frontier.size:
        reached = _sorted_unique(group.product(frontier[:, None], gens_arr))
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``; the empty set yields {e}."""
    return subgroup_from_elements(group, generated_elements(group, gens))


def difference_set(group: FiniteGroup, a_set: Iterable[int], b_set: Iterable[int]) -> tuple[int, ...]:
    """All products a * b^-1 for a in A, b in B."""
    a = np.array(sorted(set(a_set)), dtype=np.int64)
    b_inv = group.inverses[np.array(sorted(set(b_set)), dtype=np.int64)]
    return tuple(_sorted_unique(group.product(a[:, None], b_inv)).tolist())


@dataclass(frozen=True, eq=False)
class GeneratingSet:
    """A validated generating set split along the subgroup.

    ``coset_counts[0]`` is the size of the part inside the subgroup,
    ``coset_counts[i]`` for i >= 1 the intersection size with coset i.
    """

    subgroup: Subgroup
    elements: tuple[int, ...]
    inside: tuple[int, ...]
    outside: tuple[int, ...]
    coset_counts: tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent

    @property
    def size(self) -> int:
        return len(self.elements)

    def covered_cosets(self) -> tuple[int, ...]:
        """Nontrivial coset ids met by the outside part."""
        return tuple(i for i in range(1, len(self.coset_counts)) if self.coset_counts[i] > 0)

    def covered_vertex_count(self) -> int:
        """Size of the union of the cosets met by the outside part."""
        return len(self.covered_cosets()) * self.subgroup.order

    def __repr__(self) -> str:
        return f"GeneratingSet(size={self.size}, inside={len(self.inside)}, outside={len(self.outside)})"


def validate_generating_set(subgroup: Subgroup, elements: Iterable[int]) -> GeneratingSet:
    """Check the generating-set rules and compute the coset split.

    Rejects the identity (loops) and any set whose part inside the subgroup is
    not closed under inversion.
    """
    group = subgroup.parent
    elems = sorted(set(int(x) for x in elements))
    for x in elems:
        if not 0 <= x < group.order:
            raise ValidationError(f"generating element {x} out of range")
    if group.identity in elems:
        raise IdentityInGeneratingSet("the identity element is not allowed in a generating set")
    inside = [x for x in elems if subgroup.contains(x)]
    inside_set = set(inside)
    for x in inside:
        if group.inv(x) not in inside_set:
            raise SymmetryViolation(
                f"element {x} lies in the subgroup but its inverse {group.inv(x)} is not in the set"
            )
    outside = [x for x in elems if not subgroup.contains(x)]
    counts = [0] * subgroup.index
    counts[0] = len(inside)
    for x in outside:
        counts[subgroup.coset_of[x]] += 1
    return GeneratingSet(
        subgroup=subgroup,
        elements=tuple(elems),
        inside=tuple(inside),
        outside=tuple(outside),
        coset_counts=tuple(counts),
    )
