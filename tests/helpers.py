"""Shared seeded instance corpus, pure-Python reference arithmetic and search, and dense oracles for the test suites."""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from functools import lru_cache

import numpy as np

from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.errors import NotASubgroup, ValidationError
from pairgraph.fields import PrimePowerField
from pairgraph.graphs import PairGraph
from pairgraph.groups import (
    FiniteGroup,
    GeneratingSet,
    Subgroup,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_gl2,
    make_sl2,
    make_symmetric,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.structure import BipartiteReport, ComponentDecomposition


@lru_cache(maxsize=None)
def subgroup_pool() -> tuple[Subgroup, ...]:
    """Mixed-family (group, subgroup) pairs, all of group order <= 48."""
    pool: list[Subgroup] = []
    for n, gens in [
        (4, [2]), (4, [1]), (6, [3]), (6, [2]), (8, [2]), (9, [3]), (10, [2]),
        (12, [3]), (12, [2]), (12, [6]), (15, [5]), (16, [2]), (18, [3]),
        (20, [2]), (20, [4]), (24, [2]),
    ]:
        pool.append(subgroup_generated(make_cyclic(n), gens))
    d4 = make_dihedral(4)
    pool.append(subgroup_generated(d4, [1]))
    pool.append(subgroup_generated(d4, [4]))
    d6 = make_dihedral(6)
    pool.append(subgroup_generated(d6, [1]))
    pool.append(subgroup_generated(d6, [3, 6]))
    s3 = make_symmetric(3)
    pool.append(builtin_subgroup(s3, "alternating_in_symmetric"))
    s4 = make_symmetric(4)
    pool.append(builtin_subgroup(s4, "alternating_in_symmetric"))
    pool.append(subgroup_generated(s4, [s4.perms.index((1, 0, 2, 3)), s4.perms.index((1, 2, 0, 3))]))
    a4 = make_alternating(4)
    pool.append(builtin_subgroup(a4, "klein_in_a4"))
    p26 = make_direct_product(make_cyclic(2), make_cyclic(6))
    pool.append(subgroup_generated(p26, [1]))
    pool.append(subgroup_generated(p26, [9]))
    sl3 = make_sl2(3)
    involution = next(i for i in range(sl3.order) if reference_element_order(sl3, i) == 2)
    pool.append(subgroup_generated(sl3, [involution]))
    gl3 = make_gl2(3)
    pool.append(builtin_subgroup(gl3, "sl2_in_gl2"))
    return tuple(pool)


# the families and factors the generated tests draw from, alone or as a direct product of two
GENERATED_FACTORS = (
    "cyclic:1", "cyclic:4", "cyclic:6", "cyclic:9", "cyclic:10", "cyclic:16", "dihedral:3", "dihedral:4",
    "dihedral:6", "symmetric:3", "symmetric:4", "alternating:4", "alternating:5", "sl2:3", "gl2:3",
    "field_additive:2,3", "field_additive:2,5", "field_additive:3,2", "field_additive:5,2",
)


@lru_cache(maxsize=None)
def generated_group(first: str, second) -> FiniteGroup:
    """The group ``first``, or its direct product with ``second`` unless that is None."""
    return group_from_descriptor(first if second is None else {"kind": "product", "params": [first, second]})


@lru_cache(maxsize=None)
def index_two_pool() -> tuple[Subgroup, ...]:
    """Index-2 pairs: even parts of Z/2m, the alternating group in S4, SL2 in GL2(F3)."""
    pool: list[Subgroup] = [subgroup_generated(make_cyclic(2 * m), [2]) for m in range(2, 13)]
    pool.append(builtin_subgroup(make_symmetric(4), "alternating_in_symmetric"))
    pool.append(builtin_subgroup(make_gl2(3), "sl2_in_gl2"))
    return tuple(pool)


def random_generating_set(
    rng: random.Random,
    subgroup: Subgroup,
    max_size: int = 10,
    outside_only: bool = False,
    min_size: int = 0,
) -> GeneratingSet:
    """Seeded random valid generating set; the inside part is symmetrized."""
    group = subgroup.parent
    if outside_only:
        candidates = list(subgroup.outside())
    else:
        candidates = [x for x in range(group.order) if x != group.identity]
    size = rng.randint(min_size, min(len(candidates), max_size))
    chosen = set(rng.sample(candidates, size))
    for x in list(chosen):
        if subgroup.contains(x):
            chosen.add(group.inv(x))
    return validate_generating_set(subgroup, chosen)


def instance_corpus(count: int, seed: int, outside_only: bool = False) -> list[GeneratingSet]:
    pool = subgroup_pool()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sub = pool[rng.randrange(len(pool))]
        out.append(random_generating_set(rng, sub, outside_only=outside_only))
    return out


@lru_cache(maxsize=None)
def reference_mul(group: FiniteGroup):
    """Scalar multiplication rebuilt from the group's concrete structure, one family at a time."""
    kind = group.descriptor["kind"]
    params = group.descriptor["params"]
    if kind == "cyclic":
        n = params[0]
        return lambda a, b: (a + b) % n
    if kind == "dihedral":
        n = params[0]

        def dihedral(a, b):
            f1, j1 = divmod(a, n)
            f2, j2 = divmod(b, n)
            return ((f1 + f2) % 2) * n + (j2 + (j1 if f2 == 0 else -j1)) % n

        return dihedral
    if kind in ("symmetric", "alternating"):
        perms = group.perms
        perm_index = {perm: i for i, perm in enumerate(perms)}
        # left to right: apply perms[a] first, then perms[b]
        return lambda a, b: perm_index[tuple(perms[b][x] for x in perms[a])]
    if kind in ("gl2", "sl2"):
        p = params[0]
        mats = group.matrices
        mat_index = {mat: i for i, mat in enumerate(mats)}

        def matrix(x, y):
            a, b, c, d = mats[x]
            e, f, g, h = mats[y]
            return mat_index[((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)]

        return matrix
    if kind == "field_additive":
        p, k = params

        def digitwise(a, b):
            out, weight = 0, 1
            for _ in range(k):
                a, da = divmod(a, p)
                b, db = divmod(b, p)
                out += (da + db) % p * weight
                weight *= p
            return out

        return digitwise
    if kind == "product":
        g1, g2 = (group_from_descriptor(d) for d in params)
        mul1, mul2 = reference_mul(g1), reference_mul(g2)
        o2 = g2.order

        def pairwise(x, y):
            a1, b1 = divmod(x, o2)
            a2, b2 = divmod(y, o2)
            return mul1(a1, a2) * o2 + mul2(b1, b2)

        return pairwise
    raise ValueError(f"no reference multiplication for {kind!r}")


class ScalarField:
    """F_{p^k} one element at a time on digit lists: the oracle for ``PrimePowerField.norms``."""

    def __init__(self, p: int, k: int) -> None:
        self.field = PrimePowerField.create(p, k)
        self.p, self.k, self.order = p, k, self.field.order

    def pack(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        da, db = self.field.digits(a), self.field.digits(b)
        return self.pack((x + y) % self.p for x, y in zip(da, db))

    def neg(self, a: int) -> int:
        return self.pack((-x) % self.p for x in self.field.digits(a))

    def mul(self, a: int, b: int) -> int:
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.field.digits(a)):
            for j, y in enumerate(self.field.digits(b)):
                conv[i + j] += x * y
        out = [0] * self.k
        for j, c in enumerate(conv):
            for i in range(self.k):
                out[i] += c * self.field._xpow[j][i]
        return self.pack(c % self.p for c in out)

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def norm(self, a: int) -> int:
        """x^((p^k-1)/(p-1)), with norm(0) = 0."""
        digits = self.field.digits(self.pow(a, (self.order - 1) // (self.p - 1)))
        if any(digits[1:]):
            raise ValidationError("norm did not land in the prime field")
        return digits[0]


def reference_element_order(group: FiniteGroup, a: int) -> int:
    """Order of a by repeated scalar multiplication with ``reference_mul``."""
    mul = reference_mul(group)
    n, x = 1, a
    while x != group.identity:
        x = mul(x, a)
        n += 1
    return n


def reference_subgroup(group: FiniteGroup, elems, mul) -> Subgroup:
    """The pair-by-pair closure check and coset decomposition that the vectorised one replaced."""
    members = sorted(set(int(x) for x in elems))
    if not members:
        raise NotASubgroup("a subgroup cannot be empty")
    for x in members:
        if not 0 <= x < group.order:
            raise NotASubgroup(f"element {x} out of range")
    member_set = set(members)
    if group.identity not in member_set:
        raise NotASubgroup("the identity is missing")
    for a in members:
        if group.inv(a) not in member_set:
            raise NotASubgroup(f"inverse of {a} is missing")
        for b in members:
            if mul(a, b) not in member_set:
                raise NotASubgroup(f"product of {a} and {b} escapes the set")
    coset_of = np.full(group.order, -1)
    reps: list[int] = []

    def assign(x: int) -> None:
        coset = [mul(h, x) for h in members]
        coset_of[coset] = len(reps)
        reps.append(min(coset))

    assign(group.identity)  # coset 0 = the subgroup itself
    for x in range(group.order):
        if coset_of[x] == -1:
            assign(x)
    return Subgroup(parent=group, elements=np.array(members), coset_of=coset_of, coset_reps=np.array(reps))


def reference_group_matrix(subgroup: Subgroup, s) -> np.ndarray:
    """The group-subgroup matrix (x_{h^-1 g}) at the indicator of ``s``, pair by pair with ``reference_mul``."""
    indicator = np.zeros(subgroup.parent.order, dtype=np.int8)
    indicator[list(s)] = 1
    return indicator[_reference_quotients(subgroup)]


@lru_cache(maxsize=None)
def _reference_quotients(subgroup: Subgroup) -> np.ndarray:
    """Every h^-1 * g, h in H by rows and g in G by columns, one scalar product at a time."""
    group = subgroup.parent
    mul = reference_mul(group)
    return np.array(
        [[mul(group.inv(h), g) for g in range(group.order)] for h in subgroup.elements.tolist()], dtype=np.int64
    ).reshape(subgroup.order, group.order)


def count_products(monkeypatch) -> list[int]:
    """Patch ``FiniteGroup.product`` to add each call's number of products to the one-entry list returned."""
    count = [0]
    product = FiniteGroup.product

    def counting(self, a, b):
        count[0] += np.broadcast(np.asarray(a), np.asarray(b)).size
        return product(self, a, b)

    monkeypatch.setattr(FiniteGroup, "product", counting)
    return count


def coset_members(sub: Subgroup) -> list[list[int]]:
    """Each right coset's elements in ascending order, by one pass over ``coset_of``."""
    members: list[list[int]] = [[] for _ in range(sub.index)]
    for x, cid in enumerate(sub.coset_of.tolist()):
        members[cid].append(x)
    return members


def differing_fields(a: Subgroup, b: Subgroup) -> list[str]:
    """The fields in which two subgroups differ: the parent by identity, the arrays by value."""
    differing = []
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if not (x is y if field.name == "parent" else np.array_equal(x, y)):
            differing.append(field.name)
    return differing


def difference_set(group: FiniteGroup, a_set, b_set) -> tuple[int, ...]:
    """All products a * b^-1 for a in A, b in B."""
    a = np.array(sorted(set(a_set)), dtype=np.int64)
    b_inv = group.inverses[np.array(sorted(set(b_set)), dtype=np.int64)]
    return tuple(np.unique(group.product(a[:, None], b_inv)).tolist())


def reference_generated_elements(group: FiniteGroup, gens) -> tuple[int, ...]:
    """Breadth-first closure that multiplies each new element by every generator."""
    gens_arr = np.array(sorted(set(int(x) for x in gens)), dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    while frontier.size:
        reached = np.unique(group.product(frontier[:, None], gens_arr))
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


def reference_reachable(gen: GeneratingSet) -> tuple[int, ...]:
    """Elements of U from the inside part and every quotient s*t^-1 of outside elements that lies in H."""
    seeds = set(gen.inside)
    seeds.update(d for d in difference_set(gen.group, gen.outside, gen.outside) if gen.subgroup.contains(d))
    return reference_generated_elements(gen.group, seeds)


def reference_csr(gen: GeneratingSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, degrees) from every edge listed from both ends as int64 keys, sorted and deduplicated."""
    group, m = gen.group, gen.group.order
    h = np.array(gen.subgroup.elements, dtype=np.int64)
    targets = group.product(h[:, None], np.array(gen.elements, dtype=np.int64))
    sources = np.broadcast_to(h[:, None], targets.shape)
    pairs = np.sort(np.concatenate([sources * m + targets, targets * m + sources], axis=None))
    keep = np.ones(pairs.size, dtype=bool)
    keep[1:] = pairs[1:] != pairs[:-1]  # np.unique hashes, far slower
    pairs = pairs[keep]
    us, vs = np.divmod(pairs, m)
    degrees = np.bincount(us, minlength=m)
    return np.concatenate([[0], np.cumsum(degrees)]), vs, degrees


def dense_eigenvalues(graph: PairGraph) -> np.ndarray:
    """The full m x m symmetric eigen-solve, sorted descending: the oracle for both spectrum routes."""
    return np.linalg.eigvalsh(graph.adjacency.astype(np.float64))[::-1]


def left_translation_matrix(group: FiniteGroup, h: int) -> np.ndarray:
    """Permutation matrix of left multiplication by h (column j maps to h*j)."""
    p = np.zeros((group.order, group.order), dtype=np.int8)
    p[group.left_row(h), np.arange(group.order)] = 1
    return p


def reference_components(graph: PairGraph) -> ComponentDecomposition:
    """Breadth-first component labeling; ids ordered by minimal contained vertex."""
    m = graph.order
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    component_of = [-1] * m
    sizes = []
    for start in range(m):
        if component_of[start] != -1:
            continue
        cid = len(sizes)
        queue = deque([start])
        component_of[start] = cid
        size = 0
        while queue:
            u = queue.popleft()
            size += 1
            for v in indices[indptr[u]:indptr[u + 1]]:
                if component_of[v] == -1:
                    component_of[v] = cid
                    queue.append(v)
        sizes.append(size)
    e = graph.group.identity
    identity_component = tuple(v for v in range(m) if component_of[v] == component_of[e])
    return ComponentDecomposition(
        component_of=tuple(component_of),
        count=len(sizes),
        sizes=tuple(sizes),
        identity_component=identity_component,
    )


def reference_bipartite(graph: PairGraph) -> BipartiteReport:
    """Exact two-coloring test by breadth-first search."""
    m = graph.order
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    color = [-1] * m
    for start in range(m):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteReport(False, None)
    return BipartiteReport(True, tuple(color))
