"""Shared seeded instance corpus, pure-Python reference arithmetic and search, and dense oracles for the test suites."""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache

import numpy as np

from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.errors import NotASubgroup
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
    involution = next(i for i in range(sl3.order) if sl3.element_order(i) == 2)
    pool.append(subgroup_generated(sl3, [involution]))
    gl3 = make_gl2(3)
    pool.append(builtin_subgroup(gl3, "sl2_in_gl2"))
    return tuple(pool)


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
    coset_of = [-1] * group.order
    reps: list[int] = []
    all_members: list[tuple[int, ...]] = []

    def assign(x: int) -> None:
        cid = len(reps)
        coset = sorted(mul(h, x) for h in members)
        for y in coset:
            coset_of[y] = cid
        reps.append(coset[0])
        all_members.append(tuple(coset))

    assign(group.identity)  # coset 0 = the subgroup itself
    for x in range(group.order):
        if coset_of[x] == -1:
            assign(x)
    return Subgroup(
        parent=group,
        elements=tuple(members),
        coset_of=tuple(coset_of),
        coset_reps=tuple(reps),
        coset_members=tuple(all_members),
    )


def dense_eigenvalues(graph: PairGraph) -> np.ndarray:
    """The full m x m symmetric eigen-solve, sorted descending: the oracle for the block route."""
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
