"""Connectivity, components, bipartiteness, and the closed-form component count.

Two independent routes to the component structure are kept side by side:
least-label component search on the built graph, and the closed formula

    [H : U] + |G - H| - |union of the cosets met by the outside part|

with U generated by the elements of H reachable as either inside generators or
pairwise quotients of outside generators.  The two must agree on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .graphs import PairGraph
from .groups import (
    FiniteGroup,
    GeneratingSet,
    Subgroup,
    _sorted_unique,
    difference_set,
    generated_elements,
    subgroup_from_elements,
)


@dataclass(frozen=True)
class ComponentDecomposition:
    component_of: tuple[int, ...]
    count: int
    sizes: tuple[int, ...]
    identity_component: tuple[int, ...]


def _least_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each vertex's least component member, for a symmetric graph in CSR form.

    Each round hooks every vertex's root, label[v], to the least label across
    v's edges, then jumps each label once (Shiloach and Vishkin's labelling).
    Labels only fall and stay inside their component, so a round that changes
    nothing ends it.  Hooking roots, not vertices, keeps the rounds few: 11
    against 790 on the cycle Z/4000 with S = {679, 3321}.  The least label
    across each vertex's edges is one segment reduction, so the scatter runs
    over vertices rather than edges.
    """
    starts = indptr[:-1]
    linked = starts < indptr[1:]  # reduceat misreads empty segments: skip isolated vertices
    starts = starts[linked]
    label = np.arange(len(indptr) - 1)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[linked], np.minimum.reduceat(label[indices], starts))
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def connected_components(graph: PairGraph) -> ComponentDecomposition:
    """Component labeling by least labels; ids ordered by minimal contained vertex."""
    m = graph.order
    label = _least_labels(graph.indptr, graph.indices)
    ids = np.cumsum(label == np.arange(m)) - 1
    component_of = ids[label]
    sizes = np.bincount(component_of)
    return ComponentDecomposition(
        component_of=tuple(component_of.tolist()),
        count=len(sizes),
        sizes=tuple(sizes.tolist()),
        identity_component=tuple(np.flatnonzero(label == label[graph.group.identity]).tolist()),
    )


def reachable_subgroup(gen: GeneratingSet) -> Subgroup:
    """The subgroup U of H generated by H ∩ (inside ∪ outside·outside^-1)."""
    group = gen.group
    seeds = set(gen.inside)
    for d in difference_set(group, gen.outside, gen.outside):
        if gen.subgroup.contains(d):
            seeds.add(d)
    return subgroup_from_elements(group, generated_elements(group, seeds))


@dataclass(frozen=True)
class ComponentCountBreakdown:
    """The three terms of the closed component-count formula and their total."""

    subgroup_index_term: int
    outside_term: int
    covered_term: int

    @property
    def total(self) -> int:
        return self.subgroup_index_term + self.outside_term - self.covered_term


def component_count_by_formula(gen: GeneratingSet) -> ComponentCountBreakdown:
    u = reachable_subgroup(gen)
    return ComponentCountBreakdown(
        subgroup_index_term=gen.subgroup.order // u.order,
        outside_term=gen.group.order - gen.subgroup.order,
        covered_term=gen.covered_vertex_count(),
    )


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    closure_generates: bool
    closure_order: int
    uncovered_cosets: tuple[int, ...]
    witness: Optional[str]


def is_connected(gen: GeneratingSet) -> ConnectivityReport:
    """Closed-form connectivity criterion with a witness for the failing clause.

    Connected exactly when the reachable subgroup is all of H and the outside
    part meets every nontrivial coset.
    """
    u = reachable_subgroup(gen)
    closure_ok = u.order == gen.subgroup.order
    covered = set(gen.covered_cosets())
    uncovered = tuple(i for i in range(1, gen.subgroup.index) if i not in covered)
    connected = closure_ok and not uncovered
    witness = None
    if not closure_ok:
        witness = f"reachable subgroup has order {u.order} < {gen.subgroup.order}"
    elif uncovered:
        witness = f"cosets {list(uncovered)} contain no generating element"
    return ConnectivityReport(
        connected=connected,
        closure_generates=closure_ok,
        closure_order=u.order,
        uncovered_cosets=uncovered,
        witness=witness,
    )


def identity_component_by_closure(gen: GeneratingSet) -> tuple[int, ...]:
    """Vertices of the identity's component: U together with its outside translates."""
    u = np.array(reachable_subgroup(gen).elements)
    translates = gen.group.product(u[:, None], np.array(gen.outside, dtype=np.int64))
    return tuple(_sorted_unique(np.concatenate([u, translates], axis=None)).tolist())


def translate_component(graph: PairGraph, h: int, component: tuple[int, ...]) -> tuple[int, ...]:
    """Left translate of a component by a subgroup element; lands on a component."""
    if not graph.subgroup.contains(h):
        raise ValidationError(f"translating element {h} is not in the subgroup")
    return tuple(np.sort(graph.group.product(h, np.array(component, dtype=np.int64))).tolist())


@dataclass(frozen=True)
class BipartiteReport:
    bipartite: bool
    coloring: Optional[tuple[int, ...]]


def is_bipartite(graph: PairGraph) -> BipartiteReport:
    """Exact two-coloring test on the bipartite double cover.

    Vertex (v, side) of the cover is v + side*m and every edge joins opposite
    sides, so the graph is bipartite exactly when no v shares a component with
    its twin.  Color 0 is the side of each component's least vertex.
    """
    m, indptr, indices = graph.order, graph.indptr, graph.indices
    cover_indptr = np.concatenate([indptr, indptr[1:] + indptr[-1]])
    label = _least_labels(cover_indptr, np.concatenate([indices + m, indices]))
    if np.any(label[:m] == label[m:]):
        return BipartiteReport(False, None)
    return BipartiteReport(True, tuple((label[:m] > label[m:]).astype(int).tolist()))


def sign_homomorphism_exists(group: FiniteGroup, s_elements) -> bool:
    """Is there a homomorphism G -> {-1, 1} sending every element of the set to -1?

    Equivalently: an index-2 subgroup disjoint from the set.  Index-2 subgroups
    all contain the subgroup generated by the squares, so they are enumerated
    through the elementary abelian 2-quotient by that subgroup.
    """
    s_elements = sorted(set(int(x) for x in s_elements))
    for x in s_elements:
        if not 0 <= x < group.order:
            raise ValidationError(f"element {x} out of range")
    idx = np.arange(group.order)
    q = subgroup_from_elements(group, generated_elements(group, group.product(idx, idx)))
    quotient_order = group.order // q.order
    if quotient_order == 1:
        return False
    reps = q.coset_reps
    cos = q.coset_of

    def coset_product(c1: int, c2: int) -> int:
        return cos[group.mul(reps[c1], reps[c2])]

    # F_2 coordinates on the quotient
    coords = {0: 0}
    basis_size = 0
    for c in range(1, quotient_order):
        if c not in coords:
            bit = 1 << basis_size
            basis_size += 1
            for known, vec in list(coords.items()):
                coords[coset_product(known, c)] = vec | bit
    if len(coords) != quotient_order:  # pragma: no cover
        raise ValidationError("quotient by squares is not elementary abelian")
    s_vectors = {coords[cos[x]] for x in s_elements}
    for functional in range(1, 1 << basis_size):
        if all(bin(functional & vec).count("1") & 1 for vec in s_vectors):
            return True
    return False
