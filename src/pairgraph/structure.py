"""Connectivity, components, bipartiteness, and the closed-form component count.

Every per-vertex result (component labels, a two-coloring, the identity's
component) is a read-only int array, as the arrays of a ``Subgroup`` are.

Two independent routes to the component structure are kept side by side:
``PairGraph.cover_labels``, least labels on the 2|H| copies of H in the double
cover, which components and the two-coloring both read, and the closed formula

    [H : U] + |G - H| - |union of the cosets met by the outside part|

with U generated by the elements of H reachable as either inside generators or
pairwise quotients of outside generators.  The two must agree on every input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graphs import PairGraph
from .groups import FiniteGroup, GeneratingSet, _element_indices, _read_only, _sorted_unique, generated_elements
from .records import Record


class ComponentDecomposition(Record, eq=False):
    """``component_of[v]`` is v's component id, the ids numbered by least member.

    The sizes are ``np.bincount(component_of)`` and the identity's component
    ``np.flatnonzero(component_of == component_of[e])``.
    """

    count: int
    component_of: np.ndarray


def connected_components(graph: PairGraph) -> ComponentDecomposition:
    """Component labeling by ``graph.cover_labels``; ids ordered by minimal contained vertex."""
    label = graph.cover_labels.min(axis=0)
    ids = np.cumsum(label == np.arange(graph.order)) - 1
    return ComponentDecomposition(count=int(ids[-1]) + 1, component_of=_read_only(ids[label]))


class ComponentCountBreakdown(Record):
    """The three terms of the closed component-count formula and their total."""

    subgroup_index_term: int
    outside_term: int
    covered_term: int

    @property
    def total(self) -> int:
        return self.subgroup_index_term + self.outside_term - self.covered_term


def component_count_by_formula(gen: GeneratingSet) -> ComponentCountBreakdown:
    return ComponentCountBreakdown(
        subgroup_index_term=gen.subgroup.order // len(gen.reachable),
        outside_term=gen.group.order - gen.subgroup.order,
        covered_term=gen.covered_vertex_count(),
    )


class ConnectivityReport(Record):
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
    u_order = len(gen.reachable)
    closure_ok = u_order == gen.subgroup.order
    uncovered = tuple(i for i, count in enumerate(gen.coset_counts) if i and not count)
    connected = closure_ok and not uncovered
    witness = None
    if not closure_ok:
        witness = f"reachable subgroup has order {u_order} < {gen.subgroup.order}"
    elif uncovered:
        witness = f"cosets {list(uncovered)} contain no generating element"
    return ConnectivityReport(
        connected=connected,
        closure_generates=closure_ok,
        closure_order=u_order,
        uncovered_cosets=uncovered,
        witness=witness,
    )


def identity_component_by_closure(gen: GeneratingSet) -> np.ndarray:
    """Vertices of the identity's component, ascending: U together with its outside translates."""
    u = gen.reachable
    translates = gen.group.product(u[:, None], np.array(gen.outside, dtype=np.int64))
    return _read_only(_sorted_unique(np.concatenate([u, translates], axis=None)))


class BipartiteReport(Record, eq=False):
    bipartite: bool
    coloring: Optional[np.ndarray]


def is_bipartite(graph: PairGraph) -> BipartiteReport:
    """Exact two-coloring test on the bipartite double cover, by ``graph.cover_labels``.

    Bipartite exactly when no v shares a label with its twin.  Color 0 is the
    side of each component's least vertex, where v's side-0 label is the smaller.
    """
    side0, side1 = graph.cover_labels
    if np.any(side0 == side1):
        return BipartiteReport(False, None)
    return BipartiteReport(True, _read_only((side0 > side1).astype(np.intp)))


def sign_homomorphism_exists(group: FiniteGroup, s_elements) -> bool:
    """Is there a homomorphism G -> {-1, 1} sending every element of the set to -1?

    Equivalently: an index-2 subgroup disjoint from the set.  Such a kernel
    holds W, generated by the squares and the products s*t of set elements.
    W holds the commutators too, so G/W is an F_2-space, and the set lies in
    one coset of W; hence the map exists exactly when W is proper and misses
    the set.  For one fixed t0 in the set, s*t = (s*t0)*(t0^-1)^2*(t0*t), and
    t0*t = t*t0 modulo the squares (which generate a normal subgroup with a
    quotient of exponent 2, hence abelian), so the squares and the |S|
    products s*t0 already generate W.
    """
    s = np.array(_element_indices(group, s_elements), dtype=np.int64)
    idx = np.arange(group.order)
    squares = group.product(idx, idx)
    w = generated_elements(group, np.concatenate([squares, group.product(s, s[:1])]))
    return len(w) < group.order and not np.isin(s, w).any()
