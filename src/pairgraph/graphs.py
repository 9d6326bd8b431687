"""Group-subgroup pair graphs.

The pair graph on (G, H, S) has vertex set G and an undirected edge {h, h*s}
for every h in H and s in S.  Vertices outside H are only ever adjacent to
vertices of H; inside H the edges come from the part of S that lies in H,
which must be closed under inversion so the graph is undirected.  With H = G
the construction reduces to the ordinary Cayley graph.

A ``PairGraph`` keeps, read-only, each array made from its edges: its CSR and
the least labels of its double cover, which ``structure`` reads.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

from .errors import IndexNotTwo, PairGraphError, ValidationError
from .groups import BLOCK, FiniteGroup, GeneratingSet, Subgroup, _read_only, validate_generating_set


@dataclass(frozen=True, eq=False)
class PairGraph:
    """Immutable pair graph: u's sorted neighbours are indices[indptr[u]:indptr[u+1]].

    The first read of ``indptr``, ``indices`` or ``degrees`` builds all three by
    ``_build_edges``, and of ``cover_labels`` their ``_least_labels``, all four
    read-only; spectra, certificates and connectivity read only ``gen``.
    """

    gen: GeneratingSet
    indptr = cached_property(lambda self: _build_edges(self)["indptr"])
    indices = cached_property(lambda self: _build_edges(self)["indices"])
    degrees = cached_property(lambda self: _build_edges(self)["degrees"])
    cover_labels = cached_property(lambda self: _read_only(_least_labels(self.indptr, self.indices)))

    @property
    def group(self) -> FiniteGroup:
        return self.gen.group

    @property
    def subgroup(self) -> Subgroup:
        return self.gen.subgroup

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def adjacency(self) -> np.ndarray:
        """The dense m x m 0/1 int8 matrix, built anew on every access."""
        m = self.order
        # once a row fills a page, a sparse adjacency leaves most pages unwritten;
        # a mapping of its own keeps them out of memory, where numpy would back
        # them with 2 MB huge pages (all 144 MB resident at order 12000)
        out = (np.frombuffer(mmap.mmap(-1, m * m), dtype=np.int8).reshape(m, m)
               if m >= mmap.PAGESIZE else np.zeros((m, m), dtype=np.int8))
        out[np.repeat(np.arange(m), self.degrees), self.indices] = 1
        return out

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edges(self) -> list[tuple[int, int]]:
        us = np.repeat(np.arange(self.order), self.degrees)
        upper = us < self.indices
        return list(zip(us[upper].tolist(), self.indices[upper].tolist()))

    def __repr__(self) -> str:
        return f"PairGraph(order={self.order}, set_size={self.gen.size})"  # building no edge list


def _as_generating_set(subgroup: Subgroup, s: Union[GeneratingSet, Iterable[int]]) -> GeneratingSet:
    if isinstance(s, GeneratingSet):
        if s.subgroup is not subgroup:
            raise ValidationError("generating set was validated against a different subgroup")
        return s
    return validate_generating_set(subgroup, s)


def build_pair_graph(subgroup: Subgroup, s: Union[GeneratingSet, Iterable[int]]) -> PairGraph:
    """The pair graph for the parent group of ``subgroup`` and ``s``, validated now; edges on first read."""
    return PairGraph(_as_generating_set(subgroup, s))


def _build_edges(graph: PairGraph) -> dict:
    """Store the CSR arrays of ``graph`` in its instance dict and return that dict.

    Each edge is listed once per direction, as the int32 key u << 15 | v
    (m <= ``ORDER_CAP`` < 2^15, so keys stay below 2^30): the row h*S of each
    h in H lists an inside edge from both of its ends already, so only the
    outside columns add reverse keys.  One sort orders the keys by (u, v), row
    u's length is the count of keys whose high bits are u, so the rows start at
    the running sums of those counts, and v is the key's low 15 bits.
    """
    gen, subgroup = graph.gen, graph.subgroup
    m, size = subgroup.parent.order, gen.size
    h = subgroup.elements.astype(np.int32)[:, None]
    targets = subgroup.parent.product(h, np.array(gen.inside + gen.outside, dtype=np.int64))
    keys = np.empty((len(h), size + len(gen.outside)), dtype=np.int32)
    np.bitwise_or(h << 15, targets, out=keys[:, :size])
    np.left_shift(targets[:, len(gen.inside) :], 15, out=keys[:, size:])
    keys[:, size:] |= h
    keys = keys.ravel()
    keys.sort()
    degrees = np.bincount(keys >> 15, minlength=m)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    vars(graph).update(indptr=_read_only(indptr), indices=_read_only(keys & 0x7FFF), degrees=_read_only(degrees))
    return vars(graph)


def _least_labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Least labels on the bipartite double cover of a symmetric graph in CSR form.

    Entry [side, v] is the least vertex in the cover component of (v, side),
    joined to (u, 1 - side) for each edge {u, v}: min A and min B for a
    component with sides A and B, else its least vertex; v, v + m for isolated v.
    Each round hooks every root label[v] to the least label across v's edges,
    by one np.take (several times faster than 2-d indexing) and one segment
    reduction over both sides, then jumps each label once (Shiloach and
    Vishkin).  Labels only fall and stay in their component, so a round that
    changes nothing ends it: 11 rounds against 976 hooking vertices, on the
    cover of the cycle Z/4000 with S = {679, 3321}.  Only the n vertices with
    an edge take part, ascending, (v, side) as v + side*n: no cover CSR is built.
    """
    linked = np.flatnonzero(indptr[:-1] < indptr[1:])
    compact = np.empty(len(indptr) - 1, dtype=np.intp)
    compact[linked] = np.arange(len(linked))
    indices, starts = compact[indices], indptr[linked]
    label = np.arange(2 * len(linked))
    while True:
        hooked = label.copy()
        across = np.minimum.reduceat(np.take(label.reshape(2, -1), indices, axis=1), starts, axis=1)
        np.minimum.at(hooked, label, across[::-1].ravel())
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            least = np.arange(2 * len(compact))
            least[np.concatenate([linked, linked + len(compact)])] = linked[label]
            return least.reshape(2, -1)
        label = hooked


def adjacency_rows_via_group_matrix(
    subgroup: Subgroup, s: Union[GeneratingSet, Iterable[int]]
) -> np.ndarray:
    """The |H| x |G| 0/1 int8 matrix with a one at (i, j) exactly when h_i * s = g_j for some s.

    Evaluates the group-subgroup matrix (x_{h_i^-1 g_j}) at the indicator of the
    set: entry (i, j) is 1 iff h_i^-1 g_j lies in the set.  Rows follow the
    sorted subgroup elements, columns the natural element order.  The set
    enters only as that indicator and is never multiplied, so this is a
    construction of the subgroup rows of the adjacency independent of
    ``build_pair_graph``'s edge rule, and is used as an oracle against it.

    It goes through the right cosets of H.  Every g is x*t for one x in H and
    one coset representative t, and h^-1*(x*t) = (h^-1*x)*t.  So the |G|
    products x*t, the cells, made once per subgroup (``Subgroup.coset_layout``),
    and the |H|^2 quotients h^-1*x, made per call, give every entry: row i is
    the indicator at the cells, its rows taken by the quotients of h_i, its
    columns put back in natural order.  Where the cells are
    0..|G|-1 already, as on every cyclic Z/n > <d>, that reorder is the
    identity and is skipped: the row gather writes into the result.  Rows are
    computed BLOCK // |H| at a time, so a block's quotients are one kernel
    call and its temporaries about BLOCK * [G:H] bytes.
    """
    gen = _as_generating_set(subgroup, s)
    group, h, n, m = subgroup.parent, subgroup.elements, subgroup.order, subgroup.parent.order
    cells, position, natural, in_order, inverses = subgroup.coset_layout
    indicator = np.zeros(m, dtype=np.int8)
    indicator[list(gen.elements)] = 1
    values = indicator[cells]
    out = np.empty((n, m), dtype=np.int8)
    rows = max(1, BLOCK // n)
    for i in range(0, n, rows):
        quotients, block = position[group.product(inverses[i : i + rows, None], h)], out[i : i + rows]
        np.take(values, quotients, axis=0, out=block.reshape(quotients.shape + values.shape[1:]), mode="clip")
        if not in_order:
            block[...] = np.take(block, natural, axis=1)
    return out


def degree_profile(graph: PairGraph) -> list[tuple[int, int, int]]:
    """Per coset: (coset id, common degree, coset size).

    Entry 0 is the subgroup, whose vertices all have degree |S|; the vertices
    of a nontrivial coset share the degree |S ∩ coset|.
    """
    sub = graph.subgroup
    return [(cid, degree, sub.order) for cid, degree in enumerate(graph.degrees[sub.coset_reps].tolist())]


def isolated_vertices(graph: PairGraph) -> np.ndarray:
    """The vertices without an edge, ascending, as a read-only array."""
    return _read_only(np.flatnonzero(graph.degrees == 0))


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    degree: Optional[int]
    matches_criterion: Optional[bool]
    reason: str


def regularity_check(graph: PairGraph) -> RegularityReport:
    """Whether all degrees are equal, cross-checked against the structural criterion.

    The criterion is ``GeneratingSet.regular``: a nontrivial pair graph is
    regular exactly when the set avoids an index-2 subgroup, or H = G.
    """
    degrees = graph.degrees
    regular = bool(degrees.min() == degrees.max())
    degree = int(degrees[0]) if regular else None
    gen = graph.gen
    if gen.size == 0:
        return RegularityReport(regular, degree, None, "trivial graph (empty generating set)")
    criterion = gen.regular
    if criterion == regular:
        reason = f"criterion agrees: inside={len(gen.inside)}, index={graph.subgroup.index}"
    else:  # pragma: no cover - the criterion is exact, disagreement means a bug
        reason = "criterion DISAGREES with observed degrees"
    return RegularityReport(regular, degree, criterion, reason)


def is_cayley_reduction(graph: PairGraph) -> bool:
    """For an index-2 subgroup and a set outside it: is the pair graph a Cayley graph?

    True exactly when the set is symmetric; in that case each vertex x is
    checked to have the neighbours x*S of the Cayley graph of the whole group
    on the same set.
    """
    gen = graph.gen
    if graph.subgroup.index != 2:
        raise IndexNotTwo("Cayley reduction needs a subgroup of index 2")
    if gen.inside:
        raise ValidationError("Cayley reduction needs the generating set outside the subgroup")
    group = graph.group
    members = set(gen.elements)
    symmetric = all(group.inv(x) in members for x in gen.elements)
    if not symmetric:
        return False
    m = graph.order
    rows = np.sort(group.product(np.arange(m)[:, None], np.array(gen.elements, dtype=np.int64)), axis=1)
    same = np.array_equal(graph.indptr, gen.size * np.arange(m + 1)) and np.array_equal(graph.indices, rows.ravel())
    if not same:
        raise PairGraphError("symmetric index-2 pair graph does not match its Cayley graph")
    return True


def graph_to_json(graph: PairGraph) -> dict:
    return {
        "n": graph.order,
        "edges": [[u, v] for u, v in graph.edges()],
        "coset_of": graph.subgroup.coset_of.tolist(),
        "degrees": [int(d) for d in graph.degrees],
    }


def graph_to_dot(graph: PairGraph) -> str:
    """DOT export; subgroup vertices are drawn as boxes."""
    lines = ["graph pairgraph {"]
    for v, coset in enumerate(graph.subgroup.coset_of.tolist()):
        shape = "ellipse" if coset else "box"
        label = graph.group.labels[v].replace('"', "'")
        lines.append(f'  v{v} [label="{label}", shape={shape}];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
