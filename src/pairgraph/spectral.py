"""Adjacency spectra, closed-form trivial eigenvalues, and Ramanujan certification.

With H listed first the adjacency is [[C, B], [B^T, 0]] (C inside H, B the
|H| x |G - H| cross block), so at most 2|H| eigenvalues are nonzero; zeros
fill the rest.  Every block is invariant under left multiplication by H, so
the characters of an abelian K = <k_1> x ... x <k_d> <= H split the solve
into one block per character (``Subgroup.abelian_orbits``).  K is grown
greedily from an element of largest order in H and from the least element
of each prime order, the largest K kept: C3 x C3 in A6, V4 in A4, and K = H
for every abelian H.  The blocks come from the products t*S of the K-orbit
representatives t in H, so the spectrum is read off (G, H, S) without a
built graph.  Each block [[C_j, B_j], [B_j^*, 0]] has one row per K-orbit in
H and one column per K-orbit that S meets; its nonzero values are

- with one row (K = H, every abelian H): the two roots of x^2 - C x - |B|^2,
  or C alone when H = G;
- otherwise: +/- the singular values of B_j if S avoids H, else the
  eigenvalues of [[C_j, R^*], [R, 0]], with B_j^* = QR when B_j^* is taller
  than wide and R = B_j^* otherwise.

Characters j and -j give conjugate blocks and are solved once.  S_n > A_n
with S nonempty and outside A_n, the paper's examples, takes a second route:
+/- the singular values of rho(sum S) over the irreducible representations
of S_n in Young's orthogonal form, blocks of at most 16 rows on S6 against
40 (``_young_values``).  Both routes are deterministic and capped at 3000
vertices.  Clusters form by single linkage on the sorted values with a
tolerance absolute on the spectrum scaled by the maximum degree, max(1, |S|).

``compute_spectra`` solves a block of sets of one size on one subgroup, as a
search does: both routes take the sets as a leading axis, and every FFT,
matmul, ``svd`` and ``eigvalsh`` call is stacked over 2-D problems of exactly
the shapes one set solves, never flattened into a larger product.  numpy
solves a stack one problem at a time, so each set's values are bit-identical
to its own block of one, which is ``compute_spectrum``.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EigensolverError,
    IndexNotTwo,
    NotConnected,
    NotRegular,
    PairGraphError,
    SizeCapExceeded,
    ValidationError,
)
# build_pair_graph stays importable here: perfbench/test_perfbench.py reaches it through this namespace
from .graphs import PairGraph, build_pair_graph  # noqa: F401
from .groups import GeneratingSet, Subgroup, _read_only, coset_chain, validate_generating_set
from .records import Record
from .structure import is_connected

SPECTRUM_ORDER_CAP = 3000
STACK_BYTES = 1 << 20  # the most a stacked K-route layout holds: sets above it are solved one by one
DEFAULT_TOLERANCE = 1e-8


class Spectrum(Record, eq=False):
    """All eigenvalues (descending, read-only), clustered into (value, multiplicity) pairs on first read."""

    eigenvalues: np.ndarray
    tolerance: float
    scale: float

    @cached_property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        """``_cluster``'s pairs, a mean within the gap of 0 read as 0.0: its sign is the solver's rounding."""
        gap = self.cluster_gap
        return tuple((0.0 if abs(mean) <= gap else mean, count) for mean, count in _cluster(self.eigenvalues, gap))

    @property
    def order(self) -> int:
        return len(self.eigenvalues)

    @property
    def cluster_gap(self) -> float:
        return 10.0 * self.tolerance * self.scale

    def multiplicity_near(self, value: float, atol: Optional[float] = None) -> int:
        atol = self.cluster_gap if atol is None else atol
        return int(np.count_nonzero(np.abs(self.eigenvalues - value) <= atol))

    def contains(self, value: float, atol: float = 1e-6) -> bool:
        return bool(np.min(np.abs(self.eigenvalues - value)) <= atol)

    def __repr__(self) -> str:
        return f"Spectrum(order={self.order}, clusters={len(self.clusters)})"


def _cluster(sorted_desc: np.ndarray, gap: float) -> tuple[tuple[float, int], ...]:
    starts = np.concatenate([[0], np.flatnonzero(sorted_desc[:-1] - sorted_desc[1:] > gap) + 1])
    sizes = np.diff(np.append(starts, len(sorted_desc)))
    # x / 1 and (a + b) / 2 are what ``mean`` computes for one and two values;
    # from three on its summation order differs, so longer clusters keep it
    means = sorted_desc[starts].copy()
    pairs = starts[sizes == 2]
    means[sizes == 2] = (sorted_desc[pairs] + sorted_desc[pairs + 1]) / 2
    for i in np.flatnonzero(sizes > 2):
        means[i] = sorted_desc[starts[i] : starts[i] + sizes[i]].mean()
    return tuple(zip(means.tolist(), sizes.tolist()))


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")


def compute_spectrum(graph: PairGraph, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    """Full adjacency spectrum of a pair graph, read off (G, H, S) without its edge list: a block of one."""
    return compute_spectra([graph.gen], tolerance)[0]


def compute_spectra(gens: Sequence[GeneratingSet], tolerance: float = DEFAULT_TOLERANCE) -> list[Spectrum]:
    """The spectra of a block of sets of one size on one subgroup, all meeting it or all avoiding it.

    One block per irreducible representation by ``_young_values`` when G is
    symmetric, [G:H] = 2 and the sets are nonempty and avoid H; one per
    character by ``_character_values`` otherwise, each route stacked over the
    sets.  A LAPACK failure on either route raises ``EigensolverError``.
    """
    _check_tolerance(tolerance)
    if not gens:
        return []
    gen, m = gens[0], gens[0].group.order
    if any(g.subgroup is not gen.subgroup or g.size != gen.size or bool(g.inside) != bool(gen.inside) for g in gens[1:]):
        raise ValidationError("a block holds sets of one size on one subgroup, all meeting it or all avoiding it")
    if m > SPECTRUM_ORDER_CAP:
        raise SizeCapExceeded(f"graph order {m} exceeds the dense solver cap {SPECTRUM_ORDER_CAP}")
    symmetric = gen.group.descriptor.get("kind") == "symmetric"
    young = symmetric and gen.subgroup.index == 2 and gen.outside and not gen.inside  # so H = A_n
    try:
        values = _young_values(gens) if young else _character_values(gens)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    # the maximum degree: each vertex of H has |S| neighbours, a vertex x outside only |S ∩ Hx|
    scale = float(max(1, gen.size))
    padded = (v if len(v) == m else np.concatenate([v, np.zeros(m - len(v))]) for v in values)
    return [Spectrum(_read_only(np.sort(v)[::-1].copy()), tolerance, scale) for v in padded]


def _character_values(gens: Sequence[GeneratingSet]) -> list[np.ndarray]:
    """Per set of the block, the at most 2|H| eigenvalues that may be nonzero, one block per character of K.

    With K = <k_1> x ... x <k_d> and t, t' the least elements of their
    K-orbits, character j's block is M_j[t, t'] = sum_l a[t, k^l t']
    exp(-2 pi i sum_i j_i l_i / n_i): the DFT over l of the neighbours t*S of
    the orbit representatives t in H, laid out as (set, l, row, column orbit)
    with l flat.  The columns are the orbits a set meets outside H, after the
    orbits in H when S meets H or H has one orbit.  Sets that meet the same
    number of orbits share a stack, transformed by numpy's FFT along each K
    axis.  Each FFT line, matmul and LAPACK call in a stack is the 2-D
    problem a block of one solves, so stacking keeps every bit.
    """
    gen, orbits = gens[0], gens[0].subgroup.abelian_orbits
    r, sets = orbits.inside, np.arange(len(gens))[:, None, None]
    neighbours = gen.group.product(orbits.reps[:r, None], np.array([g.elements for g in gens], dtype=np.int64)[:, None])
    # the columns: every orbit in H when S meets H or r = 1, then the orbits met outside H, in increasing order
    column = orbits.orbit_of[neighbours]
    covered = np.zeros((len(gens), len(orbits.reps)), dtype=np.intp)
    covered[sets, column] = 1
    covered[:, :r] = bool(gen.inside) or r == 1
    rank = covered.cumsum(axis=1) - 1
    column, widths = rank[sets, column], (rank[:, -1] + 1).tolist()
    exponent, values = orbits.exponent[neighbours], [None] * len(gens)
    for width in set(widths):
        same = [i for i, w in enumerate(widths) if w == width]
        step = max(1, STACK_BYTES // (8 * orbits.listing.size * r * max(1, width)))
        for part in (same[i : i + step] for i in range(0, len(same), step)):
            layout = np.zeros((len(part), orbits.listing.size, r, width))
            layout[sets[: len(part)], exponent[part], np.arange(r)[:, None], column[part]] = 1.0
            for i, v in zip(part, _stack_values(gen, layout)):
                values[i] = v
    return values


def _stack_values(gen: GeneratingSet, layout: np.ndarray) -> np.ndarray:
    """``_character_values`` of the sets with one layout shape: one row of values per set."""
    shape, (count, _, r, columns) = gen.subgroup.abelian_orbits.listing.shape, layout.shape
    in_h = r if gen.inside else 0
    if r == 1:  # K = H: each block [[c, b], [b^*, 0]] has the nonzero values (c +/- sqrt(c^2 + 4|b|^2)) / 2
        # one C-ordered row per column, so |b|^2 sums in a fixed order
        rows = np.ascontiguousarray(layout[:, :, 0].swapaxes(1, 2)).reshape(count, columns, *shape)
        f = np.fft.fftn(rows, axes=tuple(range(2, 2 + len(shape)))).reshape(count, columns, -1)
        c = f[:, 0].real
        if gen.subgroup.index == 1:
            return c
        root = np.sqrt(c * c + 4.0 * (np.abs(f[:, 1:]) ** 2).sum(axis=1))
        return np.concatenate([(c + root) / 2.0, (c - root) / 2.0], axis=1)
    # characters j and -j give conjugate blocks, with the same values: rfft's grid holds one of each pair
    keep, weight = _conjugate_pairs(shape)
    f = np.fft.rfftn(layout.reshape(count, *shape, r, columns), axes=tuple(range(1, 1 + len(shape))))
    f = f.reshape(count, math.prod(f.shape[1:-2]), r, columns)  # no -1: a stack may have no columns
    if keep.size < f.shape[1]:  # a one-axis K keeps every point, and a gather would copy the whole grid
        f = f[:, keep]
    inside, cross = f[..., :in_h], f[..., in_h:]
    if gen.inside:
        adjoint = cross.conj().swapaxes(2, 3)
        # QR only shrinks B^* when it has more rows than columns
        tail = adjoint if columns - in_h <= r else np.linalg.qr(adjoint, mode="r")
        # eigvalsh reads the lower triangle only, so the R^* copy is never written
        block = np.zeros(f.shape[:2] + (r + tail.shape[2],) * 2, dtype=complex)
        block[:, :, :r, :r] = inside
        block[:, :, r:, :r] = tail
        return np.repeat(np.linalg.eigvalsh(block), weight, axis=1).reshape(count, -1)
    # the same singular values, faster from the tall orientation
    sigma = np.linalg.svd(cross.swapaxes(2, 3) if columns - in_h > r else cross, compute_uv=False)
    sigma = np.repeat(sigma, weight, axis=1).reshape(count, -1)
    return np.concatenate([sigma, -sigma], axis=1)


@cache
def _conjugate_pairs(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One character j per conjugate pair {j, -j}, flat on rfft's grid, and 1 where j = -j, else 2.

    The grid holds j_d = 0..n_d/2 on the last K axis; j stands for its pair
    when -j falls off the grid or does not come before j in flat order.
    """
    grid = shape[:-1] + (shape[-1] // 2 + 1,)
    j = np.indices(grid).reshape(len(shape), -1)
    own, negated = (np.ravel_multi_index(tuple(x % np.array(shape)[:, None]), shape) for x in (j, -j))
    keep = np.flatnonzero((-j[-1] % shape[-1] >= grid[-1]) | (own <= negated))
    return keep, np.where(negated[keep] == own[keep], 1, 2)


def _young_values(gens: Sequence[GeneratingSet]) -> list[np.ndarray]:
    """Per set of the block, the |G| eigenvalues of S_n > A_n with S outside A_n: +/- the singular values of rho(sum S).

    With s = c_(i_2) * ... * c_(i_n) of ``coset_chain``, found by
    ``FiniteGroup.chain_index``, rho(s) is row (i_2, ..., i_(n-1)) of the
    S_(n-1) table of ``_young_tables`` times rho(c_(i_n)).  One matmul by the
    sets' indicators, each a (|G|/n) x n array in that order, sums the rows by
    i_n; then each lambda reads its d x nd factor, entry (a, (i, b)) at row i,
    column start + a d + b of those sums, and takes one matmul by its stacked
    rho(c_i) and one ``svd``.  Each call is stacked over the sets, so every
    matmul and ``svd`` solves the 2-D problem of a block of one, never a
    flattened larger product, and each set keeps its bits.
    """
    gen, count = gens[0], len(gens)
    n = gen.group.images.shape[1]
    table, irreducibles = _young_tables(n)
    indicator = np.zeros((count, gen.group.order // n, n))
    chain = gen.group.chain_index[np.array([g.elements for g in gens], dtype=np.int64)]
    indicator.reshape(count, -1)[np.arange(count)[:, None], chain] = 1.0
    sums, sigma = indicator.swapaxes(1, 2) @ table, []
    for start, last, weight in irreducibles:
        d = last.shape[1]
        factor = sums[:, :, start : start + d * d].reshape(count, n, d, d).swapaxes(1, 2).reshape(count, d, n * d)
        sigma.append(np.repeat(np.linalg.svd(factor @ last, compute_uv=False), weight, axis=1))
    sigma = np.concatenate(sigma, axis=1)
    return list(np.concatenate([sigma, -sigma], axis=1))


@cache
def _young_tables(n: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray, int]]]:
    """Young's orthogonal form of S_n (James and Kerber 1981) along ``coset_chain``.

    A standard tableau T is its row word w, entry k + 1 in row w[k], and
    rho(s_i) e_T = e_T / a + sqrt(1 - 1/a^2) e_(s_i T), a the content of i + 1
    minus that of i; the Coxeter relations make it a representation under
    either composition convention.  One lambda is kept per conjugate pair, of
    weight d_lambda (rho_lambda' = sgn rho_lambda has the same singular values
    on an odd set), a self-conjugate one of weight d_lambda / 2.  Returns
    rho(c_(i_2) * ... * c_(i_(n-1))) for all of S_(n-1), flat per lambda and
    side by side (0.47 MB for S6, 15.7 MB for S7), and per kept lambda its
    first column in that table, the n matrices rho(c_i) of the last level
    stacked as nd x d, and its weight.
    """
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    words = [()]
    for _ in range(n):
        words = [w + (r,) for w in words for r in range(len(set(w)) + 1) if not r or w.count(r - 1) > w.count(r)]
    for w in words:
        shapes.setdefault(tuple(w.count(r) for r in range(max(w) + 1)), []).append(w)
    tables, irreducibles, start = [], [], 0
    for shape, tableaux in shapes.items():
        conjugate = tuple(sum(r > c for r in shape) for c in range(shape[0]))
        if shape < conjugate:
            continue
        d, where = len(tableaux), {w: t for t, w in enumerate(tableaux)}
        content = np.array([[w[:k].count(r) - r for k, r in enumerate(w)] for w in tableaux])
        gens = []
        for i in range(n - 1):
            a = content[:, i + 1] - content[:, i]
            rho = np.diag(1.0 / a)
            for t in np.flatnonzero(abs(a) > 1):
                w = tableaux[t]
                rho[where[w[:i] + (w[i + 1], w[i]) + w[i + 2 :]], t] = math.sqrt(1.0 - a[t] ** -2.0)
            gens.append(rho)
        table, last = coset_chain(n, np.eye(d), gens, np.matmul)
        tables.append(table.reshape(len(table), d * d))
        irreducibles.append((start, last.reshape(n * d, d), d if shape > conjugate else d // 2))
        start += d * d
    return np.concatenate(tables, axis=1), irreducibles


class TrivialEigenvalues(Record):
    """The closed-form eigenvalue pair determined by the coset profile.

    Writing q = |S ∩ H| and c_i = |S ∩ coset_i|, the two values are the roots
    of  x^2 - q x - sum(c_i^2).  The associated eigenfunction is constant on
    each coset: the root on the subgroup, c_i on coset i.  When the set lies
    inside the subgroup only the upper root is an eigenvalue.
    """

    upper: float
    lower: Optional[float]
    inside_size: int
    coset_pattern: tuple[int, ...]


def trivial_eigenvalues(gen: GeneratingSet) -> TrivialEigenvalues:
    if gen.size == 0:
        raise ValidationError("trivial eigenvalues need a nonempty generating set")
    q = len(gen.inside)
    ssq = sum(c * c for c in gen.coset_counts[1:])
    root = math.sqrt(q * q + 4.0 * ssq)
    upper = (q + root) / 2.0
    lower = (q - root) / 2.0 if gen.outside else None
    return TrivialEigenvalues(
        upper=upper,
        lower=lower,
        inside_size=q,
        coset_pattern=tuple(gen.coset_counts[1:]),
    )


def largest_eigenvalue_multiplicity(gen: GeneratingSet) -> int:
    """Multiplicity of the largest eigenvalue: the index of the reachable subgroup in H."""
    if gen.size == 0 or not gen.outside:
        raise ValidationError("requires a generating set with elements outside the subgroup")
    return gen.subgroup.order // len(gen.reachable)


def zero_multiplicity_lower_bound(gen: GeneratingSet) -> int:
    """Lower bound for the multiplicity of the eigenvalue 0."""
    outside_count = gen.group.order - gen.subgroup.order
    return outside_count - min(gen.covered_vertex_count(), gen.subgroup.order)


class RamanujanReport(Record):
    ramanujan: bool
    degree: int
    worst_nontrivial: float
    bound: float
    margin: float


def is_ramanujan(
    graph: PairGraph,
    spectrum: Optional[Spectrum] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RamanujanReport:
    """Certify the Ramanujan property of a connected regular graph.

    Every eigenvalue other than +/- the degree must satisfy
    |mu| <= 2*sqrt(degree - 1), tested with an absolute slack of
    tolerance * max(1, degree) so boundary cases do not flap.  Regularity,
    the degree |S| and connectivity are read off (G, H, S), by
    ``GeneratingSet.regular`` and ``is_connected``, not off the edge list.
    """
    _check_tolerance(tolerance)
    gen = graph.gen
    if not gen.regular:
        raise NotRegular("graph is not regular")
    k = gen.size
    if not is_connected(gen).connected:
        raise NotConnected("graph is not connected")
    if spectrum is None:
        spectrum = compute_spectrum(graph, tolerance)
    eps = tolerance * max(1.0, float(k))
    values = spectrum.eigenvalues
    if abs(values[0] - k) > 1e-6:  # pragma: no cover - Perron value must be the degree
        raise PairGraphError("largest eigenvalue of a connected regular graph is not its degree")
    rest = values[1:]
    if len(rest) and rest[-1] <= -k + eps:
        rest = rest[:-1]
    worst = float(np.maximum(abs(rest[0]), abs(rest[-1]))) if len(rest) else 0.0  # the values descend
    bound = 2.0 * math.sqrt(k - 1) if k >= 1 else 0.0
    return RamanujanReport(
        ramanujan=bool(worst <= bound + eps),
        degree=k,
        worst_nontrivial=worst,
        bound=bound,
        margin=bound - worst,
    )


class ComplementarySpectraReport(Record, eq=False):
    ok: bool
    max_interior_gap: float
    first_size: int
    second_size: int
    first_spectrum: Spectrum
    second_spectrum: Spectrum


def compare_complementary_spectra(
    subgroup: Subgroup,
    first: Iterable[int],
    second: Iterable[int],
    atol: float = 1e-6,
) -> ComplementarySpectraReport:
    """Check that complementary sets outside an index-2 subgroup share the interior spectrum.

    The sets must partition the complement of the subgroup.  The two sorted
    spectra have to agree everywhere except in the two extreme positions,
    which hold +/- the respective degrees.
    """
    if subgroup.index != 2:
        raise IndexNotTwo("complementary spectra are defined for index-2 subgroups")
    gen1 = validate_generating_set(subgroup, first)
    gen2 = validate_generating_set(subgroup, second)
    if gen1.inside or gen2.inside:
        raise ValidationError("both sets must avoid the subgroup")
    if not gen1.elements or not gen2.elements:
        raise ValidationError("both sets must be nonempty")
    if set(gen1.elements) & set(gen2.elements):
        raise ValidationError("the sets must be disjoint")
    if len(gen1.elements) + len(gen2.elements) != subgroup.parent.order - subgroup.order:
        raise ValidationError("the sets must cover the complement of the subgroup")
    spec1, spec2 = compute_spectrum(PairGraph(gen1)), compute_spectrum(PairGraph(gen2))
    interior1 = spec1.eigenvalues[1:-1]
    interior2 = spec2.eigenvalues[1:-1]
    gap = float(np.max(np.abs(interior1 - interior2))) if len(interior1) else 0.0
    k1, k2 = len(gen1.elements), len(gen2.elements)
    extremes_ok = (
        abs(spec1.eigenvalues[0] - k1) <= atol
        and abs(spec1.eigenvalues[-1] + k1) <= atol
        and abs(spec2.eigenvalues[0] - k2) <= atol
        and abs(spec2.eigenvalues[-1] + k2) <= atol
    )
    return ComplementarySpectraReport(
        ok=bool(gap <= atol and extremes_ok),
        max_interior_gap=gap,
        first_size=k1,
        second_size=k2,
        first_spectrum=spec1,
        second_spectrum=spec2,
    )


class SizeBoundReport(Record):
    bound: float
    satisfied: bool
    set_size: int
    subgroup_order: int


def ramanujan_size_bound(gen: GeneratingSet) -> SizeBoundReport:
    """The sufficient size bound n + 2 - 2*sqrt(n) for index-2 regular pair graphs.

    A connected pair graph on a set of at least this size is guaranteed
    Ramanujan; the condition is sufficient, not necessary.
    """
    if gen.subgroup.index != 2:
        raise IndexNotTwo("the size bound applies to index-2 subgroups")
    if gen.inside:
        raise ValidationError("the size bound applies to sets outside the subgroup")
    n = gen.subgroup.order
    bound = n + 2.0 - 2.0 * math.sqrt(n)
    return SizeBoundReport(
        bound=bound,
        satisfied=bool(gen.size >= bound),
        set_size=gen.size,
        subgroup_order=n,
    )
