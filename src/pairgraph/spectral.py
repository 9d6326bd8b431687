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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional

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
from .groups import GeneratingSet, Subgroup, coset_chain, validate_generating_set
from .structure import is_connected

SPECTRUM_ORDER_CAP = 3000
DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All eigenvalues (descending), clustered into (value, multiplicity) pairs on first read."""

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
    """Full adjacency spectrum of a pair graph, one block per irreducible representation (S_n > A_n) or character."""
    return _spectrum(graph.gen, tolerance)


def _spectrum(gen: GeneratingSet, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    """The spectrum of the pair graph on ``gen``, read off (G, H, S) without building the graph.

    ``_young_values`` when G is symmetric, [G:H] = 2 and S is nonempty and
    avoids H; ``_character_values`` otherwise.  A LAPACK failure on either
    route raises ``EigensolverError``.
    """
    _check_tolerance(tolerance)
    m = gen.group.order
    if m > SPECTRUM_ORDER_CAP:
        raise SizeCapExceeded(f"graph order {m} exceeds the dense solver cap {SPECTRUM_ORDER_CAP}")
    symmetric = gen.group.descriptor.get("kind") == "symmetric"
    young = symmetric and gen.subgroup.index == 2 and gen.outside and not gen.inside  # so H = A_n
    try:
        values = _young_values(gen) if young else _character_values(gen)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    values = np.sort(np.concatenate([values, np.zeros(m - len(values))]))[::-1].copy()
    # the maximum degree: each vertex of H has |S| neighbours, a vertex x outside only |S ∩ Hx|
    scale = float(max(1, gen.size))
    return Spectrum(eigenvalues=values, tolerance=tolerance, scale=scale)


def _character_values(gen: GeneratingSet) -> np.ndarray:
    """The at most 2|H| eigenvalues that may be nonzero, one block per character of K.

    With K = <k_1> x ... x <k_d> and t, t' the least elements of their
    K-orbits, character j's block is M_j[t, t'] = sum_l a[t, k^l t']
    exp(-2 pi i sum_i j_i l_i / n_i): the DFT over l of the neighbours t*S of
    the orbit representatives t in H, laid out as (l, row, column orbit) with
    l flat.  The columns are the orbits S meets outside H, after the orbits
    in H when S meets H or H has one orbit.  One K axis takes numpy's FFT,
    several take ``_dft``.
    """
    orbits = gen.subgroup.abelian_orbits
    shape, r = orbits.listing.shape, orbits.inside
    neighbours = gen.group.product(orbits.reps[:r, None], np.array(gen.elements, dtype=np.int64))
    column = orbits.orbit_of[neighbours]
    outside = column >= r
    covered, rank = np.unique(column[outside], return_inverse=True)
    in_h = r if gen.inside or r == 1 else 0
    column[outside] = in_h + rank
    layout = np.zeros((orbits.listing.size, r, in_h + len(covered)))
    layout[orbits.exponent[neighbours], np.arange(r)[:, None], column] = 1.0
    if r == 1:  # K = H: each block [[c, b], [b^*, 0]] has the nonzero values (c +/- sqrt(c^2 + 4|b|^2)) / 2
        if len(shape) == 1:  # one C-ordered row per column, so |b|^2 sums in a fixed order
            f = np.fft.fft(np.ascontiguousarray(layout[:, 0].T), axis=1)
        else:
            f = _dft(layout[:, 0], shape).T
        c = f[0].real
        if gen.subgroup.index == 1:
            return c
        root = np.sqrt(c * c + 4.0 * (np.abs(f[1:]) ** 2).sum(axis=0))
        return np.concatenate([(c + root) / 2.0, (c - root) / 2.0])
    # characters j and -j give conjugate blocks, with the same values
    if len(shape) == 1:
        f = np.fft.rfft(layout, axis=0)
        weight = np.full(len(f), 2)
        weight[0] = 1
        if shape[0] % 2 == 0:
            weight[-1] = 1
    else:
        j = np.indices(shape).reshape(len(shape), -1)
        negated = np.ravel_multi_index(tuple(-j % np.array(shape)[:, None]), shape)
        keep = np.flatnonzero(np.arange(len(negated)) <= negated)
        f = _dft(layout, shape)[keep]
        weight = np.where(negated[keep] == keep, 1, 2)
    inside, cross = f[:, :, :in_h], f[:, :, in_h:]
    if gen.inside:
        adjoint = cross.conj().swapaxes(1, 2)
        # QR only shrinks B^* when it has more rows than columns
        tail = adjoint if len(covered) <= r else np.linalg.qr(adjoint, mode="r")
        # eigvalsh reads the lower triangle only, so the R^* copy is never written
        block = np.zeros((len(f), r + tail.shape[1], r + tail.shape[1]), dtype=complex)
        block[:, :r, :r] = inside
        block[:, r:, :r] = tail
        return np.repeat(np.linalg.eigvalsh(block), weight, axis=0).ravel()
    # the same singular values, faster from the tall orientation
    sigma = np.linalg.svd(cross.swapaxes(1, 2) if len(covered) > r else cross, compute_uv=False)
    sigma = np.repeat(sigma, weight, axis=0).ravel()
    return np.concatenate([sigma, -sigma])


def _young_values(gen: GeneratingSet) -> np.ndarray:
    """The |G| eigenvalues of S_n > A_n with S outside A_n: +/- the singular values of rho(sum S).

    With s = c_(i_2) * ... * c_(i_n) of ``coset_chain``, found by
    ``FiniteGroup.chain_index``, rho(s) is row (i_2, ..., i_(n-1)) of the
    S_(n-1) table of ``_young_tables`` times rho(c_(i_n)).  One matmul by S's indicator, as a (|G|/n) x n array in
    that order, sums the rows by i_n, and one more per lambda applies rho(c_i).
    """
    n = len(gen.group.perms[0])
    table, blocks = _young_tables(n)
    counts = np.bincount(gen.group.chain_index[list(gen.elements)], minlength=gen.group.order)
    sums = counts.reshape(-1, n).T.astype(float) @ table
    values, start = [], 0
    for weight, last in blocks:
        d = last.shape[1]
        block = sums[:, start : start + d * d].reshape(n, d, d)
        start += d * d
        total = block.transpose(1, 0, 2).reshape(d, n * d) @ last.reshape(n * d, d)
        values.append(np.repeat(np.linalg.svd(total, compute_uv=False), weight))
    sigma = np.concatenate(values)
    return np.concatenate([sigma, -sigma])


@cache
def _young_tables(n: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Young's orthogonal form of S_n (James and Kerber 1981) along ``coset_chain``.

    A standard tableau T is its row word w, entry k + 1 in row w[k], and
    rho(s_i) e_T = e_T / a + sqrt(1 - 1/a^2) e_(s_i T), a the content of i + 1
    minus that of i; the Coxeter relations make it a representation under
    either composition convention.  One lambda is kept per conjugate pair, of
    weight d_lambda (rho_lambda' = sgn rho_lambda has the same singular values
    on an odd set), a self-conjugate one of weight d_lambda / 2.  Returns
    rho(c_(i_2) * ... * c_(i_(n-1))) for all of S_(n-1), flat per lambda and
    side by side (0.47 MB for S6, 15.7 MB for S7), and per lambda its weight
    and the n matrices rho(c_i) of the last level.
    """
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    words = [()]
    for _ in range(n):
        words = [w + (r,) for w in words for r in range(len(set(w)) + 1) if not r or w.count(r - 1) > w.count(r)]
    for w in words:
        shapes.setdefault(tuple(w.count(r) for r in range(max(w) + 1)), []).append(w)
    tables, blocks = [], []
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
        blocks.append((d if shape > conjugate else d // 2, last))
    return np.concatenate(tables, axis=1), blocks


def _dft(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The DFT of the real x over its first axis, read as the K axes ``shape``, flat again.

    Each K axis is contracted with its n x n DFT matrix by matmuls whose inner
    dimension is all of x after that axis: the first, on real x, by the real
    cos and sin matrices, as exp(-i theta) = cos - i sin, the rest complex.
    ``np.fft.fftn`` over such tiny axes costs more, and no |K| x |K| table is
    formed.
    """
    f = None
    for i, n in enumerate(shape):
        theta = 2.0 * np.pi / n * (np.outer(np.arange(n), np.arange(n)) % n)
        if f is None:
            parts = np.concatenate([np.cos(theta), np.sin(theta)]) @ x.reshape(n, -1)
            f = np.empty(x.shape, dtype=complex)
            f.real = parts[:n].reshape(x.shape)
            np.negative(parts[n:].reshape(x.shape), out=f.imag)
        else:
            f = (np.cos(theta) - 1j * np.sin(theta)) @ f.reshape(math.prod(shape[:i]), n, -1)
    return f.reshape(x.shape)


@dataclass(frozen=True)
class TrivialEigenvalues:
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


@dataclass(frozen=True)
class RamanujanReport:
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
    ``GeneratingSet.regular`` and ``is_connected``, not off the graph.
    """
    return _certify(graph.gen, spectrum, tolerance)


def _certify(gen: GeneratingSet, spectrum: Optional[Spectrum], tolerance: float) -> RamanujanReport:
    """``is_ramanujan`` on the pair graph of ``gen``, without building it."""
    _check_tolerance(tolerance)
    if not gen.regular:
        raise NotRegular("graph is not regular")
    k = gen.size
    if not is_connected(gen).connected:
        raise NotConnected("graph is not connected")
    if spectrum is None:
        spectrum = _spectrum(gen, tolerance)
    eps = tolerance * max(1.0, float(k))
    values = spectrum.eigenvalues
    if abs(values[0] - k) > 1e-6:  # pragma: no cover - Perron value must be the degree
        raise PairGraphError("largest eigenvalue of a connected regular graph is not its degree")
    rest = values[1:]
    if len(rest) and rest[-1] <= -k + eps:
        rest = rest[:-1]
    worst = float(np.max(np.abs(rest))) if len(rest) else 0.0
    bound = 2.0 * math.sqrt(k - 1) if k >= 1 else 0.0
    return RamanujanReport(
        ramanujan=bool(worst <= bound + eps),
        degree=k,
        worst_nontrivial=worst,
        bound=bound,
        margin=bound - worst,
    )


@dataclass(frozen=True, eq=False)
class ComplementarySpectraReport:
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
    spec1, spec2 = _spectrum(gen1), _spectrum(gen2)
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


@dataclass(frozen=True)
class SizeBoundReport:
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
