"""Adjacency spectra, closed-form trivial eigenvalues, and Ramanujan certification.

With H listed first the adjacency is [[C, B], [B^T, 0]] (C inside H, B the
|H| x |G - H| cross block), so at most 2|H| eigenvalues are nonzero; zeros
fill the rest.  Every block is invariant under left multiplication by H, so
the characters of a cyclic K = <k> <= H split the solve into one block per
character, K generated by an element of largest order in H
(``Subgroup.cyclic_orbits``).  The blocks come from the products t*S of
the K-orbit representatives t in H, so the spectrum is read off (G, H, S)
without a built graph.  Each block [[C_j, B_j], [B_j^*, 0]] has one row per
K-orbit in H and one column per K-orbit that S meets; its nonzero values are

- with one row (K = H, every cyclic H): the two roots of x^2 - C x - |B|^2,
  or C alone when H = G;
- otherwise: +/- the singular values of B_j if S avoids H, else the
  eigenvalues of [[C_j, R^*], [R, 0]], with B_j^* = QR when B_j^* is taller
  than wide and R = B_j^* otherwise.

Characters j and n - j give conjugate blocks and are solved once.  The route
is deterministic, serves every group family, and is capped at 3000 vertices.
Clusters form by single linkage on the sorted values with a tolerance
absolute on the spectrum scaled by the maximum degree, max(1, |S|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .groups import GeneratingSet, Subgroup, validate_generating_set
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
        return _cluster(self.eigenvalues, self.cluster_gap)

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
    """Full adjacency spectrum of a pair graph, one block per character of a cyclic K <= H."""
    return _spectrum(graph.gen, tolerance)


def _spectrum(gen: GeneratingSet, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    """The spectrum of the pair graph on ``gen``, read off (G, H, S) without building the graph."""
    _check_tolerance(tolerance)
    m = gen.group.order
    if m > SPECTRUM_ORDER_CAP:
        raise SizeCapExceeded(f"graph order {m} exceeds the dense solver cap {SPECTRUM_ORDER_CAP}")
    values = _character_values(gen)
    values = np.sort(np.concatenate([values, np.zeros(m - len(values))]))[::-1].copy()
    # the maximum degree: each vertex of H has |S| neighbours, a vertex x outside only |S ∩ Hx|
    scale = float(max(1, gen.size))
    return Spectrum(eigenvalues=values, tolerance=tolerance, scale=scale)


def _character_values(gen: GeneratingSet) -> np.ndarray:
    """The at most 2|H| eigenvalues that may be nonzero, one block per character of K = <k>.

    With t, t' the least elements of their K-orbits, character j's block is
    M_j[t, t'] = sum_l a[t, k^l t'] exp(-2 pi i j l / n): the FFT over l of
    the neighbours t*S of the orbit representatives t in H, laid out as (row,
    column orbit, l) over the orbits S meets.
    """
    orbits = gen.subgroup.cyclic_orbits
    n, r = len(orbits.listing), orbits.inside
    neighbours = gen.group.product(orbits.reps[:r, None], np.array(gen.elements, dtype=np.int64))
    column = orbits.orbit_of[neighbours]
    outside = column >= r
    covered, rank = np.unique(column[outside], return_inverse=True)
    column[outside] = r + rank
    layout = np.zeros((r, r + len(covered), n))
    layout[np.arange(r)[:, None], column, orbits.exponent[neighbours]] = 1.0
    if r == 1:  # K = H: each block [[c, b], [b^*, 0]] has the nonzero values (c +/- sqrt(c^2 + 4|b|^2)) / 2
        f = np.fft.fft(layout[0], axis=1)
        c = f[0].real
        if gen.subgroup.index == 1:
            return c
        root = np.sqrt(c * c + 4.0 * (np.abs(f[1:]) ** 2).sum(axis=0))
        return np.concatenate([(c + root) / 2.0, (c - root) / 2.0])
    # characters j and n - j give conjugate blocks, with the same values
    f = np.moveaxis(np.fft.rfft(layout, axis=2), 2, 0)
    weight = np.full(len(f), 2)
    weight[0] = 1
    if n % 2 == 0:
        weight[-1] = 1
    inside, cross = f[:, :, :r], f[:, :, r:]
    try:
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
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc


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

    def quadratic_residual(self, value: float) -> float:
        return value * value - self.inside_size * value - sum(c * c for c in self.coset_pattern)


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
