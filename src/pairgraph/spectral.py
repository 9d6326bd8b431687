"""Adjacency spectra, closed-form trivial eigenvalues, and Ramanujan certification.

With H listed first the adjacency is [[C, B], [B^T, 0]] (C inside H, B the
|H| x |G - H| cross block), so at most 2|H| eigenvalues are nonzero and the
spectrum comes from the |H| rows: +/- the singular values of B if S avoids H,
else the eigenvalues of [[C, R^T], [R, 0]], with B^T = QR when B^T is taller
than wide and R = B^T otherwise; zeros fill the rest.  LAPACK makes both
deterministic; one route serves every group family, capped at 3000 vertices.
Clusters form by single linkage on the sorted values with a tolerance
absolute on the spectrum scaled by the maximum degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .graphs import PairGraph, build_pair_graph
from .groups import GeneratingSet, Subgroup, validate_generating_set
from .structure import connected_components, reachable_subgroup

SPECTRUM_ORDER_CAP = 3000
DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All eigenvalues (descending) with (value, multiplicity) clusters."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    tolerance: float
    scale: float

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
    blocks = np.split(sorted_desc, np.flatnonzero(sorted_desc[:-1] - sorted_desc[1:] > gap) + 1)
    return tuple((float(block.mean()), len(block)) for block in blocks)


def compute_spectrum(graph: PairGraph, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    """Full adjacency spectrum of a pair graph from its |H|-row block (order capped)."""
    if graph.order > SPECTRUM_ORDER_CAP:
        raise SizeCapExceeded(
            f"graph order {graph.order} exceeds the dense solver cap {SPECTRUM_ORDER_CAP}"
        )
    inside = np.array(graph.subgroup.elements)
    rows = graph.adjacency[inside]
    cross = rows[:, np.delete(np.arange(graph.order), inside)].astype(np.float64)
    try:
        if graph.gen.inside:
            # QR only shrinks B^T when it has more rows than columns
            r = cross.T if cross.shape[1] <= len(inside) else np.linalg.qr(cross.T, mode="r")
            values = np.linalg.eigvalsh(np.block([[rows[:, inside], r.T], [r, np.zeros((len(r),) * 2)]]))
        else:
            sigma = np.linalg.svd(cross, compute_uv=False)
            values = np.concatenate([sigma, -sigma])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
    values = np.sort(np.concatenate([values, np.zeros(graph.order - len(values))]))[::-1].copy()
    scale = float(max(1.0, graph.degrees.max(initial=0)))
    return Spectrum(
        eigenvalues=values,
        clusters=_cluster(values, 10.0 * tolerance * scale),
        tolerance=tolerance,
        scale=scale,
    )


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
    u = reachable_subgroup(gen)
    return gen.subgroup.order // u.order


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
    tolerance * max(1, degree) so boundary cases do not flap.
    """
    degrees = graph.degrees
    if degrees.min() != degrees.max():
        raise NotRegular("graph is not regular")
    k = int(degrees[0])
    if connected_components(graph).count != 1:
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
    spec1 = compute_spectrum(build_pair_graph(subgroup, gen1))
    spec2 = compute_spectrum(build_pair_graph(subgroup, gen2))
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
