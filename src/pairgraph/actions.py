"""Generating-set transformations, automorphism orbits, and Ramanujan search.

Right translation by a subgroup element and application of a group
automorphism both send a generating set outside the subgroup to one whose
pair graph is isomorphic; orbits under these moves therefore classify
isomorphic constructions.  The search driver samples generating sets of a
fixed size for an index-2 subgroup, pre-filters by the closed-form
connectivity criterion, and certifies the Ramanujan property spectrally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    IndexNotTwo,
    NotAnAutomorphism,
    PairGraphError,
    SizeCapExceeded,
    ValidationError,
)
from .groups import FiniteGroup, Subgroup, _element_indices, _element_orders, generated_elements, validate_generating_set
from .graphs import PairGraph
from .spectral import DEFAULT_TOLERANCE, _check_tolerance, is_ramanujan, ramanujan_size_bound
from .structure import is_connected

AUTOMORPHISM_ORDER_CAP = 120
AUTOMORPHISM_BATCH_CAP = 1 << 22  # map entries one depth of automorphism_group may hold
EXHAUSTIVE_CANDIDATE_CAP = 10**6
ORBIT_SIZE_CAP = 10**6
SEED_STRIDE = 2654435761  # fixed trial-to-trial seed advance


def right_translate_set(subgroup: Subgroup, s_elements: Iterable[int], h: int) -> tuple[int, ...]:
    """Translate a set outside the subgroup on the right by a subgroup element."""
    group = subgroup.parent
    (h,) = _element_indices(group, [h], "translating element")
    if not subgroup.contains(h):
        raise ValidationError(f"translating element {h} is not in the subgroup")
    elems = np.array(_element_indices(group, s_elements), dtype=np.int64)
    if not subgroup.coset_of[elems].all():
        raise ValidationError("right translation needs a set outside the subgroup")
    return tuple(np.sort(group.product(elems, h)).tolist())


def verify_automorphism(group: FiniteGroup, psi: Sequence[int]) -> None:
    """Raise unless psi is a bijective homomorphism.

    The one-map case of the check in ``automorphism_group``, with U the whole
    group: psi(u*h) = psi(u)*psi(h) for every u and each generator h of
    ``_generator_chain``.
    """
    m = group.order
    if len(psi) != m or set(int(x) for x in psi) != set(range(m)):
        raise NotAnAutomorphism("map is not a permutation of the elements")
    if psi[group.identity] != group.identity:
        raise NotAnAutomorphism("map does not fix the identity")
    psi, idx = np.asarray(psi), np.arange(m)
    for h in _generator_chain(group):
        broken = psi[group.product(idx, h)] != group.product(psi, psi[h])
        if broken.any():
            raise NotAnAutomorphism(f"map breaks the product of {np.argmax(broken)} and {h}")


def apply_automorphism(group: FiniteGroup, psi: Sequence[int], s_elements: Iterable[int]) -> tuple[int, ...]:
    """Image of a set under a verified group automorphism."""
    verify_automorphism(group, psi)
    return tuple(sorted(int(psi[x]) for x in _element_indices(group, s_elements)))


def _generator_chain(group: FiniteGroup) -> list[int]:
    """Greedy generating sequence: repeatedly adjoin the smallest missing element."""
    gens: list[int] = []
    span = np.zeros(group.order, dtype=bool)
    span[group.identity] = True
    while not span.all():
        gens.append(int(np.argmin(span)))
        span[generated_elements(group, gens)] = True
    return gens


def _word_levels(group: FiniteGroup, gens: Sequence[int]):
    """Breadth-first word levels of <gens> past the identity, as arrays v, u, g with v = u*g.

    ``generated_elements`` finds the same set several times faster when the parents are not needed.
    """
    gens_arr = np.array(gens, dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    while True:
        reached, first = np.unique(group.product(frontier[:, None], gens_arr), return_index=True)
        new = ~seen[reached]
        if not new.any():
            return
        parents, steps = np.divmod(first[new], len(gens_arr))
        yield reached[new], frontier[parents], gens_arr[steps]
        frontier = reached[new]
        seen[frontier] = True


def automorphism_group(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms, sorted, by a breadth-first search over generator images (order capped).

    Depth d repeats every surviving map once per candidate image of the d-th
    generator of ``_generator_chain`` (an element of its order and
    conjugacy-class size), evaluates the maps on U, the span of the
    generators so far, one word level at a time, and keeps those that are
    homomorphisms on U sending only the identity to the identity.  A depth
    that would hold more than ``AUTOMORPHISM_BATCH_CAP`` map entries raises.
    The map arrays and the conjugates multiply by gathers from one m x m
    array of all products, at most 14 400 entries under the order cap.

    A map with phi(e) = e is a homomorphism on U exactly when
    phi(x*h) = phi(x)*phi(h) for every x in U and each generator h: the y in
    U with phi(x*y) = phi(x)*phi(y) for every x hold the generators and are
    closed under products.  Each generator's check runs on the maps that
    passed the checks before it.
    """
    m = group.order
    if m > AUTOMORPHISM_ORDER_CAP:
        raise SizeCapExceeded(
            f"automorphism enumeration is capped at order {AUTOMORPHISM_ORDER_CAP}"
        )
    idx = np.arange(m)
    products = group.product(idx[:, None], idx).ravel()

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return products[a * m + b]

    orders, _ = _element_orders(group, idx, m)
    # column x holds g*x*g^-1 for every g: its distinct values are x's class
    conjugates = np.sort(product(product(idx[:, None], idx), group.inverses[:, None]), axis=0)
    class_sizes = 1 + np.count_nonzero(np.diff(conjugates, axis=0), axis=0)
    gens = _generator_chain(group)
    maps = np.full((1, m), group.identity, dtype=np.int32)
    for depth, g in enumerate(gens):
        images = np.flatnonzero((orders == orders[g]) & (class_sizes == class_sizes[g]))
        if len(maps) * len(images) * m > AUTOMORPHISM_BATCH_CAP:
            raise SizeCapExceeded(f"automorphism search exceeds the cap of {AUTOMORPHISM_BATCH_CAP} map entries")
        maps = np.repeat(maps, len(images), axis=0)
        maps[:, g] = np.tile(images, len(maps) // len(images))
        u = [np.array([group.identity])]
        for reached, parents, steps in _word_levels(group, gens[: depth + 1]):
            maps[:, reached] = product(maps[:, parents], maps[:, steps])
            u.append(reached)
        u = np.concatenate(u)
        maps = maps[(maps[:, u[1:]] != group.identity).all(axis=1)]
        targets = product(u[:, None], np.array(gens[: depth + 1]))
        for j, h in enumerate(gens[: depth + 1]):
            maps = maps[(maps[:, targets[:, j]] == product(maps[:, u], maps[:, h : h + 1])).all(axis=1)]
    return sorted(map(tuple, maps.tolist()))


def generating_set_orbit(
    subgroup: Subgroup,
    s_elements: Iterable[int],
    automorphisms: Optional[Sequence[Sequence[int]]] = None,
) -> list[tuple[int, ...]]:
    """Orbit of a set outside an index-2 subgroup under right translations and automorphisms.

    Only automorphisms that preserve the subgroup are applied, so every orbit
    member again avoids the subgroup.  Automorphisms may be supplied
    explicitly to bypass the enumeration cap.
    """
    if subgroup.index != 2:
        raise IndexNotTwo("orbits are defined for index-2 subgroups")
    group = subgroup.parent
    start = validate_generating_set(subgroup, s_elements)
    if start.inside:
        raise ValidationError("orbit needs a set outside the subgroup")
    if automorphisms is None:
        automorphisms = automorphism_group(group)
    else:
        for psi in automorphisms:
            verify_automorphism(group, psi)
    # an automorphism preserves H when it sends no element of H outside
    usable = [psi for psi in automorphisms if not subgroup.coset_of[np.asarray(psi)[subgroup.elements]].any()]
    seen = {start.elements}
    queue = [start.elements]
    while queue:
        current = queue.pop()
        moved = [right_translate_set(subgroup, current, h) for h in subgroup.elements]
        moved += [tuple(sorted(psi[x] for x in current)) for psi in usable]
        for nxt in moved:
            if nxt not in seen:
                if len(seen) >= ORBIT_SIZE_CAP:
                    raise SizeCapExceeded("orbit exceeded the size cap")
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


@dataclass(frozen=True)
class SearchConfig:
    """Seeded search for Ramanujan pair graphs over size-k sets outside an index-2 subgroup."""

    subgroup: Subgroup
    size: int
    mode: str = "random"  # "random" | "exhaustive"
    trials: int = 10
    seed: int = 0
    certify: bool = True
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.subgroup.index != 2:
            raise IndexNotTwo("search runs over index-2 subgroups")
        n_outside = self.subgroup.parent.order - self.subgroup.order
        if not 1 <= self.size <= n_outside:
            raise ValidationError(f"set size must be in 1..{n_outside}")
        if self.mode not in ("random", "exhaustive"):
            raise ValidationError(f"unknown search mode {self.mode!r}")
        if self.mode == "exhaustive" and comb(n_outside, self.size) > EXHAUSTIVE_CANDIDATE_CAP:
            raise SizeCapExceeded("exhaustive candidate count exceeds the cap")
        if self.mode == "random" and self.trials < 1:
            raise ValidationError("random mode needs at least one trial")
        _check_tolerance(self.tolerance)


@dataclass(frozen=True)
class SearchResult:
    trial: int
    candidate: tuple[int, ...]
    connected: bool
    ramanujan: Optional[bool]
    worst_nontrivial: Optional[float]
    bound: float
    bound_satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "S": list(self.candidate),
            "connected": self.connected,
            "ramanujan": self.ramanujan,
            "worst_nontrivial": self.worst_nontrivial,
            "bound": self.bound,
        }


def random_candidate(outside: Sequence[int], size: int, seed: int, trial: int) -> tuple[int, ...]:
    """Trial candidate: seeded shuffle of the outside elements, first ``size`` taken."""
    if not 0 <= size <= len(outside):
        raise ValidationError(f"random set size {size} is outside 0..{len(outside)}")
    pool = list(outside)
    random.Random(seed + trial * SEED_STRIDE).shuffle(pool)
    return tuple(sorted(pool[:size]))


def search_ramanujan(config: SearchConfig) -> list[SearchResult]:
    """Deterministic search; see SearchConfig.

    Every candidate that is connected and meets the sufficient size bound must
    certify Ramanujan; a counterexample would refute the bound and raises.
    """
    subgroup = config.subgroup
    outside = subgroup.outside()
    if config.mode == "exhaustive":
        import itertools

        candidates = itertools.combinations(outside, config.size)
    else:
        candidates = (
            random_candidate(outside, config.size, config.seed, t) for t in range(config.trials)
        )
    results = []
    for trial, cand in enumerate(candidates):
        gen = validate_generating_set(subgroup, cand)
        bound = ramanujan_size_bound(gen)
        connected = is_connected(gen).connected
        verdict: Optional[bool] = None
        worst: Optional[float] = None
        if connected and config.certify:
            report = is_ramanujan(PairGraph(gen), None, config.tolerance)
            verdict = report.ramanujan
            worst = report.worst_nontrivial
            if bound.satisfied and not verdict:  # pragma: no cover - the bound is sufficient
                raise PairGraphError(
                    f"connected candidate {cand} meets the size bound but failed certification"
                )
        elif not connected:
            verdict = False
        results.append(
            SearchResult(
                trial=trial,
                candidate=tuple(cand),
                connected=connected,
                ramanujan=verdict,
                worst_nontrivial=worst,
                bound=bound.bound,
                bound_satisfied=bound.satisfied,
            )
        )
    return results
