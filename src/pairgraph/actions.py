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
from .graphs import build_pair_graph
from .groups import FiniteGroup, Subgroup, generated_elements, validate_generating_set
from .spectral import is_ramanujan, ramanujan_size_bound
from .structure import is_connected

AUTOMORPHISM_ORDER_CAP = 120
EXHAUSTIVE_CANDIDATE_CAP = 10**6
ORBIT_SIZE_CAP = 10**6
SEED_STRIDE = 2654435761  # fixed trial-to-trial seed advance


def right_translate_set(subgroup: Subgroup, s_elements: Iterable[int], h: int) -> tuple[int, ...]:
    """Translate a set outside the subgroup on the right by a subgroup element."""
    group = subgroup.parent
    if not subgroup.contains(h):
        raise ValidationError(f"translating element {h} is not in the subgroup")
    elems = sorted(set(int(x) for x in s_elements))
    for x in elems:
        if subgroup.contains(x):
            raise ValidationError("right translation needs a set outside the subgroup")
    return tuple(np.sort(group.product(np.array(elems, dtype=np.int64), h)).tolist())


def verify_automorphism(group: FiniteGroup, psi: Sequence[int]) -> None:
    """Raise unless psi is a bijective homomorphism.

    Exact: the elements g with psi(g*x) = psi(g)*psi(x) for every x are closed
    under products, so checking each generator of ``_generator_chain`` against
    every x checks every pair.
    """
    m = group.order
    if len(psi) != m or set(int(x) for x in psi) != set(range(m)):
        raise NotAnAutomorphism("map is not a permutation of the elements")
    if psi[group.identity] != group.identity:
        raise NotAnAutomorphism("map does not fix the identity")
    image = np.array(psi, dtype=np.int64)
    for g in _generator_chain(group):
        broken = np.flatnonzero(image[group.left_row(g)] != group.product(image[g], image))
        if broken.size:
            raise NotAnAutomorphism(f"map breaks the product of {g} and {broken[0]}")


def apply_automorphism(group: FiniteGroup, psi: Sequence[int], s_elements: Iterable[int]) -> tuple[int, ...]:
    """Image of a set under a verified group automorphism."""
    verify_automorphism(group, psi)
    return tuple(sorted(int(psi[int(x)]) for x in set(s_elements)))


def _conjugacy_class_sizes(group: FiniteGroup) -> list[int]:
    m = group.order
    class_of = [-1] * m
    sizes = [0] * m
    for x in range(m):
        if class_of[x] != -1:
            continue
        members = {group.mul(group.mul(g, x), group.inv(g)) for g in range(m)}
        for y in members:
            class_of[y] = x
        for y in members:
            sizes[y] = len(members)
    return sizes


def _generator_chain(group: FiniteGroup) -> list[int]:
    """Greedy generating sequence: repeatedly adjoin the smallest missing element."""
    gens: list[int] = []
    span = {group.identity}
    for x in range(group.order):
        if x not in span:
            gens.append(x)
            span = set(generated_elements(group, gens))
    return gens


def automorphism_group(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms, by backtracking over generator images (order capped)."""
    m = group.order
    if m > AUTOMORPHISM_ORDER_CAP:
        raise SizeCapExceeded(
            f"automorphism enumeration is capped at order {AUTOMORPHISM_ORDER_CAP}"
        )
    orders = [group.element_order(x) for x in range(m)]
    class_sizes = _conjugacy_class_sizes(group)
    signature = [(orders[x], class_sizes[x]) for x in range(m)]
    gens = _generator_chain(group)
    if not gens:
        return [(group.identity,)] if m == 1 else [tuple(range(m))]

    # per-depth closures in discovery order, with build recipes
    # (element = earlier element * generator)
    levels = []
    for depth in range(len(gens)):
        recipe: dict[int, tuple[int, int]] = {}
        order = [group.identity]
        seen = {group.identity}
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for g in gens[: depth + 1]:
                v = group.mul(u, g)
                if v not in seen:
                    seen.add(v)
                    recipe[v] = (u, g)
                    order.append(v)
        levels.append((order, recipe))

    results: list[tuple[int, ...]] = []

    def extend(depth: int, images: dict[int, int]) -> None:
        if depth == len(gens):
            phi = [images[x] for x in range(m)]
            results.append(tuple(phi))
            return
        order, recipe = levels[depth]
        target_sig = signature[gens[depth]]
        for candidate in range(m):
            if signature[candidate] != target_sig:
                continue
            trial = dict(images)
            trial[gens[depth]] = candidate
            for v in order:
                if v not in trial:
                    parent, g = recipe[v]
                    trial[v] = group.mul(trial[parent], trial[g])
            if len(set(trial.values())) != len(trial):
                continue
            ok = True
            for a in order:
                if not ok:
                    break
                fa = trial[a]
                for b in order:
                    if trial[group.mul(a, b)] != group.mul(fa, trial[b]):
                        ok = False
                        break
            if ok:
                extend(depth + 1, trial)

    extend(0, {group.identity: group.identity})
    return sorted(set(results))


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
    subgroup_set = set(subgroup.elements)
    usable = [psi for psi in automorphisms if all(psi[h] in subgroup_set for h in subgroup.elements)]
    seen = {start.elements}
    queue = [start.elements]
    while queue:
        current = queue.pop()
        moved = []
        for h in subgroup.elements:
            moved.append(right_translate_set(subgroup, current, h))
        for psi in usable:
            moved.append(tuple(sorted(psi[x] for x in current)))
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
    tolerance: float = 1e-8

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
            graph = build_pair_graph(subgroup, gen)
            report = is_ramanujan(graph, tolerance=config.tolerance)
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
