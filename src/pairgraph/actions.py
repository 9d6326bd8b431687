"""Generating-set transformations, automorphism orbits, and Ramanujan search.

Right translation by a subgroup element and application of a group
automorphism both send a generating set outside the subgroup to one whose
pair graph is isomorphic; orbits under these moves therefore classify
isomorphic constructions.  The search driver samples generating sets of a
fixed size for an index-2 subgroup, pre-filters by the closed-form
connectivity criterion, and certifies the Ramanujan property spectrally.
"""

from __future__ import annotations

import itertools
import random
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
from .groups import FiniteGroup, Subgroup, _element_indices, _element_orders, _int_entries, generated_elements
from .groups import reachable_subgroups, validate_generating_set
from .graphs import PairGraph
from .records import Record
from .spectral import DEFAULT_TOLERANCE, _check_tolerance, compute_spectra, is_ramanujan, ramanujan_size_bound
from .structure import is_connected

AUTOMORPHISM_BATCH_CAP = 1 << 22  # entries the class table, or one depth's maps, of automorphism_group may hold
EXHAUSTIVE_CANDIDATE_CAP = 10**6
ORBIT_SIZE_CAP = 10**6
SEED_STRIDE = 2654435761  # fixed trial-to-trial seed advance
SEARCH_BLOCK = 64  # trials per stacked eigen-solve


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


def _verified_maps(group: FiniteGroup, maps: Iterable[Sequence[int]]) -> np.ndarray:
    """The maps as rows of an int array, verified together; ``NotAnAutomorphism`` names the first fault.

    The check of ``automorphism_group`` with U the whole group, on every map
    at once: each entry an int, each row a permutation fixing the identity,
    and psi(u*h) = psi(u)*psi(h) for every u and each generator h of one
    ``_generator_chain``.  A map among several is named by its position.
    """
    m, rows = group.order, [_int_entries(psi, "map entry", NotAnAutomorphism) for psi in maps]
    names = ["map"] if len(rows) == 1 else [f"map {i}" for i in range(len(rows))]
    # the range test first, so every entry fits the int array
    for i, row in enumerate(rows):
        if len(row) != m or min(row) < 0 or max(row) >= m:
            raise NotAnAutomorphism(f"{names[i]} is not a permutation of the elements")
    maps, idx = np.array(rows, dtype=np.intp).reshape(-1, m), np.arange(m)
    bad = (np.sort(maps, axis=1) != idx).any(axis=1)
    if bad.any():
        raise NotAnAutomorphism(f"{names[np.argmax(bad)]} is not a permutation of the elements")
    bad = maps[:, group.identity] != group.identity
    if bad.any():
        raise NotAnAutomorphism(f"{names[np.argmax(bad)]} does not fix the identity")
    for h in _generator_chain(group):
        broken = maps[:, group.product(idx, h)] != group.product(maps, maps[:, h, None])
        if broken.any():
            i, x = np.argwhere(broken)[0]
            raise NotAnAutomorphism(f"{names[i]} breaks the product of {x} and {h}")
    return maps


def apply_automorphism(group: FiniteGroup, psi: Sequence[int], s_elements: Iterable[int]) -> tuple[int, ...]:
    """Image of a set under a verified group automorphism; the empty set checks psi alone."""
    (psi,) = _verified_maps(group, [psi])
    return tuple(sorted(psi[_element_indices(group, s_elements)].tolist()))


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
    """All automorphisms, sorted, by a breadth-first search over generator images (size capped).

    Depth d repeats every surviving map once per candidate image of the d-th
    generator of ``_generator_chain`` (an element of its order and
    conjugacy-class size), evaluates the maps on U, the span of the
    generators so far, one word level at a time, and keeps those that are
    homomorphisms on U sending only the identity to the identity.  It raises
    before the m x m table of conjugates, or a depth's maps, would hold more
    than ``AUTOMORPHISM_BATCH_CAP`` entries.
    The map arrays and the conjugates multiply by ``FiniteGroup.product``.

    A map with phi(e) = e is a homomorphism on U exactly when
    phi(x*h) = phi(x)*phi(h) for every x in U and each generator h: the y in
    U with phi(x*y) = phi(x)*phi(y) for every x hold the generators and are
    closed under products.  Each generator's check runs on the maps that
    passed the checks before it.
    """
    m = group.order
    if m * m > AUTOMORPHISM_BATCH_CAP:  # the m x m class table, before it is built
        raise SizeCapExceeded(f"automorphism search exceeds the cap of {AUTOMORPHISM_BATCH_CAP} map entries")
    idx = np.arange(m)
    orders, _ = _element_orders(group, idx, m)
    # column x holds g*x*g^-1 for every g: its distinct values are x's class
    conjugates = np.sort(group.product(group.product(idx[:, None], idx), group.inverses[:, None]), axis=0)
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
            maps[:, reached] = group.product(maps[:, parents], maps[:, steps])
            u.append(reached)
        u = np.concatenate(u)
        maps = maps[(maps[:, u[1:]] != group.identity).all(axis=1)]
        targets = group.product(u[:, None], np.array(gens[: depth + 1]))
        for j, h in enumerate(gens[: depth + 1]):
            maps = maps[(maps[:, targets[:, j]] == group.product(maps[:, u], maps[:, h : h + 1])).all(axis=1)]
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
    maps = np.array(automorphism_group(group)) if automorphisms is None else _verified_maps(group, automorphisms)
    # an automorphism preserves H when it sends no element of H outside
    usable = maps[~subgroup.coset_of[maps[:, subgroup.elements]].any(axis=1)]
    seen = {start.elements}
    queue = [start.elements]
    while queue:
        current = np.array(queue.pop(), dtype=np.int64)
        # each row is one move: the right translates current*h, then the images psi(current)
        moved = np.concatenate([group.product(current, subgroup.elements[:, None]), usable[:, current]])
        for nxt in map(tuple, np.sort(moved, axis=1).tolist()):
            if nxt not in seen:
                if len(seen) >= ORBIT_SIZE_CAP:
                    raise SizeCapExceeded("orbit exceeded the size cap")
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


class SearchConfig(Record):
    """Seeded search for Ramanujan pair graphs over size-k sets outside an index-2 subgroup."""

    subgroup: Subgroup
    size: int
    mode: str = "random"  # "random" | "exhaustive"
    trials: int = 10
    seed: int = 0
    certify: bool = True
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("size", "trials", "seed"):  # each read as a plain int before any range test
            object.__setattr__(self, name, *_int_entries([getattr(self, name)], f"search {name}"))
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


class SearchResult(Record):
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
    """Trial candidate: the first ``size`` outside elements after a seeded shuffle, sorted.

    The shuffle is ``random.Random(seed + trial * SEED_STRIDE).shuffle``,
    replayed here with its ``getrandbits`` calls and their rejections, so the
    library owns the draw: a seed names the same set on every interpreter
    whose Mersenne Twister does, whatever its ``shuffle`` becomes.  The swap
    at position i picks from positions 0..i and fixes position i; once
    positions size..n-1 are fixed, the later swaps only permute the first
    ``size``, which the sort forgets, so the replay stops there.  A seed
    outside 0..SEED_STRIDE - 1 or a negative trial raises: each pair has its own stream.
    """
    size, seed, trial = _int_entries([size, seed, trial], "size, seed or trial")
    if not 0 <= size <= len(outside):
        raise ValidationError(f"random set size {size} is outside 0..{len(outside)}")
    if not 0 <= seed < SEED_STRIDE:
        raise ValidationError(f"seed {seed} is outside 0..{SEED_STRIDE - 1}")
    if trial < 0:
        raise ValidationError(f"trial {trial} is negative")
    pool = list(outside)
    getrandbits = random.Random(seed + trial * SEED_STRIDE).getrandbits
    for i in range(len(pool) - 1, max(size, 1) - 1, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:size]))


def search_ramanujan(config: SearchConfig) -> list[SearchResult]:
    """Deterministic search; see SearchConfig.

    Candidates are taken in blocks of ``SEARCH_BLOCK`` trials, exhaustive
    ones too.  Each is drawn and validated on its own; one ``reachable_subgroups``
    call takes the block's seeds in one product call and runs each set's own
    certificate rounds, and the size bound, the same for every set, comes once
    per search.  Then the connected ones of the block share one
    ``compute_spectra`` call, whose stacked solves give each set the bits of
    a solve on its own, and each is certified by ``is_ramanujan``.  Every
    candidate that is connected and meets the sufficient size bound must
    certify Ramanujan; a counterexample would refute the bound and raises.
    """
    subgroup = config.subgroup
    outside = subgroup.outside()
    if config.mode == "exhaustive":
        candidates = itertools.combinations(outside, config.size)
    else:
        candidates = (random_candidate(outside, config.size, config.seed, t) for t in range(config.trials))
    results: list[SearchResult] = []
    bound = None
    while block := list(itertools.islice(candidates, SEARCH_BLOCK)):
        gens = [validate_generating_set(subgroup, cand) for cand in block]
        if bound is None:
            bound = ramanujan_size_bound(gens[0])
        reachable_subgroups(gens)
        connectivity = [is_connected(gen).connected for gen in gens]
        solved = [gen for gen, connected in zip(gens, connectivity) if connected] if config.certify else []
        spectra = iter(compute_spectra(solved, config.tolerance))
        for cand, gen, connected in zip(block, gens, connectivity):
            report = is_ramanujan(PairGraph(gen), next(spectra), config.tolerance) if connected and config.certify else None
            if report and bound.satisfied and not report.ramanujan:  # pragma: no cover - the bound is sufficient
                raise PairGraphError(f"connected candidate {cand} meets the size bound but failed certification")
            results.append(SearchResult(
                trial=len(results), candidate=tuple(cand), connected=connected,
                ramanujan=report.ramanujan if report else (None if connected else False),
                worst_nontrivial=report.worst_nontrivial if report else None,
                bound=bound.bound, bound_satisfied=bound.satisfied,
            ))
    return results
