"""Shared seeded instance corpus, pure-Python reference arithmetic and search, and dense oracles for the test suites."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from functools import lru_cache

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from pairgraph import groups
from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
from pairgraph.errors import NotASubgroup, ValidationError
from pairgraph.fields import PrimePowerField, is_prime
from pairgraph.graphs import PairGraph
from pairgraph.groups import (
    FiniteGroup,
    GeneratingSet,
    Subgroup,
    _read_only,
    coset_chain,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_gl2,
    make_sl2,
    make_symmetric,
    perm_index,
    subgroup_generated,
    validate_generating_set,
)
from pairgraph.structure import BipartiteReport, ComponentDecomposition


def perm_parities(images: np.ndarray) -> np.ndarray:
    """0 for each even row of an array of image tuples, 1 for each odd one, by counting inversions."""
    i, j = np.triu_indices(images.shape[1], 1)
    return np.count_nonzero(images[:, i] > images[:, j], axis=1) & 1


@lru_cache(maxsize=None)
def subgroup_pool() -> tuple[Subgroup, ...]:
    """Mixed-family (group, subgroup) pairs, all of group order <= 48."""
    pool: list[Subgroup] = []
    for n, gens in [
        (4, [2]), (4, [1]), (6, [3]), (6, [2]), (8, [2]), (9, [3]), (10, [2]),
        (12, [3]), (12, [2]), (12, [6]), (15, [5]), (16, [2]), (18, [3]),
        (20, [2]), (20, [4]), (24, [2]),
    ]:
        pool.append(subgroup_generated(make_cyclic(n), gens))
    d4 = make_dihedral(4)
    pool.append(subgroup_generated(d4, [1]))
    pool.append(subgroup_generated(d4, [4]))
    d6 = make_dihedral(6)
    pool.append(subgroup_generated(d6, [1]))
    pool.append(subgroup_generated(d6, [3, 6]))
    s3 = make_symmetric(3)
    pool.append(builtin_subgroup(s3, "alternating_in_symmetric"))
    s4 = make_symmetric(4)
    pool.append(builtin_subgroup(s4, "alternating_in_symmetric"))
    pool.append(subgroup_generated(s4, [s4.images.tolist().index(p) for p in ([1, 0, 2, 3], [1, 2, 0, 3])]))
    a4 = make_alternating(4)
    pool.append(builtin_subgroup(a4, "klein_in_a4"))
    p26 = make_direct_product(make_cyclic(2), make_cyclic(6))
    pool.append(subgroup_generated(p26, [1]))
    pool.append(subgroup_generated(p26, [9]))
    sl3 = make_sl2(3)
    involution = next(i for i in range(sl3.order) if reference_element_order(sl3, i) == 2)
    pool.append(subgroup_generated(sl3, [involution]))
    gl3 = make_gl2(3)
    pool.append(builtin_subgroup(gl3, "sl2_in_gl2"))
    return tuple(pool)


# the families and factors the generated tests draw from, alone or as a direct product of two
GENERATED_FACTORS = (
    "cyclic:1", "cyclic:4", "cyclic:6", "cyclic:9", "cyclic:10", "cyclic:16", "dihedral:3", "dihedral:4",
    "dihedral:6", "symmetric:3", "symmetric:4", "alternating:4", "alternating:5", "sl2:3", "gl2:3",
    "field_additive:2,3", "field_additive:2,5", "field_additive:3,2", "field_additive:5,2",
)


@lru_cache(maxsize=None)
def generated_group(first: str, second) -> FiniteGroup:
    """The group ``first``, or its direct product with ``second`` unless that is None."""
    return group_from_descriptor(first if second is None else {"kind": "product", "params": [first, second]})


@st.composite
def generated_instances(draw):
    """A group of any family or a direct product of two, of order <= 120; H generated by one to three elements; S."""
    first = draw(st.sampled_from(GENERATED_FACTORS))
    second = draw(st.none() | st.sampled_from(GENERATED_FACTORS))
    group = generated_group(first, second)
    assume(group.order <= 120)
    element = st.integers(0, group.order - 1)
    sub = subgroup_generated(group, draw(st.lists(element, min_size=1, max_size=3)))
    picked = draw(st.sets(element.filter(lambda x: x != group.identity), max_size=12))
    return validate_generating_set(sub, picked | {group.inv(x) for x in picked if sub.contains(x)})


@lru_cache(maxsize=None)
def index_two_pool() -> tuple[Subgroup, ...]:
    """Index-2 pairs: even parts of Z/2m, the alternating group in S4, SL2 in GL2(F3)."""
    pool: list[Subgroup] = [subgroup_generated(make_cyclic(2 * m), [2]) for m in range(2, 13)]
    pool.append(builtin_subgroup(make_symmetric(4), "alternating_in_symmetric"))
    pool.append(builtin_subgroup(make_gl2(3), "sl2_in_gl2"))
    return tuple(pool)


@lru_cache(maxsize=None)
def analyze_large_pairs() -> dict[str, Subgroup]:
    """The analyze-large benchmark's pairs: S7 > S4 (index 210), Z/12000 > <120>, GL2(3) x Z/100 > SL2(3) x 1."""
    s7 = make_symmetric(7)
    product = group_from_descriptor({"kind": "product", "params": ["gl2:3", "cyclic:100"]})
    sl2 = builtin_subgroup(make_gl2(3), "sl2_in_gl2")  # (g, c) is element 100 * g + c of the product
    return {
        "s7": subgroup_generated(s7, [perm_index(s7, "(1,2)"), perm_index(s7, "(1,2,3,4)")]),
        "cyclic": subgroup_generated(make_cyclic(12000), [120]),
        "product": subgroup_generated(product, [100 * x for x in sl2.elements.tolist()]),
    }


def analyze_large_set(kind: str, rng: random.Random) -> list[int]:
    """A set drawn as the analyze-large benchmark draws it: 14 outside S4, 2 inside <120> with 30 outside, 20 outside."""
    sub = analyze_large_pairs()[kind]
    if kind == "cyclic":
        x = rng.randrange(120, 6000, 120)
        return sorted(rng.sample([y for y in range(12000) if y % 120], 30) + [x, 12000 - x])
    return sorted(rng.sample(sub.outside(), 14 if kind == "s7" else 20))


def random_generating_set(
    rng: random.Random,
    subgroup: Subgroup,
    max_size: int = 10,
    outside_only: bool = False,
    min_size: int = 0,
) -> GeneratingSet:
    """Seeded random valid generating set; the inside part is symmetrized."""
    group = subgroup.parent
    if outside_only:
        candidates = list(subgroup.outside())
    else:
        candidates = [x for x in range(group.order) if x != group.identity]
    size = rng.randint(min_size, min(len(candidates), max_size))
    chosen = set(rng.sample(candidates, size))
    for x in list(chosen):
        if subgroup.contains(x):
            chosen.add(group.inv(x))
    return validate_generating_set(subgroup, chosen)


def instance_corpus(count: int, seed: int, outside_only: bool = False) -> list[GeneratingSet]:
    pool = subgroup_pool()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sub = pool[rng.randrange(len(pool))]
        out.append(random_generating_set(rng, sub, outside_only=outside_only))
    return out


@lru_cache(maxsize=None)
def reference_mul(group: FiniteGroup):
    """Scalar multiplication rebuilt from the group's concrete structure, one family at a time."""
    kind = group.descriptor["kind"]
    params = group.descriptor["params"]
    if kind == "cyclic":
        n = params[0]
        return lambda a, b: (a + b) % n
    if kind == "dihedral":
        n = params[0]

        def dihedral(a, b):
            f1, j1 = divmod(a, n)
            f2, j2 = divmod(b, n)
            return ((f1 + f2) % 2) * n + (j2 + (j1 if f2 == 0 else -j1)) % n

        return dihedral
    if kind in ("symmetric", "alternating"):
        perms = list(map(tuple, group.images.tolist()))
        perm_index = {perm: i for i, perm in enumerate(perms)}
        # left to right: apply perms[a] first, then perms[b]
        return lambda a, b: perm_index[tuple(perms[b][x] for x in perms[a])]
    if kind in ("gl2", "sl2"):
        p = params[0]
        mats = list(map(tuple, group.matrices.tolist()))
        mat_index = {mat: i for i, mat in enumerate(mats)}

        def matrix(x, y):
            a, b, c, d = mats[x]
            e, f, g, h = mats[y]
            return mat_index[((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)]

        return matrix
    if kind == "field_additive":
        p, k = params

        def digitwise(a, b):
            out, weight = 0, 1
            for _ in range(k):
                a, da = divmod(a, p)
                b, db = divmod(b, p)
                out += (da + db) % p * weight
                weight *= p
            return out

        return digitwise
    if kind == "product":
        g1, g2 = (group_from_descriptor(d) for d in params)
        mul1, mul2 = reference_mul(g1), reference_mul(g2)
        o2 = g2.order

        def pairwise(x, y):
            a1, b1 = divmod(x, o2)
            a2, b2 = divmod(y, o2)
            return mul1(a1, a2) * o2 + mul2(b1, b2)

        return pairwise
    raise ValueError(f"no reference multiplication for {kind!r}")


@lru_cache(maxsize=None)
def reference_table(group: FiniteGroup) -> np.ndarray:
    """The |G| x |G| product table, one ``reference_mul`` call per entry, read-only."""
    mul, m = reference_mul(group), group.order
    return _read_only(np.array([[mul(a, b) for b in range(m)] for a in range(m)], dtype=np.int64).reshape(m, m))


def _reference_identity(table: np.ndarray) -> int:
    return int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])


def reference_conjugations(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The inner automorphisms x -> c^-1 * x * c, sorted and without repeats, from ``reference_table`` alone."""
    table = reference_table(group)
    inverse = np.argmax(table == _reference_identity(table), axis=1)
    # row c holds table[c^-1 * x, c] for every x
    return sorted(set(map(tuple, table[table[inverse], np.arange(group.order)[:, None]].tolist())))


def unit_multipliers(n: int) -> list[tuple[int, ...]]:
    """The automorphisms x -> u*x of Z/n, one per unit u, sorted."""
    return [tuple(u * x % n for x in range(n)) for u in range(1, n) if math.gcd(u, n) == 1]


def reference_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Automorphisms built without the library: the unit multipliers on Z/n, the inner ones on any other group."""
    return unit_multipliers(group.order) if group.descriptor["kind"] == "cyclic" else reference_conjugations(group)


def identity_fixing_bijections(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Every bijection of a group of order at most 8 that fixes the identity, one per row, and whether each
    is a homomorphism by ``reference_table``."""
    table, m = reference_table(group), group.order
    assert m <= 8, "brute force runs over (|G| - 1)! bijections"
    identity = _reference_identity(table)
    others = [x for x in range(m) if x != identity]
    psi = np.full((math.factorial(m - 1), m), identity)
    psi[:, others] = list(itertools.permutations(others))
    # psi(a*b) == psi(a)*psi(b) for every a, b, one row per bijection
    return psi, (psi[:, table] == table[psi[:, :, None], psi[:, None, :]]).all(axis=(1, 2))


def brute_force_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of a group of order at most 8, sorted."""
    psi, homomorphic = identity_fixing_bijections(group)
    return sorted(map(tuple, psi[homomorphic].tolist()))


class ScalarField:
    """F_{p^k} one element at a time on digit lists, reduced by long division by the modulus: the oracle for
    ``PrimePowerField.norms``.  It reads only the field's p, k and modulus, which default to the library's."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None) -> None:
        self.field = PrimePowerField(p, k, modulus) if modulus else PrimePowerField.create(p, k)
        self.p, self.k, self.order = p, k, self.field.order

    def pack(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + c
        return out

    def reduce(self, coefficients) -> list[int]:
        """The k digits of a polynomial, coefficients ascending, mod the monic modulus: long division."""
        rem = list(coefficients) + [0] * (self.k - len(coefficients))
        for top in range(len(rem) - 1, self.k - 1, -1):
            lead = rem.pop() % self.p
            for i, c in enumerate(self.field.modulus[:-1]):
                rem[top - self.k + i] -= lead * c
        return [c % self.p for c in rem]

    def add(self, a: int, b: int) -> int:
        da, db = self.field.digits(a), self.field.digits(b)
        return self.pack((x + y) % self.p for x, y in zip(da, db))

    def neg(self, a: int) -> int:
        return self.pack((-x) % self.p for x in self.field.digits(a))

    def mul(self, a: int, b: int) -> int:
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.field.digits(a)):
            for j, y in enumerate(self.field.digits(b)):
                conv[i + j] += x * y
        return self.pack(self.reduce(conv))

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def norm(self, a: int) -> int:
        """x^((p^k-1)/(p-1)), with norm(0) = 0."""
        digits = self.field.digits(self.pow(a, (self.order - 1) // (self.p - 1)))
        if any(digits[1:]):
            raise ValidationError("norm did not land in the prime field")
        return digits[0]

    def norms(self) -> np.ndarray:
        """``norm`` of every element by one square-and-multiply over the order x k digit array.

        A product's digits are the convolution of its factors' digits, reduced by the
        matrix whose row j is x^j mod the modulus.
        """
        p, k = self.p, self.k
        xpow = np.array([self.reduce([0] * j + [1]) for j in range(2 * k - 1)])

        def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            conv = np.zeros((len(x), 2 * k - 1), dtype=np.int64)
            for i in range(k):
                conv[:, i : i + k] += x[:, i, None] * y
            return conv % p @ xpow % p

        base = np.arange(self.order)[:, None] // p ** np.arange(k) % p
        result = None
        e = (self.order - 1) // (p - 1)
        while True:
            if e & 1:
                result = base if result is None else mul(result, base)
            e >>= 1
            if not e:
                break
            base = mul(base, base)
        if result[:, 1:].any():
            raise ValidationError("norm did not land in the prime field")
        return result[:, 0]


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num by the monic polynomial den, coefficients ascending, mod p."""
    num = [c % p for c in num]
    deg_den = len(den) - 1
    while len(num) > deg_den:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - deg_den
            for i, c in enumerate(den[:-1]):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2; degree 1 is irreducible."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p**d):
            den = tuple(packed // p**i % p for i in range(d)) + (1,)
            if _poly_mod(list(poly), den, p) == [0]:
                return False
    return True


def first_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically first monic irreducible of degree k over F_p, by trial division of every
    candidate in packed order of its non-leading coefficients: the oracle for the tabled moduli."""
    for packed in range(p**k):
        candidate = tuple(packed // p**i % p for i in range(k)) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise ValueError(f"no irreducible polynomial of degree {k} over F_{p}")


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def reference_abelian_subgroup(group: FiniteGroup, h: np.ndarray) -> np.ndarray:
    """``groups._abelian_subgroup`` as it was before it skipped starts by their centralisers: K grown from every start."""
    n = len(h)
    order, low = groups._element_orders(group, h, n)
    first = int(order.argmax())
    if order[first] == n:
        return groups._powers(group, h[first])
    by_order = np.argsort(-order, kind="stable")[:-1]
    h, order, low = h[by_order], order[by_order], np.array(list(low.values()))[:, by_order]
    primes = [p for p in np.unique(order).tolist() if is_prime(p)]
    best = None
    for start in dict.fromkeys([0, *(int(np.argmax(order == p)) for p in primes)]):
        free = np.flatnonzero(group.product(h, h[start]) == group.product(h[start], h))
        listing = groups._powers(group, h[start])
        while True:
            in_k = np.zeros(group.order, dtype=bool)
            in_k[listing] = True
            in_k[group.identity] = False
            free = free[~in_k[low[:, free]].any(axis=0)]
            if not free.size:
                break
            g = h[free[0]]
            listing = group.product(listing[..., None], groups._powers(group, g))
            free = free[group.product(h[free], g) == group.product(g, h[free])]
        if best is None or listing.size > best.size:
            best = listing
    return best


def reference_element_order(group: FiniteGroup, a: int) -> int:
    """Order of a by repeated scalar multiplication with ``reference_mul``."""
    mul = reference_mul(group)
    n, x = 1, a
    while x != group.identity:
        x = mul(x, a)
        n += 1
    return n


def reference_subgroup(group: FiniteGroup, elems, mul) -> Subgroup:
    """The pair-by-pair closure check and coset decomposition that the vectorised one replaced."""
    members = sorted(set(int(x) for x in elems))
    if not members:
        raise NotASubgroup("a subgroup cannot be empty")
    for x in members:
        if not 0 <= x < group.order:
            raise NotASubgroup(f"element {x} out of range")
    member_set = set(members)
    if group.identity not in member_set:
        raise NotASubgroup("the identity is missing")
    for a in members:
        if group.inv(a) not in member_set:
            raise NotASubgroup(f"inverse of {a} is missing")
        for b in members:
            if mul(a, b) not in member_set:
                raise NotASubgroup(f"product of {a} and {b} escapes the set")
    coset_of = np.full(group.order, -1)
    reps: list[int] = []

    def assign(x: int) -> None:
        coset = [mul(h, x) for h in members]
        coset_of[coset] = len(reps)
        reps.append(min(coset))

    assign(group.identity)  # coset 0 = the subgroup itself
    for x in range(group.order):
        if coset_of[x] == -1:
            assign(x)
    return Subgroup(parent=group, elements=np.array(members), coset_of=coset_of, coset_reps=np.array(reps))


def reference_group_matrix(subgroup: Subgroup, s) -> np.ndarray:
    """The group-subgroup matrix (x_{h^-1 g}) at the indicator of ``s``, pair by pair with ``reference_mul``."""
    indicator = np.zeros(subgroup.parent.order, dtype=np.int8)
    indicator[list(s)] = 1
    return indicator[_reference_quotients(subgroup)]


@lru_cache(maxsize=None)
def _reference_quotients(subgroup: Subgroup) -> np.ndarray:
    """Every h^-1 * g, h in H by rows and g in G by columns, one scalar product at a time."""
    group = subgroup.parent
    mul = reference_mul(group)
    return np.array(
        [[mul(group.inv(h), g) for g in range(group.order)] for h in subgroup.elements.tolist()], dtype=np.int64
    ).reshape(subgroup.order, group.order)


def reference_chain(group: FiniteGroup) -> np.ndarray:
    """S_n in the order of ``coset_chain``, built by products of the s_i = (i, i+1) found in ``images``.

    Entry t is the element whose ``chain_index`` is t.
    """
    n = group.images.shape[1]
    rows = group.images.tolist()
    s = [rows.index([*range(i - 1), i, i - 1, *range(i + 1, n)]) for i in range(1, n)]
    listing, last = coset_chain(n, group.identity, s, group.product)
    return group.product(listing[:, None], last).ravel()


def count_products(monkeypatch) -> list[int]:
    """Patch ``FiniteGroup.product`` to add each call's number of products to the one-entry list returned."""
    count = [0]
    product = FiniteGroup.product

    def counting(self, a, b):
        count[0] += np.broadcast(np.asarray(a), np.asarray(b)).size
        return product(self, a, b)

    monkeypatch.setattr(FiniteGroup, "product", counting)
    return count


class UnpowerableInt(int):
    """An int that fails the test when raised to a power: a p for a cap that must refuse p^k without forming it."""

    def __pow__(self, exponent, modulo=None):
        raise AssertionError(f"{int(self)}^{exponent} was formed before the cap refused it")


def coset_members(sub: Subgroup) -> list[list[int]]:
    """Each right coset's elements in ascending order, by one pass over ``coset_of``."""
    members: list[list[int]] = [[] for _ in range(sub.index)]
    for x, cid in enumerate(sub.coset_of.tolist()):
        members[cid].append(x)
    return members


def differing_fields(a, b) -> list[str]:
    """The fields in which two record values differ: a subgroup's parent by identity, the rest by value."""
    differing = []
    for name in a._fields:
        x, y = getattr(a, name), getattr(b, name)
        if not (x is y if name == "parent" else np.array_equal(x, y)):
            differing.append(name)
    return differing


def difference_set(group: FiniteGroup, a_set, b_set) -> tuple[int, ...]:
    """All products a * b^-1 for a in A, b in B."""
    a = np.array(sorted(set(a_set)), dtype=np.int64)
    b_inv = group.inverses[np.array(sorted(set(b_set)), dtype=np.int64)]
    return tuple(np.unique(group.product(a[:, None], b_inv)).tolist())


def reference_generated_elements(group: FiniteGroup, gens) -> tuple[int, ...]:
    """Breadth-first closure that multiplies each new element by every generator."""
    gens_arr = np.array(sorted(set(int(x) for x in gens)), dtype=np.int64)
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    while frontier.size:
        reached = np.unique(group.product(frontier[:, None], gens_arr))
        frontier = reached[~seen[reached]]
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


def reference_reachable(gen: GeneratingSet) -> tuple[int, ...]:
    """Elements of U from the inside part and every quotient s*t^-1 of outside elements that lies in H."""
    seeds = set(gen.inside)
    seeds.update(d for d in difference_set(gen.group, gen.outside, gen.outside) if gen.subgroup.contains(d))
    return reference_generated_elements(gen.group, seeds)


def reference_csr(gen: GeneratingSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, degrees) from every edge listed from both ends as int64 keys, sorted and deduplicated."""
    group, m = gen.group, gen.group.order
    h = np.array(gen.subgroup.elements, dtype=np.int64)
    targets = group.product(h[:, None], np.array(gen.elements, dtype=np.int64))
    sources = np.broadcast_to(h[:, None], targets.shape)
    pairs = np.sort(np.concatenate([sources * m + targets, targets * m + sources], axis=None))
    keep = np.ones(pairs.size, dtype=bool)
    keep[1:] = pairs[1:] != pairs[:-1]  # np.unique hashes, far slower
    pairs = pairs[keep]
    us, vs = np.divmod(pairs, m)
    degrees = np.bincount(us, minlength=m)
    return np.concatenate([[0], np.cumsum(degrees)]), vs, degrees


def dense_eigenvalues(graph: PairGraph) -> np.ndarray:
    """The full m x m symmetric eigen-solve, sorted descending: the oracle for both spectrum routes."""
    return np.linalg.eigvalsh(graph.adjacency.astype(np.float64))[::-1]


def left_translation_matrix(group: FiniteGroup, h: int) -> np.ndarray:
    """Permutation matrix of left multiplication by h (column j maps to h*j)."""
    p = np.zeros((group.order, group.order), dtype=np.int8)
    p[group.left_row(h), np.arange(group.order)] = 1
    return p


def reference_components(graph: PairGraph) -> tuple[ComponentDecomposition, list[int], list[int]]:
    """Breadth-first component labeling, ids ordered by minimal contained vertex.

    Returned with the sizes the search counts and the identity's component, ascending.
    """
    m = graph.order
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    component_of = [-1] * m
    sizes = []
    for start in range(m):
        if component_of[start] != -1:
            continue
        cid = len(sizes)
        queue = deque([start])
        component_of[start] = cid
        size = 0
        while queue:
            u = queue.popleft()
            size += 1
            for v in indices[indptr[u]:indptr[u + 1]]:
                if component_of[v] == -1:
                    component_of[v] = cid
                    queue.append(v)
        sizes.append(size)
    e = graph.group.identity
    identity_component = [v for v in range(m) if component_of[v] == component_of[e]]
    return ComponentDecomposition(count=len(sizes), component_of=_read_only(np.array(component_of))), sizes, identity_component


def reference_bipartite(graph: PairGraph) -> BipartiteReport:
    """Exact two-coloring test by breadth-first search."""
    m = graph.order
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    color = [-1] * m
    for start in range(m):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteReport(False, None)
    return BipartiteReport(True, _read_only(np.array(color)))
