"""The four benchmark workloads.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  A workload is a fixed list of instance kinds; one
round runs one op of each kind, and a run measures whole rounds, so every run
of a workload has the same mix.  Inputs are a pure function of
``(workload, seed, op index)``: the benchmark draws every generating set and
every search seed itself and hands only those inputs to the library.

Each op returns raw results while its timer runs.  ``check`` runs after the
timer has stopped: it applies the paper's two-route agreements and the trace
identities, and it returns the op's output in the JSON form that golden files
store.

Why each workload exists, and which ROADMAP items it should move or leave
alone, is written beside its class and collected in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

# eigen-solve slack of the library's own certification (DEFAULT_TOLERANCE)
CERT_TOL = 1e-8


@dataclass(frozen=True)
class OpInput:
    """One op's generated input.

    ``key`` names the input canonically; golden outputs are stored under it.
    ``degree`` is the largest vertex degree, which scales float tolerances.
    """

    key: str
    kind: str
    degree: int
    params: dict = field(default_factory=dict)


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def float_tol(degree: int) -> float:
    """Golden float tolerance: 1e-9 times the degree."""
    return 1e-9 * max(1, degree)


def _spectrum_problems(values, degree: int, square_sum: int | None) -> list[str]:
    """The trace identities: sum(lambda) = 0 and sum(lambda^2) = 2|E|.

    For a pair graph 2|E| = |H| * (2|S_out| + |S_in|); ``square_sum`` is that
    count when the caller knows the split of S, else None.
    """
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    slack = 1e-9 * m * max(1, degree)
    problems = []
    if abs(values.sum()) > slack:
        problems.append(f"trace identity: sum of eigenvalues is {values.sum():.3e}, not 0")
    if square_sum is not None and abs(float(np.dot(values, values)) - square_sum) > slack:
        problems.append(
            f"trace identity: sum of squares {float(np.dot(values, values)):.9g} != {square_sum}"
        )
    return problems


def _cluster_values(clusters) -> list[float]:
    """Up to 17 cluster values at evenly spaced positions, extremes included."""
    n = len(clusters)
    picks = sorted({round(j * (n - 1) / 16) for j in range(17)}) if n > 17 else range(n)
    return [float(clusters[j][0]) for j in picks]


def _edge_square_sum(order_h: int, inside: int, outside: int) -> int:
    return order_h * (2 * outside + inside)


def _top_multiplicity(pg, gen, inp: OpInput) -> int:
    """Predicted multiplicity of the largest eigenvalue: [H : U].

    On Z/n > <3> the benchmark gets U by arithmetic: it is generated by the
    gcd of n, the inside part and the differences of outside elements that
    fall in H.  Elsewhere it asks the library's closed form.
    """
    if inp.kind != "cyclic":
        return pg.largest_eigenvalue_multiplicity(gen)
    n = gen.group.order
    g = n
    for x in gen.inside:
        g = math.gcd(g, x)
    for s in gen.outside:
        for t in gen.outside:
            if (s - t) % 3 == 0:
                g = math.gcd(g, (s - t) % n)
    return g // 3


class Workload:
    """Base class: a fixed list of instance kinds run round-robin."""

    name = ""
    why = ""
    kinds: tuple[str, ...] = ()
    # Seconds one round took when the benchmark was written (2-vCPU reference machine).
    # ``--seconds`` buys ceil(seconds / nominal_round_s) rounds, so parent and
    # change always measure the same ops.
    nominal_round_s = 1.0
    setup_is_import = False

    def planned_rounds(self, seconds: float) -> int:
        # at least twelve measured ops, so the tail rule has ten beyond it
        min_rounds = math.ceil(12 / len(self.kinds))
        return max(min_rounds, math.ceil(seconds / self.nominal_round_s))

    def setup(self, pg, seed: int) -> dict:
        raise NotImplementedError

    def make_input(self, state: dict, seed: int, index: int) -> OpInput:
        raise NotImplementedError

    def run(self, state: dict, inp: OpInput):
        raise NotImplementedError

    def check(self, state: dict, inp: OpInput, raw) -> tuple[dict, list[str]]:
        raise NotImplementedError


class SearchWorkload(Workload):
    """The paper's headline use: seeded Ramanujan search on S6 over A6, k = 20.

    One op is one ``search_ramanujan`` trial with certification on.  Today a
    candidate spends about half its time in the closed-form connectivity
    prefilter (``reachable_subgroup`` re-checking closure), a quarter in the
    720-vertex eigen-solve and a tenth in the build.  ROADMAP item 2 (one
    arithmetic path, no closure re-check) and item 4 (a structured spectral
    route for S outside H) both show in ``ops_per_s`` here.
    """

    name = "search"
    why = "S6 > A6 Ramanujan search, k=20: closure prefilter, 720-vertex eigen-solve"
    kinds = ("trial",)
    nominal_round_s = 0.12
    size = 20

    def setup(self, pg, seed):
        group = pg.descriptors.group_from_descriptor("symmetric:6")
        sub = pg.descriptors.subgroup_from_descriptor(group, "alternating_in_symmetric")
        return {"pg": pg, "sub": sub}

    def make_input(self, state, seed, index):
        trial_seed = op_rng(self.name, seed, index).randrange(2**31)
        return OpInput(f"trial k={self.size} seed={trial_seed}", "trial", self.size, {"seed": trial_seed})

    def run(self, state, inp):
        pg = state["pg"]
        config = pg.SearchConfig(subgroup=state["sub"], size=self.size, trials=1, seed=inp.params["seed"])
        return pg.search_ramanujan(config)

    def check(self, state, inp, raw):
        problems = []
        if len(raw) != 1:
            return {}, [f"expected one trial, got {len(raw)}"]
        r = raw[0]
        sub = state["sub"]
        if len(set(r.candidate)) != self.size or any(sub.contains(x) for x in r.candidate):
            problems.append("candidate is not a 20-set outside A6")
        k = self.size
        if r.connected:
            expected = r.worst_nontrivial <= 2.0 * math.sqrt(k - 1) + CERT_TOL * k
            if r.ramanujan != expected:
                problems.append(f"verdict {r.ramanujan} disagrees with worst {r.worst_nontrivial}")
            if r.bound_satisfied and not r.ramanujan:
                problems.append("connected candidate meets the size bound but did not certify")
        elif r.ramanujan is not False or r.worst_nontrivial is not None:
            problems.append("disconnected candidate was certified")
        out = dict(r.to_json_dict(), bound_satisfied=r.bound_satisfied)
        return out, problems


class SpectrumDenseWorkload(Workload):
    """Dense spectra near the 3000-vertex cap, where the eigen-solve dominates.

    Each op computes what ``pairgraph spectrum --format json`` computes: the
    build, ``compute_spectrum``, ``trivial_eigenvalues`` and
    ``zero_multiplicity_lower_bound``.  The kinds are an abelian Z/3000 > <3>
    with inside and outside parts, the nonabelian GL2(7) > SL2(7) of index 6,
    F_{7^4} > F_7 with a norm-preimage set, and an S6 > A6 complementary pair
    through ``compare_complementary_spectra`` and ``is_ramanujan``.  Every
    group here already has a full table, so item 2 should leave this
    workload unchanged; item 4 (structured spectra) should show.
    """

    name = "spectrum-dense"
    why = "dense eigen-solves near the 3000-vertex cap on abelian, matrix, field and S6 pairs"
    kinds = ("cyclic", "gl2", "field", "s6-pair")
    nominal_round_s = 2.6

    def setup(self, pg, seed):
        desc = pg.descriptors
        rng = op_rng(self.name, seed, -1)
        values = sorted(rng.sample(range(1, 7), 2))
        z = desc.group_from_descriptor("cyclic:3000")
        gl = desc.group_from_descriptor("gl2:7")
        f = desc.group_from_descriptor("field_additive:7,4")
        s6 = desc.group_from_descriptor("symmetric:6")
        return {
            "pg": pg,
            "cyclic": desc.subgroup_from_descriptor(z, {"generators": [3]}),
            "gl2": desc.subgroup_from_descriptor(gl, "sl2_in_gl2"),
            "field": desc.subgroup_from_descriptor(f, "0,1,2,3,4,5,6"),
            "field_values": values,
            "field_set": desc.set_from_descriptor(f, {"norm_preimage": values}),
            "s6-pair": desc.subgroup_from_descriptor(s6, "alternating_in_symmetric"),
        }

    def make_input(self, state, seed, index):
        kind = self.kinds[index % len(self.kinds)]
        rng = op_rng(self.name, seed, index)
        if kind == "cyclic":
            outside = rng.sample([x for x in range(3000) if x % 3], 24)
            inside = rng.sample(range(3, 1500, 3), 3)
            s = sorted(outside + inside + [3000 - x for x in inside])
            return OpInput(f"cyclic:3000 <3> S={s}", kind, len(s), {"set": s})
        if kind == "gl2":
            s = sorted(rng.sample(state["gl2"].outside(), 12))
            return OpInput(f"gl2:7 sl2 S={s}", kind, len(s), {"set": s})
        if kind == "field":
            s = list(state["field_set"])
            return OpInput(f"field_additive:7,4 norm={state['field_values']}", kind, len(s), {"set": s})
        outside = state["s6-pair"].outside()
        first = sorted(rng.sample(outside, 20))
        second = sorted(set(outside) - set(first))
        return OpInput(f"s6-pair S={first}", kind, len(second), {"first": first, "second": second})

    def run(self, state, inp):
        pg = state["pg"]
        sub = state[inp.kind]
        if inp.kind == "s6-pair":
            report = pg.compare_complementary_spectra(sub, inp.params["first"], inp.params["second"])
            g1 = pg.build_pair_graph(sub, inp.params["first"])
            g2 = pg.build_pair_graph(sub, inp.params["second"])
            return (
                report,
                pg.is_ramanujan(g1, report.first_spectrum),
                pg.is_ramanujan(g2, report.second_spectrum),
            )
        graph = pg.build_pair_graph(sub, inp.params["set"])
        spectrum = pg.compute_spectrum(graph)
        return (
            graph,
            spectrum,
            pg.trivial_eigenvalues(graph.gen),
            pg.zero_multiplicity_lower_bound(graph.gen),
        )

    def check(self, state, inp, raw):
        if inp.kind == "s6-pair":
            return self._check_pair(state, inp, raw)
        pg = state["pg"]
        graph, spectrum, trivial, zero_bound = raw
        gen = graph.gen
        tol = float_tol(inp.degree)
        values = spectrum.eigenvalues
        square_sum = _edge_square_sum(gen.subgroup.order, len(gen.inside), len(gen.outside))
        problems = _spectrum_problems(values, inp.degree, square_sum)
        top_value, top_mult = spectrum.clusters[0]
        if abs(top_value - trivial.upper) > tol:
            problems.append(f"largest eigenvalue {top_value} != closed form {trivial.upper}")
        predicted = _top_multiplicity(pg, gen, inp)
        if top_mult != predicted:
            problems.append(f"largest eigenvalue multiplicity {top_mult} != [H:U] = {predicted}")
        if trivial.lower is not None and not spectrum.contains(trivial.lower, atol=tol):
            problems.append(f"closed-form lower eigenvalue {trivial.lower} missing")
        zero_mult = spectrum.multiplicity_near(0.0)
        if zero_mult < zero_bound:
            problems.append(f"zero multiplicity {zero_mult} below its bound {zero_bound}")
        out = {
            "order": spectrum.order,
            "clusters": len(spectrum.clusters),
            "multiplicities": [c for _, c in spectrum.clusters],
            "cluster_values": _cluster_values(spectrum.clusters),
            "trivial_upper": trivial.upper,
            "trivial_lower": trivial.lower,
            "top_multiplicity": top_mult,
            "zero_multiplicity": zero_mult,
            "zero_bound": zero_bound,
        }
        return out, problems

    def _check_pair(self, state, inp, raw):
        report, first, second = raw
        problems = []
        if not report.ok:
            problems.append(f"complementary interior spectra differ by {report.max_interior_gap:.3e}")
        n = state["s6-pair"].order
        size_bound = n + 2.0 - 2.0 * math.sqrt(n)
        out = {"gap_ok": report.ok, "sizes": [report.first_size, report.second_size]}
        for label, spec, cert in (
            ("first", report.first_spectrum, first),
            ("second", report.second_spectrum, second),
        ):
            k = cert.degree
            problems += _spectrum_problems(spec.eigenvalues, k, _edge_square_sum(n, 0, k))
            if k >= size_bound and not cert.ramanujan:
                problems.append(f"{label} set meets the size bound but did not certify")
            if cert.ramanujan != (cert.worst_nontrivial <= cert.bound + CERT_TOL * k):
                problems.append(f"{label} verdict disagrees with its worst eigenvalue")
            out[label] = {
                "degree": k,
                "ramanujan": cert.ramanujan,
                "worst_nontrivial": cert.worst_nontrivial,
                "multiplicities": [c for _, c in spec.clusters],
                "cluster_values": _cluster_values(spec.clusters),
            }
        return out, problems


def _gl2_index(p: int, matrix: tuple[int, int, int, int]) -> int:
    """Index of a matrix in GL2(p), whose elements are in lexicographic order."""
    mats = [m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p]
    return mats.index(matrix)


class AnalyzeLargeWorkload(Workload):
    """Groups above TABLE_CAP, multiplied on demand; no spectrum.

    Each op is the ``analyze`` payload plus the group-matrix oracle: build,
    ``adjacency_rows_via_group_matrix``, BFS, the closed-form component count,
    ``is_connected``, ``is_bipartite`` and ``regularity_check``.  The kinds
    are S7 > S4 (index 210), Z/12000 > <120> (index 120, a 144 MB dense
    adjacency) and GL2(3) x Z/100 > SL2(3) x 1 (index 200), one per
    on-demand multiplication path: permutations, cyclic and product.
    Item 2 (row kernels) and item 3 (neighbour arrays) show in latency and
    ``peak_rss_mb``; item 4 should not move it.
    """

    name = "analyze-large"
    why = "orders 4800-12000 multiplied on demand: build, group-matrix oracle, BFS and closed forms"
    kinds = ("s7", "cyclic", "product")
    nominal_round_s = 1.25

    def setup(self, pg, seed):
        desc = pg.descriptors
        s7 = desc.group_from_descriptor("symmetric:7")
        z = desc.group_from_descriptor("cyclic:12000")
        prod = desc.group_from_descriptor({"kind": "product", "params": ["gl2:3", "cyclic:100"]})
        sl2_gens = [_gl2_index(3, (1, 1, 0, 1)) * 100, _gl2_index(3, (1, 0, 1, 1)) * 100]
        s4_gens = [pg.perm_index(s7, "(1,2)"), pg.perm_index(s7, "(1,2,3,4)")]
        return {
            "pg": pg,
            "s7": desc.subgroup_from_descriptor(s7, {"generators": s4_gens}),
            "cyclic": desc.subgroup_from_descriptor(z, {"generators": [120]}),
            "product": desc.subgroup_from_descriptor(prod, {"generators": sl2_gens}),
        }

    def make_input(self, state, seed, index):
        kind = self.kinds[index % len(self.kinds)]
        rng = op_rng(self.name, seed, index)
        sub = state[kind]
        if kind == "s7":
            s = sorted(rng.sample(sub.outside(), 14))
            return OpInput(f"symmetric:7 S4 S={s}", kind, len(s), {"set": s, "inside": 0})
        if kind == "cyclic":
            x = rng.randrange(120, 6000, 120)
            outside = rng.sample([y for y in range(12000) if y % 120], 30)
            s = sorted(outside + [x, 12000 - x])
            return OpInput(f"cyclic:12000 <120> S={s}", kind, len(s), {"set": s, "inside": 2})
        s = sorted(rng.sample(sub.outside(), 20))
        return OpInput(f"gl2:3 x cyclic:100 SL2(3) S={s}", kind, len(s), {"set": s, "inside": 0})

    def run(self, state, inp):
        pg = state["pg"]
        sub = state[inp.kind]
        graph = pg.build_pair_graph(sub, inp.params["set"])
        rows = pg.adjacency_rows_via_group_matrix(sub, graph.gen)
        return (
            graph,
            rows,
            pg.connected_components(graph),
            pg.component_count_by_formula(graph.gen),
            pg.is_connected(graph.gen),
            pg.is_bipartite(graph),
            pg.regularity_check(graph),
        )

    def check(self, state, inp, raw):
        pg = state["pg"]
        graph, rows, comp, formula, conn, bip, reg = raw
        sub = graph.subgroup
        problems = []
        if comp.count != formula.total:
            problems.append(f"BFS finds {comp.count} components, the closed form {formula.total}")
        if conn.connected != (comp.count == 1):
            problems.append("closed-form connectivity disagrees with BFS")
        if not np.array_equal(rows, graph.adjacency[list(sub.elements)]):
            problems.append("edge rule and group-matrix oracle differ")
        if reg.matches_criterion is not None and reg.matches_criterion != reg.regular:
            problems.append("regularity criterion disagrees with the degrees")
        inside = inp.params["inside"]
        square_sum = _edge_square_sum(sub.order, inside, len(inp.params["set"]) - inside)
        if int(graph.degrees.sum()) != square_sum:
            problems.append(f"trace identity: degree sum {int(graph.degrees.sum())} != {square_sum}")
        out = {
            "components": comp.count,
            "formula_components": formula.total,
            "connected": conn.connected,
            "connectivity_witness": conn.witness,
            "bipartite": bip.bipartite,
            "regular": reg.regular,
            "degree": reg.degree,
            "isolated": len(pg.isolated_vertices(graph)),
            "coset_degrees": [degree for _, degree, _ in pg.degree_profile(graph)],
        }
        return out, problems


def _klein_outside() -> list[int]:
    """Indices of A4 (lexicographic even permutations) outside the Klein group."""
    evens = [
        p for p in itertools.permutations(range(4))
        if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0
    ]
    klein = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    return [i for i, p in enumerate(evens) if p not in klein]


class CliMixWorkload(Workload):
    """In-process ``pairgraph.cli.main`` calls, round-robin over a command list.

    The list holds the README commands (``verify`` among them), seeded
    variants on small groups, one S6 command, and one command that must be
    rejected with exit 2 (``ramanujan`` on GL2(5) > SL2(5), not regular).
    Every call parses its descriptors and builds its group from scratch, as
    a user's invocation does, so this is the one workload where per-call
    fixed cost dominates and ``descriptors``, ``cli``, ``fields`` and
    ``reference_cases`` are measured.  An optimisation that adds fixed numpy
    cost per call, or that caches groups, shows here and nowhere else.
    """

    name = "cli-mix"
    why = "README commands, verify, seeded small-group variants, S6 and a rejected call via cli.main"
    kinds = (
        "readme-build", "readme-analyze", "readme-spectrum-csv", "readme-spectrum-field",
        "readme-ramanujan", "readme-search", "readme-verify",
        "cyclic", "dihedral", "s4", "s5-search", "a4-klein", "gl2-3", "f49", "product",
        "s6", "rejected",
    )
    nominal_round_s = 0.8
    setup_is_import = True
    out_dir = ".bench_out/cli"

    def setup(self, pg, seed):
        return {"pg": pg}

    def make_input(self, state, seed, index):
        kind = self.kinds[index % len(self.kinds)]
        rng = op_rng(self.name, seed, index)
        argv, degree, expect = self._command(kind, rng)
        return OpInput(" ".join(argv), kind, degree, {"argv": argv, **expect})

    def _command(self, kind, rng):
        """(argv, largest degree, expectations) for one command kind."""
        seed = rng.randrange(10**6)
        out = self.out_dir
        if kind == "readme-build":
            return (["build", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "2,4,5,7,8",
                     "--format", "json", "--out", f"{out}/graph.json", "--dot", f"{out}/graph.dot"],
                    5, {"files": [f"{out}/graph.json", f"{out}/graph.dot"]})
        if kind == "readme-analyze":
            return (["analyze", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "1,7",
                     "--format", "json"], 2, {})
        if kind == "readme-spectrum-csv":
            return (["spectrum", "--group", "cyclic:20", "--subgroup", "evens", "--set", "3,5,7",
                     "--format", "csv"], 3, {"square_sum": _edge_square_sum(10, 0, 3), "order": 20})
        if kind == "readme-spectrum-field":
            return (["spectrum", "--group", "field_additive:7,2", "--subgroup", "0,1,2,3,4,5,6",
                     "--set-norm-preimage", "5,6", "--format", "json"], 16, {"order": 49})
        if kind == "readme-ramanujan":
            return (["ramanujan", "--group", "gl2:3", "--subgroup", "sl2_in_gl2", "--set-random", "17",
                     "--seed", "0"], 17, {})
        if kind == "readme-search":
            return (["search", "--group", "gl2:3", "--subgroup", "sl2_in_gl2", "--k", "17", "--trials",
                     "20", "--seed", "0"], 17, {"k": 17})
        if kind == "readme-verify":
            return (["verify", "--verbose"], 17, {})
        if kind == "cyclic":
            n = rng.choice([24, 36, 60, 120])
            d = rng.choice([x for x in range(2, n // 2 + 1) if n % x == 0])
            outside = rng.sample([x for x in range(n) if x % d], rng.randint(2, 5))
            return (["analyze", "--group", f"cyclic:{n}", "--subgroup-gen", str(d), "--set",
                     ",".join(map(str, sorted(outside))), "--format", "json"], len(outside), {})
        if kind == "dihedral":
            n = rng.randint(5, 8)
            outside = rng.sample(range(n, 2 * n), rng.randint(2, 4))
            j = rng.randint(1, n - 1)
            s = sorted(set(outside + [j, n - j]))
            inside = len({j, n - j})
            return (["spectrum", "--group", f"dihedral:{n}", "--subgroup", ",".join(map(str, range(n))),
                     "--set", ",".join(map(str, s)), "--format", "json"], len(s),
                    {"square_sum": _edge_square_sum(n, inside, len(s) - inside), "order": 2 * n})
        if kind == "s4":
            k = rng.randint(8, 10)  # every such set outside A4 is connected
            return (["ramanujan", "--group", "symmetric:4", "--subgroup", "alternating_in_symmetric",
                     "--set-random", str(k), "--seed", str(seed), "--format", "json"], k, {})
        if kind == "s5-search":
            return (["search", "--group", "symmetric:5", "--subgroup", "alternating_in_symmetric",
                     "--k", "12", "--trials", "5", "--seed", str(seed)], 12, {"k": 12})
        if kind == "a4-klein":
            s = sorted(rng.sample(_klein_outside(), rng.randint(2, 4)))
            return (["analyze", "--group", "alternating:4", "--subgroup", "klein_in_a4", "--set",
                     ",".join(map(str, s)), "--format", "json"], len(s), {})
        if kind == "gl2-3":
            k = rng.randint(6, 18)
            return (["spectrum", "--group", "gl2:3", "--subgroup", "sl2_in_gl2", "--set-random", str(k),
                     "--seed", str(seed), "--format", "json"], k,
                    {"square_sum": _edge_square_sum(24, 0, k), "order": 48})
        if kind == "f49":
            values = sorted(rng.sample(range(1, 7), rng.randint(1, 2)))
            return (["spectrum", "--group", "field_additive:7,2", "--subgroup", "0,1,2,3,4,5,6",
                     "--set-norm-preimage", ",".join(map(str, values)), "--format", "json"], 16,
                    {"order": 49})
        if kind == "product":
            c = rng.choice([3, 4, 5])
            d = rng.choice([3, 4])
            order = c * 2 * d
            gen = rng.choice([x for x in range(1, order) if x % (2 * d) == 0])
            s = sorted(rng.sample(range(1, order), rng.randint(2, 4)))
            s = [x for x in s if x % (2 * d)] or [1]
            group = f'{{"kind":"product","params":["cyclic:{c}","dihedral:{d}"]}}'
            return (["analyze", "--group", group, "--subgroup-gen", str(gen), "--set",
                     ",".join(map(str, s)), "--format", "json"], len(s), {})
        if kind == "s6":
            return (["ramanujan", "--group", "symmetric:6", "--subgroup", "alternating_in_symmetric",
                     "--set-random", "20", "--seed", str(seed), "--format", "json"], 20, {})
        if kind == "rejected":
            k = rng.randint(5, 12)
            return (["ramanujan", "--group", "gl2:5", "--subgroup", "sl2_in_gl2", "--set-random", str(k),
                     "--seed", str(seed)], k, {"exit": 2, "stderr": "error: graph is not regular\n"})
        raise ValueError(f"unknown command kind {kind!r}")

    def run(self, state, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["pg"].cli.main(inp.params["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, state, inp, raw):
        code, stdout, stderr = raw
        expected_exit = inp.params.get("exit", 0)
        problems = []
        if code != expected_exit:
            problems.append(f"exit code {code}, expected {expected_exit}: {stderr.strip()}")
        if "stderr" in inp.params and stderr != inp.params["stderr"]:
            problems.append(f"stderr {stderr!r}, expected {inp.params['stderr']!r}")
        out = {"exit": code, "stdout": stdout, "stderr": stderr}
        files = {}
        for path in inp.params.get("files", []):
            with open(path, encoding="utf-8") as fh:
                files[path.rsplit("/", 1)[1]] = fh.read()
        if files:
            out["files"] = files
        if code != 0:
            return out, problems
        cmd = inp.params["argv"][0]
        fmt = inp.params["argv"][inp.params["argv"].index("--format") + 1] if "--format" in inp.params["argv"] else "text"
        if cmd == "build":
            payload = json.loads(files["graph.json"])
            if 2 * len(payload["edges"]) != sum(payload["degrees"]):
                problems.append("exported edge count disagrees with the degrees")
        elif cmd == "analyze":
            payload = json.loads(stdout)
            if payload["components"] != payload["formula_components"]:
                problems.append("BFS and closed-form component counts differ")
            if payload["connected"] != (payload["components"] == 1):
                problems.append("closed-form connectivity disagrees with BFS")
        elif cmd == "spectrum":
            if fmt == "csv":
                rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
                clusters = [(float(v), int(c)) for v, c in rows]
            else:
                payload = json.loads(stdout)
                clusters = [(float(v), int(c)) for v, c in payload["clusters"]]
                tol = float_tol(inp.degree)
                for key in ("trivial_upper", "trivial_lower"):
                    if payload.get(key) is not None and not any(abs(v - payload[key]) <= tol for v, _ in clusters):
                        problems.append(f"closed-form {key} {payload[key]} missing from the spectrum")
                zero = sum(c for v, c in clusters if abs(v) <= tol)
                if zero < payload.get("zero_multiplicity_lower_bound", 0):
                    problems.append("zero multiplicity below its lower bound")
            if sum(c for _, c in clusters) != inp.params["order"]:
                problems.append("cluster multiplicities do not add up to the order")
            values = np.repeat([v for v, _ in clusters], [c for _, c in clusters])
            problems += _spectrum_problems(values, inp.degree, inp.params.get("square_sum"))
        elif cmd == "ramanujan":
            payload = dict(line.split(": ", 1) for line in stdout.strip().splitlines()) if fmt == "text" else json.loads(stdout)
            ram = payload["ramanujan"] in (True, "True")
            worst, bound, k = float(payload["worst_nontrivial"]), float(payload["bound"]), int(payload["degree"])
            if ram != (worst <= bound + CERT_TOL * k):
                problems.append("verdict disagrees with the worst eigenvalue")
            if payload.get("size_bound_satisfied") in (True, "True") and not ram:
                problems.append("set meets the size bound but did not certify")
        elif cmd == "search":
            k = inp.params["k"]
            for line in stdout.strip().splitlines():
                r = json.loads(line)
                if len(set(r["S"])) != k:
                    problems.append(f"trial {r['trial']} has a set of the wrong size")
                if r["connected"] and k >= r["bound"] and not r["ramanujan"]:
                    problems.append(f"trial {r['trial']} meets the size bound but did not certify")
        elif cmd == "verify":
            if "MISMATCH" in stdout or "[FAIL]" in stdout:
                problems.append("a reference case failed")
        return out, problems


WORKLOADS = {w.name: w for w in (SearchWorkload(), SpectrumDenseWorkload(), AnalyzeLargeWorkload(), CliMixWorkload())}
