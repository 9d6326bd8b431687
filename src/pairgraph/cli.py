"""Command-line front end.

Commands: ``build``, ``analyze``, ``spectrum``, ``ramanujan``, ``search`` and
``verify``; each takes only the options it reads.  Exit codes: 0 success,
2 validation error (a malformed descriptor, an out-of-range number, an
option the command does not take or an unwritable output path included),
3 eigensolver non-convergence, 4 reference-case mismatch.  Every random
operation requires an explicit ``--seed`` so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .actions import SearchConfig, random_candidate, search_ramanujan
from .descriptors import group_from_descriptor, set_from_descriptor, subgroup_from_descriptor
from .errors import EigensolverError, PairGraphError, ValidationError
from .graphs import (
    PairGraph,
    build_pair_graph,
    degree_profile,
    graph_to_dot,
    graph_to_json,
    isolated_vertices,
    regularity_check,
)
from .groups import GeneratingSet, Subgroup, validate_generating_set
from .reference_cases import run_all
from .spectral import (
    DEFAULT_TOLERANCE,
    compute_spectrum,
    is_ramanujan,
    ramanujan_size_bound,
    trivial_eigenvalues,
    zero_multiplicity_lower_bound,
)
from .structure import (
    component_count_by_formula,
    connected_components,
    is_bipartite,
    is_connected,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EIGENSOLVER = 3
EXIT_MISMATCH = 4


def _resolve_subgroup(args) -> Subgroup:
    group = group_from_descriptor(args.group)
    if args.subgroup_gen:
        return subgroup_from_descriptor(group, {"generators": args.subgroup_gen.split(",")})
    if args.subgroup:
        return subgroup_from_descriptor(group, args.subgroup)
    raise ValidationError("one of --subgroup / --subgroup-gen is required")


def _resolve_gen(args) -> GeneratingSet:
    subgroup = _resolve_subgroup(args)
    group = subgroup.parent
    chosen = [
        name
        for name, value in (
            ("--set", args.set_elements),
            ("--set-norm-preimage", args.set_norm_preimage),
            ("--set-random", args.set_random),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise ValidationError(f"exactly one of --set / --set-norm-preimage / --set-random is required, got {chosen}")
    if args.seed is not None and args.set_random is None:
        raise ValidationError(f"--seed is read only with --set-random, not with {chosen[0]}")
    if args.set_elements is not None:
        s = set_from_descriptor(group, args.set_elements)
    elif args.set_norm_preimage is not None:
        s = set_from_descriptor(group, {"norm_preimage": args.set_norm_preimage.split(",")})
    else:
        if args.seed is None:
            raise ValidationError("--set-random requires an explicit --seed")
        s = random_candidate(subgroup.outside(), args.set_random, args.seed, 0)
    gen = validate_generating_set(subgroup, s)
    if not gen.elements:
        print("warning: empty generating set, the graph has no edges", file=sys.stderr)
    return gen


def _emit(text: str, out: Optional[str], also: Sequence[tuple[str, str]] = ()) -> None:
    """Write each (path, text) of ``also`` and the report to ``out``, else the report to stdout.

    A regular file is written to a temporary sibling, and the temporaries
    replace their targets only once all are written: a path that cannot be
    written raises, naming that path, with every temporary removed and no file
    changed.  A device or a pipe is written in place.
    """
    moves = []
    try:
        for path, content in [*also, *([(out, text)] if out else [])]:
            if os.path.exists(path) and not os.path.isfile(path):  # a device or a pipe; a directory raises here
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
                continue
            target = os.path.realpath(path)  # write through a symlink, not over it
            if os.path.exists(target):  # a read-only file fails here, not at the rename
                os.close(os.open(target, os.O_WRONLY))
            with open(f"{target}.{os.getpid()}-{len(moves)}.tmp", "x", encoding="utf-8") as fh:
                moves.append((fh.name, target, path))
                fh.write(content)
        for temporary, target, path in moves:
            os.replace(temporary, target)
    except OSError as exc:
        for temporary, *_ in moves:
            if os.path.exists(temporary):
                os.remove(temporary)
        exc.filename = path
        raise
    if not out:
        sys.stdout.write(text)


def _build_graph(args) -> PairGraph:
    gen = _resolve_gen(args)
    return build_pair_graph(gen.subgroup, gen)


def cmd_build(args) -> int:
    graph = _build_graph(args)
    if args.format == "text":
        text = (
            f"pair graph on {graph.order} vertices, {graph.edge_count()} edges\n"
            f"degree profile: {degree_profile(graph)}\n"
        )
    else:
        text = json.dumps(graph_to_json(graph), sort_keys=True) + "\n"
    _emit(text, args.out, [(args.dot, graph_to_dot(graph))] if args.dot else [])
    return EXIT_OK


def _analysis_payload(graph: PairGraph) -> dict:
    comp = connected_components(graph)
    formula = component_count_by_formula(graph.gen)
    conn = is_connected(graph.gen)
    bip = is_bipartite(graph)
    reg = regularity_check(graph)
    return {
        "components": comp.count,
        "formula_components": formula.total,
        "connected": conn.connected,
        "connectivity_witness": conn.witness,
        "bipartite": bip.bipartite,
        "isolated": isolated_vertices(graph).tolist(),
        "degree_profile": [list(entry) for entry in degree_profile(graph)],
        "regular": reg.regular,
        "degree": reg.degree,
    }


def cmd_analyze(args) -> int:
    graph = _build_graph(args)
    payload = _analysis_payload(graph)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        lines = [f"{key}: {payload[key]}" for key in sorted(payload)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    gen = _resolve_gen(args)
    spectrum = compute_spectrum(PairGraph(gen), args.tolerance)
    if args.format == "csv":
        rows = ["value,multiplicity"]
        rows += [f"{value:.12g},{count}" for value, count in spectrum.clusters]
        text = "\n".join(rows) + "\n"
    elif args.format == "json":
        payload = {
            "clusters": [[value, count] for value, count in spectrum.clusters],
            "tolerance": spectrum.tolerance,
        }
        if gen.elements:
            te = trivial_eigenvalues(gen)
            payload["trivial_upper"] = te.upper
            payload["trivial_lower"] = te.lower
            payload["zero_multiplicity_lower_bound"] = zero_multiplicity_lower_bound(gen)
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        lines = [f"{value:>14.8f}  x{count}" for value, count in spectrum.clusters]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_ramanujan(args) -> int:
    gen = _resolve_gen(args)
    report = is_ramanujan(PairGraph(gen), None, args.tolerance)
    payload = {
        "ramanujan": report.ramanujan,
        "degree": report.degree,
        "worst_nontrivial": report.worst_nontrivial,
        "bound": report.bound,
        "margin": report.margin,
    }
    if gen.subgroup.index == 2 and not gen.inside:
        size_bound = ramanujan_size_bound(gen)
        payload["size_bound"] = size_bound.bound
        payload["size_bound_satisfied"] = size_bound.satisfied
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "\n".join(f"{key}: {payload[key]}" for key in sorted(payload)) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    subgroup = _resolve_subgroup(args)
    if args.mode == "random" and args.seed is None:
        raise ValidationError("random search requires an explicit --seed")
    for name, value in (("--seed", args.seed), ("--trials", args.trials)):
        if args.mode == "exhaustive" and value is not None:
            raise ValidationError(f"{name} is read only with --mode random, not with --mode exhaustive")
    config = SearchConfig(
        subgroup=subgroup,
        size=args.k,
        mode=args.mode,
        trials=SearchConfig.trials if args.trials is None else args.trials,
        seed=args.seed if args.seed is not None else 0,
        certify=not args.no_certify,
        tolerance=args.tolerance,
    )
    results = search_ramanujan(config)
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in results]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    all_ok, results = run_all(args.only)
    for case_id, checks in results:
        case_ok = all(ok for _, ok, _ in checks)
        print(f"[{'PASS' if case_ok else 'FAIL'}] {case_id}")
        for name, ok, detail in checks:
            if args.verbose or not ok:
                suffix = f"  ({detail})" if detail else ""
                print(f"    [{'ok' if ok else 'MISMATCH'}] {name}{suffix}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    """One parser per command, taking only the options that command reads; any other exits 2."""
    parser = argparse.ArgumentParser(
        prog="pairgraph",
        description="Group-subgroup pair graphs: build, analyze, certify, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)  # the flags of every instance command
    instance.add_argument("--group", required=True, help="group descriptor, e.g. cyclic:12 or gl2:3 or JSON")
    one_subgroup = instance.add_mutually_exclusive_group()
    one_subgroup.add_argument("--subgroup", help="subgroup: element list '0,3,6,9', builtin name, or JSON")
    one_subgroup.add_argument("--subgroup-gen", help="comma list of generators for the subgroup")
    instance.add_argument("--seed", type=int, help="seed for random choices (required with --set-random or --mode random)")
    instance.add_argument("--out", help="write the report here instead of stdout")
    with_set = argparse.ArgumentParser(add_help=False, parents=[instance])
    with_set.add_argument("--set", dest="set_elements", help="generating set as a comma list of element indices")
    with_set.add_argument("--set-norm-preimage", help="comma list of prime-field values (field groups only)")
    with_set.add_argument("--set-random", type=int, metavar="K", help="seeded random K-subset of G-H")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="eigenvalue tolerance")

    def command(name, fn, help_text, parents, formats=()):
        p = sub.add_parser(name, help=help_text, parents=parents)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(fn=fn)
        return p

    p_build = command("build", cmd_build, "build a pair graph and export it", [with_set], ("text", "json"))
    p_build.add_argument("--dot", help="also write a DOT rendering here")
    command("analyze", cmd_analyze, "degrees, components, connectivity, bipartiteness", [with_set], ("text", "json"))
    command("spectrum", cmd_spectrum, "full adjacency spectrum, clustered", [with_set, tolerance], ("text", "json", "csv"))
    command("ramanujan", cmd_ramanujan, "certify the Ramanujan property", [with_set, tolerance], ("text", "json"))
    p_search = command("search", cmd_search, "search size-k generating sets for Ramanujan graphs", [instance, tolerance])
    p_search.add_argument("--k", type=int, required=True, help="generating-set size")
    p_search.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p_search.add_argument("--trials", type=int, help="random candidates to try (random mode only, default 10)")
    p_search.add_argument("--no-certify", action="store_true", help="skip the spectral certification")

    p_verify = sub.add_parser("verify", help="re-run the bundled reference cases")
    p_verify.add_argument("--only", help="run a single case by id")
    p_verify.add_argument("--verbose", action="store_true", help="print every check, not just failures")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PairGraphError, OSError) as exc:  # ValidationError, EigensolverError, an unwritable --out or --dot
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EIGENSOLVER if isinstance(exc, EigensolverError) else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
