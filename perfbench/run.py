"""Run one workload of the pairgraph benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload search --seed 0 --seconds 15 --trace 0

The program under test is ``src/pairgraph``, imported from source.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see README.md).
The line before it is a report: environment, ``src/`` line counts, sample
counts, the tail percentile and the metrics before host-speed scaling.  Exit
code 0 means the run finished; whether every op's output was right is the
``correct`` field.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
# OpenBLAS's default on the 2-vCPU reference machine; never more
BLAS_THREADS = 2
# set-ups per run: at least MIN, and more while they total under a second
SETUP_REPEATS_MIN = 3
SETUP_REPEATS_MAX = 15
DEFAULT_SEED = 0
MB = 1 << 20
# Median of ``speed_probe`` on the reference 2-vCPU machine.  Its host's
# speed drifts by up to a quarter within seconds to minutes, so each timed
# call is rescaled by PROBE_REF_S over the mean of the probes run just
# before and just after it (see ReferenceClock).
PROBE_REF_S = 0.0056


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    Every value in the loop is a cached small int, so it allocates nothing
    and does not depend on the allocator state the workload left behind.
    """
    start = time.perf_counter()
    acc = 0
    for _ in itertools.repeat(None, 200_000):
        acc = ((acc + 3) & 127) ^ 85
    return time.perf_counter() - start


class ReferenceClock:
    """Scale factors that convert measured seconds to the reference host's speed."""

    def __init__(self) -> None:
        self.last = speed_probe()

    def scale(self) -> float:
        """Factor for the call that ended just now; probes again."""
        before, self.last = self.last, speed_probe()
        return PROBE_REF_S / ((before + self.last) / 2)


@dataclass
class OpRecord:
    index: int
    kind: str
    key: str
    latency: float
    scale: float = 1.0
    output: object = None
    problems: list[str] = field(default_factory=list)

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


@dataclass
class RunState:
    workload: object
    state: dict
    seed: int
    golden: dict | None
    clock: ReferenceClock
    records: list[OpRecord] = field(default_factory=list)
    golden_compared: int = 0


def fresh_import() -> float:
    """Import ``pairgraph`` and its CLI from scratch; returns the seconds taken."""
    from tracing import library_modules

    for name in library_modules():
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("pairgraph")
    importlib.import_module("pairgraph.cli")
    return time.perf_counter() - start


def blas_warmup(np) -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    np.linalg.eigvalsh(a + a.T)
    a @ a


def openblas_threads(np) -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def src_line_counts() -> dict:
    per_module = {}
    for path in sorted((ROOT / "src" / "pairgraph").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            per_module[path.name] = sum(1 for _ in fh)
    return {"total": sum(per_module.values()), "per_module": per_module}


def load_golden(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def run_ops(run: RunState, indices, tracer=None) -> list[OpRecord]:
    """Run the ops at ``indices`` in a closed loop, checking each after its timer."""
    from stats import compare
    from tracing import BENCH
    from workloads import float_tol

    wl = run.workload
    records = []
    for index in indices:
        inp = wl.make_input(run.state, run.seed, index)
        if tracer is not None:
            tracer.op = index
            tracer.active = True
            sid = tracer.open("op", BENCH, None)
        error = None
        start = time.perf_counter()
        try:
            raw = wl.run(run.state, inp)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.close(sid, failed=error is not None)
            tracer.active = False
        record = OpRecord(index, inp.kind, inp.key, latency, run.clock.scale())
        if error is not None:
            record.problems.append(error)
        else:
            try:
                output, problems = wl.check(run.state, inp, raw)
                output = json.loads(json.dumps(output))
            except Exception as exc:
                output, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
            raw = None  # so no op's data is alive during the next op
            record.output = output
            record.problems += problems
            if run.golden is not None and inp.key in run.golden and output is not None:
                run.golden_compared += 1
                record.problems += compare(run.golden[inp.key], output, float_tol(inp.degree))
        records.append(record)
    run.records += records
    return records


def count_group_calls(run: RunState, tracer, indices) -> dict[str, float]:
    """Exact FiniteGroup.mul / left_row calls per op, in a pass of its own."""
    pg = run.state["pg"]
    counts = tracer.install_counters(pg.groups.FiniteGroup)
    inputs = [run.workload.make_input(run.state, run.seed, i) for i in indices]
    try:
        for inp in inputs:
            run.workload.run(run.state, inp)
    finally:
        tracer.uninstall()
    return {f"groups.{name}_calls": n / len(inputs) for name, n in counts.items()}


def setup_workload(wl, seed: int, clock: ReferenceClock, min_repeats: int = SETUP_REPEATS_MIN,
                   max_repeats: int = SETUP_REPEATS_MAX) -> tuple[dict, list[tuple[float, float]]]:
    """Set the workload up several times: ``min_repeats``, then more while under a second.

    Returns the last state and, per set-up, its seconds and scale factor.
    For ``cli-mix`` a set-up is the import of ``pairgraph`` and its CLI.
    """
    times: list[tuple[float, float]] = []
    if not wl.setup_is_import:
        pg = importlib.import_module("pairgraph")
        importlib.import_module("pairgraph.cli")
    state = None
    while len(times) < min_repeats or (len(times) < max_repeats and sum(t for t, _ in times) < 1.0):
        state = None  # so that only one set-up's data is alive at a time
        if wl.setup_is_import:
            elapsed = fresh_import()
            pg = sys.modules["pairgraph"]
        else:
            start = time.perf_counter()
            state = wl.setup(pg, seed)
            elapsed = time.perf_counter() - start
        times.append((elapsed, clock.scale()))
    return state if state is not None else wl.setup(pg, seed), times


def latency_metrics(latencies: list[float], measured_s: float, n_measured: int,
                    setup_s: float) -> tuple[dict, dict]:
    from stats import TAIL_BEYOND, tail_latency

    if len(latencies) > TAIL_BEYOND:
        tail, percentile, beyond = tail_latency(latencies)
    else:  # too many failed ops for the tail rule; the run is reported incorrect anyway
        tail, percentile, beyond = max(latencies, default=float("nan")), 100.0, 0
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s"),
        "latency_tail_s": (tail, "s"),
        "ops_per_s": (n_measured / measured_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": percentile, "tail_samples_beyond": beyond}


def end_to_end(measured: list[OpRecord], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics at the reference host speed; the report holds the unscaled ones too."""
    ok = [r for r in measured if not r.problems]
    metrics, report = latency_metrics(
        [r.scaled for r in ok], sum(r.scaled for r in measured), len(measured),
        statistics.median([t * s for t, s in setups]))
    unscaled, _ = latency_metrics(
        [r.latency for r in ok], sum(r.latency for r in measured), len(measured),
        statistics.median([t for t, _ in setups]))
    report.update({
        "measured_ops": len(measured),
        "latency_samples": len(ok),
        "setup_times_s": [t for t, _ in setups],
        "speed_scale_median": statistics.median([r.scale for r in measured]),
        "unscaled_metrics": {name: value for name, (value, _) in unscaled.items()},
    })
    return metrics, report


def per_layer(tracer, traced: list[OpRecord], untraced: list[OpRecord],
              setup: tuple[float, float], group_calls: dict[str, float]) -> dict:
    """Per-layer metrics over the traced ops; seconds at the reference host speed."""
    from tracing import BUCKETS, LAYERS, layer_totals

    n = len(traced)
    ops = {r.index for r in traced}
    totals = layer_totals(tracer.spans, ops)
    in_setup = layer_totals(tracer.spans, {-1})
    counters, setup_counters = {}, {}
    for (op, name), value in tracer.counters.items():
        if op in ops:
            counters[name] = counters.get(name, 0.0) + value
        elif op == -1:
            setup_counters[name] = setup_counters.get(name, 0.0) + value
    scale = statistics.median([r.scale for r in traced])
    setup_s, setup_scale = setup
    traced_s = sum(r.latency for r in traced)
    traced_scaled = sum(r.scaled for r in traced)
    untraced_scaled = sum(r.scaled for r in untraced)

    def per_op(name: str) -> tuple[float, str]:
        return totals.get(name, 0.0) * scale / n, "s/op"

    def per_setup(name: str) -> tuple[float, str]:
        return in_setup.get(name, 0.0) * setup_scale, "s/setup"

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(f"{layer}.self_s")
        metrics[f"{layer}.calls"] = (totals.get(f"{layer}.calls", 0.0) / n, "count/op")
        metrics[f"{layer}.failed"] = (totals.get(f"{layer}.failed", 0.0) / n, "count/op")
    for layer, bucket in sorted(set(BUCKETS.values())):
        metrics[f"{layer}.{bucket}_s"] = per_op(f"{layer}.{bucket}_s")
    for name, value in group_calls.items():
        metrics[name] = (value, "count/op")
    candidates = counters.get("actions.candidates", 0.0)
    layer_self = sum(totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    metrics.update({
        "groups.table_mb": (counters.get("groups.table_bytes", 0.0) / n / MB, "MB/op"),
        "graphs.adjacency_mb": (counters.get("graphs.adjacency_bytes", 0.0) / n / MB, "MB/op"),
        "spectral.solved_vertices": (counters.get("spectral.solved_vertices", 0.0) / n, "count/op"),
        "spectral.eig_share": (totals.get("spectral.eig_s", 0.0) / traced_s, "ratio"),
        "actions.connected_ratio": (counters.get("actions.connected", 0.0) / candidates if candidates else 0.0,
                                    "ratio"),
        "actions.certified_ratio": (counters.get("actions.certified", 0.0) / candidates if candidates else 0.0,
                                    "ratio"),
        "bench.self_s": per_op("bench.self_s"),
        "trace.op_s": (traced_scaled / n, "s/op"),
        "trace.untraced_op_s": (untraced_scaled / len(untraced), "s/op"),
        "trace.overhead_ratio": ((traced_scaled / n) / (untraced_scaled / len(untraced)), "ratio"),
        "trace.accounted_share": (layer_self / traced_s, "ratio"),
        "trace.setup_s": (setup_s * setup_scale, "s/setup"),
        "setup.groups.construct_s": per_setup("groups.construct_s"),
        "setup.groups.subgroup_s": per_setup("groups.subgroup_s"),
        "setup.descriptors.resolve_s": per_setup("descriptors.resolve_s"),
        "setup.fields.norm_preimage_s": per_setup("fields.norm_preimage_s"),
        "setup.groups.table_mb": (setup_counters.get("groups.table_bytes", 0.0) / MB, "MB/setup"),
    })
    return metrics


def traced_run(wl, seed: int, rounds: int, golden: dict | None,
               clock: ReferenceClock) -> tuple[RunState, dict, dict]:
    """Set up once under tracing, run half the rounds untraced, then the same ops traced."""
    from tracing import BENCH, Tracer, write_spans

    kinds = len(wl.kinds)
    tracer = Tracer()
    if wl.setup_is_import:
        state, (setup,) = setup_workload(wl, seed, clock, 1, 1)
    else:
        pg = importlib.import_module("pairgraph")
        importlib.import_module("pairgraph.cli")
        tracer.install()
        try:
            tracer.active = True
            sid = tracer.open("setup", BENCH, None)
            state = wl.setup(pg, seed)
            tracer.close(sid)
            tracer.active = False
        finally:
            tracer.uninstall()
        setup = (tracer.spans[sid].end - tracer.spans[sid].start, clock.scale())
    run = RunState(wl, state, seed, golden, clock)
    run_ops(run, range(kinds))  # the untimed pass
    phase = range(kinds, kinds * (1 + max(1, rounds // 2)))
    untraced = run_ops(run, phase)
    tracer.install()
    try:
        traced = run_ops(run, phase, tracer)
    finally:
        tracer.uninstall()
    group_calls = count_group_calls(run, tracer, range(kinds, 2 * kinds))
    metrics = per_layer(tracer, traced, untraced, setup, group_calls)
    spans_path = OUT_DIR / f"spans-{wl.name}-{seed}.jsonl"
    write_spans(tracer.spans, str(spans_path))
    report = {"traced_ops": len(traced), "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return run, metrics, report


def prepare() -> bool:
    """Pin BLAS threads, enter the checkout and put ``src`` on the path.

    Returns False when the checkout holds no ``src/pairgraph``.
    """
    if not (ROOT / "src" / "pairgraph" / "__init__.py").is_file():
        print(f"error: no pairgraph sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    (OUT_DIR / "cli").mkdir(parents=True, exist_ok=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    blas_warmup(np)

    rounds = wl.planned_rounds(args.seconds)
    kinds = len(wl.kinds)
    golden = load_golden(wl.name, args.seed)
    clock = ReferenceClock()
    if args.trace == 0:
        state, setups = setup_workload(wl, args.seed, clock)
        run = RunState(wl, state, args.seed, golden, clock)
        run_ops(run, range(kinds))  # the untimed pass
        measured = run_ops(run, range(kinds, kinds * (1 + rounds)))
        metrics, report = end_to_end(measured, setups)
    else:
        run, metrics, report = traced_run(wl, args.seed, rounds, golden, clock)

    failed = [r for r in run.records if r.problems]
    for r in failed[:5]:
        print(f"op {r.index} ({r.kind}) failed: {'; '.join(r.problems[:3])}", file=sys.stderr)
    report.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "loop": "closed, one client",
        "error_rate": len(failed) / len(run.records),
        "golden_compared": run.golden_compared,
        "environment": environment(np),
        "src_lines": src_line_counts(),
    })
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(run.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
