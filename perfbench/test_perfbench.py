"""Tests of the benchmark's own logic.

From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pairgraph
import pairgraph.cli  # loads every module the workloads reach through the package
import stats
import tracing
from tracing import Span, Tracer, covered_length, effective_buckets, layer_totals, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def states():
    return {name: wl.setup(pairgraph, 3) for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(states, name):
    wl = WORKLOADS[name]
    again = wl.setup(pairgraph, 3)
    indices = range(2 * len(wl.kinds))
    first = [wl.make_input(states[name], 3, i) for i in indices]
    second = [wl.make_input(again, 3, i) for i in indices]
    assert first == second
    other = [wl.make_input(wl.setup(pairgraph, 4), 4, i) for i in indices]
    seeded = [a.key != b.key for a, b in zip(first, other) if not a.kind.startswith("readme")]
    assert sum(seeded) >= len(seeded) - 1  # a kind may draw the same set by chance


def _span(name, start, end, parent, layer="groups", bucket=None, op=0):
    return Span(name, layer, bucket, start, end, parent, op)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("op", 0.0, 10.0, -1, layer="bench"),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: together they cover [1, 5]
        _span("a-child", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 3.0, 0.5])
    assert covered_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)


def test_helper_spans_inherit_their_callers_bucket():
    spans = [
        _span("op", 0.0, 4.0, -1, layer="bench"),
        _span("make_symmetric", 0.0, 3.0, 0, bucket="construct"),
        _span("perm_cycle_label", 1.0, 2.0, 1),
        _span("perm_index", 3.0, 4.0, 0),
    ]
    assert effective_buckets(spans) == [None, "construct", "construct", None]
    totals = layer_totals(spans, {0})
    assert totals["groups.construct_s"] == pytest.approx(3.0)
    assert totals["groups.self_s"] == pytest.approx(4.0)
    assert totals["groups.calls"] == 3


def test_traced_layers_account_for_the_op():
    tracer = Tracer()
    tracer.install()
    try:
        # reachable through every namespace that imported it by name
        assert pairgraph.build_pair_graph is pairgraph.graphs.build_pair_graph
        assert pairgraph.spectral.build_pair_graph is pairgraph.graphs.build_pair_graph
        assert pairgraph.build_pair_graph.__wrapped__ is not None
        tracer.op = 0
        tracer.active = True
        sid = tracer.open("op", tracing.BENCH, None)
        group = pairgraph.descriptors.group_from_descriptor("cyclic:12")
        sub = pairgraph.subgroup_from_elements(group, [0, 3, 6, 9])
        pairgraph.compute_spectrum(pairgraph.build_pair_graph(sub, [1, 7]))
        tracer.close(sid)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert not hasattr(pairgraph.build_pair_graph, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert {"group_from_descriptor", "make_cyclic", "subgroup_from_elements", "build_pair_graph",
            "validate_generating_set", "compute_spectrum"} <= set(names)
    construct = tracer.spans[names.index("make_cyclic")]
    assert tracer.spans[construct.parent].name == "group_from_descriptor"
    totals = layer_totals(tracer.spans, {0})
    op = tracer.spans[sid]
    layer_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(op.end - op.start)
    assert totals["spectral.eig_s"] > 0 and totals["groups.construct_s"] > 0


def test_tail_is_the_eleventh_largest_sample():
    values = [float(v) for v in range(100)]
    tail, percentile, beyond = stats.tail_latency(values[::-1])
    assert (tail, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(v > tail for v in values) == 10
    tail, percentile, _ = stats.tail_latency([5.0] + [1.0] * 10)
    assert tail == 1.0 and percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail_latency([1.0] * 10)


def test_comparator_accepts_small_float_noise_only():
    golden = {"n": 3, "ok": True, "set": [1, 2, 5], "x": 2.5, "text": "worst=1.000000 n=4", "none": None}
    assert stats.compare(golden, json.loads(json.dumps(golden)), 1e-9) == []
    assert stats.compare(golden, dict(golden, x=2.5 + 1e-10), 1e-9) == []
    for perturbed in (
        dict(golden, x=2.5 + 1e-6),
        dict(golden, n=4),
        dict(golden, ok=False),
        dict(golden, set=[1, 2, 6]),
        dict(golden, set=[1, 2]),
        dict(golden, text="worst=1.000100 n=4"),
        dict(golden, text="worst=1.000000 n=5"),
        dict(golden, text="best=1.000000 n=4"),
        dict(golden, x=2),
        dict(golden, none=0),
        {k: v for k, v in golden.items() if k != "n"},
    ):
        assert stats.compare(golden, perturbed, 1e-9), perturbed


def test_comparator_rejects_a_perturbed_golden_output():
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    key, output = next(iter(golden["spectrum-dense"].items()))
    perturbed = json.loads(json.dumps(output))
    perturbed["cluster_values"][1] += 1e-6
    assert stats.compare(output, output, 1e-9) == []
    assert stats.compare(output, perturbed, 1e-9)
    perturbed = json.loads(json.dumps(output))
    perturbed["multiplicities"][-1] += 1
    assert stats.compare(output, perturbed, 1e-9)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[key]
    proc = _run(["--workload", "cli-mix", "--seed", "0", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "search", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
