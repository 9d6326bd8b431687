"""Record golden outputs: every op of a default-seed run of each workload.

From the repository root:

    python3 perfbench/record_golden.py

Runs each workload with seed 0 for the ``run_seconds`` in BENCHMARK.json,
stops if any op fails its checks, and writes perfbench/golden.json keyed by
workload and op input.  Re-record only when the program's outputs are meant
to change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    from workloads import WORKLOADS

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    golden = {}
    for wl in WORKLOADS.values():
        clock = run.ReferenceClock()
        state, _ = run.setup_workload(wl, run.DEFAULT_SEED, clock, 1, 1)
        state_run = run.RunState(wl, state, run.DEFAULT_SEED, None, clock)
        records = run.run_ops(state_run, range(len(wl.kinds) * (1 + wl.planned_rounds(seconds))))
        bad = [r for r in records if r.problems]
        if bad:
            print(f"{wl.name}: op {bad[0].index} failed: {bad[0].problems}", file=sys.stderr)
            return 1
        golden[wl.name] = {r.key: r.output for r in records}
        print(f"{wl.name}: {len(golden[wl.name])} outputs from {len(records)} ops", file=sys.stderr)
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
