"""Seeded faults: each mutant changes one line of ``src/`` and tier-1 must fail on it.

From the repository root:

    python tests/mutants.py            # every mutant in MUTANTS, after an unmutated run
    python tests/mutants.py --all      # EQUIVALENT too, which are expected to survive

Each mutant is (file under src/pairgraph, the exact line to replace with its
indentation stripped, the new line, the reason).  For each one it copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, replaces
that line there (it must match exactly one line), runs tier-1 with ``-x`` on
the copy and prints caught or survived with the time taken.  It exits 1 if the
unmutated copy fails, if a listed line is missing or repeated, or if a mutant
of MUTANTS survives.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old line, new line, reason); tier-1 must fail on each
MUTANTS = [
    ("groups.py",
     "if 2 * size > order:",
     "if 2 * size >= order:",
     "the certificate at |R| = |H|/2, where a proper U of index 2 may hold R"),
    ("groups.py",
     "for _ in range(2):",
     "for _ in range(1):",
     "one round of R := R ∪ R·R' instead of two"),
    ("groups.py",
     "r = _sorted_unique(np.append(r, group.product(r[:, None], r[: -(-order // r.size)])))",
     "r = _sorted_unique(np.append(r, group.product(r[:, None], r[: order // r.size])))",
     "an R' of floor(|H|/|R|) members, not ceil"),
    ("groups.py",
     "_covered=tuple(sorted(set(cosets).difference((0,)))),",
     "_covered=tuple(sorted(set(cosets))),",
     "the covered cosets counting coset 0 when the set meets H"),
    ("groups.py",
     'return _matrix_group(f"GL2(F{p})", p, lambda det: det != 0, {"kind": "gl2", "params": [p]})',
     'return _matrix_group(f"GL2(F{p})", p, lambda det: det != 1, {"kind": "gl2", "params": [p]})',
     "make_gl2 keeping the matrices of determinant other than 1"),
    ("groups.py",
     "t.append([fixed.setdefault(c, x) for c, x in zip(cosets, row)])",
     "t.append([fixed.setdefault(c, x) for c, x in zip(cosets[::-1], row[::-1])][::-1])",
     "t_c the set's largest element in its coset: U is the same, but |R|, and so which sets run the closure, "
     "can move, and test_second_round_certifies_analyze_large_cyclic_sets counts them"),
    ("spectral.py",
     "irreducibles.append((start, last.reshape(n * d, d), d if shape > conjugate else d // 2))",
     "irreducibles.append((start, last.reshape(n * d, d), d if shape > conjugate else d))",
     "the Young route weighting a self-conjugate shape's values d times, not d/2"),
    ("graphs.py",
     "np.left_shift(targets[:, len(gen.inside) :], 15, out=keys[:, size:])",
     "np.left_shift(targets[:, : len(gen.outside)], 15, out=keys[:, size:])",
     "_build_edges taking its reverse keys from the first |S_outside| columns, inside ones among them"),
    ("actions.py",
     "while j > i:",
     "while j >= i:",
     "the draw replay rejecting j = i, so no element stays in place as shuffle lets it"),
    ("actions.py",
     "if m * m > AUTOMORPHISM_BATCH_CAP:  # the m x m class table, before it is built",
     "if m > AUTOMORPHISM_BATCH_CAP:  # the m x m class table, before it is built",
     "automorphism_group building the m x m class table above the entries budget"),
]

# (file, old line, new line, why no output can tell it apart); not expected to be caught
EQUIVALENT = [
    ("groups.py",
     "r = _sorted_unique(reached[i])",
     "r = _sorted_unique(seeds[i])",
     "_sorted_unique sorts its input, so the unsorted row of seeds gives the same R"),
    ("groups.py",
     "for _ in range(group.order.bit_length() - 1):",
     "for _ in range(group.order.bit_length() - 2):",
     "generated_elements with a shorter power chain: the breadth-first search still closes the seeds"),
]


def _copy() -> Path:
    where = Path(tempfile.mkdtemp(prefix="pairgraph-mutant-"))
    shutil.copytree(ROOT / "src", where / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", where / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", where)
    return where


def _find(path: Path, old: str) -> tuple[list[str], int]:
    """The lines of ``path`` and the place of the one that reads ``old``; exits unless there is one."""
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        sys.exit(f"{path.name}: {len(hits)} lines read {old!r}, not one")
    return lines, hits[0]


def _apply(where: Path, file: str, old: str, new: str) -> None:
    path = where / "src" / "pairgraph" / file
    lines, i = _find(path, old)
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + new
    path.write_text("\n".join(lines))


def _tier1(where: Path) -> tuple[bool, float]:
    """Whether tier-1 passes on the copy at ``where``, and the seconds it took."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    found = subprocess.run([sys.executable, "-c", "import pairgraph; print(pairgraph.__file__)"],
                           cwd=where, env=env, capture_output=True, text=True)
    if found.returncode:  # a copy that cannot import pairgraph fails tier-1 too
        return False, time.perf_counter() - start
    if not Path(found.stdout.strip()).is_relative_to(where):
        sys.exit(f"the copy imports pairgraph from {found.stdout.strip()}, not from {where}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                         cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0, time.perf_counter() - start


def _run(mutant: tuple[str, str, str] | None = None) -> tuple[bool, float]:
    """Tier-1 on a fresh copy, with ``mutant`` (file, old line, new line) applied if given."""
    where = _copy()
    try:
        if mutant:
            _apply(where, *mutant)
        return _tier1(where)
    finally:
        shutil.rmtree(where)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="run the EQUIVALENT list too")
    args = parser.parse_args()
    for file, old, _, _ in MUTANTS + EQUIVALENT:  # every line is checked before the first run
        _find(ROOT / "src" / "pairgraph" / file, old)
    passed, seconds = _run()
    print(f"{'passes' if passed else 'FAILS':10}  {seconds:6.1f} s  unmutated")
    if not passed:
        return 1
    survived = 0
    for name, mutants in (("MUTANTS", MUTANTS), ("EQUIVALENT", EQUIVALENT if args.all else [])):
        for file, old, new, reason in mutants:
            passed, seconds = _run((file, old, new))
            survived += passed and name == "MUTANTS"
            print(f"{'survived' if passed else 'caught':10}  {seconds:6.1f} s  {name} {file}: {reason}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
