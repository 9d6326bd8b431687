"""Byte-for-byte replay of recorded ``build`` and ``analyze`` output.

Each case's stdout is stored as ``tests/data/golden/<case>.out``; a case that
writes ``--out``/``--dot`` files also stores them as ``<case>.out-file`` and
``<case>.dot``.  ``spectrum``, ``ramanujan``, ``search`` and ``verify`` are
left out: their full-precision floats can differ between BLAS builds.
Re-record after an intended output change with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from pairgraph.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
README = ["--group", "cyclic:12", "--subgroup", "0,3,6,9"]
DIHEDRAL = ["--group", "dihedral:6", "--subgroup", "0,2,4,6,8,10", "--set", "1,3,7"]
ROTATIONS = ["--group", "dihedral:5", "--subgroup", "0,1,2,3,4", "--set", "1,4"]
MIXED = [*README, "--set", "3,9,1"]
CASES = {
    "build-readme-text": ["build", *README, "--set", "2,4,5,7,8"],
    "build-readme-json": ["build", *README, "--set", "2,4,5,7,8", "--format", "json"],
    "build-readme-files": ["build", *README, "--set", "2,4,5,7,8", "--format", "json", "--out", "{out}", "--dot", "{dot}"],
    "build-dihedral-text": ["build", *DIHEDRAL],
    "build-dihedral-json": ["build", *DIHEDRAL, "--format", "json"],
    "build-dihedral-files": ["build", *DIHEDRAL, "--format", "json", "--out", "{out}", "--dot", "{dot}"],
    "analyze-readme-text": ["analyze", *README, "--set", "1,7"],
    "analyze-readme-json": ["analyze", *README, "--set", "1,7", "--format", "json"],
    "analyze-s5-text": ["analyze", "--group", "symmetric:5", "--subgroup", "alternating_in_symmetric",
                        "--set-random", "12", "--seed", "3"],
    "analyze-s5-json": ["analyze", "--group", "symmetric:5", "--subgroup", "alternating_in_symmetric",
                        "--set-random", "12", "--seed", "3", "--format", "json"],
    "analyze-rotations-text": ["analyze", *ROTATIONS],
    "analyze-rotations-json": ["analyze", *ROTATIONS, "--format", "json"],
    "analyze-mixed-text": ["analyze", *MIXED],
    "analyze-mixed-json": ["analyze", *MIXED, "--format", "json"],
}
FILES = {"{out}": ".out-file", "{dot}": ".dot"}


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case in ``directory``; map each golden suffix to the bytes produced."""
    argv = [str(directory / (name + FILES[a])) if a in FILES else a for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    produced = {".out": stdout.getvalue().encode()}
    for a in CASES[name]:
        if a in FILES:
            produced[FILES[a]] = (directory / (name + FILES[a])).read_bytes()
    return produced


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for suffix, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / (name + suffix)).read_bytes(), f"{name}{suffix} differs"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        for suffix, data in run_case(case, GOLDEN).items():
            (GOLDEN / (case + suffix)).write_bytes(data)
