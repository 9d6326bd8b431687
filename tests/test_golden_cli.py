"""Byte-for-byte replay of recorded CLI output.

Each case's stdout is stored as ``tests/data/golden/<case>.out``; a case that
writes ``--out``/``--dot`` files also stores them as ``<case>.out-file`` and
``<case>.dot``.  ``spectrum`` appears in text and CSV, which round to 8
decimals and 12 significant digits, and in JSON once, on the empty set: its
spectrum is exactly zero, so those bytes do not depend on BLAS.  The
README's ``ramanujan``, ``search`` and ``verify --verbose`` commands are
pinned too, though their full-precision floats can differ in the last bits
between BLAS builds; on such a build, re-record them and check that only
those digits moved.
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
SPECTRUM_MIXED = [*README, "--set", "2,3,4,5,7,8,9"]
ALTERNATING = ["--subgroup", "alternating_in_symmetric", "--set-random"]
GL2 = ["--group", "gl2:3", "--subgroup", "sl2_in_gl2"]
ZERO = [*GL2, "--set-random", "9", "--seed", "4"]
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
    "spectrum-readme-csv": ["spectrum", "--group", "cyclic:20", "--subgroup", "evens", "--set", "3,5,7",
                            "--format", "csv"],
    "spectrum-mixed-text": ["spectrum", *SPECTRUM_MIXED],
    "spectrum-mixed-csv": ["spectrum", *SPECTRUM_MIXED, "--format", "csv"],
    "spectrum-s5-csv": ["spectrum", "--group", "symmetric:5", *ALTERNATING, "12", "--seed", "3",
                        "--format", "csv"],
    "spectrum-s6-text": ["spectrum", "--group", "symmetric:6", *ALTERNATING, "20", "--seed", "0"],
    # the zero cluster's mean is -4.1e-33 before it is read as 0.0
    "spectrum-zero-text": ["spectrum", *ZERO],
    "spectrum-zero-csv": ["spectrum", *ZERO, "--format", "csv"],
    "spectrum-empty-json": ["spectrum", *README, "--set", "", "--format", "json"],
    # the README's ramanujan, search and verify commands
    "ramanujan-readme-text": ["ramanujan", *GL2, "--set-random", "17", "--seed", "0"],
    "ramanujan-readme-json": ["ramanujan", *GL2, "--set-random", "17", "--seed", "0", "--format", "json"],
    "search-readme": ["search", *GL2, "--k", "17", "--trials", "20", "--seed", "0"],
    # searches that cross a block of trials: Young route, and exhaustive with disconnected sets
    "search-s5-blocks": ["search", "--group", "symmetric:5", "--subgroup", "alternating_in_symmetric",
                         "--k", "12", "--trials", "70", "--seed", "1"],
    "search-exhaustive-evens": ["search", "--group", "cyclic:20", "--subgroup", "evens", "--k", "3",
                                "--mode", "exhaustive"],
    "verify-verbose": ["verify", "--verbose"],
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


def test_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    # every main() call in a process parses with the one parser built at import:
    # no call may build another, and parses that argparse refuses, interleaved
    # with the golden cases in both orders, must leave each case's bytes as recorded
    from pairgraph import cli

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    refused = [
        (["analyze", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "1,7", "--bogus"], 2),
        (["analyze", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--subgroup-gen", "3", "--set", "1,7"], 2),
        (["verify", "--only"], 2),
        (["--help"], 0),
    ]
    order = [*sorted(CASES), *sorted(CASES, reverse=True)]
    for i, name in enumerate(order):
        argv, code = refused[i % len(refused)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        for suffix, data in run_case(name, tmp_path).items():
            assert data == (GOLDEN / (name + suffix)).read_bytes(), f"{name}{suffix} differs after {argv}"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        for suffix, data in run_case(case, GOLDEN).items():
            (GOLDEN / (case + suffix)).write_bytes(data)
