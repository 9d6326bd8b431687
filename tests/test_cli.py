"""Command-line interface: outputs, file artifacts, exit codes, determinism."""

import json
import math

import pytest

from pairgraph.cli import main
from pairgraph.graphs import build_pair_graph, graph_to_dot, graph_to_json
from pairgraph.groups import make_cyclic, subgroup_from_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_json_and_dot(tmp_path, capsys):
    out = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    code, _, _ = run_cli(
        capsys,
        "build",
        "--group", "cyclic:12",
        "--subgroup", "0,3,6,9",
        "--set", "2,4,5,7,8",
        "--format", "json",
        "--out", str(out),
        "--dot", str(dot),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 12
    assert payload["degrees"][0] == 5
    assert dot.read_text().startswith("graph pairgraph {")


def test_build_empty_set_warns(capsys):
    code, _, err = run_cli(
        capsys, "build", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", ""
    )
    assert code == 0
    assert "empty generating set" in err


def test_analyze_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--group", "cyclic:12",
        "--subgroup", "0,3,6,9",
        "--set", "1,7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == 6
    assert payload["formula_components"] == 6
    assert payload["connected"] is False
    assert payload["bipartite"] is True
    assert payload["isolated"] == [2, 5, 8, 11]


def test_analyze_s4_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--group", "symmetric:4",
        "--subgroup", "alternating_in_symmetric",
        "--set-random", "8",
        "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regular"] is True and payload["degree"] == 8


def test_spectrum_csv_table_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--group", "cyclic:20",
        "--subgroup", "evens",
        "--set", "3,5,7",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity"
    values = [(float(v), int(c)) for v, c in (line.split(",") for line in lines[1:])]
    assert values[0] == (3.0, 1)
    assert values[1][1] == 2 and abs(values[1][0] - (3 + math.sqrt(5)) / 2) < 1e-6
    assert sum(c for _, c in values) == 20


def test_spectrum_json_includes_trivial_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--group", "field_additive:7,2",
        "--subgroup", "0,1,2,3,4,5,6",
        "--set-norm-preimage", "5,6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["trivial_upper"] - 4 * math.sqrt(3)) < 1e-9
    assert payload["zero_multiplicity_lower_bound"] == 35


def test_ramanujan_verdict(capsys):
    code, out, _ = run_cli(
        capsys,
        "ramanujan",
        "--group", "gl2:3",
        "--subgroup", "sl2_in_gl2",
        "--set-random", "17",
        "--seed", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ramanujan"] is True
    assert payload["degree"] == 17
    assert payload["size_bound_satisfied"] is True


def test_ramanujan_requires_regular(capsys):
    code, _, err = run_cli(
        capsys, "ramanujan", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "2,4,5,7,8"
    )
    assert code == 2
    assert "regular" in err


def test_spectrum_and_ramanujan_build_no_graph(monkeypatch, capsys):
    from pairgraph import cli, graphs, spectral
    from pairgraph.descriptors import builtin_subgroup, group_from_descriptor
    from pairgraph.actions import random_candidate
    from test_golden_cli import CASES, GOLDEN

    def refuse(*args, **kwargs):
        raise AssertionError("the command built a graph")

    monkeypatch.setattr(cli, "build_pair_graph", refuse)
    with pytest.raises(AssertionError, match="built a graph"):
        main(["analyze", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "1,7"])
    capsys.readouterr()
    for name in ("spectrum-readme-csv", "spectrum-mixed-text", "spectrum-mixed-csv"):
        code, out, err = run_cli(capsys, *CASES[name])
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / (name + ".out")).read_bytes(), name
    code, out, err = run_cli(capsys, "spectrum", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "")
    assert (code, out) == (0, "    0.00000000  x12\n")
    assert err == "warning: empty generating set, the graph has no edges\n"
    code, out, err = run_cli(
        capsys, "ramanujan", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "2,4,5,7,8"
    )
    assert (code, out, err) == (2, "", "error: graph is not regular\n")
    # the verdict equals the one certified off a built graph
    code, out, _ = run_cli(capsys, "ramanujan", "--group", "gl2:3", "--subgroup", "sl2_in_gl2",
                           "--set-random", "17", "--seed", "0", "--format", "json")
    sub = builtin_subgroup(group_from_descriptor("gl2:3"), "sl2_in_gl2")
    graph = graphs.build_pair_graph(sub, random_candidate(sub.outside(), 17, 0, 0))
    report = spectral.is_ramanujan(graph)
    assert code == 0
    assert json.loads(out) == {
        "ramanujan": report.ramanujan,
        "degree": report.degree,
        "worst_nontrivial": report.worst_nontrivial,
        "bound": report.bound,
        "margin": report.margin,
        "size_bound": spectral.ramanujan_size_bound(graph.gen).bound,
        "size_bound_satisfied": spectral.ramanujan_size_bound(graph.gen).satisfied,
    }


def test_search_jsonl_deterministic(tmp_path, capsys):
    args = (
        "search",
        "--group", "gl2:3",
        "--subgroup", "sl2_in_gl2",
        "--k", "17",
        "--trials", "4",
        "--seed", "0",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(rows) == 4
    assert rows[0]["trial"] == 0
    assert set(rows[0]) == {"S", "bound", "connected", "ramanujan", "trial", "worst_nontrivial"}


def test_search_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "search", "--group", "cyclic:20", "--subgroup", "evens", "--k", "3"
    )
    assert code == 2
    assert "seed" in err


def test_set_random_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "build", "--group", "cyclic:20", "--subgroup", "evens", "--set-random", "3"
    )
    assert code == 2
    assert "--seed" in err


def test_subgroup_by_generators(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--group", "cyclic:12",
        "--subgroup-gen", "3",
        "--set", "1,7",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["components"] == 6


def test_group_json_descriptor(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--group", '{"kind": "product", "params": [{"kind": "cyclic", "params": [2]}, {"kind": "cyclic", "params": [6]}]}',
        "--subgroup-gen", "1",
        "--set", "6,7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] in (True, False)


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(
        capsys, "build", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "0,1"
    )
    assert code == 2 and "identity" in err
    code, _, err = run_cli(
        capsys, "build", "--group", "nonsense:3", "--subgroup", "0", "--set", "1"
    )
    assert code == 2 and "unknown group kind" in err
    code, _, err = run_cli(
        capsys, "build", "--group", "cyclic:12", "--subgroup", "0,1,3", "--set", "2"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "build", "--group", "cyclic:12", "--subgroup", "0,3,6,9", "--set", "3"
    )
    assert code == 2 and "inverse" in err


@pytest.mark.parametrize(
    "flags, token",
    [
        (["--group", "cyclic:abc", "--subgroup", "evens", "--set", "1"], "'abc'"),
        (["--group", "cyclic:12", "--subgroup", "evens", "--set", "1,x"], "'x'"),
        (["--group", "cyclic:12", "--subgroup-gen", "x", "--set", "1"], "'x'"),
        (["--group", "{bad", "--subgroup", "evens", "--set", "1"], "'{bad'"),
        (["--group", '{"kind": "product", "params": [2, 6]}', "--subgroup-gen", "1", "--set", "1"], "got 2"),
    ],
    ids=["group-param", "set-element", "subgroup-generator", "group-json", "product-factor"],
)
def test_malformed_descriptors_exit_2(capsys, flags, token):
    code, out, err = run_cli(capsys, "analyze", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and token in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("build", ["--set-random", "-3", "--seed", "1"], "-3 is outside 0..8"),
        ("build", ["--set-random", "100", "--seed", "1"], "100 is outside 0..8"),
        ("spectrum", ["--set", "1,2", "--tolerance", "-1"], "got -1.0"),
        ("ramanujan", ["--set", "1,2", "--tolerance", "nan"], "got nan"),
    ],
    ids=["set-random-negative", "set-random-too-large", "tolerance-negative", "tolerance-nan"],
)
def test_out_of_range_numbers_exit_2(capsys, command, flags, message):
    code, out, err = run_cli(capsys, command, "--group", "cyclic:12", "--subgroup", "0,3,6,9", *flags)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--group", "cyclic:12", "--subgroup", "evens", "--k", "1", "--trials", "1", "--seed", "0",
          "--tolerance", "-1"], "got -1.0"),
        (["--group", "symmetric:4", "--subgroup", "alternating_in_symmetric", "--k", "3", "--seed", "0",
          "--no-certify", "--tolerance", "nan"], "got nan"),
    ],
    ids=["tolerance-negative-never-certified", "tolerance-nan-no-certify"],
)
def test_search_tolerance_checked_before_any_trial(capsys, flags, message):
    code, out, err = run_cli(capsys, "search", *flags)
    assert code == 2 and out == ""
    assert message in err


Z12 = ["--group", "cyclic:12", "--subgroup", "0,3,6,9"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--group", '{"kind": "product", "params": ["cyclic:2"]}', "--subgroup", "0", "--set", "1"],
         "product descriptor needs exactly two factor descriptors"),
        (["analyze", "--group", "cyclic:3,4", "--subgroup", "0", "--set", "1"],
         "group kind 'cyclic' takes 1 parameter(s), got [3, 4]"),
        (["analyze", "--group", "gl2:2305843009213693951", "--subgroup", "0", "--set", "1"],
         "prime 2305843009213693951 exceeds the cap 13"),
        (["analyze", "--group", "cyclic:12", "--subgroup", "sl2_in_gl2", "--set", "1"], "sl2_in_gl2 needs a gl2 group"),
        (["analyze", "--group", "alternating:4", "--subgroup", "alternating_in_symmetric", "--set", "1"],
         "alternating_in_symmetric needs a symmetric group"),
        (["analyze", "--group", "cyclic:7", "--subgroup", "evens", "--set", "1"], "evens needs a cyclic group of even order"),
        (["analyze", "--group", "alternating:5", "--subgroup", "klein_in_a4", "--set", "1"],
         "klein_in_a4 needs the alternating group on 4 letters"),
        (["analyze", "--group", "cyclic:12", "--subgroup", "odds", "--set", "1"],
         "unknown builtin subgroup 'odds'; known: ('sl2_in_gl2', 'alternating_in_symmetric', 'evens', 'klein_in_a4')"),
        (["analyze", "--group", "cyclic:12", "--subgroup", "{}", "--set", "1"],
         "subgroup descriptor needs 'elements', 'generators' or 'builtin'"),
        (["analyze", *Z12, "--set", '{"x": 1}'], "set descriptor needs 'elements' or 'norm_preimage'"),
        (["analyze", "--group", "cyclic:12", "--set", "1"], "one of --subgroup / --subgroup-gen is required"),
        (["spectrum", *Z12, "--set", "1", "--set-random", "2", "--seed", "0"],
         "exactly one of --set / --set-norm-preimage / --set-random is required, got ['--set', '--set-random']"),
        # --seed is read on the --set-random path only; these once exited 0 and ignored it
        (["build", *Z12, "--set", "1,7", "--seed", "5"], "--seed is read only with --set-random, not with --set"),
        (["analyze", *Z12, "--set", "1,7", "--seed", "5"], "--seed is read only with --set-random, not with --set"),
        (["ramanujan", *Z12, "--set", "1,7", "--seed", "0"], "--seed is read only with --set-random, not with --set"),
        (["spectrum", "--group", "field_additive:7,2", "--subgroup", "0,1,2,3,4,5,6", "--set-norm-preimage", "5,6",
          "--seed", "3"], "--seed is read only with --set-random, not with --set-norm-preimage"),
        # malformed JSON fields: each once raised a TypeError (exit 1) or was read as another integer
        (["analyze", "--group", '{"kind": "cyclic", "params": 5}', "--subgroup", "0", "--set", "1"],
         "group parameters must be a list, got 5"),
        (["analyze", "--group", '{"kind": ["x"]}', "--subgroup", "0", "--set", "1"], "unknown group kind ['x']"),
        (["analyze", "--group", '{"kind": "product", "params": 5}', "--subgroup", "0", "--set", "1"],
         "product descriptor needs exactly two factor descriptors"),
        (["analyze", "--group", "cyclic:12", "--subgroup", '{"elements": 5}', "--set", "1"],
         "subgroup elements must be a list, got 5"),
        (["analyze", "--group", "cyclic:12", "--subgroup", '{"generators": 3}', "--set", "1"],
         "subgroup generators must be a list, got 3"),
        (["analyze", *Z12, "--set", '{"elements": 5}'], "set elements must be a list, got 5"),
        (["analyze", "--group", "field_additive:7,2", "--subgroup", "0,1,2,3,4,5,6", "--set", '{"norm_preimage": 3}'],
         "norm values must be a list, got 3"),
        (["analyze", "--group", '{"kind": "cyclic", "params": [12.7]}', "--subgroup", "0", "--set", "1"],
         "group parameter 12.7 is not an integer"),
        (["analyze", *Z12, "--set", '{"elements": [1.5]}'], "set element 1.5 is not an integer"),
        (["analyze", "--group", '{"kind": "cyclic", "params": [true]}', "--subgroup", "0", "--set", "1"],
         "group parameter True is not an integer"),
        # a second alternative or an unread key was once dropped without a word (exit 0), and a
        # signed element list was looked up as a builtin name
        (["analyze", "--group", "cyclic:12", "--subgroup", '{"elements": [0, 6], "generators": [3]}', "--set", "1"],
         "subgroup descriptor takes one of ('elements', 'generators', 'builtin') and no other key, "
         "got ['elements', 'generators']"),
        (["analyze", "--group", "cyclic:12", "--subgroup", '{"elements": [0, 6], "x": 1}', "--set", "1"],
         "subgroup descriptor takes one of ('elements', 'generators', 'builtin') and no other key, got ['elements', 'x']"),
        (["analyze", "--group", "field_additive:7,2", "--subgroup", "0,1,2,3,4,5,6",
          "--set", '{"elements": [7], "norm_preimage": [5, 6]}'],
         "set descriptor takes one of ('elements', 'norm_preimage') and no other key, got ['elements', 'norm_preimage']"),
        (["analyze", "--group", '{"kind": "cyclic", "params": [12], "extra": 1}', "--subgroup", "0", "--set", "1"],
         "group descriptor takes 'kind' and 'params' and no other key, got ['kind', 'params', 'extra']"),
        (["analyze", "--group", "cyclic:12", "--subgroup=-3,0", "--set", "1"], "element -3 out of range"),
    ],
    ids=["product-one-factor", "cyclic-two-params", "gl2-huge-prime", "sl2-builtin-on-cyclic",
         "alternating-builtin-on-a4", "evens-on-odd-cyclic", "klein-on-a5", "unknown-builtin", "empty-subgroup-json",
         "set-json-without-rule", "no-subgroup", "set-and-set-random", "build-seed-with-set", "analyze-seed-with-set",
         "ramanujan-seed-with-set", "spectrum-seed-with-norm-preimage", "params-not-list", "kind-unhashable",
         "product-params-not-list", "subgroup-elements-not-list", "subgroup-generators-not-list",
         "set-elements-not-list", "norm-preimage-not-list", "float-param", "float-set-element", "bool-param",
         "subgroup-elements-and-generators", "subgroup-unread-key", "set-elements-and-norm-preimage",
         "group-unread-key", "signed-subgroup-element"],
)
def test_validation_branches_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", *Z12, "--set", "1,7", "--out", "{missing}/x.json"],
        ["build", *Z12, "--set", "1,7", "--dot", "{missing}/x.dot"],
        ["build", *Z12, "--set", "1,7", "--dot", "{writable}", "--out", "{missing}/x.json"],
        ["build", *Z12, "--set", "1,7", "--out", "{writable}", "--dot", "{missing}/x.dot"],
        ["build", *Z12, "--set", "1,7", "--dot", "{existing}", "--out", "{missing}/x.json"],
        ["search", "--group", "cyclic:8", "--subgroup", "evens", "--k", "2", "--mode", "exhaustive",
         "--out", "{missing}/x.jsonl"],
    ],
    ids=["build-out", "build-dot", "build-writable-dot-unwritable-out", "build-writable-out-unwritable-dot",
         "build-existing-dot-unwritable-out", "search-out"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    # these once ended in a FileNotFoundError traceback with exit 1, a writable --dot
    # beside an unwritable --out was once written and left behind, and an existing
    # file before an unwritable path was once overwritten
    missing, writable, existing = tmp_path / "missing", tmp_path / "writable", tmp_path / "existing"
    existing.write_text("old\n")
    paths = {"missing": missing, "writable": writable, "existing": existing}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err and ".tmp" not in err
    assert not writable.exists()
    assert existing.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]


def test_outputs_replace_existing_files_and_write_through_symlinks(tmp_path, capsys):
    (tmp_path / "old.dot").write_text("old\n")
    (tmp_path / "target.json").write_text("old\n")
    (tmp_path / "link.json").symlink_to("target.json")
    code, out, err = run_cli(capsys, "build", *Z12, "--set", "1,7", "--format", "json",
                             "--dot", str(tmp_path / "old.dot"), "--out", str(tmp_path / "link.json"))
    assert (code, out, err) == (0, "", "")
    graph = build_pair_graph(subgroup_from_elements(make_cyclic(12), [0, 3, 6, 9]), [1, 7])
    assert (tmp_path / "old.dot").read_text() == graph_to_dot(graph)
    assert (tmp_path / "target.json").read_text() == json.dumps(graph_to_json(graph), sort_keys=True) + "\n"
    assert (tmp_path / "link.json").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "old.dot", "target.json"]
    # a directory is opened in place, not replaced, and refused as before
    code, out, err = run_cli(capsys, "build", *Z12, "--set", "2,4,5,7,8", "--dot", str(tmp_path / "old.dot"),
                             "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert (tmp_path / "old.dot").read_text() == graph_to_dot(graph)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "old.dot", "target.json"]


@pytest.mark.parametrize(
    "spaced, joined, option_error, descriptor_error",
    [
        (["--subgroup", "-3,0", "--set", "1"], ["--subgroup=-3,0", "--set", "1"],
         "argument --subgroup: expected one argument", "element -3 out of range"),
        (["--subgroup", "0,3,6,9", "--set", "-1,2"], ["--subgroup", "0,3,6,9", "--set=-1,2"],
         "argument --set: expected one argument", "generating element -1 out of range"),
    ],
    ids=["subgroup", "set"],
)
def test_signed_lists_reach_the_descriptor_parser_only_after_equals(capsys, spaced, joined, option_error,
                                                                    descriptor_error):
    # argparse takes a value that starts with "-" and is no plain number for an option
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--group", "cyclic:12", *spaced])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: {option_error}\n")
    code, out, err = run_cli(capsys, "analyze", "--group", "cyclic:12", *joined)
    assert (code, out, err) == (2, "", f"error: {descriptor_error}\n")


def test_eigensolver_failure_exits_3(monkeypatch, capsys):
    import numpy as np

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "svd", failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    young = ["--group", "symmetric:4", "--subgroup", "alternating_in_symmetric", "--set-random", "4", "--seed", "0"]
    k_route = ["--group", "gl2:3", "--subgroup", "sl2_in_gl2", "--set-random", "9", "--seed", "0"]
    for command in ("spectrum", "ramanujan"):
        for instance in (young, k_route):
            code, out, err = run_cli(capsys, command, *instance)
            assert (code, out, err) == (3, "", "error: eigensolver did not converge: no convergence\n")


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("build", ["--tolerance", "1e-8"], "unrecognized arguments: --tolerance 1e-8"),
        ("analyze", ["--tolerance", "1e-8"], "unrecognized arguments: --tolerance 1e-8"),
        ("analyze", ["--tolerance", "nan"], "unrecognized arguments: --tolerance nan"),
        ("build", ["--format", "csv"], "argument --format: invalid choice: 'csv'"),
        ("analyze", ["--format", "csv"], "argument --format: invalid choice: 'csv'"),
        ("ramanujan", ["--format", "csv"], "argument --format: invalid choice: 'csv'"),
        ("analyze", ["--subgroup-gen", "3"], "argument --subgroup-gen: not allowed with argument --subgroup"),
        ("spectrum", ["--subgroup-gen", "3"], "argument --subgroup-gen: not allowed with argument --subgroup"),
        ("search", ["--seed", "5"], "--seed is read only with --mode random, not with --mode exhaustive"),
        ("search", ["--trials", "3"], "--trials is read only with --mode random, not with --mode exhaustive"),
        ("search", ["--seed", "5", "--trials", "3"], "--seed is read only with --mode random, not with --mode exhaustive"),
    ],
    ids=["build-tolerance", "analyze-tolerance", "analyze-tolerance-nan", "build-csv", "analyze-csv", "ramanujan-csv",
         "analyze-subgroup-and-gen", "spectrum-subgroup-and-gen", "exhaustive-seed", "exhaustive-trials",
         "exhaustive-seed-and-trials"],
)
def test_options_a_command_does_not_read_exit_2(capsys, command, flags, message):
    # these once exited 0: analyze printed text, build JSON and ramanujan text,
    # --subgroup-gen overrode --subgroup without a word, and an exhaustive
    # search ignored --seed and --trials
    exhaustive = ["--group", "cyclic:8", "--subgroup", "evens", "--k", "2", "--mode", "exhaustive"]
    instance = exhaustive if command == "search" else [*Z12, "--set", "1,2"]
    try:
        code = main([command, *instance, *flags])
    except SystemExit as exc:  # argparse refuses an option it does not define
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_verify_all_cases(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "FAIL" not in out


def test_verify_single_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "z12-degrees", "--verbose")
    assert code == 0
    assert "[PASS] z12-degrees" in out and "[ok]" in out
    code, _, err = run_cli(capsys, "verify", "--only", "missing-case")
    assert code == 2
    assert "unknown reference case" in err


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    import pairgraph.reference_cases as rc

    monkeypatch.setattr(rc, "CASES", {**rc.CASES, "forced-failure": lambda: [("forced", False, "detail")]})
    code, out, _ = run_cli(capsys, "verify")
    assert code == 4
    assert "[FAIL] forced-failure" in out
    assert "MISMATCH" in out
