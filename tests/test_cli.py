"""Command-line driver: exit codes, JSON output shapes, determinism, and the
file-writing options.  Everything goes through main(argv) on temp files."""

import argparse
import gc
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dtspan
from dtspan import jsonio
from dtspan.cli import _parser, main
from dtspan.jsonio import distance_to_json, network_to_json
from dtspan.trees import KINDS
from oracles import (
    fraction_path_condition,
    json_dumps,
    random_distance,
    random_eulerian_network,
    random_metric,
    random_network,
    sextuple_scan,
)

ALL_ONE = {
    "labels": ["x0", "x1", "x2"],
    "matrix": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}
ONE_WAY = {"labels": ["s", "t"], "matrix": [["0", "1"], ["0", "0"]]}
HUGE_ARG = "w" * 5000
TRIANGLE_NET = {
    "vertices": ["s", "x", "t"],
    "edges": [
        {"tail": "s", "head": "x", "cap": 1},
        {"tail": "x", "head": "t", "cap": 1},
        {"tail": "t", "head": "s", "cap": 1},
    ],
    "terminals": ["s", "t"],
}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


@pytest.fixture(autouse=True)
def writer_matches_oracle(monkeypatch):
    """Every object the CLI writes, report or error, must come out as the
    former writer (``to_jsonable`` then ``json.dumps(indent=2)``) wrote it."""
    write = jsonio.dumps

    def checked(obj):
        text = write(obj)
        assert text == json_dumps(obj)
        return text

    monkeypatch.setattr(jsonio, "dumps", checked)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate(files, capsys):
    _, write = files
    code, out = run(capsys, ["validate", write("m.json", ALL_ONE)])
    assert code == 0
    assert out == {"labels": ["x0", "x1", "x2"], "n": 3, "metric": True}


def test_validate_rejects_negative_entry(files, capsys):
    _, write = files
    bad = {"labels": ["a", "b"], "matrix": [["0", "-1"], ["1", "0"]]}
    code, out = run(capsys, ["validate", write("m.json", bad)])
    assert code == 1
    assert out["error"]["code"] == "NegativeEntry"


def test_validate_keeps_the_error_precedence(files, capsys):
    """A matrix with two faults reports the one found first: entries are
    read before the shape is checked, the diagonal before the signs."""
    cases = [
        ([["0"], ["1", "abc"]], "InputParseError", "not a rational: 'abc'"),
        ([["1", "0"], ["0"]], "NonSquare", "row 1 has length 1, expected 2"),
        ([["-1", "0"], ["0", "0"]], "NonzeroDiagonal", "entry (0,0) is '-1', expected 0"),
        ([["0", "-1"], ["1", "2"]], "NegativeEntry", "entry (0,1) is '-1'"),
    ]
    _, write = files
    for matrix, code, message in cases:
        status, out = run(capsys, ["validate", write("m.json", {"matrix": matrix})])
        assert status == 1
        assert out == {"error": {"code": code, "message": message}}


def test_check_tree(files, capsys):
    _, write = files
    code, out = run(capsys, ["check", "tree", write("m.json", ALL_ONE)])
    assert code == 0
    assert out["tree_condition"] is True
    assert out["violator"] is None
    assert out["tropical_rank"] == 2


def test_check_path_reports_violator(files, capsys):
    _, write = files
    code, out = run(capsys, ["check", "path", write("m.json", ALL_ONE)])
    assert code == 0
    assert out["path_condition"] is False
    assert out["dim_tight_span"] == 2
    assert len(out["violator"]) == 4
    assert set(out["violator"]) <= set(ALL_ONE["labels"])


def test_check_path_and_tree_match_the_scans(files, capsys):
    # one search per call gives the verdict, the violator and the dimension
    # or rank; the Fraction scans and the rank module's searches say what
    # each must be
    _, write = files
    rng = random.Random(61)
    seen = set()
    for i in range(24):
        n = 3 + i % 4
        kind = i // 4 % 3
        if kind == 0:
            mu = random_distance(rng, n)
        elif kind == 1:
            mu = random_distance(rng, n, top=2, zeros=0.6, den=1)
        else:
            # rank <= 2 sends the sextuple scan through every tuple; keep n <= 5
            r = dtspan.random_realization(KINDS[i % 3], min(n, 5), rng.randrange(10**6))
            mu = dtspan.evaluate_realization(r)
        path = write("m.json", distance_to_json(mu))
        for condition, scan, search, top in (
            ("path", fraction_path_condition, dtspan.dim_tight_span_witness, "dim_tight_span"),
            ("tree", sextuple_scan, dtspan.tropical_rank_witness, "tropical_rank"),
        ):
            ok, violator = scan(mu)
            code, out = run(capsys, ["check", condition, path])
            assert code == 0
            assert out == {
                f"{condition}_condition": ok,
                "violator": None if violator is None else [mu.labels[x] for x in violator],
                top: search(mu)[0],
            }
            seen.add((condition, ok))
    assert len(seen) == 4


def test_searches_leave_no_cyclic_garbage(files, capsys, monkeypatch):
    # a minor search frees its memo when it returns, so after a warm-up run
    # no command leaves objects that only the cyclic collector reclaims,
    # whether its gate passes or fails; the writer oracle is set aside,
    # because json.dumps(indent=2) leaves cycles of its own
    monkeypatch.undo()
    _, write = files
    generic = write("g.json", {
        "labels": ["a", "b", "c", "d", "e"],
        "matrix": [[0, 5, 9, 2, 7], [3, 0, 8, 6, 1], [4, 7, 0, 5, 9], [8, 2, 6, 0, 3], [1, 9, 4, 7, 0]],
    })
    one_way, all_one = write("w.json", ONE_WAY), write("a.json", ALL_ONE)
    run(capsys, ["rank", generic])
    for argv, code in (
        (["rank", generic], 0),
        (["dim", generic], 0),
        (["check", "path", generic], 0),
        (["check", "tree", all_one], 0),
        (["realize", "path", one_way], 0),
        (["realize", "path", all_one], 1),
        (["realize", "tree", one_way], 0),
        (["realize", "tree", generic], 1),
    ):
        gc.collect()
        assert run(capsys, argv)[0] == code
        assert gc.collect() == 0, argv


def test_check_dtm(files, capsys):
    _, write = files
    code, out = run(capsys, ["check", "dtm", write("m.json", ONE_WAY)])
    assert code == 0
    assert out == {"directed_tree_metric": True}


def test_rank_and_dim(files, capsys):
    _, write = files
    path = write("m.json", ALL_ONE)
    code, out = run(capsys, ["rank", path])
    assert code == 0
    assert out["tropical_rank"] == 2
    assert len(out["witness"]["matching"]) == 2
    code, out = run(capsys, ["dim", path])
    assert code == 0
    assert out["dim_tight_span"] == 2


def test_complex_commands(files, capsys):
    _, write = files
    path = write("m.json", ALL_ONE)
    code, out = run(capsys, ["tightspan", path])
    assert code == 0
    assert out["which"] == "T" and out["dim"] == 2 and len(out["vertices"]) == 5
    code, out = run(capsys, ["qplus", path])
    assert code == 0 and out["which"] == "Qplus"
    code, out = run(capsys, ["section", path])
    assert code == 0 and out["which"] == "Section" and out["dim"] == 1


def test_skeleton_with_dot(files, capsys):
    tmp_path, write = files
    dot = tmp_path / "out.dot"
    code, out = run(
        capsys, ["skeleton", write("m.json", ALL_ONE), "--dot", str(dot)]
    )
    assert code == 0
    assert len(out["arcs"]) == 3
    assert dot.read_text().startswith("digraph")
    # the tight span of this distance is two-dimensional
    code, out = run(capsys, ["skeleton", write("m.json", ALL_ONE), "--of", "tightspan"])
    assert code == 1
    assert out["error"]["code"] == "DimensionTooHigh"


def test_realize_path(files, capsys):
    tmp_path, write = files
    dot = tmp_path / "r.dot"
    code, out = run(
        capsys, ["realize", "path", write("m.json", ONE_WAY), "--dot", str(dot)]
    )
    assert code == 0
    assert out["evaluates_back"] is True
    assert out["terminals"] == ["s", "t"]
    assert dot.read_text().startswith("digraph")
    code, out = run(capsys, ["realize", "path", write("m2.json", ALL_ONE)])
    assert code == 1
    assert out["error"]["code"] == "DimensionTooHigh"


def test_retract_and_membership(files, capsys):
    _, write = files
    mpath = write("m.json", ALL_ONE)
    ppath = write(
        "p.json",
        {
            "col": {"x0": "2", "x1": "2", "x2": "2"},
            "row": {"x0": "2", "x1": "2", "x2": "2"},
        },
    )
    code, out = run(capsys, ["retract", mpath, ppath])
    assert code == 0
    assert out["membership"] in ("T_not_Qplus", "Qplus")
    code, out = run(capsys, ["retract", mpath, ppath, "--target", "section"])
    assert code == 0
    assert out["membership"] == "Qplus"
    assert "0" in out["row"].values()


def test_geodesic(files, capsys):
    _, write = files
    mpath = write("m.json", ALL_ONE)
    p = write(
        "p.json",
        {
            "col": {"x0": "0", "x1": "1", "x2": "1"},
            "row": {"x0": "0", "x1": "1", "x2": "1"},
        },
    )
    q = write(
        "q.json",
        {
            "col": {"x0": "1", "x1": "1", "x2": "1"},
            "row": {"x0": "0", "x1": "0", "x2": "0"},
        },
    )
    code, out = run(capsys, ["geodesic", mpath, p, q, "--k", "4"])
    assert code == 0
    assert len(out["points"]) == 5
    assert out["total_length"] == out["dinf"] == "1"
    code, out = run(capsys, ["geodesic", mpath, p, q, "--k", "0"])
    assert code == 2 and out["error"]["code"] == "UsageError"


def test_flow_commands(files, capsys):
    _, write = files
    npath = write("net.json", TRIANGLE_NET)
    mpath = write("mu.json", ONE_WAY)
    code, out = run(capsys, ["flow", "max", npath, mpath])
    assert code == 0
    assert out["value"] == "1"
    code, out = run(capsys, ["flow", "dual", npath, mpath])
    assert code == 0
    assert out["value"] == "1"
    code, out = run(capsys, ["flow", "verify", npath, mpath, "--mode", "Q"])
    assert code == 0
    assert out["max"] == "1" and out["min"] == "1" and out["equal"] is True
    assert out["cycles"] == [["s", "x", "t"]]


def test_usage_error_exit_code(files, capsys):
    _, write = files
    npath = write("net.json", {
        "vertices": ["s", "t"],
        "edges": [{"tail": "s", "head": "t", "cap": 3}],
        "terminals": ["s", "t"],
    })
    mpath = write("mu.json", ONE_WAY)
    # mode Q on an unbalanced network is a domain failure, not a usage one
    code, out = run(capsys, ["flow", "verify", npath, mpath, "--mode", "Q"])
    assert code == 1 and out["error"]["code"] == "NotEulerian"


USAGE_ERRORS = {
    "bad-int": ["geodesic", "m", "p", "q", "--k", "x"],
    "bad-choice": ["check", "nosuch", "m"],
    "unknown-flag": ["validate", "m", "--nosuch"],
    "missing-positional": ["geodesic", "m", "p"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_are_json_with_exit_2(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2 and out["error"]["code"] == "UsageError"


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "m", "p", "q", "--k", HUGE_ARG],
        ["geodesic", "m", "p", "q", "--k=" + HUGE_ARG],
        ["check", HUGE_ARG, "m"],
        ["retract", "m", "p", "--target=" + HUGE_ARG],
        ["validate", "m", "--" + HUGE_ARG],
    ],
    ids=["bad-int", "bad-int-after-equals", "bad-choice", "bad-choice-after-equals", "unknown-flag"],
)
def test_huge_bad_arguments_give_short_usage_errors(capsys, argv):
    code = main(argv)
    printed = capsys.readouterr().out
    assert code == 2 and json.loads(printed)["error"]["code"] == "UsageError"
    assert "(5002 characters)" in printed or "(5004 characters)" in printed
    assert len(printed.encode()) < 300


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["rank", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: dtspan" in capsys.readouterr().out


TWO_TREE = {
    "vertices": ["u0", "u1"],
    "edges": [{"tail": "u0", "head": "u1", "length": "1"}],
    "terminals": ["a", "b"],
    "subtrees": {"a": ["u0"], "b": ["u1"]},
}


@pytest.mark.parametrize(
    "argv, key, field, names",
    [
        (["validate", "m"], "m", "labels", [["s"], "t"]),
        # JSON keys are strings, so no point could name an integer label
        (["validate", "m"], "m", "labels", [0, 1]),
        (["flow", "max", "n", "m"], "n", "vertices", [["s"], "x", "t"]),
        (["flow", "max", "n", "m"], "n", "terminals", [["s"], "t"]),
        (["decompose", "r"], "r", "vertices", [["u0"], "u1"]),
        (["decompose", "r"], "r", "terminals", [["a"], "b"]),
        (["decompose", "r"], "r", "subtrees", {"a": [["u0"]], "b": ["u1"]}),
    ],
)
def test_non_string_names_are_parse_errors(files, capsys, argv, key, field, names):
    _, write = files
    inputs = {"m": ONE_WAY, "n": TRIANGLE_NET, "r": TWO_TREE}
    paths = {k: write(f"{k}.json", obj) for k, obj in inputs.items()}
    paths[key] = write("bad.json", dict(inputs[key], **{field: names}))
    code, out = run(capsys, [paths.get(a, a) for a in argv])
    assert code == 1
    assert out["error"]["code"] == "InputParseError"


def test_decompose(files, capsys):
    _, write = files
    rpath = write("r.json", TWO_TREE)
    code, out = run(capsys, ["decompose", rpath])
    assert code == 0
    assert out["recombines"] is True and out["compatible"] is True
    assert out["terms"] == [{"side_a": ["a"], "side_b": ["b"], "coeff": "1"}]


def test_out_file_and_determinism(files, capsys):
    tmp_path, write = files
    mpath = write("m.json", ALL_ONE)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["tightspan", mpath, "--out", str(out1)]) == 0
    assert main(["tightspan", mpath, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["which"] == "T"


def test_missing_file_is_parse_error(capsys):
    code, out = run(capsys, ["validate", "/nonexistent/m.json"])
    assert code == 1
    assert out["error"]["code"] == "InputParseError"


@pytest.mark.parametrize(
    "content",
    [
        b'{"matrix": [["0"]], "labels": ["\xff"]}',  # not UTF-8
        b'{"matrix": [[' + b"1" * 5000 + b"]]}",  # past Python's int digit limit
        b"[" * 100000,  # nested past the recursion limit
    ],
    ids=["bad-utf8", "long-int", "deep-nesting"],
)
def test_undecodable_input_is_parse_error(tmp_path, capsys, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code, out = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out["error"]["code"] == "InputParseError"


def test_huge_entry_gives_a_short_parse_error(files, capsys):
    # the message quotes a bounded prefix of the bad entry, not all of it
    _, write = files
    huge = {"labels": ["a", "b"], "matrix": [["0", "9" * 5000], ["1", "0"]]}
    code = main(["validate", write("m.json", huge)])
    printed = capsys.readouterr().out
    assert code == 1
    assert json.loads(printed)["error"]["code"] == "InputParseError"
    assert len(printed.encode()) < 300


def test_duplicate_huge_labels_give_a_short_error(files, capsys):
    _, write = files
    label = "x" * 5000
    dup = {"labels": [label, label], "matrix": [["0", "1"], ["1", "0"]]}
    code = main(["validate", write("m.json", dup)])
    printed = capsys.readouterr().out
    assert code == 1
    assert json.loads(printed)["error"]["code"] == "DuplicateLabel"
    assert len(printed.encode()) < 300


HUGE = "v" * 5000


@pytest.mark.parametrize(
    "argv, key, patch, code",
    [
        # a 4000-digit negative entry parses, then fails the sign check
        (["validate", "m"], "m", {"matrix": [["0", "-" + "9" * 4000], ["1", "0"]]}, "NegativeEntry"),
        (["validate", "m"], "m", {"matrix": [["9" * 4000, "1"], ["1", "0"]]}, "NonzeroDiagonal"),
        (
            ["flow", "max", "n", "m"],
            "n",
            {"edges": TRIANGLE_NET["edges"] + [{"tail": "s", "head": HUGE, "cap": 1}]},
            "InvalidNetwork",
        ),
        (["decompose", "r"], "r", {"subtrees": {"a": ["u0"], "b": [HUGE]}}, "UnknownVertex"),
    ],
    ids=["negative-entry", "nonzero-diagonal", "flow-unknown-vertex", "subtree-unknown-vertex"],
)
def test_huge_offending_values_give_short_errors(files, capsys, argv, key, patch, code):
    # the message quotes a bounded prefix of the offending value or name
    _, write = files
    inputs = {"m": ONE_WAY, "n": TRIANGLE_NET, "r": TWO_TREE}
    paths = {k: write(f"{k}.json", obj) for k, obj in inputs.items()}
    paths[key] = write("bad.json", dict(inputs[key], **patch))
    exit_code = main([paths.get(a, a) for a in argv])
    printed = capsys.readouterr().out
    assert exit_code == 1
    assert json.loads(printed)["error"]["code"] == code
    assert len(printed.encode()) < 300


def _positionals(parser, path):
    """An argv tail filling every positional: the first choice, else ``path``."""
    return [
        a.choices[0] if a.choices else path
        for a in parser._actions
        if not a.option_strings
    ]


def test_every_subcommand_reports_bad_utf8_as_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"x": "\xff"}')
    (subparsers,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers.choices) >= 10
    for name, parser in subparsers.choices.items():
        code, out = run(capsys, [name, *_positionals(parser, str(path))])
        assert (name, code, out["error"]["code"]) == (name, 1, "InputParseError")


def test_result_past_the_digit_limit_is_write_error(files, capsys):
    # the retraction's exact coordinates outgrow str(int)'s digit limit
    _, write = files
    mu = {
        "labels": ["x", "y"],
        "matrix": [["0", f"1/{10**3000 + 7}"], [f"1/{10**3000 + 9}", "0"]],
    }
    small = f"1/{10**3002 + 11}"
    p = {"col": {"x": small, "y": small}, "row": {"x": "1", "y": "1"}}
    code, out = run(capsys, ["retract", write("m.json", mu), write("p.json", p)])
    assert code == 1
    assert out["error"]["code"] == "OutputWriteError"


def test_unwritable_output_is_write_error(files, capsys):
    tmp_path, write = files
    mpath = write("m.json", ONE_WAY)
    missing = tmp_path / "missing"
    for argv in (
        ["validate", mpath, "--out", str(missing / "x.json")],
        ["realize", "path", mpath, "--dot", str(missing / "x.dot")],
    ):
        code, out = run(capsys, argv)
        assert code == 1
        assert out["error"]["code"] == "OutputWriteError"


def test_parser_is_built_once_and_keeps_no_state():
    assert _parser() is _parser()
    first = _parser().parse_args(["skeleton", "m.json", "--of", "tightspan", "--dot", "g.dot"])
    assert (first.of, first.dot) == ("tightspan", "g.dot")
    second = _parser().parse_args(["skeleton", "m.json"])
    assert (second.of, second.dot) == ("section", None)


UNCERTIFIED_LP = """
import sys
import dtspan.lp
from dtspan.cli import main

dtspan.lp.certificate_ok = lambda lp, sol: False
rc = main(["flow", "max", sys.argv[1], sys.argv[2]])
print(sys.flags.optimize, rc)
"""


def test_uncertified_lp_is_json_error_under_optimize(files):
    # the simplex's own certificate check is a raise, not an assert
    _, write = files
    npath = write("net.json", TRIANGLE_NET)
    mpath = write("mu.json", ONE_WAY)
    src = str(Path(dtspan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", UNCERTIFIED_LP, npath, mpath],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    assert out.stderr == ""
    *error, status = out.stdout.strip().splitlines()
    assert json.loads("\n".join(error))["error"]["code"] == "InternalCertificate"
    assert status.split() == ["1", "1"]


def _pinned_flow_runs():
    """(name, argv tail, network, distance) for the stdout pin: seeded 4-5
    vertex networks with rational terminal metrics, Eulerian ones for mode Q."""
    rng = random.Random(523)
    runs = []
    for k in range(3):
        net = random_network(rng, rng.randint(4, 5), 3)
        m = random_metric(rng, 3, zeros=0.2)
        mu = dtspan.distance_from_entries(m.entries, net.terminals)
        runs.append((f"max{k}", ["max"], net, mu))
        runs.append((f"verifyT{k}", ["verify", "--mode", "T"], net, mu))
    for k in range(2):
        net = random_eulerian_network(rng, 4, 2, ncycles=4)
        m = random_metric(rng, 2)
        mu = dtspan.distance_from_entries(m.entries, net.terminals)
        runs.append((f"verifyQ{k}", ["verify", "--mode", "Q"], net, mu))
    return runs


# SHA-256 of the stdout of each pinned run.  A change that moves one of
# these changes the answers the CLI gives, and must say so.
FLOW_STDOUT_SHA256 = {
    "max0": "dcedd06ed8b4bf7a7b8381504276b12e9edf6a9d97594c88a3951e8bad923840",
    "verifyT0": "dab2a06082356b425daad1cb6b48867b9e3d20c588d4b715b1e046198d1fa90f",
    "max1": "376289d709ae75ad071da4be155276748bcf0305ec57556f0adbea6bf5435401",
    "verifyT1": "0d0b194f35868fecab284d6ee4c09d2f30180976ac977ce4ebb81c4394098ab3",
    "max2": "758264cfa37d2c68b32dcfe116ed212a03c0f88192580fdd313f6d2642982d48",
    "verifyT2": "73facfdecb739e95b09e0a6f63caf25471150521075709d40e3118331647d105",
    "verifyQ0": "14d0f3859034b72d624d0dd9cfd1d539791921d341fefce04140d58072074371",
    "verifyQ1": "28072bc81ec180ad7761745db28f94763a600dbe721765dc128e1c5d5c7fcd2f",
}


def test_flow_stdout_is_pinned(files, capsys):
    _, write = files
    got = {}
    for name, argv, net, mu in _pinned_flow_runs():
        npath = write(f"{name}-net.json", network_to_json(net))
        mpath = write(f"{name}-mu.json", distance_to_json(mu))
        code = main(["flow", argv[0], npath, mpath, *argv[1:]])
        out = capsys.readouterr().out
        assert code == 0, out
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == FLOW_STDOUT_SHA256
