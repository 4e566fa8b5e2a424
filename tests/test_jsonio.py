"""JSON round trips and exactness guarantees for the serialization layer."""

import json
import random
import sys
from fractions import Fraction

import pytest

from dtspan import (
    DomainError,
    distance_from_entries,
    enumerate_section,
    evaluate_realization,
    network,
    point,
    realize_path,
    skeleton_graph,
    split_decomposition,
)
from dtspan.jsonio import (
    complex_to_json,
    distance_from_json,
    distance_to_json,
    dumps,
    fraction_to_str,
    network_from_json,
    network_to_json,
    point_from_json,
    point_to_json,
    realization_from_json,
    realization_to_json,
    realization_to_dot,
    skeleton_to_dot,
    skeleton_to_json,
    splits_to_json,
)
from dtspan.metrics import as_fraction
from dtspan.trees import random_realization
from oracles import fraction_str_as_fraction, json_dumps, random_distance

ALL_ONE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_fraction_strings_are_canonical():
    assert fraction_to_str(Fraction(4, 6)) == "2/3"
    assert fraction_to_str(Fraction(-3, 1)) == "-3"
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(5) == 5
    assert as_fraction("-7/14") == Fraction(-1, 2)
    assert as_fraction("007") == 7
    # only "p/q": no decimals, exponents, underscores or surrounding space;
    # the huge exponent is rejected before any arithmetic
    for bad in (
        0.5, True, "abc", "1/0", None, [1],
        "0.5", "1e3", "1_000", " 2 ", "2\n", "+1", "1/-2", "1/", "/2", "", "-", "1e999999999",
        # int() reads these digits, so the regex gate must come first
        "\u0663", "\uff11", "\u00b2",
        # past Python's int-to-string digit limit
        "1" * 4301, "1/" + "1" * 4301,
    ):
        with pytest.raises(DomainError) as err:
            as_fraction(bad)
        assert err.value.code == "InputParseError"


def _rational_strings(rng, count):
    """Strings near and off the "p/q" grammar: signs, leading zeros, zero
    numerators and denominators, non-lowest terms, digit counts around
    Python's int-to-string limit, and near misses."""
    limit = sys.get_int_max_str_digits()
    fixed = ["0", "-0", "00", "-00", "0/7", "-0/7", "0/0", "7/0", "-7/00", "007", "-007/0014",
             "6/4", "-6/4", "12/18", "1/1", "-1/1", "+1", "1/+2", "1/-2", "--1", "1//2", "1/2/3",
             "1.0", "1e3", "1_0", " 1", "1 ", "1\n", "\u0663", "\uff11", "1/\u0663", "\u00b2", ""]
    for k in (limit - 1, limit, limit + 1):
        digits = "9" * k
        fixed += [digits, "-" + digits, "0" + digits[1:], digits + "/7", "7/" + digits, "-1/" + digits]
    pieces = ["0", "00", "1", "7", "12", "360", "1000000007", "-", "/", ".", "+", "_", " ", "e", "\u0663"]
    out = list(fixed)
    while len(out) < count:
        if rng.random() < 0.7:
            p = str(rng.randint(0, 10 ** rng.randint(0, 30))).zfill(rng.randint(1, 4))
            q = str(rng.randint(0, 10 ** rng.randint(0, 30))).zfill(rng.randint(1, 3))
            s = ("-" if rng.random() < 0.4 else "") + p + ("/" + q if rng.random() < 0.6 else "")
        else:
            s = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 5)))
        out.append(s)
    return out


def test_as_fraction_matches_the_former_parser():
    """The regex gate then two ints, against the regex gate then
    ``Fraction(str)``: equal Fractions where the former parser accepts, the
    same error where it rejects."""
    accepted = rejected = 0
    for s in _rational_strings(random.Random(2024), 2400):
        try:
            expected = fraction_str_as_fraction(s)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                as_fraction(s)
            assert (got.value.code, got.value.message) == (err.code, err.message)
            rejected += 1
        else:
            got = as_fraction(s)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
            accepted += 1
    assert accepted > 1000 and rejected > 300


def test_distance_errors_keep_their_precedence():
    """Every entry is read before any shape, diagonal or sign check; then
    rows in order, each row's diagonal before its signs."""
    cases = [
        ({"matrix": [["0"], ["1", "abc"]]}, "InputParseError", "not a rational: 'abc'"),
        ({"matrix": [["0", "1"], ["1", 0.5]]}, "InputParseError", "exact rational required, got 0.5"),
        ({"matrix": [["0", "1/0"], ["-2", "0"]]}, "InputParseError", "not a rational: '1/0'"),
        ({"matrix": [["0", "1", "2"], ["1", "0"], "x"]}, "InputParseError", "distance: matrix rows must be lists"),
        ({"matrix": [["1", "0"], ["0"]]}, "NonSquare", "row 1 has length 1, expected 2"),
        ({"matrix": [["-1", "0"], ["0", "0"]]}, "NonzeroDiagonal", "entry (0,0) is '-1', expected 0"),
        ({"matrix": [["0", "-1"], ["1", "2"]]}, "NegativeEntry", "entry (0,1) is '-1'"),
        ({"labels": ["a", "b"], "matrix": [["1"]]}, "NonzeroDiagonal", "entry (0,0) is '1', expected 0"),
    ]
    for obj, code, message in cases:
        with pytest.raises(DomainError) as err:
            distance_from_json(obj)
        assert (err.value.code, err.value.message) == (code, message)


def test_distance_round_trip():
    rng = random.Random(101)
    for _ in range(20):
        mu = random_distance(rng, rng.randint(1, 4), zeros=0.3)
        obj = distance_to_json(mu)
        assert all(isinstance(x, str) for row in obj["matrix"] for x in row)
        back = distance_from_json(json.loads(json.dumps(obj)))
        assert back.labels == mu.labels and back.entries == mu.entries
    with pytest.raises(DomainError):
        distance_from_json({"labels": "ab", "matrix": []})
    with pytest.raises(DomainError):
        distance_from_json({"labels": ["a"], "matrix": [[0.5]]})


def test_point_round_trip():
    mu = distance_from_entries(ALL_ONE)
    p = point(mu, (Fraction(1, 3), 1, 1), (0, Fraction(2, 3), 1))
    obj = point_to_json(p)
    assert obj["col"]["x0"] == "1/3"
    back = point_from_json(mu, json.loads(json.dumps(obj)))
    assert back.key() == p.key()
    with pytest.raises(DomainError) as err:
        point_from_json(mu, {"col": {"x0": "0"}, "row": obj["row"]})
    assert err.value.code == "InputParseError"
    extra = dict(obj["col"], zz="1")
    with pytest.raises(DomainError):
        point_from_json(mu, {"col": extra, "row": obj["row"]})


def test_network_round_trip():
    net = network(
        ("s", "x", "t"),
        (("s", "x", 1), ("x", "t", 2), ("t", "s", 1)),
        ("s", "t"),
    )
    obj = network_to_json(net)
    back = network_from_json(json.loads(json.dumps(obj)))
    assert back == net
    bad = json.loads(json.dumps(obj))
    bad["edges"][0]["cap"] = 1.5
    with pytest.raises(DomainError) as err:
        network_from_json(bad)
    assert err.value.code == "InputParseError"
    bad["edges"][0]["cap"] = True
    with pytest.raises(DomainError):
        network_from_json(bad)


def test_realization_round_trip():
    for kind in ("directed_path", "path_subtrees", "singleton"):
        r = random_realization(kind, 4, 5)
        obj = realization_to_json(r)
        back = realization_from_json(json.loads(json.dumps(obj)))
        assert back == r
        assert evaluate_realization(back).entries == evaluate_realization(r).entries
    broken = realization_to_json(random_realization("singleton", 3, 1))
    del broken["subtrees"]["s1"]
    with pytest.raises(DomainError):
        realization_from_json(broken)


def test_splits_to_json():
    r = random_realization("singleton", 4, 3)
    terms = split_decomposition(r)
    objs = splits_to_json(terms)
    assert len(objs) == len(terms)
    for obj, term in zip(objs, terms):
        assert tuple(obj["side_a"]) == term.side_a
        assert tuple(obj["side_b"]) == term.side_b
        assert as_fraction(obj["coeff"]) == term.coeff


def test_complex_and_skeleton_shapes():
    mu = distance_from_entries(ALL_ONE)
    sec = enumerate_section(mu)
    obj = complex_to_json(sec)
    assert obj["which"] == "Section"
    assert obj["labels"] == ["x0", "x1", "x2"]
    assert obj["dim"] == 1
    assert len(obj["vertices"]) == 4
    assert [f["dim"] for f in obj["faces"]] == [0, 0, 0, 0, 1, 1, 1]
    for f in obj["faces"]:
        for s, t in f["tight_pairs"]:
            assert s in obj["labels"] and t in obj["labels"]
    skel = skeleton_graph(sec)
    sobj = skeleton_to_json(skel)
    assert len(sobj["vertices"]) == 4
    assert [(a["tail"], a["head"], a["length"]) for a in sobj["arcs"]] == [
        (0, 3, "1"),
        (1, 3, "1"),
        (2, 3, "1"),
    ]
    dot = skeleton_to_dot(skel)
    assert dot.startswith("digraph") and 'v0 -> v3 [label="1"]' in dot


def test_realization_to_dot_smoke():
    r = random_realization("path_subtrees", 3, 2)
    dot = realization_to_dot(r)
    assert dot.startswith("digraph")
    for v in r.tree.vertices:
        assert v in dot


def test_rational_past_the_digit_limit_is_output_write_error():
    # str(int) refuses more than sys.get_int_max_str_digits() digits
    big = 10**5000 + 1
    mu = distance_from_entries([[0, big, big], [big, 0, big], [big, big, 0]])
    one_way = distance_from_entries([[0, big], [0, 0]], ("a", "b"))
    for write in (
        lambda: fraction_to_str(Fraction(1, big)),
        lambda: dumps({"value": Fraction(big)}),
        lambda: skeleton_to_dot(skeleton_graph(enumerate_section(mu))),
        lambda: realization_to_dot(realize_path(one_way)),
    ):
        with pytest.raises(DomainError) as err:
            write()
        assert err.value.code == "OutputWriteError"


def test_dumps_deterministic_and_exact():
    mu = distance_from_entries([[0, Fraction(1, 3)], [Fraction(5, 2), 0]], ("a", "b"))
    one = dumps(distance_to_json(mu))
    two = dumps(distance_to_json(mu))
    assert one == two
    assert '"1/3"' in one and '"5/2"' in one
    parsed = json.loads(one)
    assert distance_from_json(parsed).entries == mu.entries


def test_writer_matches_json_dumps_on_hand_built_reports():
    mu = distance_from_entries([[0, Fraction(1, 3)], [Fraction(5, 2), 0]], ("a", "é"))
    deep = []
    for k in range(30):
        deep = [k, deep] if k % 2 else {"k": deep, "n": k}
    cases = [
        {}, [], (), "", 0, None, True, False, Fraction(-2, 3),
        {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]], ()], {"a": {"b": {"c": []}}},
        [None, True, False, 0, 1, -1], {"t": True, "f": False, "n": None, "0": 0, "1": 1},
        ("x", ("y", ()), [("z",)]),
        {"\u00e9": "\u00fcn\u00efc\u00f8d\u00e9", "\u96ea": "\u2603", "e": "\U0001f600\ud800"},
        {'q"uote': 'a"b', "back\\slash": "c\\d", "ctl\x00\x1f": "\n\t\r\b\f\x7f/"},
        [2**64, -(2**64) - 1, 10**40, 2**63 - 1],
        {"r": Fraction(-7, 3), "i": Fraction(5), "big": Fraction(2**70, 3)},
        {"mu": mu, "points": [point(mu, (0, Fraction(1, 2)), (3, 0))], "value": Fraction(1, 3)},
        deep,
    ]
    for obj in cases:
        assert dumps(obj) == json_dumps(obj)
    for bad in (0.5, {1, 2}, {1: "one"}, b"bytes"):
        with pytest.raises(TypeError):
            dumps(bad)


def test_field_names_are_quoted_short():
    huge = "t" * 5000
    with pytest.raises(DomainError) as err:
        realization_from_json({"vertices": ["v"], "edges": [], "terminals": [huge], "subtrees": {huge: 5}})
    assert err.value.code == "InputParseError"
    assert len(err.value.message) < 200
