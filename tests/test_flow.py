"""Multiflow/extension duality: network plumbing, both sides of the min-max,
the triangle-LP cross-check, tightness notions, Eulerian cycle
decompositions, and the end-to-end verifier."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dtspan
from dtspan import (
    DomainError,
    MetricExtension,
    Multiflow,
    Network,
    cycle_length,
    distance_from_entries,
    dual_metric_lp,
    enumerate_s_paths,
    eulerian_decompose,
    flow,
    is_cyclically_tight_extension,
    is_eulerian,
    is_tight_extension,
    max_multiflow,
    network,
    network_objective,
    tighten_extension,
    verify_minmax,
)
from oracles import (
    GeneralProgram,
    random_distance,
    random_eulerian_network,
    random_metric,
    random_network,
    random_t_point,
    recomputed_pricing_solve,
    triangle_metric_lp,
)

F0 = Fraction(0)
F1 = Fraction(1)
ONE_WAY = [[0, 1], [0, 0]]


def _metric_on(rng, labels, **kw):
    m = random_metric(rng, len(labels), **kw)
    return distance_from_entries(m.entries, labels)


def _two_node():
    return network(("s", "t"), (("s", "t", 3),), ("s", "t"))


def _triangle():
    return network(
        ("s", "x", "t"),
        (("s", "x", 1), ("x", "t", 1), ("t", "s", 1)),
        ("s", "t"),
    )


@pytest.mark.parametrize(
    "vertices, edges, terminals",
    [
        (("a", "a"), (), ("a", "a")),
        (("a", "b"), (("a", "z", 1),), ("a", "b")),
        (("a", "b"), (("a", "a", 1),), ("a", "b")),
        (("a", "b"), (("a", "b", -1),), ("a", "b")),
        (("a", "b"), (("a", "b", Fraction(1, 2)),), ("a", "b")),
        (("a", "b"), (("a", "b", True),), ("a", "b")),
        (("a", "b"), (("a", "b", 1), ("a", "b", 1)), ("a", "b")),
        (("a", "b"), (), ("a",)),
        (("a", "b"), (), ("a", "a")),
        (("a", "b"), (), ("a", "z")),
    ],
)
def test_network_validation(vertices, edges, terminals):
    with pytest.raises(DomainError) as err:
        Network(tuple(vertices), tuple(edges), tuple(terminals))
    assert err.value.code == "InvalidNetwork"


def test_parallel_edges_merge():
    net = network(("a", "b"), (("a", "b", 1), ("a", "b", 2)), ("a", "b"))
    assert net.edges == (("a", "b", 3),)
    # True is not capacity 1, alone or merged
    for edges in ((("a", "b", True),), (("a", "b", 1), ("a", "b", True))):
        with pytest.raises(DomainError) as err:
            network(("a", "b"), edges, ("a", "b"))
        assert err.value.code == "InvalidNetwork"


def test_enumerate_s_paths_frozen():
    assert enumerate_s_paths(_two_node()) == [("s", "t")]
    paths = enumerate_s_paths(_triangle())
    assert ("s", "x", "t") in paths and ("t", "s") in paths
    for p in paths:
        assert p[0] != p[-1] and len(set(p)) == len(p)
    isolated = network(("a", "b", "c"), (), ("a", "b"))
    assert enumerate_s_paths(isolated) == []
    big = network(tuple(f"v{i}" for i in range(11)), (), ("v0", "v1"))
    with pytest.raises(DomainError) as err:
        enumerate_s_paths(big)
    assert err.value.code == "NetworkTooLarge"


def test_max_multiflow_two_node():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    value, flow = max_multiflow(_two_node(), mu)
    assert value == 3
    assert flow.paths == (("s", "t"),) and flow.values == (Fraction(3),)
    assert flow.respects_capacities(_two_node())


def test_max_multiflow_requires_matching_terminals():
    mu = distance_from_entries(ONE_WAY, ("s", "u"))
    with pytest.raises(DomainError) as err:
        max_multiflow(_two_node(), mu)
    assert err.value.code == "GroundSetMismatch"


def test_max_multiflow_no_paths():
    mu = distance_from_entries(ONE_WAY, ("a", "b"))
    value, flow = max_multiflow(network(("a", "b"), (), ("a", "b")), mu)
    assert value == 0 and flow.paths == ()


def test_dual_metric_lp_frozen():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    value, ext = dual_metric_lp(_two_node(), mu)
    assert value == 3
    assert ext.d.value("s", "t") == 1 and ext.d.value("t", "s") == 0
    with pytest.raises(DomainError) as err:
        dual_metric_lp(
            network(("a", "b", "c"), (), ("a", "b", "c")),
            distance_from_entries([[0, 1, 3], [9, 0, 1], [9, 9, 0]], ("a", "b", "c")),
        )
    assert err.value.code == "NotAMetric"


def test_minmax_equality_random():
    rng = random.Random(67)
    for _ in range(10):
        nv = rng.randint(2, 4)
        nterm = rng.randint(2, min(3, nv))
        net = random_network(rng, nv, nterm)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        max_val, flow = max_multiflow(net, mu)
        assert flow.respects_capacities(net)
        min_val, ext = dual_metric_lp(net, mu)
        assert max_val == min_val
        # weak duality pieces: every path earns at most its length in ext.d
        assert network_objective(net, ext.d) == min_val


def test_dual_lengths_match_triangle_lp():
    # the extension built from the path LP's duals against the direct LP
    rng = random.Random(73)
    for _ in range(12):
        nv = rng.randint(3, 4)
        nterm = rng.randint(2, 3)
        net = random_network(rng, nv, nterm)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        oracle_val, _ = triangle_metric_lp(net, mu)
        min_val, ext = dual_metric_lp(net, mu)
        max_val, _ = max_multiflow(net, mu)
        assert oracle_val == min_val == max_val
        assert isinstance(ext, MetricExtension)
        assert network_objective(net, ext.d) == min_val


def test_path_lp_matches_recomputed_pricing(monkeypatch):
    # The path LP of 5-7 vertex networks, solved by the integer simplex, must
    # equal the Fraction two-phase oracle exactly, and its rows must be the
    # edge/path incidence matrix built from the steps of each path.
    programs = []
    real_solve = flow.solve

    def recording(lp):
        sol = real_solve(lp)
        programs.append((lp, sol))
        return sol

    monkeypatch.setattr(flow, "solve", recording)
    rng = random.Random(83)
    compared = fractional = 0
    for _ in range(10):
        net = random_network(rng, rng.randint(5, 7), 3)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        value, mflow, duals = flow._path_lp(net, mu)
        if not programs:
            continue
        lp, sol = programs.pop()
        paths = enumerate_s_paths(net)
        assert lp.rows == tuple(
            tuple(F1 if (t, h) in zip(p, p[1:]) else F0 for p in paths) for t, h, _ in net.edges
        )
        assert lp.rhs == tuple(Fraction(c) for _, _, c in net.edges)
        # the oracle divides with /, so it takes Fraction copies of the int cells
        rows = tuple(tuple(Fraction(a) for a in row) for row in lp.rows)
        rhs = tuple(Fraction(b) for b in lp.rhs)
        want = recomputed_pricing_solve(GeneralProgram(lp.objective, rows, ("<=",) * len(rows), rhs))
        assert (sol.x, sol.value, sol.duals) == (want.x, want.value, want.duals)
        assert (value, duals) == (want.value, want.duals)
        assert mflow.values == tuple(v for v in want.x if v > 0)
        compared += 1
        fractional += any(v.denominator > 1 for v in want.x + want.duals)
    assert compared >= 8 and fractional >= 3


# Scale every dual the path LP returns.  Halved lengths fall short of mu on
# the one S-path, so the result is no extension; doubled lengths give an
# extension that costs twice the maximum.  Both must fail the certificate,
# also under -O, where an assert would be gone.
SCALED_DUALS = """
import dataclasses, sys
from fractions import Fraction
from dtspan import DomainError, distance_from_entries, dual_metric_lp, flow, network, verify_minmax

real_solve = flow.solve
net = network(("s", "x", "t"), (("s", "x", 1), ("x", "t", 1)), ("s", "t"))
mu = distance_from_entries([[0, 1], [1, 0]], ("s", "t"))
codes = []
for scale in (Fraction(1, 2), Fraction(2)):

    def scaled(lp):
        sol = real_solve(lp)
        return dataclasses.replace(sol, duals=tuple(scale * y for y in sol.duals))

    flow.solve = scaled
    for fn in (dual_metric_lp, verify_minmax):
        try:
            fn(net, mu)
            codes.append("passed")
        except DomainError as err:
            codes.append(err.code)
print(sys.flags.optimize, *codes)
"""


def test_bad_duals_fail_certificate_under_optimize():
    src = str(Path(dtspan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCALED_DUALS],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    assert out.stdout.split() == ["1"] + ["InternalCertificate"] * 4


def test_tighten_extension():
    rng = random.Random(71)
    for _ in range(8):
        nv = rng.randint(2, 4)
        nterm = rng.randint(2, min(3, nv))
        net = random_network(rng, nv, nterm)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        _, ext = dual_metric_lp(net, mu)
        tight = tighten_extension(mu, ext)
        assert is_tight_extension(mu, tight)
        assert network_objective(net, tight.d) <= network_objective(net, ext.d)
        again = tighten_extension(mu, tight)
        assert again.d.entries == tight.d.entries
    # a metric is a tight extension of itself
    mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert is_tight_extension(mu, mu)
    assert tighten_extension(mu, mu).d.entries == mu.entries


INFLATED = [
    [F0, Fraction(1), Fraction(1), Fraction(5)],
    [Fraction(1), F0, Fraction(1), Fraction(5)],
    [Fraction(1), Fraction(1), F0, Fraction(5)],
    [Fraction(5), Fraction(5), Fraction(5), F0],
]


def test_tight_extension_rejects_inflated_point(monkeypatch):
    mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    d = distance_from_entries(INFLATED, mu.labels + ("far",))
    assert not is_tight_extension(mu, d)
    tight = tighten_extension(mu, d)
    assert is_tight_extension(mu, tight)
    assert tight.d.value("far", "far") == 0
    # boundary is untouched by tightening
    for s in mu.labels:
        for t in mu.labels:
            assert tight.d.value(s, t) == mu.value(s, t)
    # a sweep whose retraction leaves the points where they are fails the
    # tightness certificate
    monkeypatch.setattr(flow, "retract_to_tight_span", lambda mu, p: p)
    with pytest.raises(DomainError) as err:
        tighten_extension(mu, d)
    assert err.value.code == "InternalCertificate"


# The same identity retraction under -O, where an assert would be gone.
IDENTITY_RETRACTION = """
import sys
from dtspan import DomainError, distance_from_entries, flow, tighten_extension

entries = [[0, 1, 1, 5], [1, 0, 1, 5], [1, 1, 0, 5], [5, 5, 5, 0]]
d = distance_from_entries(entries, ("x0", "x1", "x2", "far"))
mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
flow.retract_to_tight_span = lambda mu, p: p
try:
    tighten_extension(mu, d)
    code = "passed"
except DomainError as err:
    code = err.code
print(sys.flags.optimize, code)
"""


def test_untightened_extension_fails_certificate_under_optimize():
    src = str(Path(dtspan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", IDENTITY_RETRACTION],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    assert out.stdout.split() == ["1", "InternalCertificate"]


def test_pullback_of_tight_span_points_is_tight():
    # distances read off points of T always assemble into a tight extension
    from dtspan import dinf

    rng = random.Random(79)
    for _ in range(25):
        n = rng.randint(2, 3)
        mu = random_metric(rng, n, zeros=0.2)
        k = rng.randint(1, 2)
        pts = [random_t_point(rng, mu) for _ in range(k)]
        labels = mu.labels + tuple(f"y{i}" for i in range(k))
        size = n + k

        def val(i, j):
            if i == j:
                return F0
            if i < n and j < n:
                return mu.entries[i][j]
            if i < n:
                return pts[j - n].col[i]
            if j < n:
                return pts[i - n].row[j]
            return dinf(pts[i - n], pts[j - n])

        entries = [[val(i, j) for j in range(size)] for i in range(size)]
        d = distance_from_entries(entries, labels)
        ext = MetricExtension(mu, d)
        assert is_tight_extension(mu, ext)


def test_cyclically_tight_cases():
    mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # a metric is always cyclically tight over itself
    assert is_cyclically_tight_extension(mu, mu)

    # tight but leaving the nonnegative minimal part: fails
    weak = distance_from_entries([[0, 0, 0], [1, 0, 1], [1, 1, 0]])
    labels = weak.labels + ("x",)
    entries = [
        [F0, F0, F0, F0],
        [Fraction(1), F0, Fraction(1), F0],
        [Fraction(1), Fraction(1), F0, F0],
        [Fraction(1), Fraction(1), Fraction(1), F0],
    ]
    d = distance_from_entries(entries, labels)
    assert is_tight_extension(weak, d)
    assert not is_cyclically_tight_extension(weak, d)

    # two points on one fiber, strictly shifted: tight yet unbalanced
    entries2 = [
        [F0, Fraction(1), Fraction(1), F0, Fraction(1)],
        [Fraction(1), F0, Fraction(1), F0, Fraction(1)],
        [Fraction(1), Fraction(1), F0, F0, Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(1), F0, Fraction(1)],
        [F0, F0, F0, F0, F0],
    ]
    labels2 = mu.labels + ("lo", "hi")
    d2 = distance_from_entries(entries2, labels2)
    assert is_tight_extension(mu, d2)
    assert not is_cyclically_tight_extension(mu, d2)


def test_eulerian_decompose_frozen():
    tri = _triangle()
    assert is_eulerian(tri)
    assert eulerian_decompose(tri) == [("s", "x", "t")]
    assert eulerian_decompose(_two_node()) is None
    doubled = network(
        ("s", "x", "t"),
        (("s", "x", 2), ("x", "t", 2), ("t", "s", 2)),
        ("s", "t"),
    )
    assert eulerian_decompose(doubled) == [("s", "x", "t"), ("s", "x", "t")]


def test_decomposition_covers_objective_for_any_distance():
    rng = random.Random(83)
    for _ in range(20):
        nv = rng.randint(2, 5)
        net = random_eulerian_network(rng, nv, 2)
        cycles = eulerian_decompose(net)
        assert cycles is not None
        d = distance_from_entries(
            random_distance(rng, nv, zeros=0.2).entries, net.vertices
        )
        total = sum((cycle_length(d, c) for c in cycles), F0)
        assert total == network_objective(net, d)


def test_congruent_distances_share_eulerian_objectives():
    rng = random.Random(89)
    for _ in range(15):
        nv = rng.randint(2, 5)
        net = random_eulerian_network(rng, nv, 2)
        d = distance_from_entries(
            random_metric(rng, nv).entries, net.vertices
        )
        alpha = {v: Fraction(rng.randint(-1, 1), 8) for v in net.vertices}
        shifted = [
            [
                d.entries[i][j] + alpha[net.vertices[i]] - alpha[net.vertices[j]]
                if i != j
                else F0
                for j in range(nv)
            ]
            for i in range(nv)
        ]
        d2 = distance_from_entries(shifted, net.vertices)
        assert network_objective(net, d) == network_objective(net, d2)


def test_verify_minmax_two_node_mode_t():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    report = verify_minmax(_two_node(), mu, mode="T")
    assert report["max"] == report["min"] == 3
    assert report["equal"] is True
    assert report["tight_objective"] == 3
    assert report["flow_paths"] == [{"path": ["s", "t"], "value": Fraction(3)}]


def test_verify_minmax_triangle_mode_q():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    report = verify_minmax(_triangle(), mu, mode="Q")
    assert report["max"] == report["min"] == 1
    assert report["cycles"] == [("s", "x", "t")]
    assert report["cycle_total"] == 1
    assert report["balanced"] is True


def test_verify_minmax_random_suite():
    rng = random.Random(97)
    for _ in range(6):
        nv = rng.randint(2, 4)
        nterm = rng.randint(2, min(3, nv))
        net = random_network(rng, nv, nterm)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        report = verify_minmax(net, mu, mode="T")
        assert report["equal"] and report["tight_objective"] == report["min"]
    for _ in range(5):
        nv = rng.randint(2, 4)
        net = random_eulerian_network(rng, nv, 2)
        mu = _metric_on(rng, net.terminals, zeros=0.2)
        report = verify_minmax(net, mu, mode="Q")
        assert report["equal"]
        assert report["cycle_total"] == network_objective(net, report["extension"])


def test_verify_minmax_gates():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    with pytest.raises(DomainError) as err:
        verify_minmax(_two_node(), mu, mode="Q")
    assert err.value.code == "NotEulerian"
    with pytest.raises(DomainError) as err:
        verify_minmax(_two_node(), mu, mode="X")
    assert err.value.code == "UsageError"
    # two-point distances are always metrics; a triangle violation needs three
    net3 = network(("s", "t", "u"), (("s", "t", 1),), ("s", "t", "u"))
    nonmetric = distance_from_entries(
        [[0, 1, 3], [9, 0, 1], [9, 9, 0]], ("s", "t", "u")
    )
    with pytest.raises(DomainError) as err:
        verify_minmax(net3, nonmetric, mode="T")
    assert err.value.code == "NotAMetric"


def test_extension_validation():
    mu = distance_from_entries(ONE_WAY, ("s", "t"))
    with pytest.raises(DomainError) as err:
        MetricExtension(mu, distance_from_entries([[0, 1], [0, 0]], ("s", "u")))
    assert err.value.code == "NotAnExtension"
    with pytest.raises(DomainError) as err:
        MetricExtension(
            mu,
            distance_from_entries(
                [[0, 2, 1], [0, 0, 0], [0, 1, 0]], ("s", "t", "u")
            ),
        )
    assert err.value.code == "NotAnExtension"
    flow = Multiflow((("s", "t"),), (Fraction(-1),))
    assert not flow.respects_capacities(_two_node())
