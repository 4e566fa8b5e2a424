"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Run with -v to get a single pass/fail line per criterion.  These overlap the
per-module suites on purpose; here the volumes are the contract (hundreds of
random instances, exact equality everywhere) rather than quick regressions.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from dtspan import (
    canonical_points,
    canonical_section_membership,
    certificate_ok,
    check_directed_tree_metric,
    check_path_condition,
    check_tree_condition,
    congruence_witness,
    dim_tight_span,
    dinf,
    distance_from_entries,
    dual_metric_lp,
    enumerate_qplus,
    enumerate_section,
    enumerate_tight_span,
    evaluate_realization,
    geodesic_polyline,
    in_qplus,
    in_tight_span,
    is_balanced,
    linear_program,
    max_multiflow,
    realize_directed_tree_metric,
    realize_path,
    realize_tree,
    retract_to_qplus,
    retract_to_section,
    retract_to_tight_span,
    solve,
    tropical_rank,
    verify_minmax,
)
from dtspan.trees import KINDS, random_realization
from oracles import (
    random_distance,
    random_eulerian_network,
    random_metric,
    random_network,
    random_p_point,
    random_qplus_point,
    random_t_point,
)

F0 = Fraction(0)


@pytest.fixture(scope="module")
def corpus():
    """Shared instance pool for the dimension and condition criteria."""
    rng = random.Random(20260818)
    out = []
    for i in range(200):
        n = 1 + i % 4
        if i % 5 == 0:
            out.append(random_metric(rng, n, zeros=0.15))
        else:
            out.append(random_distance(rng, n, zeros=0.25))
    return out


def test_criterion_1_star_complex_reproduction():
    mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    started = time.monotonic()
    t = enumerate_tight_span(mu)
    q = enumerate_qplus(mu)
    s = enumerate_section(mu)
    elapsed = time.monotonic() - started

    assert t.dim == 2
    maximal = t.maximal_faces()
    assert len(maximal) == 3
    assert all(t.faces[i].dim == 2 for i in maximal)
    shared = [
        set(t.faces[i].vertex_ids) & set(t.faces[j].vertex_ids)
        for i, j in combinations(maximal, 2)
    ]
    assert shared[0] == shared[1] == shared[2] and len(shared[0]) == 2
    assert any(
        f.dim == 1 and set(f.vertex_ids) == shared[0] for f in t.faces
    )
    # here the minimal sets in and out of the orthant coincide
    assert [v.key() for v in q.vertices] == [v.key() for v in t.vertices]
    assert [(f.dim, f.vertex_ids) for f in q.faces] == [
        (f.dim, f.vertex_ids) for f in t.faces
    ]
    # the section is a star: four vertices, three edges
    assert s.dim == 1
    assert len(s.vertices) == 4
    assert sum(1 for f in s.faces if f.dim == 1) == 3
    assert elapsed < 1.0


def test_criterion_2_dimension_matches_enumeration(corpus):
    assert len(corpus) >= 200
    for mu in corpus:
        assert enumerate_tight_span(mu).dim == dim_tight_span(mu)
        assert enumerate_section(mu).dim == tropical_rank(mu) - 1


def test_criterion_3_condition_checkers_match_invariants(corpus):
    for mu in corpus:
        path_ok, _ = check_path_condition(mu)
        assert path_ok == (dim_tight_span(mu) <= 1)
        tree_ok, _ = check_tree_condition(mu)
        assert tree_ok == (tropical_rank(mu) <= 2)


def test_criterion_4_realization_round_trips():
    realizers = {
        "directed_path": realize_path,
        "path_subtrees": realize_tree,
        "singleton": realize_directed_tree_metric,
    }
    for kind in KINDS:
        done = 0
        for n in range(1, 6):
            for seed in range(20):
                r = random_realization(kind, n, seed)
                mu = evaluate_realization(r)
                back = realizers[kind](mu)
                assert evaluate_realization(back).entries == mu.entries
                done += 1
                if kind != "singleton":
                    continue
                # directed tree metric <=> tree condition <=> congruent to a
                # symmetric tree metric, all on the same instance
                assert check_directed_tree_metric(mu)
                tree_ok, _ = check_tree_condition(mu)
                assert tree_ok and tropical_rank(mu) <= 2
                sym = distance_from_entries(
                    [
                        [
                            (mu.entries[i][j] + mu.entries[j][i]) / 2
                            for j in range(mu.n)
                        ]
                        for i in range(mu.n)
                    ],
                    mu.labels,
                )
                assert congruence_witness(mu, sym) is not None
        assert done >= 100


def test_criterion_5_retraction_contracts():
    rng = random.Random(5)
    checks = 0
    for _ in range(350):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)

        # tight-span retraction: dominated, values in T, pairwise nonexpansive
        p, q = random_p_point(rng, mu), random_p_point(rng, mu)
        fp, fq = retract_to_tight_span(mu, p), retract_to_tight_span(mu, q)
        assert in_tight_span(mu, fp) and in_tight_span(mu, fq)
        assert all(a <= b for a, b in zip(fp.coords(), p.coords()))
        assert dinf(fp, fq) <= dinf(p, q)
        checks += 1

        # orthant retraction: cycle sums never grow, fixpoint on Q+
        k = rng.randint(2, 5)
        cyc = [random_t_point(rng, mu) for _ in range(k)]
        img = [retract_to_qplus(mu, x) for x in cyc]
        assert all(in_qplus(mu, x) for x in img)
        before = sum((dinf(cyc[i], cyc[(i + 1) % k]) for i in range(k)), F0)
        after = sum((dinf(img[i], img[(i + 1) % k]) for i in range(k)), F0)
        assert after <= before
        fixed = random_qplus_point(rng, mu)
        assert retract_to_qplus(mu, fixed).key() == fixed.key()
        checks += 1

        # balance: the section retraction preserves all cycles iff balanced
        m = rng.randint(2, 3)
        fam = [random_qplus_point(rng, mu) for _ in range(m)]
        if rng.random() < 0.5:
            fam = [x.fiber_shift(Fraction(rng.randint(0, 3))) for x in fam]
        balanced, _ = is_balanced(fam)
        preserved = True
        for size in range(2, m + 1):
            for sub in combinations(range(m), size):
                for order in permutations(sub):
                    b = sum(
                        (
                            dinf(fam[order[i]], fam[order[(i + 1) % size]])
                            for i in range(size)
                        ),
                        F0,
                    )
                    ret = [retract_to_section(mu, fam[o]) for o in order]
                    a = sum(
                        (dinf(ret[i], ret[(i + 1) % size]) for i in range(size)),
                        F0,
                    )
                    assert a <= b
                    if a != b:
                        preserved = False
        assert balanced == preserved
        checks += 1
    assert checks >= 1000


def test_criterion_6_embedding_identities():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        cps = [canonical_points(mu, s) for s in range(n)]
        p = random_t_point(rng, mu)
        for s in range(n):
            assert p.col[s] == dinf(cps[s][2], p)
            assert p.row[s] == dinf(p, cps[s][1])
            for t in range(n):
                assert dinf(cps[s][2], cps[t][1]) == mu.entries[s][t]
    for _ in range(60):
        n = rng.randint(1, 4)
        mu = random_metric(rng, n, zeros=0.15)
        pts = [canonical_points(mu, s)[0] for s in range(n)]
        for s in range(n):
            for t in range(n):
                assert dinf(pts[s], pts[t]) == mu.entries[s][t]


def test_criterion_7_geodesic_exactness():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        p, q = random_t_point(rng, mu), random_t_point(rng, mu)
        target = dinf(p, q)
        for k in (1, 2, 4, 8, 16):
            pts = geodesic_polyline(mu, p, q, k)
            assert pts[0].key() == p.key() and pts[-1].key() == q.key()
            total = sum((dinf(a, b) for a, b in zip(pts, pts[1:])), F0)
            assert total == target


def test_criterion_8_minmax_on_random_networks():
    rng = random.Random(8)
    sizes = [3] * 45 + [4] * 40 + [5] * 13 + [6] * 2
    eulerian_done = 0
    for idx, nv in enumerate(sizes):
        nterm = rng.randint(2, min(3, nv))
        make_eulerian = nv <= 4 and idx % 3 == 0
        if make_eulerian:
            net = random_eulerian_network(rng, nv, nterm)
        else:
            prob = 0.45 if nv >= 5 else 0.6
            net = random_network(rng, nv, nterm, edge_prob=prob)
        mu = distance_from_entries(
            random_metric(rng, nterm, zeros=0.15).entries, net.terminals
        )
        if make_eulerian:
            # mode Q re-proves min = max, then checks the cycle identity and
            # the balanced section embedding of the optimal extension
            report = verify_minmax(net, mu, mode="Q")
            assert report["equal"] and report["balanced"]
            assert report["cycle_total"] == report["min"]
            eulerian_done += 1
        else:
            max_val, flow = max_multiflow(net, mu)
            min_val, _ = dual_metric_lp(net, mu)
            assert max_val == min_val
            assert flow.respects_capacities(net)
    assert len(sizes) >= 100
    assert eulerian_done >= 20


def test_criterion_9_lp_self_certification():
    rng = random.Random(9)
    optimal_seen = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-2, 4)) for _ in range(n)] for _ in range(m)
        ]
        rhs = [Fraction(rng.randint(0, 6)) for _ in range(m)]
        rows.append([Fraction(1)] * n)
        rhs.append(Fraction(15))
        objective = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
        # minimizing c . x is maximizing -c . x
        if not rng.getrandbits(1):
            objective = [-c for c in objective]
        lp = linear_program(objective, rows, rhs)
        sol = solve(lp)
        if sol.status == "optimal":
            optimal_seen += 1
            assert sol.duals is not None
            assert certificate_ok(lp, sol)
    assert optimal_seen >= 100
