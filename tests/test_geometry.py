"""Point-level geometry pinned against the structural identities: memberships,
canonical points, the mutual and balance lemmas, retractions, sections, and
geodesics.  Random points are produced by the generators in oracles.py and
exercised with exact rational arithmetic throughout."""

import random
import subprocess
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import dtspan
import dtspan.geometry as geometry
from dtspan import (
    DomainError,
    EqualityGraph,
    ExtPoint,
    Fiber,
    MetricExtension,
    Membership,
    canonical_points,
    canonical_section_membership,
    classify_membership,
    dinf,
    dinf_plus,
    distance_from_entries,
    equality_graph,
    extend_to_balanced_section,
    face_dimension,
    geodesic_polyline,
    in_qplus,
    in_tight_span,
    is_balanced,
    is_metric,
    norm_pair,
    point,
    polyhedron_vertices,
    retract_to_qplus,
    retract_to_section,
    retract_to_tight_span,
)
from dtspan.metrics import scaled_entries
from oracles import (
    _proper_subsets,
    fraction_canonical_points,
    fraction_dinf,
    fraction_geodesic_polyline,
    fraction_membership,
    fraction_point_of,
    fraction_retract_to_qplus,
    fraction_retract_to_tight_span,
    fraction_section_shift,
    random_distance,
    random_metric,
    random_p_point,
    random_points_of_every_class,
    random_q_point,
    random_qplus_point,
    random_t_point,
    retract_ray,
    sweep_retract_to_qplus,
    sweep_retract_to_tight_span,
)

ALL_ONE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
# zero first row makes the tight span strictly larger than Q+
T_NE_QPLUS = [[0, 0, 0], [1, 0, 1], [1, 1, 0]]


def _diff(p, q):
    return p.add_scaled(q, Fraction(-1))


def test_point_shape_checks():
    mu = distance_from_entries(ALL_ONE)
    with pytest.raises(DomainError) as err:
        point(mu, (0, 0), (0, 0, 0))
    assert err.value.code == "LengthMismatch"
    other = distance_from_entries([[0, 1], [1, 0]])
    with pytest.raises(DomainError) as err:
        dinf(point(mu, (0, 0, 0), (0, 0, 0)), point(other, (0, 0), (0, 0)))
    assert err.value.code == "GroundSetMismatch"
    # a float would be stored as its binary expansion, 0.1 as 3602879701896397/2**55
    for col, row in (((0.1, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, True, 0))):
        with pytest.raises(DomainError) as err:
            point(mu, col, row)
        assert err.value.code == "InputParseError"


def test_dinf_basics():
    mu = distance_from_entries(ALL_ONE)
    p = point(mu, (0, 1, 1), (0, 1, 1))
    q = point(mu, (1, 1, 1), (0, 0, 0))
    assert dinf(p, p) == 0
    assert dinf(p, q) == 1
    assert dinf(q, p) == 0
    assert dinf_plus((Fraction(0),), (Fraction(-3),)) == 0


def test_membership_classes_frozen():
    tq = distance_from_entries(T_NE_QPLUS)
    p = point(tq, (0, 0, 0), (1, 1, 1))
    assert classify_membership(tq, p) is Membership.T_NOT_QPLUS
    assert in_tight_span(tq, p) and not in_qplus(tq, p)

    line = distance_from_entries(LINE)
    assert classify_membership(line, point(line, (5, 5, 5), (5, 5, 5))) is Membership.P_NOT_T
    assert classify_membership(line, point(line, (-1, 5, 5), (5, 5, 5))) is Membership.PI_ONLY
    assert classify_membership(line, point(line, (0, 0, 0), (0, 0, 0))) is Membership.OUTSIDE
    mu_x1 = point(line, (1, 0, 1), (1, 0, 1))
    assert classify_membership(line, mu_x1) is Membership.QPLUS
    assert classify_membership(line, mu_x1.fiber_shift(Fraction(-2))) is Membership.Q_NOT_NONNEG


def test_equality_graph_requires_pi():
    line = distance_from_entries(LINE)
    with pytest.raises(DomainError) as err:
        equality_graph(line, point(line, (0, 0, 0), (0, 0, 0)))
    assert err.value.code == "NotInPolyhedron"
    k = equality_graph(line, point(line, (1, 0, 1), (1, 0, 1)))
    assert (0, 1) in k.edges and (1, 0) in k.edges
    assert not k.isolated_cols() and not k.isolated_rows()


def test_isolated_columns_and_rows_match_sets():
    rng = random.Random(19)
    for n in range(1, 6):
        for _ in range(20):
            edges = frozenset((s, t) for s in range(n) for t in range(n) if rng.random() < 0.3)
            g = EqualityGraph(n, edges)
            assert g.isolated_cols() == frozenset(range(n)) - {s for s, _ in edges}
            assert g.isolated_rows() == frozenset(range(n)) - {t for _, t in edges}


def test_canonical_points_frozen():
    # for this non-metric the one-sided companions collapse onto mu_s
    mu = distance_from_entries([[0, 1, 3], [0, 0, 1], [0, 0, 0]])
    ms, m_in, m_out = canonical_points(mu, "x0")
    assert ms.key() == m_in.key() == m_out.key()
    assert ms.col == (0, 0, 0) and ms.row == (0, 1, 3)


def test_canonical_companions_always_in_tight_span():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.25)
        for s in range(n):
            ms, m_in, m_out = canonical_points(mu, s)
            for companion in (m_in, m_out):
                assert in_tight_span(mu, companion)
                assert companion.col[s] == 0 and companion.row[s] == 0
            if mu.entries == distance_from_entries(mu.entries, mu.labels).entries:
                pass
        if n >= 2 and all(
            mu.entries[x][y] + mu.entries[y][z] >= mu.entries[x][z]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            # metric: all three canonical points coincide
            for s in range(n):
                ms, m_in, m_out = canonical_points(mu, s)
                assert ms.key() == m_in.key() == m_out.key()


def test_embedding_identity_coordinates():
    # p(s^c) = D(mu_s_out, p) and p(s^r) = D(p, mu_s_in) on the tight span
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        p = random_t_point(rng, mu)
        for s in range(n):
            _, m_in, m_out = canonical_points(mu, s)
            assert p.col[s] == dinf(m_out, p)
            assert p.row[s] == dinf(p, m_in)


def test_embedding_identity_distance():
    # mu(s,t) = D(mu_s_out, mu_t_in) for every directed distance
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        cps = [canonical_points(mu, s) for s in range(n)]
        for s in range(n):
            for t in range(n):
                assert dinf(cps[s][2], cps[t][1]) == mu.entries[s][t]


def test_embedding_isometric_for_metrics():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randint(1, 4)
        mu = random_metric(rng, n, zeros=0.15)
        pts = [canonical_points(mu, s)[0] for s in range(n)]
        for s in range(n):
            assert in_tight_span(mu, pts[s])
            for t in range(n):
                assert dinf(pts[s], pts[t]) == mu.entries[s][t]


def test_mutual_lemma_on_tight_span_and_q():
    rng = random.Random(55)
    for _ in range(250):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        p, q = random_t_point(rng, mu), random_t_point(rng, mu)
        assert dinf_plus(p.col, q.col) == dinf_plus(q.row, p.row) == dinf(p, q)
        u, v = random_q_point(rng, mu), random_q_point(rng, mu)
        assert dinf_plus(u.col, v.col) == dinf_plus(v.row, u.row) == dinf(u, v)


def test_mutual_lemma_domination_swap():
    # on Q: columns strictly dominated iff rows strictly dominate
    rng = random.Random(66)
    seen_strict = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        u = random_q_point(rng, mu)
        v = random_q_point(rng, mu)
        if rng.random() < 0.4:
            # force a strict pair via a fiber translate
            v = u.fiber_shift(Fraction(rng.randint(1, 3)))
        cols_less = all(a < b for a, b in zip(u.col, v.col))
        rows_more = all(a > b for a, b in zip(u.row, v.row))
        assert cols_less == rows_more
        seen_strict += cols_less
    assert seen_strict > 0


def test_norm_identity():
    # D(p,q) + D(q,p) equals the split positive-part norm of p - q, any points
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n)
        rand = lambda: point(
            mu,
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)],
            [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)],
        )
        p, q = rand(), rand()
        assert dinf(p, q) + dinf(q, p) == norm_pair(_diff(p, q))
        assert norm_pair(_diff(p, p)) == 0


def test_retract_to_tight_span_contract():
    rng = random.Random(88)
    for _ in range(200):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        p = random_p_point(rng, mu)
        q = random_p_point(rng, mu)
        fp, fq = retract_to_tight_span(mu, p), retract_to_tight_span(mu, q)
        assert in_tight_span(mu, fp)
        assert all(a <= b for a, b in zip(fp.coords(), p.coords()))
        assert dinf(fp, fq) <= dinf(p, q)
        # identity on the tight span, hence idempotent
        assert retract_to_tight_span(mu, fp).key() == fp.key()


def test_retract_to_tight_span_frozen():
    line = distance_from_entries(LINE)
    phi = retract_to_tight_span(line, point(line, (2, 2, 2), (2, 2, 2)))
    assert phi.col == (2, 1, 0) and phi.row == (2, 1, 0)


def test_retract_to_qplus_cyclically_nonexpansive():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        k = rng.randint(2, 6)
        cyc = [random_t_point(rng, mu) for _ in range(k)]
        img = [retract_to_qplus(mu, p) for p in cyc]
        for p in img:
            assert in_qplus(mu, p)
        before = sum(
            (dinf(cyc[i], cyc[(i + 1) % k]) for i in range(k)), Fraction(0)
        )
        after = sum(
            (dinf(img[i], img[(i + 1) % k]) for i in range(k)), Fraction(0)
        )
        assert after <= before
        # fixes Q+ pointwise
        q = random_qplus_point(rng, mu)
        assert retract_to_qplus(mu, q).key() == q.key()


def test_retractions_match_ray_sweeps():
    # closed-form retractions equal the sweeps of single ray steps exactly,
    # and points already in T or Q+ stay where they are
    rng = random.Random(131)
    metrics = moved_to_t = moved_to_q = 0
    for k in range(300):
        n = k % 6 + 1
        kind = k // 6 % 3
        if kind == 0:
            mu = random_distance(rng, n, zeros=0.2, den=1)
        elif kind == 1:
            mu = random_distance(rng, n, zeros=0.2)
        else:
            mu = random_metric(rng, n, zeros=0.2)
        metrics += is_metric(mu)
        p = random_p_point(rng, mu)
        t = retract_to_tight_span(mu, p)
        assert t.key() == sweep_retract_to_tight_span(mu, p).key()
        q = retract_to_qplus(mu, t)
        assert q.key() == sweep_retract_to_qplus(mu, t).key()
        moved_to_t += t.key() != p.key()
        moved_to_q += q.key() != t.key()
        for fixed in (t, q):
            assert retract_to_tight_span(mu, fixed).key() == fixed.key()
            assert sweep_retract_to_tight_span(mu, fixed).key() == fixed.key()
        assert retract_to_qplus(mu, q).key() == q.key()
    assert 100 <= metrics < 300
    assert moved_to_t > 250 and moved_to_q > 30


def test_retract_to_section_balance_lemma():
    rng = random.Random(111)
    for _ in range(120):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        k = rng.randint(2, 4)
        cyc = [random_q_point(rng, mu) for _ in range(k)]
        img = [retract_to_section(mu, p) for p in cyc]
        for p in img:
            assert canonical_section_membership(mu, p)
        before = sum(
            (dinf(cyc[i], cyc[(i + 1) % k]) for i in range(k)), Fraction(0)
        )
        after = sum(
            (dinf(img[i], img[(i + 1) % k]) for i in range(k)), Fraction(0)
        )
        assert after <= before


def test_balance_characterizes_cycle_preservation():
    # U balanced iff the canonical-section retraction preserves every cycle in U
    rng = random.Random(222)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.2)
        m = rng.randint(2, 4)
        pts = [random_qplus_point(rng, mu) for _ in range(m)]
        # shifted copies produce unbalanced families; plain Q+ samples may
        # or may not be balanced already
        if rng.random() < 0.5:
            pts = [
                p.fiber_shift(Fraction(rng.randint(0, 3))) for p in pts
            ]
        balanced, pair = is_balanced(pts)
        if pair is not None:
            i, j = pair
            assert all(a < b for a, b in zip(pts[i].col, pts[j].col)) or all(
                a < b for a, b in zip(pts[i].row, pts[j].row)
            )
        preserved = True
        for size in range(2, m + 1):
            for sub in combinations(range(m), size):
                for order in permutations(sub):
                    before = sum(
                        (
                            dinf(pts[order[i]], pts[order[(i + 1) % size]])
                            for i in range(size)
                        ),
                        Fraction(0),
                    )
                    img = [retract_to_section(mu, pts[o]) for o in order]
                    after = sum(
                        (dinf(img[i], img[(i + 1) % size]) for i in range(size)),
                        Fraction(0),
                    )
                    assert after <= before
                    if after != before:
                        preserved = False
        assert balanced == preserved
        seen[balanced] += 1
    # both sides of the equivalence must actually occur
    assert seen[True] > 0 and seen[False] > 0


def test_retract_ray():
    line = distance_from_entries(LINE)
    p = point(line, (2, 2, 2), (2, 2, 2))
    down = point(line, (0, 0, 0), (0, 0, -1))
    q = retract_ray(line, p, down)
    assert q.row[2] == 0 and q.col == p.col
    with pytest.raises(DomainError) as err:
        retract_ray(line, p, point(line, (1, 0, 0), (0, 0, 0)))
    assert err.value.code == "UnboundedDirection"
    capped = retract_ray(line, p, point(line, (1, 0, 0), (0, 0, 0)), amax=Fraction(5))
    assert capped.col[0] == 7


def test_fiber_equality():
    mu = distance_from_entries(ALL_ONE)
    p = point(mu, (0, 1, 1), (0, 1, 1))
    assert Fiber(p) == Fiber(p.fiber_shift(Fraction(7, 3)))
    assert Fiber(p) != Fiber(point(mu, (1, 0, 1), (1, 0, 1)))
    assert hash(Fiber(p)) == hash(Fiber(p.fiber_shift(Fraction(-2))))


def test_face_dimension_matches_local_structure():
    mu = distance_from_entries(ALL_ONE)
    # vertices sit in zero-dimensional faces
    for col, row in [((0, 1, 1), (0, 1, 1)), ((1, 1, 1), (0, 0, 0))]:
        d, dirs = face_dimension(mu, point(mu, col, row))
        assert d == 0 and dirs == []
    # barycenter of a maximal two-face (average of three of its vertices)
    third = Fraction(1, 3)
    center = point(
        mu, (third, 2 * third, 2 * third), (third, 2 * third, 2 * third)
    )
    d, dirs = face_dimension(mu, center)
    assert d == 2 and len(dirs) == 2
    with pytest.raises(DomainError) as err:
        face_dimension(mu, point(mu, (9, 9, 9), (9, 9, 9)))
    assert err.value.code == "NotInTightSpan"


def test_retract_to_section_anchored():
    rng = random.Random(333)
    for _ in range(60):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.2)
        anchor = random_qplus_point(rng, mu)
        p = random_q_point(rng, mu)
        # anchoring at a translate of p itself pins the answer to that translate
        pinned = retract_to_section(mu, p.fiber_shift(Fraction(2)), anchors=[p])
        assert pinned.key() == p.key()
        got = retract_to_section(mu, p, anchors=[anchor])
        ok, _ = is_balanced([anchor, got])
        assert ok
        assert Fiber(got) == Fiber(p)


def test_extend_to_balanced_section():
    rng = random.Random(444)
    for _ in range(60):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.2)
        anchors = [random_qplus_point(rng, mu)]
        queries = [Fiber(random_q_point(rng, mu)) for _ in range(3)]
        answers = extend_to_balanced_section(mu, anchors, queries)
        assert len(answers) == 3
        for fiber, ans in zip(queries, answers):
            assert Fiber(ans) == fiber
        ok, _ = is_balanced(anchors + answers)
        assert ok
        # anchors in Q+ keep the answers in Q+
        for ans in answers:
            assert in_qplus(mu, ans)


def test_extend_without_anchors():
    # with no anchors the answers are held in Q+
    rng = random.Random(445)
    for _ in range(60):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.2)
        queries = [Fiber(random_q_point(rng, mu)) for _ in range(3)]
        answers = extend_to_balanced_section(mu, [], queries)
        assert len(answers) == 3
        for fiber, ans in zip(queries, answers):
            assert Fiber(ans) == fiber
            assert in_qplus(mu, ans)
        ok, _ = is_balanced(answers)
        assert ok


def test_extend_rejects_unbalanced_anchors():
    mu = distance_from_entries(ALL_ONE)
    p = point(mu, (0, 1, 1), (0, 1, 1))
    with pytest.raises(DomainError) as err:
        extend_to_balanced_section(mu, [p, p.fiber_shift(Fraction(1))], [])
    assert err.value.code == "NotBalanced"


def test_geodesic_polyline_exact():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.2)
        p, q = random_t_point(rng, mu), random_t_point(rng, mu)
        target = dinf(p, q)
        for k in (1, 2, 4, 8, 16):
            pts = geodesic_polyline(mu, p, q, k)
            assert len(pts) == k + 1
            assert pts[0].key() == p.key() and pts[-1].key() == q.key()
            total = sum((dinf(a, b) for a, b in zip(pts, pts[1:])), Fraction(0))
            assert total == target
            for x in pts:
                assert in_tight_span(mu, x)


def test_geodesic_polyline_validation():
    mu = distance_from_entries(ALL_ONE)
    p = point(mu, (0, 1, 1), (0, 1, 1))
    with pytest.raises(DomainError) as err:
        geodesic_polyline(mu, p, p, 0)
    assert err.value.code == "UsageError"
    with pytest.raises(DomainError) as err:
        geodesic_polyline(mu, p, point(mu, (9, 9, 9), (9, 9, 9)), 2)
    assert err.value.code == "NotInTightSpan"


def _fresh(p):
    """p rebuilt from its Fractions alone, without an integer form."""
    return ExtPoint(p.ground, p.col, p.row)


def _same_point(got, want):
    """Equal fields, equal hash, and an integer form that reads back as them."""
    assert got == want and hash(got) == hash(want)
    d, col, row = geometry._form(got)
    assert tuple(Fraction(x, d) for x in col + row) == want.coords()
    assert _fresh(got) == got and hash(_fresh(got)) == hash(got)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as err:
        return err.code


def _same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_point(g, w)
    else:
        _same_point(got, want)


def _rational_p_point(rng, mu):
    """A point of P with denominators 7 and 11, which divide no L here."""
    n = mu.n
    col = [Fraction(rng.randint(0, 12), rng.choice((7, 11))) for _ in range(n)]
    row = [
        max(max(mu.entries[s][t] - col[s] for s in range(n)), Fraction(0))
        + Fraction(rng.randint(0, 12), rng.choice((7, 11)))
        for t in range(n)
    ]
    return point(mu, col, row)


def test_integer_kernels_match_fraction_oracles():
    rng = random.Random(1616)
    reached, foreign = set(), 0
    for n, kind, _ in product(range(1, 7), ("integer", "mixed", "metric"), range(3)):
        if True:
            if kind == "integer":
                mu = random_distance(rng, n, den=1)
            elif kind == "mixed":
                mu = random_distance(rng, n, den=6)
            else:
                big = random_metric(rng, n + 2, den=5)
                mu = big.restrict(big.labels[:n])
                ext = MetricExtension(mu, big)
                for x in big.labels:
                    _same_point(ext.point_of(x), fraction_point_of(ext, x))
            scale = scaled_entries(mu)[0]
            pts = random_points_of_every_class(rng, mu)
            pts += [_rational_p_point(rng, mu) for _ in range(3)]
            pts += [_fresh(p) for p in pts]
            for p in pts:
                foreign += scale % geometry._form(p)[0] != 0
                where, mask = fraction_membership(mu, p)
                reached.add(where)
                assert geometry._membership(mu, p) == (where, mask)
                assert classify_membership(mu, p) is where
                assert in_tight_span(mu, p) is (where in (Membership.T_NOT_QPLUS, Membership.QPLUS))
                assert in_qplus(mu, p) is (where is Membership.QPLUS)
                for fn, oracle in (
                    (retract_to_tight_span, fraction_retract_to_tight_span),
                    (retract_to_qplus, fraction_retract_to_qplus),
                ):
                    _same_outcome(_outcome(fn, mu, p), _outcome(oracle, mu, p))
                if where in (Membership.QPLUS, Membership.Q_NOT_NONNEG):
                    _same_point(retract_to_section(mu, p), fraction_section_shift(p))
                _same_point(Fiber(p).canonical(), fraction_section_shift(p))
                for q in pts[:4]:
                    assert dinf(p, q) == fraction_dinf(p, q)
            for s in mu.labels:
                for got, want in zip(canonical_points(mu, s), fraction_canonical_points(mu, s)):
                    _same_point(got, want)
            ends = [fraction_retract_to_tight_span(mu, _rational_p_point(rng, mu)) for _ in range(2)]
            ends += [retract_to_tight_span(mu, random_p_point(rng, mu))]
            for k in (1, 2, 3, 8, 9):
                a, b = rng.sample(ends, 2)
                _same_outcome(geodesic_polyline(mu, a, b, k), fraction_geodesic_polyline(mu, a, b, k))
            if n <= 4:
                for v in polyhedron_vertices(mu):
                    _same_point(v, _fresh(v))
    assert reached == set(Membership)
    assert foreign > 0


def _inflated(mu):
    """A point of P outside T, and two points of T whose segment leaves T."""
    return point(mu, (5, 5, 5), (5, 5, 5)), canonical_points(mu, 0)[0], canonical_points(mu, 1)[0]


def test_identity_retraction_fails_certificate(monkeypatch):
    mu = distance_from_entries(ALL_ONE)
    p, a, b = _inflated(mu)
    monkeypatch.setattr(geometry, "_lower", lambda m, col, row: (list(col), list(row)))
    for fn, args in ((retract_to_tight_span, (mu, p)), (geodesic_polyline, (mu, a, b, 2))):
        with pytest.raises(DomainError) as err:
            fn(*args)
        assert err.value.code == "InternalCertificate"


# The same identity retraction under -O, where an assert would be gone.
IDENTITY_LOWER = """
import sys
from dtspan import DomainError, canonical_points, distance_from_entries, geodesic_polyline, geometry, point
from dtspan import retract_to_tight_span

mu = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
a, b = canonical_points(mu, 0)[0], canonical_points(mu, 1)[0]
geometry._lower = lambda m, col, row: (list(col), list(row))
codes = []
for fn, args in ((retract_to_tight_span, (mu, point(mu, (5, 5, 5), (5, 5, 5)))), (geodesic_polyline, (mu, a, b, 2))):
    try:
        fn(*args)
        codes.append("passed")
    except DomainError as err:
        codes.append(err.code)
print(sys.flags.optimize, *codes)
"""


def test_identity_retraction_fails_certificate_under_optimize():
    src = str(Path(dtspan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", IDENTITY_LOWER],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    assert out.stdout.split() == ["1", "InternalCertificate", "InternalCertificate"]


def test_proper_subsets_are_yielded_lazily_in_order():
    for n in range(1, 7):
        subsets = geometry._proper_subsets(n)
        assert isinstance(subsets, Iterator)
        assert list(subsets) == _proper_subsets(n)
    # the first subset comes at once, before any of the 2^40 - 2 others
    assert next(geometry._proper_subsets(40)) == (0,)
