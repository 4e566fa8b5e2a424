"""Complex enumeration: frozen small examples, a brute-force vertex
cross-check, and consistency between face data and the pointwise geometry."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from dtspan import (
    DomainError,
    EqualityGraph,
    Membership,
    canonical_section_membership,
    classify_membership,
    dim_tight_span_witness,
    distance_from_entries,
    enumerate_qplus,
    enumerate_section,
    enumerate_tight_span,
    equality_graph,
    face_dimension,
    point,
    skeleton_graph,
    tropical_rank_witness,
)
from dtspan.complexes import _vertex, _vertex_rays, polyhedron_vertices
from oracles import (
    affine_rank,
    binding_mask,
    filtered_subcomplex,
    pairwise_maximal_faces,
    random_distance,
    random_points_of_every_class,
    random_t_point,
    set_components,
    set_free_components,
    set_membership,
    set_tight_edges,
    vertex_oracle,
    witness_tight_span,
    zero_set_polyhedron_vertices,
)

ALL_ONE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
T_NE_QPLUS = [[0, 0, 0], [1, 0, 1], [1, 1, 0]]


def _vertex_tuples(complex_):
    return [(v.col, v.row) for v in complex_.vertices]


def test_all_one_tight_span_frozen():
    mu = distance_from_entries(ALL_ONE)
    t = enumerate_tight_span(mu)
    one = Fraction(1)
    zero = Fraction(0)
    assert _vertex_tuples(t) == [
        ((zero, zero, zero), (one, one, one)),
        ((zero, one, one), (zero, one, one)),
        ((one, zero, one), (one, zero, one)),
        ((one, one, zero), (one, one, zero)),
        ((one, one, one), (zero, zero, zero)),
    ]
    assert [f.dim for f in t.faces] == [0] * 5 + [1] * 7 + [2] * 3
    assert t.dim == 2
    assert t.maximal_faces() == [12, 13, 14]
    # the three squares pairwise meet in the same diagonal edge
    for i, j in combinations((12, 13, 14), 2):
        assert set(t.faces[i].vertex_ids) & set(t.faces[j].vertex_ids) == {0, 4}
    assert t.faces[8].vertex_ids == (0, 4) and t.faces[8].dim == 1


def test_all_one_qplus_equals_tight_span():
    mu = distance_from_entries(ALL_ONE)
    t, q = enumerate_tight_span(mu), enumerate_qplus(mu)
    assert _vertex_tuples(q) == _vertex_tuples(t)
    assert [(f.dim, f.vertex_ids) for f in q.faces] == [
        (f.dim, f.vertex_ids) for f in t.faces
    ]


def test_all_one_section_frozen():
    mu = distance_from_entries(ALL_ONE)
    s = enumerate_section(mu)
    one = Fraction(1)
    zero = Fraction(0)
    assert _vertex_tuples(s) == [
        ((zero, one, one), (zero, one, one)),
        ((one, zero, one), (one, zero, one)),
        ((one, one, zero), (one, one, zero)),
        ((one, one, one), (zero, zero, zero)),
    ]
    assert [f.dim for f in s.faces] == [0, 0, 0, 0, 1, 1, 1]
    sk = skeleton_graph(s)
    assert sk.arcs == ((0, 3, one), (1, 3, one), (2, 3, one))


def test_tight_span_strictly_larger_than_qplus():
    mu = distance_from_entries(T_NE_QPLUS)
    t, q = enumerate_tight_span(mu), enumerate_qplus(mu)
    assert len(t.vertices) == 4 and len(q.vertices) == 3
    assert len(t.faces) == 11 and len(q.faces) == 5


def test_vertices_match_brute_force():
    rng = random.Random(12)
    mats = [ALL_ONE, T_NE_QPLUS, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    instances = [distance_from_entries(m) for m in mats]
    for _ in range(3):
        instances.append(random_distance(rng, 3, zeros=0.3))
    for _ in range(40):
        instances.append(random_distance(rng, rng.randint(1, 2), zeros=0.3))
    for mu in instances:
        fast = [p.key() for p in polyhedron_vertices(mu)]
        slow = [p.key() for p in vertex_oracle(mu)]
        assert fast == slow


def test_vertices_match_zero_set_route():
    # carried zero sets give exactly the rays of recomputed ones
    rng = random.Random(14)
    for n, count in ((1, 10), (2, 10), (3, 8), (4, 4), (5, 2)):
        for k in range(count):
            mu = random_distance(rng, n, zeros=0.3 if k % 2 else 0.0)
            assert polyhedron_vertices(mu) == zero_set_polyhedron_vertices(mu)


def test_faces_match_witness_route():
    # faces read off binding sets equal faces checked at a witness point
    rng = random.Random(15)
    for n, count in ((1, 6), (2, 12), (3, 12), (4, 4)):
        for k in range(count):
            mu = random_distance(rng, n, zeros=0.3 if k % 2 else 0.0)
            t = enumerate_tight_span(mu)
            vertices, faces = witness_tight_span(mu)
            assert t.vertices == tuple(vertices)
            assert [
                (f.vertex_ids, f.dim, f.edges, f.zero_cols, f.zero_rows, f.directions)
                for f in t.faces
            ] == faces


def test_binding_masks_and_components_match_oracles():
    # each vertex's mask from double description equals its binding set
    # recomputed in Fractions, and the bitmask component search equals the
    # set-based one on every face and at points of T
    rng = random.Random(18)
    for n, count in ((2, 12), (3, 12), (4, 6), (5, 2)):
        for k in range(count):
            den = 1 if k % 2 else 5
            mu = random_distance(rng, n, zeros=0.3 if k % 3 == 0 else 0.0, den=den)
            scale, rays = _vertex_rays(mu)
            assert len(rays) == len(polyhedron_vertices(mu))
            for r, b in rays:
                assert b == binding_mask(mu, _vertex(mu, scale, r))
            t = enumerate_tight_span(mu)
            for f in t.faces:
                g = EqualityGraph(n, frozenset(f.edges))
                assert set(g.components()) == set(set_components(n, f.edges))
                assert list(f.directions) == set_free_components(n, f.edges, f.zero_cols, f.zero_rows)
            for _ in range(4):
                p = random_t_point(rng, mu)
                zc = [s for s in range(n) if p.col[s] == 0]
                zr = [s for s in range(n) if p.row[s] == 0]
                d, dirs = face_dimension(mu, p)
                assert dirs == set_free_components(n, equality_graph(mu, p).edges, zc, zr)
                assert d == len(dirs)
    # membership, tight couplings and face dimension, all read from one
    # binding mask per point, against the set oracles on points of every
    # class, n = 1..5, integer and rational entries
    seen = {}
    for n, count in ((1, 6), (2, 12), (3, 16), (4, 12), (5, 8)):
        for k in range(count):
            mu = random_distance(rng, n, zeros=0.3 if k % 3 == 0 else 0.0, den=1 if k % 2 else 5)
            for p in random_points_of_every_class(rng, mu):
                where = classify_membership(mu, p)
                assert where is set_membership(mu, p)
                seen.setdefault(n, set()).add(where)
                if where is Membership.OUTSIDE:
                    with pytest.raises(DomainError) as err:
                        equality_graph(mu, p)
                    assert err.value.code == "NotInPolyhedron"
                else:
                    assert equality_graph(mu, p).edges == set_tight_edges(mu, p)
                if where not in (Membership.T_NOT_QPLUS, Membership.QPLUS):
                    with pytest.raises(DomainError) as err:
                        face_dimension(mu, p)
                    assert err.value.code == "NotInTightSpan"
                    continue
                zc = [s for s in range(n) if p.col[s] == 0]
                zr = [s for s in range(n) if p.row[s] == 0]
                d, dirs = face_dimension(mu, p)
                assert dirs == set_free_components(n, set_tight_edges(mu, p), zc, zr)
                assert d == len(dirs)
    # for n <= 2, T = Q+: an uncovered zero column leaves every row
    # positive, and a positive row t is then covered only by (t, t), which
    # forces that row to zero
    assert all(seen[n] == set(Membership) - {Membership.T_NOT_QPLUS} for n in (1, 2))
    assert all(seen[n] == set(Membership) for n in (3, 4, 5))


def test_integer_double_description_with_mixed_denominators():
    # denominators 1..7 differing between entries, so the common scale of
    # the integer route exceeds every single denominator on most draws
    rng = random.Random(16)
    wide = 0
    for n, count in ((2, 12), (3, 12), (4, 6), (5, 2)):
        for k in range(count):
            mu = random_distance(rng, n, zeros=0.3 if k % 2 else 0.1, den=7)
            dens = [x.denominator for row in mu.entries for x in row]
            wide += lcm(*dens) > max(dens)
            assert polyhedron_vertices(mu) == zero_set_polyhedron_vertices(mu)
            if n > 4:
                continue
            t = enumerate_tight_span(mu)
            vertices, faces = witness_tight_span(mu)
            assert t.vertices == tuple(vertices)
            assert [
                (f.vertex_ids, f.dim, f.edges, f.zero_cols, f.zero_rows, f.directions)
                for f in t.faces
            ] == faces
    assert wide >= 20


def _subcomplex_draws(seed: int):
    """Seeded distances on n = 1..5 of three kinds in turn: integer entries,
    rational entries over denominators 1..5, and zero-heavy entries."""
    rng = random.Random(seed)
    for n, count in ((1, 3), (2, 9), (3, 12), (4, 9), (5, 3)):
        for k in range(count):
            kind = k % 3
            yield random_distance(rng, n, zeros=(0.1, 0.2, 0.6)[kind], den=(1, 5, 2)[kind])


def test_subcomplexes_match_filtered_route():
    # Q+ and the section, assembled from the vertices and faces that pass
    # their mask test, equal the faces of T filtered by set tests with the
    # used vertices renumbered
    cut = {"Qplus": 0, "Section": 0}
    for mu in _subcomplex_draws(81):
        t = parent = enumerate_tight_span(mu)
        for enumerate_, which in ((enumerate_qplus, "Qplus"), (enumerate_section, "Section")):
            got, want = enumerate_(mu), filtered_subcomplex(t, which)
            assert [v.key() for v in got.vertices] == [v.key() for v in want.vertices]
            assert got.faces == want.faces
            assert got.maximal_faces() == want.maximal_faces()
            assert got == want
            cut[which] += len(got.faces) < len(parent.faces)
            parent = got
    # on many draws each test drops faces of the complex it is cut from
    assert min(cut.values()) >= 10


def test_maximal_faces_match_pairwise_scan():
    for mu in _subcomplex_draws(82):
        for cx in (enumerate_tight_span(mu), enumerate_qplus(mu), enumerate_section(mu)):
            assert cx.maximal_faces() == pairwise_maximal_faces(cx)


def test_vertex_membership_classes():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.3)
        t = enumerate_tight_span(mu)
        for v in t.vertices:
            assert classify_membership(mu, v) in (
                Membership.T_NOT_QPLUS,
                Membership.QPLUS,
            )
        q = enumerate_qplus(mu)
        for v in q.vertices:
            assert classify_membership(mu, v) is Membership.QPLUS
        s = enumerate_section(mu)
        for v in s.vertices:
            assert canonical_section_membership(mu, v)
        # vertex sets nest with the subcomplex chain
        tkeys = {v.key() for v in t.vertices}
        qkeys = {v.key() for v in q.vertices}
        skeys = {v.key() for v in s.vertices}
        assert skeys <= qkeys <= tkeys


def test_face_dims_match_affine_rank_and_local_dimension():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.3)
        t = enumerate_tight_span(mu)
        for f in t.faces:
            corners = [t.vertices[i] for i in f.vertex_ids]
            assert affine_rank(corners) == f.dim
            pts = [v.coords() for v in corners]
            avg = [sum(c) / len(pts) for c in zip(*pts)]
            witness = point(mu, avg[:n], avg[n:])
            d, dirs = face_dimension(mu, witness)
            assert d == f.dim
            assert tuple(sorted(dirs)) == tuple(sorted(f.directions))


def test_dimension_matches_matching_criteria():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.25)
        t = enumerate_tight_span(mu)
        dim, _ = dim_tight_span_witness(mu)
        assert t.dim == dim
        s = enumerate_section(mu)
        rank, _ = tropical_rank_witness(mu)
        assert s.dim == rank - 1


def test_element_subcomplexes_agree():
    # faces where an element's two coordinates vanish form the same complex
    # whether carved out of T, Q+, or the section
    def fingerprints(cx, s):
        out = set()
        for i in cx.subcomplex_elements(s):
            f = cx.faces[i]
            out.add((f.dim, frozenset(cx.vertices[j].key() for j in f.vertex_ids)))
        return out

    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.3)
        t, q, s = enumerate_tight_span(mu), enumerate_qplus(mu), enumerate_section(mu)
        for elt in range(n):
            ft = fingerprints(t, elt)
            assert ft == fingerprints(q, elt) == fingerprints(s, elt)


def test_skeleton_rejects_high_dimension():
    mu = distance_from_entries(ALL_ONE)
    with pytest.raises(DomainError) as err:
        skeleton_graph(enumerate_tight_span(mu))
    assert err.value.code == "DimensionTooHigh"


def test_skeleton_arc_lengths_are_distances():
    rng = random.Random(61)
    done = 0
    while done < 15:
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.3)
        s = enumerate_section(mu)
        if s.dim > 1:
            continue
        done += 1
        from dtspan import dinf

        sk = skeleton_graph(s)
        for tail, head, length in sk.arcs:
            assert length > 0
            assert dinf(s.vertices[tail], s.vertices[head]) == length
            assert dinf(s.vertices[head], s.vertices[tail]) == 0


def test_enumeration_cap():
    rng = random.Random(71)
    mu = random_distance(rng, 6)
    with pytest.raises(DomainError) as err:
        enumerate_tight_span(mu)
    assert err.value.code == "GroundSetTooLarge"
    for enumerate_ in (enumerate_qplus, enumerate_section):
        with pytest.raises(DomainError) as err:
            enumerate_(mu)
        assert err.value.code == "GroundSetTooLarge"
