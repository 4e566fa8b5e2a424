"""Oriented-tree realizations: validation, evaluation, the three realization
classes with their round trips, and the split decomposition."""

import random
from fractions import Fraction

import pytest

from dtspan import (
    DomainError,
    OrientedTree,
    Realization,
    SplitTerm,
    check_directed_tree_metric,
    check_path_condition,
    check_tree_condition,
    congruence_witness,
    distance_from_entries,
    evaluate_realization,
    realize_directed_tree_metric,
    realize_path,
    realize_tree,
    recombine_splits,
    split_decomposition,
    splits_pairwise_compatible,
)
import dtspan.trees as trees
from dtspan.trees import (
    KINDS,
    is_directed_path,
    random_realization,
    tree_distance,
)
from oracles import (
    hungarian_search_unique,
    pairwise_evaluate_realization,
    pointwise_recombine_splits,
    random_distance,
)

F1 = Fraction(1)


def _path(*lengths):
    names = tuple(f"u{i}" for i in range(len(lengths) + 1))
    arcs = tuple(
        (names[i], names[i + 1], Fraction(l)) for i, l in enumerate(lengths)
    )
    return OrientedTree(names, arcs)


@pytest.mark.parametrize(
    "vertices, arcs, code",
    [
        ((), (), "NotATree"),
        (("a", "a"), (), "NotATree"),
        (("a", "b"), (("a", "a", F1),), "NotATree"),
        (("a", "b"), (), "NotATree"),  # edge count off by one
        (("a", "b", "c", "d"), (("a", "b", F1), ("c", "d", F1), ("a", "b", F1)), "NotATree"),
        (("a", "b"), (("a", "z", F1),), "UnknownVertex"),
        (("a", "b"), (("z", "b", F1),), "UnknownVertex"),
        (("a", "b"), (("a", "b", Fraction(-1)),), "NegativeEntry"),
        # tree_distance would add floats
        (("a", "b"), (("a", "b", 0.5),), "InputParseError"),
        (("a", "b"), (("a", "b", True),), "InputParseError"),
    ],
)
def test_oriented_tree_validation(vertices, arcs, code):
    with pytest.raises(DomainError) as err:
        OrientedTree(vertices, arcs)
    assert err.value.code == code


def test_realization_validation():
    tree = _path(1, 2)
    ok = Realization(tree, ("a", "b"), (("u0",), ("u2",)))
    assert ok.subtree_of("b") == ("u2",)
    cases = [
        ((("u0",),), ("a", "b"), "LengthMismatch"),
        ((("u0",), ("u2",)), ("a", "a"), "DuplicateLabel"),
        (((), ("u2",)), ("a", "b"), "EmptySubtree"),
        ((("zz",), ("u2",)), ("a", "b"), "UnknownVertex"),
        ((("u0", "u0"), ("u2",)), ("a", "b"), "DuplicateLabel"),
        ((("u0", "u2"), ("u1",)), ("a", "b"), "DisconnectedSubtree"),
    ]
    for subtrees, terminals, code in cases:
        with pytest.raises(DomainError) as err:
            Realization(tree, terminals, subtrees)
        assert err.value.code == code
    zero_edge = OrientedTree(("a", "b"), (("a", "b", Fraction(0)),))
    with pytest.raises(DomainError) as err:
        Realization(zero_edge, ("s",), (("a",),))
    assert err.value.code == "NonpositiveLength"


def test_tree_distance_is_one_way():
    tree = _path(1, 2)
    assert tree_distance(tree, "u0", "u2") == 3
    assert tree_distance(tree, "u2", "u0") == 0
    assert tree_distance(tree, "u1", "u1") == 0
    # int lengths are read as Fractions, so distances stay exact
    assert type(tree_distance(OrientedTree(("a", "b"), (("a", "b", 2),)), "a", "b")) is Fraction
    steps = tree.path_steps("u0", "u2")
    assert steps == [(F1, True), (Fraction(2), True)]
    assert tree.path_steps("u2", "u0") == [(Fraction(2), False), (F1, False)]
    with pytest.raises(DomainError) as err:
        tree_distance(tree, "u0", "zz")
    assert err.value.code == "UnknownVertex"


def test_is_directed_path():
    assert is_directed_path(OrientedTree(("a",), ()))
    assert is_directed_path(_path(1, 1, 2))
    zig = OrientedTree(("a", "b", "c"), (("a", "b", F1), ("c", "b", F1)))
    assert not is_directed_path(zig)
    star = OrientedTree(
        ("m", "a", "b", "c"), (("m", "a", F1), ("m", "b", F1), ("m", "c", F1))
    )
    assert not is_directed_path(star)


def test_evaluate_realization_frozen():
    tree = OrientedTree(("v0", "v1"), (("v0", "v1", F1),))
    r = Realization(tree, ("a", "b"), (("v0",), ("v1",)))
    mu = evaluate_realization(r)
    assert mu.labels == ("a", "b")
    assert mu.entries == ((Fraction(0), F1), (Fraction(0), Fraction(0)))


def _branching_realization(rng, nv: int, k: int) -> Realization:
    """A random oriented tree on nv vertices, each vertex hung off an earlier
    one, and k subtrees, each grown from a random vertex by adding a random
    neighbour of the vertices it holds, up to nv - 1 times."""
    names = tuple(f"u{i}" for i in range(nv))
    arcs, nbrs = [], {v: [] for v in names}
    for i in range(1, nv):
        parent, child = names[rng.randrange(i)], names[i]
        length = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        arcs.append((parent, child, length) if rng.random() < 0.5 else (child, parent, length))
        nbrs[parent].append(child)
        nbrs[child].append(parent)
    subtrees = []
    for _ in range(k):
        sub = [rng.choice(names)]
        for _ in range(rng.randrange(nv)):
            frontier = sorted({w for v in sub for w in nbrs[v]} - set(sub))
            if not frontier:
                break
            sub.append(rng.choice(frontier))
        subtrees.append(tuple(sub))
    return Realization(OrientedTree(names, tuple(arcs)), tuple(f"s{i}" for i in range(k)), tuple(subtrees))


def test_evaluate_realization_matches_pairwise_paths():
    # the seeded draws of all three kinds: directed paths, interval subtrees
    # on a path, singletons on a branching tree
    for kind in KINDS:
        for n in range(1, 13):
            for seed in range(5):
                r = random_realization(kind, n, seed)
                assert evaluate_realization(r).entries == pairwise_evaluate_realization(r).entries


def test_evaluate_realization_matches_pairwise_paths_on_branching_subtrees():
    # none of the three kinds has multi-vertex subtrees on a branching tree,
    # where a walk out of F_s leaves it at different members for different
    # vertices
    rng = random.Random(83)
    multi = 0
    for _ in range(1000):
        r = _branching_realization(rng, rng.randint(1, 10), rng.randint(1, 6))
        multi += sum(len(sub) > 1 for sub in r.subtrees)
        assert evaluate_realization(r).entries == pairwise_evaluate_realization(r).entries
    assert multi > 1500


def test_evaluate_realization_walks_once_per_subtree(monkeypatch):
    walks = []
    real = trees._walk

    def counted(tree, starts, allowed):
        walks.append(tuple(starts))
        return real(tree, starts, allowed)

    r = _branching_realization(random.Random(5), 12, 7)
    monkeypatch.setattr(trees, "_walk", counted)
    evaluate_realization(r)
    assert walks == list(r.subtrees)


def test_evaluate_singleton_realization_at_n40_matches_its_splits():
    r = random_realization("singleton", 40, 3)
    assert evaluate_realization(r).entries == recombine_splits(split_decomposition(r), r.terminals).entries


def test_realize_path_collapses_duplicates():
    # two indistinguishable elements share a vertex in the realization
    dup = distance_from_entries([[0, 1, 1], [0, 0, 0], [0, 0, 0]], ("a", "b", "c"))
    r = realize_path(dup)
    assert is_directed_path(r.tree)
    assert r.subtree_of("b") == r.subtree_of("c")
    assert evaluate_realization(r).entries == dup.entries


REALIZERS = {
    "directed_path": realize_path,
    "path_subtrees": realize_tree,
    "singleton": realize_directed_tree_metric,
}


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip(kind):
    realize = REALIZERS[kind]
    for n in range(1, 6):
        for seed in range(6):
            r = random_realization(kind, n, seed)
            mu = evaluate_realization(r)
            back = realize(mu)
            assert evaluate_realization(back).entries == mu.entries
            assert back.terminals == mu.labels
            # structural promises of each class
            if kind == "directed_path":
                assert is_directed_path(back.tree)
            if kind == "singleton":
                assert all(len(sub) == 1 for sub in back.subtrees)
            # evaluated matrices satisfy the matching characterization
            if kind == "directed_path":
                ok, _ = check_path_condition(mu)
                assert ok
            ok, _ = check_tree_condition(mu)
            assert ok
            if kind == "singleton":
                assert check_directed_tree_metric(mu)


def test_random_realization_deterministic():
    a = random_realization("path_subtrees", 4, 17)
    b = random_realization("path_subtrees", 4, 17)
    assert a == b
    with pytest.raises(DomainError) as err:
        random_realization("hedge", 3, 0)
    assert err.value.code == "UsageError"
    with pytest.raises(DomainError) as err:
        random_realization("singleton", 0, 0)
    assert err.value.code == "UsageError"


def test_singleton_metrics_congruent_to_symmetrization():
    # a directed tree metric differs from a symmetric tree metric only by
    # a vertex potential
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 5)
        r = random_realization("singleton", n, rng.randrange(10**6))
        mu = evaluate_realization(r)
        sym_entries = [
            [
                (mu.entries[i][j] + mu.entries[j][i]) / 2
                for j in range(mu.n)
            ]
            for i in range(mu.n)
        ]
        sym = distance_from_entries(sym_entries, mu.labels)
        assert congruence_witness(mu, sym) is not None


def test_split_decomposition_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 5)
        r = random_realization("singleton", n, rng.randrange(10**6))
        mu = evaluate_realization(r)
        terms = split_decomposition(r)
        assert splits_pairwise_compatible(terms)
        rec = recombine_splits(terms, mu.labels)
        assert rec.entries == mu.entries
        for t in terms:
            assert t.coeff > 0
            assert set(t.side_a) | set(t.side_b) <= set(mu.labels)


def test_recombine_splits_matches_pointwise_sums():
    # block sums equal the per-entry sums: on the terms of the split
    # decomposition where the subtrees are single vertices, and on random
    # splits of the terminals (sides that need not cover them) given in a
    # shuffled label order, for every kind
    rng = random.Random(39)

    def random_terms(labels):
        terms = []
        for _ in range(rng.randint(0, 12) if len(labels) > 1 else 0):
            a = rng.sample(labels, rng.randint(1, len(labels) - 1))
            rest = [s for s in labels if s not in a]
            b = rng.sample(rest, rng.randint(1, len(rest)))
            terms.append(SplitTerm(tuple(a), tuple(b), Fraction(rng.randint(0, 8), rng.randint(1, 4))))
        return terms

    cases = [(kind, n) for kind in KINDS for n in range(1, 31)] + [("singleton", 60)]
    for kind, n in cases:
        r = random_realization(kind, n, n)
        labels = list(r.terminals)
        rng.shuffle(labels)
        term_sets = [random_terms(labels)]
        if kind != "path_subtrees":
            term_sets.append(split_decomposition(r))
        for terms in term_sets:
            got = recombine_splits(terms, labels)
            assert got == pointwise_recombine_splits(terms, labels)
            assert all(type(x) is Fraction for row in got.entries for x in row)


def test_split_decomposition_needs_singletons():
    tree = _path(1, 2)
    r = Realization(tree, ("a", "b"), (("u0", "u1"), ("u2",)))
    with pytest.raises(DomainError) as err:
        split_decomposition(r)
    assert err.value.code == "NonSingletonSubtrees"


def test_split_term_validation():
    with pytest.raises(DomainError) as err:
        SplitTerm((), ("a",), F1)
    assert err.value.code == "EmptySplitSide"
    with pytest.raises(DomainError) as err:
        SplitTerm(("a",), ("a",), F1)
    assert err.value.code == "DuplicateLabel"
    with pytest.raises(DomainError) as err:
        SplitTerm(("a",), ("b",), Fraction(-1))
    assert err.value.code == "NegativeEntry"
    with pytest.raises(DomainError) as err:
        SplitTerm(("a",), ("b",), 0.5)
    assert err.value.code == "InputParseError"
    assert type(SplitTerm(("a",), ("b",), 2).value("a", "b")) is Fraction


def test_incompatible_splits_detected():
    # crossing bipartitions of four labels
    t1 = SplitTerm(("a", "b"), ("c", "d"), F1)
    t2 = SplitTerm(("a", "c"), ("b", "d"), F1)
    assert not splits_pairwise_compatible([t1, t2])
    t3 = SplitTerm(("a",), ("b", "c", "d"), F1)
    assert splits_pairwise_compatible([t1, t3])


def test_realization_gates():
    all_one = distance_from_entries([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(DomainError) as err:
        realize_path(all_one)
    assert err.value.code == "DimensionTooHigh"
    with pytest.raises(DomainError) as err:
        realize_directed_tree_metric(
            distance_from_entries([[0, 1, 3], [9, 0, 1], [9, 9, 0]])
        )
    assert err.value.code == "NotAMetric"
    # rank 3 needs five points; direct sum of one-way pairs plus coupling
    rng = random.Random(47)
    found = False
    for _ in range(400):
        n = 4
        entries = [
            [0 if i == j else Fraction(rng.randint(0, 5)) for j in range(n)]
            for i in range(n)
        ]
        mu = distance_from_entries(entries)
        from dtspan import tropical_rank

        if tropical_rank(mu) > 2:
            with pytest.raises(DomainError) as err:
                realize_tree(mu)
            assert err.value.code == "RankTooHigh"
            found = True
            break
    assert found


def _gate(realize, mu):
    try:
        back = realize(mu)
    except DomainError as err:
        return str(err)
    assert evaluate_realization(back).entries == mu.entries
    return None


def test_realize_gates_match_dimension_and_rank():
    # the gates stop the minor search at size 2 and 3; the Hungarian search
    # over every minor size says what they must decide
    rng = random.Random(71)
    seen = set()
    for i in range(60):
        n = 1 + i % 5
        kind = i // 5 % 4
        if kind == 0:
            mu = random_distance(rng, n)
        elif kind == 1:
            mu = random_distance(rng, n, top=2, zeros=0.6, den=1)
        elif kind == 2:
            mu = random_distance(rng, n, top=3, zeros=0.8, den=1)
        else:
            mu = evaluate_realization(random_realization(KINDS[i % 3], n, rng.randrange(10**6)))
        dim = hungarian_search_unique(mu, "MT")[0]
        rank = hungarian_search_unique(mu, "PMT")[0]
        # the gate's own error, not skeleton_graph's DimensionTooHigh behind it
        assert _gate(realize_path, mu) == ("DimensionTooHigh: tight span dimension exceeds 1" if dim >= 2 else None)
        assert _gate(realize_tree, mu) == ("RankTooHigh: tropical rank exceeds 2" if rank >= 3 else None)
        seen.update({("path", dim >= 2), ("tree", rank >= 3)})
    assert len(seen) == 4
