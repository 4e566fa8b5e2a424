"""Distance-level checks: validation, cycles, congruence, and the scalar
condition checkers pinned against the matching-based criteria."""

import random
from fractions import Fraction
from math import lcm

import pytest

from dtspan import (
    DomainError,
    MatchingInstance,
    check_directed_tree_metric,
    check_path_condition,
    check_tree_condition,
    congruence_witness,
    cycle_length,
    dim_tight_span,
    dim_tight_span_witness,
    distance_from_entries,
    evaluate_realization,
    is_metric,
    random_realization,
    tropical_rank,
    tropical_rank_witness,
    validate_distance,
)
from dtspan import metrics
from dtspan.trees import KINDS
from oracles import (
    fraction_directed_tree_metric,
    fraction_is_metric,
    fraction_path_condition,
    random_distance,
    random_metric,
    scan_cases,
    search_unique_top_down,
    sextuple_scan,
)

ALL_ONE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_validate_accepts_rational_strings():
    mu = validate_distance([[0, "1/2"], ["3/2", 0]], labels=("a", "b"))
    assert mu.value("a", "b") == Fraction(1, 2)
    assert mu.value(1, 0) == Fraction(3, 2)
    assert mu.labels == ("a", "b")


def test_bools_are_not_indices():
    # as in the rational parser, True never reads as 1
    mu = distance_from_entries([[0, 1], [2, 0]])
    for call in (
        lambda: mu.value(True, False),
        lambda: mu.value(1, False),
        lambda: MatchingInstance.from_distance(mu, (True,), (0,)),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "UnknownElement"
    assert mu.value(1, 0) == 2


def test_unknown_and_duplicate_labels_are_quoted_short():
    # a message quotes a bounded prefix of a huge label, not all of it
    huge = "y" * 5000
    mu = distance_from_entries([[0, 1], [2, 0]])
    for call, code in (
        (lambda: mu.value(huge, 0), "UnknownElement"),
        (lambda: distance_from_entries([[0, 1], [2, 0]], (huge, huge)), "DuplicateLabel"),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == code
        assert len(err.value.message) < 200


def test_validate_default_labels():
    mu = distance_from_entries(ALL_ONE)
    assert mu.labels == ("x0", "x1", "x2")


@pytest.mark.parametrize(
    "matrix,labels,code",
    [
        ([[0, 1]], None, "NonSquare"),
        ([], None, "NonSquare"),
        ([[0, -1], [1, 0]], None, "NegativeEntry"),
        ([[1, 1], [1, 0]], None, "NonzeroDiagonal"),
        ([[0, 0.5], [1, 0]], None, "InputParseError"),
        ([[0, 1], [1, 0]], ("a", "a"), "DuplicateLabel"),
        ([[0, 1], [1, 0]], ("a",), "NonSquare"),
        # one rational parser for the library and the JSON layer: True is not 1
        ([[True]], None, "InputParseError"),
        # an int label would read as an index: value(0, 1) would give 1, not 2
        ([[0, 1], [2, 0]], (1, 0), "InputParseError"),
    ],
)
def test_validate_rejects_malformed(matrix, labels, code):
    with pytest.raises(DomainError) as err:
        validate_distance(matrix, labels)
    assert err.value.code == code


def test_is_metric():
    assert is_metric(distance_from_entries(ALL_ONE))
    # the long hop is 3 but the two short hops only add up to 2
    assert not is_metric(distance_from_entries([[0, 1, 3], [9, 0, 1], [9, 9, 0]]))


def test_transpose_and_restrict():
    mu = distance_from_entries([[0, 1, 2], [3, 0, 4], [5, 6, 0]], labels=("a", "b", "c"))
    assert mu.transpose().value("a", "b") == mu.value("b", "a")
    sub = mu.restrict(("c", "a"))
    assert sub.labels == ("c", "a")
    assert sub.value("c", "a") == 5
    assert sub.value("a", "c") == 2


def test_cycle_length_frozen():
    mu = distance_from_entries(ALL_ONE)
    assert cycle_length(mu, ("x0", "x1", "x2")) == 3
    assert cycle_length(mu, ("x0",)) == 0
    assert cycle_length(mu, (0, 1)) == 2
    with pytest.raises(DomainError):
        cycle_length(mu, ())


def test_cycle_length_nonnegative_and_rotation_invariant():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 5)
        mu = random_distance(rng, n)
        k = rng.randint(1, 6)
        cyc = tuple(rng.randrange(n) for _ in range(k))
        total = cycle_length(mu, cyc)
        assert total >= 0
        r = rng.randrange(k)
        assert cycle_length(mu, cyc[r:] + cyc[:r]) == total


def test_congruence_preserves_cycle_lengths():
    # a potential shift keeps every cycle length; 1000 random cycles overall
    rng = random.Random(202)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 5)
        d = random_metric(rng, n)
        alpha = [Fraction(rng.randint(-2, 2), 24) for _ in range(n)]
        d2 = distance_from_entries(
            [
                [d.entries[x][y] + alpha[x] - alpha[y] for y in range(n)]
                for x in range(n)
            ],
            d.labels,
        )
        w = congruence_witness(d, d2)
        assert w is not None
        for x in range(n):
            for y in range(n):
                assert d.entries[x][y] == d2.entries[x][y] - w[d.labels[x]] + w[d.labels[y]]
        for _ in range(25):
            k = rng.randint(1, 6)
            cyc = tuple(rng.randrange(n) for _ in range(k))
            assert cycle_length(d, cyc) == cycle_length(d2, cyc)
            checked += 1


def test_congruence_witness_none_when_cycles_differ():
    d = distance_from_entries(ALL_ONE)
    d2 = distance_from_entries([[0, 2, 1], [1, 0, 1], [1, 1, 0]])
    assert congruence_witness(d, d2) is None


def test_congruence_requires_common_ground():
    d = distance_from_entries([[0, 1], [1, 0]], labels=("a", "b"))
    d2 = distance_from_entries([[0, 1], [1, 0]], labels=("a", "c"))
    with pytest.raises(DomainError) as err:
        congruence_witness(d, d2)
    assert err.value.code == "GroundSetMismatch"


def test_path_condition_frozen():
    ok, witness = check_path_condition(distance_from_entries(ALL_ONE))
    assert not ok
    assert witness == (0, 1, 1, 0)
    one_way = distance_from_entries([[0, 1], [0, 0]])
    assert check_path_condition(one_way) == (True, None)


def test_tree_condition_frozen():
    assert check_tree_condition(distance_from_entries(ALL_ONE)) == (True, None)
    # symmetric line metric has tropical rank 2, so it passes too
    line = distance_from_entries([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert check_tree_condition(line) == (True, None)
    # generic 3x3: the cyclic matching 0->1, 1->2, 2->0 (sum 15) is the strict best
    cyclic = distance_from_entries([[0, 5, 1], [1, 0, 5], [5, 1, 0]])
    assert check_tree_condition(cyclic) == (False, (0, 1, 2, 1, 2, 0))
    assert sextuple_scan(cyclic) == (False, (0, 1, 2, 1, 2, 0))


def test_tree_condition_matches_sextuple_scan():
    # the minor scan returns exactly the n**6 scan's lex-smallest violator
    outcomes = set()
    for mu in scan_cases(seed=505):
        got = check_tree_condition(mu)
        assert got == sextuple_scan(mu)
        outcomes.add((mu.n, got[0]))
    assert {(4, False), (4, True), (5, False), (5, True)} <= outcomes


def test_checkers_match_scans_at_n7_and_n8():
    # both checkers read their violators off the minor search; the Fraction
    # scans over all n**4 and n**6 tuples are the reference (n <= 6 is
    # pinned by the tests above).  A rank <= 2 input sends the sextuple scan
    # through every tuple, 3-9 s at n = 7, 8, so the draws hold two: the
    # n = 7 metric and the n = 8 realization.  The zero-heavy draws tie
    # often, which tests the order among violators.
    rng = random.Random(911)
    outcomes = set()
    for n in (7, 8):
        draws = [
            random_distance(rng, n),
            random_distance(rng, n, top=2, zeros=0.6, den=1),
            random_metric(rng, n, zeros=0.2),
        ]
        if n == 8:
            draws.append(evaluate_realization(random_realization("path_subtrees", n, rng.randrange(10**6))))
        for mu in draws:
            path, tree = check_path_condition(mu), check_tree_condition(mu)
            assert path == fraction_path_condition(mu)
            assert tree == sextuple_scan(mu)
            outcomes.update({("path", path[0]), ("tree", tree[0])})
    assert len(outcomes) == 4


def test_conditions_match_matching_criteria():
    rng = random.Random(303)
    for _ in range(120):
        n = rng.randint(1, 4)
        mu = (
            random_distance(rng, n)
            if rng.random() < 0.5
            else random_metric(rng, n, zeros=0.1)
        )
        ok_path, wit_path = check_path_condition(mu)
        assert ok_path == (dim_tight_span(mu) <= 1)
        ok_tree, wit_tree = check_tree_condition(mu)
        assert ok_tree == (tropical_rank(mu) <= 2)
        e = mu.entries
        if wit_path is not None:
            s, t, u, v = wit_path
            assert e[s][u] + e[t][v] > max(
                e[s][v] + e[t][u], e[s][u], e[s][v], e[t][u], e[t][v]
            )
        if wit_tree is not None:
            x, y, z, u, v, w = wit_tree
            assert e[x][u] + e[y][v] + e[z][w] > max(
                e[x][u] + e[y][w] + e[z][v],
                e[x][v] + e[y][u] + e[z][w],
                e[x][v] + e[y][w] + e[z][u],
                e[x][w] + e[y][u] + e[z][v],
                e[x][w] + e[y][v] + e[z][u],
            )


def test_directed_tree_metric_matches_tree_condition_on_metrics():
    rng = random.Random(404)
    for _ in range(150):
        n = rng.randint(1, 4)
        mu = random_metric(rng, n, zeros=0.2)
        assert check_directed_tree_metric(mu) == check_tree_condition(mu)[0]


def test_directed_tree_metric_rejects_nonmetric():
    with pytest.raises(DomainError) as err:
        check_directed_tree_metric(
            distance_from_entries([[0, 1, 3], [9, 0, 1], [9, 9, 0]])
        )
    assert err.value.code == "NotAMetric"


def _outcome(fn, mu):
    try:
        return fn(mu)
    except DomainError as err:
        return err.code


def test_integer_scans_with_mixed_denominators():
    # denominators 1..7 differing between entries, so the scale L of the
    # integer route exceeds every single denominator on most draws; the
    # scans and the rank search must agree exactly with the Fraction routes.
    # n = 3..6 is drawn three times as often as n = 1, 2, where L is rarely
    # wide.  Tree realizations (arc denominators 1..4, rarely wide) give the
    # directed tree metrics; they stop at n = 5 because their rank 2 sends
    # the top-down oracle through every minor.
    rng = random.Random(808)
    generic = [(kind, n) for n in range(1, 7) for kind in ("distance", "metric")]
    generic += [(kind, n) for kind, n in generic if n >= 3] * 2
    wide = 0
    outcomes = set()
    for kind, n in generic + [("tree", n) for n in range(2, 6)]:
        if kind == "distance":
            mu = random_distance(rng, n, zeros=0.3, den=7)
        elif kind == "metric":
            mu = random_metric(rng, n, zeros=0.2, den=7)
        else:
            mu = evaluate_realization(random_realization(rng.choice(KINDS), n, rng.randrange(10**6)))
        dens = [x.denominator for row in mu.entries for x in row]
        wide += lcm(*dens) > max(dens)
        assert dim_tight_span_witness(mu) == search_unique_top_down(mu, "MT")
        assert tropical_rank_witness(mu) == search_unique_top_down(mu, "PMT")
        assert is_metric(mu) == fraction_is_metric(mu)
        path = check_path_condition(mu)
        assert path == fraction_path_condition(mu)
        tree = check_tree_condition(mu)
        assert tree == sextuple_scan(mu)
        dtm = _outcome(check_directed_tree_metric, mu)
        assert dtm == _outcome(fraction_directed_tree_metric, mu)
        outcomes.update({("path", path[0]), ("tree", tree[0]), ("dtm", dtm)})
    assert wide >= 20  # of 32
    assert outcomes == {
        ("path", True),
        ("path", False),
        ("tree", True),
        ("tree", False),
        ("dtm", True),
        ("dtm", False),
        ("dtm", "NotAMetric"),
    }


def test_distance_is_scaled_once(monkeypatch):
    # the checkers and both searches read the one (L, L * mu) the distance keeps
    calls = []
    real = metrics.lcm_scaled
    monkeypatch.setattr(metrics, "lcm_scaled", lambda values: calls.append(1) or real(values))
    entries = [[0, "1/2", 3, 1], ["2/3", 0, 1, "1/4"], [1, "5/6", 0, 2], [0, 1, "3/5", 0]]
    mu = distance_from_entries(entries)
    check_path_condition(mu)
    check_tree_condition(mu)
    tropical_rank_witness(mu)
    dim_tight_span_witness(mu)
    assert len(calls) == 1
    again = distance_from_entries(entries)
    assert again == mu and hash(again) == hash(mu)
