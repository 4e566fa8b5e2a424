"""Matching-based dimension and tropical rank, cross-checked against full
matching enumeration on small instances."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from dtspan import (
    DomainError,
    MatchingInstance,
    dim_tight_span,
    dim_tight_span_witness,
    distance_from_entries,
    evaluate_realization,
    is_unique_optimum,
    max_matching,
    random_realization,
    tropical_rank,
    tropical_rank_witness,
)
from dtspan.metrics import _minor_optima, scaled_entries
from dtspan.trees import KINDS
from oracles import (
    brute_force_unique,
    hungarian_search_unique,
    random_distance,
    scan_cases,
    search_unique_top_down,
)

ALL_ONE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def _random_instance(rng, k):
    w = tuple(
        tuple(Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(k))
        for _ in range(k)
    )
    return MatchingInstance(tuple(range(k)), tuple(range(k)), w)


def _brute_best(instance):
    from itertools import permutations

    k = instance.k
    return max(
        sum(instance.weights[i][p[i]] for i in range(k))
        for p in permutations(range(k))
    )


def test_instance_validation():
    with pytest.raises(DomainError) as err:
        MatchingInstance((), (), ())
    assert err.value.code == "NonSquare"
    with pytest.raises(DomainError) as err:
        MatchingInstance((0,), (0, 1), ((Fraction(0), Fraction(0)),))
    assert err.value.code == "NonSquare"
    with pytest.raises(DomainError) as err:
        MatchingInstance((0,), (0,), ((Fraction(-1),),))
    assert err.value.code == "NegativeEntry"
    # max_matching would answer 0.5, a float, for an exact value
    with pytest.raises(DomainError) as err:
        MatchingInstance((0,), (0,), ((0.5,),))
    assert err.value.code == "InputParseError"
    assert type(max_matching(MatchingInstance((0,), (0,), ((1,),)))[0]) is Fraction
    mu = distance_from_entries(ALL_ONE)
    with pytest.raises(DomainError) as err:
        MatchingInstance.from_distance(mu, ("x0", "x0"), ("x1", "x2"))
    assert err.value.code == "DuplicateLabel"
    inst = MatchingInstance.from_distance(mu, ("x0",), ("x1",))
    with pytest.raises(DomainError) as err:
        max_matching(inst, mode="weird")
    assert err.value.code == "UsageError"
    with pytest.raises(DomainError) as err:
        is_unique_optimum(inst, mode="weird")
    assert err.value.code == "UsageError"


def test_hungarian_matches_enumeration():
    rng = random.Random(13)
    modes_seen = {("MT", True): 0, ("MT", False): 0, ("PMT", True): 0, ("PMT", False): 0}
    for _ in range(200):
        k = rng.randint(1, 3)
        inst = _random_instance(rng, k)
        best = _brute_best(inst)
        for mode in ("MT", "PMT"):
            value, pairs = max_matching(inst, mode=mode)
            assert value == best
            got = sum(inst.weights[i][j] for i, j in pairs)
            assert got == value
            if mode == "MT":
                assert all(inst.weights[i][j] > 0 for i, j in pairs)
            else:
                assert len(pairs) == k
            unique = is_unique_optimum(inst, mode=mode)
            assert unique == brute_force_unique(inst, mode=mode)
            modes_seen[(mode, unique)] += 1
    # every combination of mode and verdict must occur in the sample
    assert all(v > 0 for v in modes_seen.values())


def test_frozen_values():
    assert dim_tight_span(distance_from_entries(ALL_ONE)) == 2
    assert tropical_rank(distance_from_entries(ALL_ONE)) == 2
    assert dim_tight_span(distance_from_entries(LINE)) == 2
    assert tropical_rank(distance_from_entries(LINE)) == 2
    assert dim_tight_span(distance_from_entries([[0]])) == 0
    assert tropical_rank(distance_from_entries([[0]])) == 1
    # a single one-way pair is a path: dimension 1, rank 2
    pair = distance_from_entries([[0, 1], [0, 0]])
    assert dim_tight_span(pair) == 1
    assert tropical_rank(pair) == 2


def test_witnesses_certify():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.3)
        for mode, fn in (("MT", dim_tight_span_witness), ("PMT", tropical_rank_witness)):
            k, cert = fn(mu)
            if cert is None:
                assert (mode, k) == ("MT", 0)
                continue
            a, b, pairs = cert
            assert len(a) == len(b) == len(pairs) == max(k, 1)
            inst = MatchingInstance.from_distance(mu, a, b)
            assert is_unique_optimum(inst, mode=mode)
            assert brute_force_unique(inst, mode=mode)
            value, _ = max_matching(inst, mode="PMT")
            assert sum(mu.entries[i][j] for i, j in pairs) == value
            # maximality: no strictly larger square certificate exists
            from itertools import combinations

            for aa in combinations(range(n), min(k + 1, n)):
                for bb in combinations(range(n), min(k + 1, n)):
                    if k + 1 > n:
                        continue
                    bigger = MatchingInstance.from_distance(mu, aa, bb)
                    assert not is_unique_optimum(bigger, mode=mode)


def test_bottom_up_search_matches_top_down():
    # downward closure: the bottom-up search finds the top-down (k, witness)
    ranks = set()
    for mu in scan_cases(seed=606):
        for mode, fn in (("MT", dim_tight_span_witness), ("PMT", tropical_rank_witness)):
            got = fn(mu)
            assert got == search_unique_top_down(mu, mode)
            ranks.add((mode, got[0]))
    assert {("MT", 0), ("MT", 2), ("MT", 3), ("PMT", 2), ("PMT", 4)} <= ranks


def test_memoized_search_matches_hungarian_search():
    # the recursion finds the (k, witness) that one Hungarian per minor finds
    rng = random.Random(707)
    draws = []
    for i in range(120):
        n = 1 + i % 8
        kind = i % 3
        if kind == 0:
            draws.append(random_distance(rng, n, den=1))
        elif kind == 1:
            draws.append(random_distance(rng, n))
        else:
            draws.append(random_distance(rng, n, top=2, zeros=0.6, den=1))
    # rank <= 2 at n = 7, 8: the scan of every 3 x 3 minor fails
    trees = [
        evaluate_realization(random_realization(KINDS[i % 3], 7 + i % 2, rng.randrange(10**6)))
        for i in range(10)
    ]
    for mu in draws + trees:
        for mode, fn in (("MT", dim_tight_span_witness), ("PMT", tropical_rank_witness)):
            assert fn(mu) == hungarian_search_unique(mu, mode)
    assert all(tropical_rank(mu) <= 2 for mu in trees)


def test_minor_recursion_matches_is_unique_optimum():
    rng = random.Random(808)
    seen = set()
    for i in range(30):
        n = 1 + i % 5
        mu = random_distance(rng, n, top=3, zeros=0.3, den=1 + i % 2)
        scale, m = scaled_entries(mu)
        for mode in ("MT", "PMT"):
            optimum = _minor_optima(m, mode)
            for k in range(1, n + 1):
                for a in combinations(range(n), k):
                    for b in combinations(range(n), k):
                        value, unique = optimum(sum(1 << x for x in a), sum(1 << x for x in b))
                        inst = MatchingInstance.from_distance(mu, a, b)
                        assert unique == is_unique_optimum(inst, mode=mode)
                        assert value == scale * max_matching(inst, mode=mode)[0]
                        seen.add((mode, unique))
    assert len(seen) == 4


def test_rank_dimension_sandwich():
    # the section is a subcomplex of the tight span of one lower dimension cap:
    # rank - 1 <= dim <= rank
    rng = random.Random(33)
    for _ in range(80):
        n = rng.randint(1, 4)
        mu = random_distance(rng, n, zeros=0.3)
        d, r = dim_tight_span(mu), tropical_rank(mu)
        assert r - 1 <= d <= r
        assert 1 <= r <= n


def test_deletion_monotone():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(2, 4)
        mu = random_distance(rng, n, zeros=0.3)
        d, r = dim_tight_span(mu), tropical_rank(mu)
        drop = rng.randrange(n)
        keep = [lab for i, lab in enumerate(mu.labels) if i != drop]
        sub = mu.restrict(keep)
        assert dim_tight_span(sub) <= d
        assert tropical_rank(sub) <= r
