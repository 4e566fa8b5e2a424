"""Scaling record of the geometry layer: work counts and wall time per
(layer, n, seed).

    python3 bench/scaling.py BENCH.json

Run it from a checkout that holds ``src/dtspan``; it imports the program
from there and uses the standard library only.  For each n = 3..8 and each
seed it draws one distance (integer entries 0..6 over denominators 1..3,
zero diagonal) and a fixed set of inputs from ``random.Random`` seeded by
(seed, n): points of P with half-integer coordinates, and the points of T
that ``retract_to_tight_span`` makes of them.  Each layer then runs over
those inputs:

- ``retract_to_tight_span`` and ``classify_membership`` on every point of P;
- ``retract_to_qplus`` on every point of T;
- ``geodesic_polyline`` with k = 8 and ``dinf`` on consecutive pairs of
  points of T.

Every pass rebuilds the distance and the points from their Fraction fields,
as the CLI does on each run, so no pass reuses what an earlier one worked
out.  A record holds the counts first, which do not depend on the host: the
layer's calls per pass and the Fractions built per pass (each
``Fraction.__new__``, counted in one extra pass).  The wall seconds per pass
follow, as the median of ``REPEATS`` passes.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dtspan import (  # noqa: E402
    ExtPoint,
    classify_membership,
    dinf,
    distance_from_entries,
    geodesic_polyline,
    retract_to_qplus,
    retract_to_tight_span,
)

SIZES = range(3, 9)
SEEDS = (1, 2, 3)
POINTS = 24
REPEATS = 7


def _inputs(n: int, seed: int):
    """(distance entries, points of P, points of T), all as Fractions."""
    rng = random.Random(1000 * seed + n)
    entries = [
        [Fraction(0) if i == j else Fraction(rng.randint(0, 6), rng.randint(1, 3)) for j in range(n)]
        for i in range(n)
    ]
    mu = distance_from_entries(entries)
    p_points = []
    for _ in range(POINTS):
        col = [Fraction(rng.randint(0, 8), 2) for _ in range(n)]
        row = [
            max(max(entries[s][t] - col[s] for s in range(n)), Fraction(0)) + Fraction(rng.randint(0, 8), 2)
            for t in range(n)
        ]
        p_points.append((col, row))
    t_points = []
    for col, row in p_points:
        q = retract_to_tight_span(mu, ExtPoint(mu.ground, tuple(col), tuple(row)))
        t_points.append((q.col, q.row))
    return entries, p_points, t_points


def _calls(layer: str, entries, p_points, t_points):
    """The layer's calls on freshly built objects, as thunks."""
    mu = distance_from_entries(entries)
    p = [ExtPoint(mu.ground, tuple(c), tuple(r)) for c, r in p_points]
    t = [ExtPoint(mu.ground, tuple(c), tuple(r)) for c, r in t_points]
    pairs = list(zip(t, t[1:]))
    if layer == "retract_to_tight_span":
        return [lambda x=x: retract_to_tight_span(mu, x) for x in p]
    if layer == "classify_membership":
        return [lambda x=x: classify_membership(mu, x) for x in p]
    if layer == "retract_to_qplus":
        return [lambda x=x: retract_to_qplus(mu, x) for x in t]
    if layer == "geodesic_polyline":
        return [lambda a=a, b=b: geodesic_polyline(mu, a, b, 8) for a, b in pairs]
    return [lambda a=a, b=b: dinf(a, b) for a, b in pairs]


LAYERS = ("retract_to_tight_span", "retract_to_qplus", "geodesic_polyline", "classify_membership", "dinf")


def _fractions_built(calls) -> int:
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        for call in calls:
            call()
    finally:
        Fraction.__new__ = staticmethod(new)
    return built


def record(layer: str, n: int, seed: int) -> dict:
    inputs = _inputs(n, seed)
    calls = _calls(layer, *inputs)
    built = _fractions_built(calls)
    times = []
    for _ in range(REPEATS):
        calls = _calls(layer, *inputs)
        t0 = perf_counter()
        for call in calls:
            call()
        times.append(perf_counter() - t0)
    return {
        "layer": layer,
        "n": n,
        "seed": seed,
        "calls": len(calls),
        "fractions_built": built,
        "seconds": statistics.median(times),
    }


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/scaling.py OUTPUT.json", file=sys.stderr)
        return 2
    records = [record(layer, n, seed) for layer in LAYERS for n in SIZES for seed in SEEDS]
    out = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "records": records,
    }
    Path(argv[0]).write_text(json.dumps(out, indent=1) + "\n")
    for r in records:
        print(f"{r['layer']:22} n={r['n']} seed={r['seed']} calls={r['calls']:3} "
              f"fractions={r['fractions_built']:7} {r['seconds'] * 1000:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
