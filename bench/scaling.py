"""Scaling record of the geometry, rank, complexes, io and trees layers:
work counts and wall time per (layer, n, seed).

    python3 bench/scaling.py BENCH.json [PARENT.json]

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

The rank layer runs on two input classes for each n = 8..16 and each seed:
``path_subtrees``, the distance of ``random_realization("path_subtrees", n,
seed)`` (tropical rank <= 2, so every 3 x 3 minor is scanned), and
``generic``, integer entries 1..1000 from ``random.Random`` seeded by
(seed, n) (full rank on most draws).  Its layers are ``check_path_condition``,
``check_tree_condition``, ``dim_tight_span_witness``,
``tropical_rank_witness``, and ``cli check path`` and ``cli check tree``,
which run ``dtspan.cli.main`` on a JSON file and report the verdict, the
violator and the dimension or rank from one search.  Each pass builds the
distance afresh.  A record holds the answer and two counts first, summed
over the pass's minor searches: the memo states the recursion stored and
the minors the search looked up.  The wall seconds per pass follow, as the
median of ``RANK_REPEATS`` passes.

The complexes layer runs, for each n = 3..5 and each seed, on the distance
the geometry layer draws: ``enumerate_tight_span``, ``enumerate_qplus``,
``enumerate_section``, and ``cli tightspan``, ``cli qplus`` and ``cli
section``, which run ``dtspan.cli.main`` on a JSON file.  Each pass builds
the distance afresh.  A record holds the counts first: the vertices of P,
the ``complexes.Face`` objects and the Fractions built in one pass, and the
faces and vertices of the complex.  The wall seconds per pass follow, as the
median of ``COMPLEX_REPEATS`` passes.

The io layer runs, for each n = 4, 8, 16, 30 and each seed, on two input
classes from ``random.Random`` seeded by (seed, n): ``integer``, entries
0..6, and ``rational``, entries 0..6 over denominators 1..3, both with
zero diagonal, plus a point whose coordinates are drawn the same way.  Its
layers are ``distance_from_json`` and ``point_from_json`` on the decoded
JSON objects, and ``cli validate``, which runs ``dtspan.cli.main`` on a
JSON file.  A pass is ``IO_CALLS`` calls.  A record holds the Fractions
built in one pass first, then the wall seconds per pass, as the median of
``IO_REPEATS`` passes.

The trees layer runs, for each n = 5, 10, 20, 30, each seed and each kind
of ``random_realization`` (``directed_path``, ``path_subtrees``,
``singleton``), on ``random_realization(kind, n, seed)``:
``evaluate_realization``; ``split_decomposition``; and ``recombine_splits``
on the terms ``split_decomposition`` returned.  The split layers need
single-vertex subtrees, so they skip ``path_subtrees``.  The realization
and the terms are built outside the timed call.  A record holds a SHA-256
of the answer first, then the counts of one call: the calls of
``trees._walk`` and the vertices they reached (counted by wrapping
``_walk``), and the Fractions built.  The wall seconds per call follow, as
the median of ``TREE_REPEATS`` calls.

Given a second file written by this script on another checkout (the parent
of a change, say), the output gains a ``comparison``: for each record of
both, the answer, the counts and the seconds side by side as [other, this].
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import platform
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dtspan import (  # noqa: E402
    ExtPoint,
    check_path_condition,
    check_tree_condition,
    classify_membership,
    dim_tight_span_witness,
    dinf,
    distance_from_entries,
    evaluate_realization,
    geodesic_polyline,
    random_realization,
    recombine_splits,
    retract_to_qplus,
    retract_to_tight_span,
    split_decomposition,
    tropical_rank_witness,
)
from dtspan import cli, complexes, metrics, trees  # noqa: E402
from dtspan.jsonio import distance_from_json, distance_to_json, point_from_json  # noqa: E402

SIZES = range(3, 9)
SEEDS = (1, 2, 3)
POINTS = 24
REPEATS = 7
RANK_SIZES = range(8, 17)
RANK_INPUTS = ("path_subtrees", "generic")
RANK_REPEATS = 3
COMPLEX_SIZES = range(3, 6)
COMPLEX_REPEATS = 5
IO_SIZES = (4, 8, 16, 30)
IO_INPUTS = ("integer", "rational")
IO_CALLS = 20
IO_REPEATS = 7
TREE_SIZES = (5, 10, 20, 30)
TREE_REPEATS = 3


def _entries(rng, n: int):
    return [
        [Fraction(0) if i == j else Fraction(rng.randint(0, 6), rng.randint(1, 3)) for j in range(n)]
        for i in range(n)
    ]


def _inputs(n: int, seed: int):
    """(distance entries, points of P, points of T), all as Fractions."""
    rng = random.Random(1000 * seed + n)
    entries = _entries(rng, n)
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


@contextlib.contextmanager
def _counting_new(counts: dict, key: str):
    """Count the Fractions built inside the block."""
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        counts[key] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield
    finally:
        Fraction.__new__ = staticmethod(new)


@contextlib.contextmanager
def _counting_init(cls, counts: dict, key: str):
    """Count the instances of cls built inside the block, however they are
    built (``dataclasses.replace`` included)."""
    init = cls.__init__

    def counting(self, *args, **kwargs):
        counts[key] += 1
        init(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        yield
    finally:
        cls.__init__ = init


def _fractions_built(calls) -> int:
    counts = {"fractions_built": 0}
    with _counting_new(counts, "fractions_built"):
        for call in calls:
            call()
    return counts["fractions_built"]


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


def _rank_entries(kind: str, n: int, seed: int):
    if kind == "path_subtrees":
        return [list(row) for row in evaluate_realization(random_realization(kind, n, seed)).entries]
    rng = random.Random(1000 * seed + n)
    return [[0 if i == j else rng.randint(1, 1000) for j in range(n)] for i in range(n)]


def _cli(condition: str, path: str):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["check", condition, path])
    report = json.loads(out.getvalue())
    return [report[f"{condition}_condition"], report["violator"], report.get("dim_tight_span", report.get("tropical_rank"))]


RANK_LAYERS = {
    "check_path_condition": lambda mu, path: list(check_path_condition(mu)),
    "check_tree_condition": lambda mu, path: list(check_tree_condition(mu)),
    "dim_tight_span_witness": lambda mu, path: dim_tight_span_witness(mu)[0],
    "tropical_rank_witness": lambda mu, path: tropical_rank_witness(mu)[0],
    "cli check path": lambda mu, path: _cli("path", path),
    "cli check tree": lambda mu, path: _cli("tree", path),
}


@contextlib.contextmanager
def _counting_searches(counts: dict):
    """Count the memo states and the minor lookups of every minor search
    started inside the block, reading the memo from the closure of the
    lookup function that ``metrics._minor_optima`` returns."""
    real = metrics._minor_optima
    searches = []

    def counted(m, mode):
        optimum = real(m, mode)
        searches.append(optimum)

        def lookup(a, b):
            counts["minor_lookups"] += 1
            return optimum(a, b)

        return lookup

    metrics._minor_optima = counted
    try:
        yield
    finally:
        metrics._minor_optima = real
        counts["memo_states"] += sum(len(inspect.getclosurevars(f).nonlocals["memo"]) - 1 for f in searches)


def rank_record(layer: str, kind: str, n: int, seed: int, workdir: Path) -> dict:
    entries = _rank_entries(kind, n, seed)
    path = workdir / "m.json"
    path.write_text(json.dumps(distance_to_json(distance_from_entries(entries))))
    run = RANK_LAYERS[layer]
    counts = {"memo_states": 0, "minor_lookups": 0}
    with _counting_searches(counts):
        answer = run(distance_from_entries(entries), str(path))
    times = []
    for _ in range(RANK_REPEATS):
        mu = distance_from_entries(entries)
        t0 = perf_counter()
        run(mu, str(path))
        times.append(perf_counter() - t0)
    return {
        "layer": layer,
        "input": kind,
        "n": n,
        "seed": seed,
        "answer": answer,
        **counts,
        "seconds": statistics.median(times),
    }


def _cli_complex(command: str, path: str):
    """(faces, vertices) of the complex the CLI printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main([command, path])
    report = json.loads(out.getvalue())
    return len(report["faces"]), len(report["vertices"])


def _sizes(complex_):
    return len(complex_.faces), len(complex_.vertices)


COMPLEX_LAYERS = {
    "enumerate_tight_span": lambda mu, path: _sizes(complexes.enumerate_tight_span(mu)),
    "enumerate_qplus": lambda mu, path: _sizes(complexes.enumerate_qplus(mu)),
    "enumerate_section": lambda mu, path: _sizes(complexes.enumerate_section(mu)),
    "cli tightspan": lambda mu, path: _cli_complex("tightspan", path),
    "cli qplus": lambda mu, path: _cli_complex("qplus", path),
    "cli section": lambda mu, path: _cli_complex("section", path),
}


def complex_record(layer: str, n: int, seed: int, workdir: Path) -> dict:
    entries = _entries(random.Random(1000 * seed + n), n)
    path = workdir / "m.json"
    path.write_text(json.dumps(distance_to_json(distance_from_entries(entries))))
    run = COMPLEX_LAYERS[layer]
    counts = {"p_vertices": len(complexes.polyhedron_vertices(distance_from_entries(entries))),
              "faces_built": 0, "fractions_built": 0}
    with _counting_init(complexes.Face, counts, "faces_built"), _counting_new(counts, "fractions_built"):
        faces, vertices = run(distance_from_entries(entries), str(path))
    times = []
    for _ in range(COMPLEX_REPEATS):
        mu = distance_from_entries(entries)
        t0 = perf_counter()
        run(mu, str(path))
        times.append(perf_counter() - t0)
    return {
        "layer": layer,
        "n": n,
        "seed": seed,
        **counts,
        "faces": faces,
        "vertices": vertices,
        "seconds": statistics.median(times),
    }


def _io_objects(kind: str, n: int, seed: int):
    """(distance, point) as the decoded JSON objects the CLI reads."""
    rng = random.Random(1000 * seed + n)
    q = 1 if kind == "integer" else 3

    def value():
        return str(Fraction(rng.randint(0, 6), rng.randint(1, q)))

    labels = [f"x{i}" for i in range(n)]
    distance = {"labels": labels, "matrix": [["0" if i == j else value() for j in range(n)] for i in range(n)]}
    point = {"col": {s: value() for s in labels}, "row": {s: value() for s in labels}}
    return distance, point


def _cli_validate(path: str):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["validate", path])


IO_LAYERS = {
    "distance_from_json": lambda mu, distance, point, path: distance_from_json(distance),
    "point_from_json": lambda mu, distance, point, path: point_from_json(mu, point),
    "cli validate": lambda mu, distance, point, path: _cli_validate(path),
}


def io_record(layer: str, kind: str, n: int, seed: int, workdir: Path) -> dict:
    distance, point = _io_objects(kind, n, seed)
    path = workdir / "m.json"
    path.write_text(json.dumps(distance))
    run = IO_LAYERS[layer]
    # the point's distance is read once, outside the passes
    mu = distance_from_json(distance)
    calls = [lambda: run(mu, distance, point, str(path))] * IO_CALLS
    built = _fractions_built(calls)
    times = []
    for _ in range(IO_REPEATS):
        t0 = perf_counter()
        for call in calls:
            call()
        times.append(perf_counter() - t0)
    return {
        "layer": layer,
        "input": kind,
        "n": n,
        "seed": seed,
        "calls": IO_CALLS,
        "fractions_built": built,
        "seconds": statistics.median(times),
    }


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _matrix(mu):
    return [[str(x) for x in row] for row in mu.entries]


TREE_LAYERS = {
    "evaluate_realization": lambda r, terms: _matrix(evaluate_realization(r)),
    "split_decomposition": lambda r, terms: [
        [t.side_a, t.side_b, str(t.coeff)] for t in split_decomposition(r)
    ],
    "recombine_splits": lambda r, terms: _matrix(recombine_splits(terms, r.terminals)),
}


@contextlib.contextmanager
def _counting_walks(counts: dict):
    """Count the calls of ``trees._walk`` inside the block and the vertices
    they reached."""
    real = trees._walk

    def counted(*args):
        prev = real(*args)
        counts["walks"] += 1
        counts["vertices_reached"] += len(prev)
        return prev

    trees._walk = counted
    try:
        yield
    finally:
        trees._walk = real


def tree_record(layer: str, kind: str, n: int, seed: int) -> dict:
    run = TREE_LAYERS[layer]

    def inputs():
        r = random_realization(kind, n, seed)
        return r, split_decomposition(r) if layer == "recombine_splits" else None

    counts = {"walks": 0, "vertices_reached": 0, "fractions_built": 0}
    r, terms = inputs()
    with _counting_walks(counts), _counting_new(counts, "fractions_built"):
        answer = _digest(run(r, terms))
    times = []
    for _ in range(TREE_REPEATS):
        r, terms = inputs()
        t0 = perf_counter()
        run(r, terms)
        times.append(perf_counter() - t0)
    return {
        "layer": layer,
        "input": kind,
        "n": n,
        "seed": seed,
        "answer": answer,
        **counts,
        "seconds": statistics.median(times),
    }


def _key(r: dict):
    return r["layer"], r.get("input"), r["n"], r["seed"]


def compare(parent: dict, records) -> list:
    """Each record also in parent, its counts and seconds as [parent, this]."""
    before = {_key(r): r for r in parent["records"]}
    out = []
    for r in records:
        p = before.get(_key(r))
        if p is None:
            continue
        pairs = {
            k: [p[k], v]
            for k, v in r.items()
            if (k == "answer" or isinstance(v, (int, float))) and k not in ("n", "seed")
        }
        out.append({"layer": r["layer"], "input": r.get("input"), "n": r["n"], "seed": r["seed"], **pairs})
    return out


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 bench/scaling.py OUTPUT.json [PARENT.json]", file=sys.stderr)
        return 2
    records = [record(layer, n, seed) for layer in LAYERS for n in SIZES for seed in SEEDS]
    with TemporaryDirectory() as tmp:
        rank_records = [
            rank_record(layer, kind, n, seed, Path(tmp))
            for layer in RANK_LAYERS
            for kind in RANK_INPUTS
            for n in RANK_SIZES
            for seed in SEEDS
        ]
        complex_records = [
            complex_record(layer, n, seed, Path(tmp))
            for layer in COMPLEX_LAYERS
            for n in COMPLEX_SIZES
            for seed in SEEDS
        ]
        io_records = [
            io_record(layer, kind, n, seed, Path(tmp))
            for layer in IO_LAYERS
            for kind in IO_INPUTS
            for n in IO_SIZES
            for seed in SEEDS
        ]
    tree_records = [
        tree_record(layer, kind, n, seed)
        for layer in TREE_LAYERS
        for kind in trees.KINDS
        if layer == "evaluate_realization" or kind != "path_subtrees"
        for n in TREE_SIZES
        for seed in SEEDS
    ]
    out = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "rank_repeats": RANK_REPEATS,
        "complex_repeats": COMPLEX_REPEATS,
        "io_calls": IO_CALLS,
        "io_repeats": IO_REPEATS,
        "tree_repeats": TREE_REPEATS,
        "records": records + rank_records + complex_records + io_records + tree_records,
    }
    if len(argv) == 2:
        out["comparison"] = compare(json.loads(Path(argv[1]).read_text()), out["records"])
    Path(argv[0]).write_text(json.dumps(out, indent=1) + "\n")
    for r in records:
        print(f"{r['layer']:22} n={r['n']} seed={r['seed']} calls={r['calls']:3} "
              f"fractions={r['fractions_built']:7} {r['seconds'] * 1000:9.3f} ms")
    for r in rank_records:
        print(f"{r['layer']:22} {r['input']:13} n={r['n']:2} seed={r['seed']} states={r['memo_states']:8} "
              f"lookups={r['minor_lookups']:8} {r['seconds'] * 1000:9.3f} ms")
    for r in complex_records:
        print(f"{r['layer']:22} n={r['n']} seed={r['seed']} p_vertices={r['p_vertices']:4} "
              f"faces_built={r['faces_built']:5} fractions={r['fractions_built']:6} "
              f"faces={r['faces']:5} vertices={r['vertices']:4} {r['seconds'] * 1000:9.3f} ms")
    for r in io_records:
        print(f"{r['layer']:22} {r['input']:13} n={r['n']:2} seed={r['seed']} calls={r['calls']:3} "
              f"fractions={r['fractions_built']:6} {r['seconds'] * 1000:9.3f} ms")
    for r in tree_records:
        print(f"{r['layer']:22} {r['input']:13} n={r['n']:2} seed={r['seed']} walks={r['walks']:6} "
              f"reached={r['vertices_reached']:7} fractions={r['fractions_built']:7} {r['seconds'] * 1000:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
