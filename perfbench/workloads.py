"""The three workloads: how each instance is generated, run and checked.

An instance is a handful of CLI invocations on JSON files the benchmark
wrote.  ``run(inst, call)`` issues them through ``call(argv) -> (exit code,
parsed stdout)`` and raises ``checks.CheckFailed`` on a wrong answer.
Instances cycle through a fixed list of strata (sizes and kinds), so every
prefix of the instance list has the same mix.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

import checks
import gen
from checks import require


class Instance:
    def __init__(self, index: int, stratum: Tuple):
        self.index = index
        self.stratum = stratum
        self.files: Dict[str, dict] = {}
        self.paths: Dict[str, str] = {}
        self.data: Dict[str, object] = {}

    def add(self, name: str, obj: dict) -> None:
        self.files[name] = obj


Call = Callable[[List[str]], Tuple[int, object]]


def ok(call: Call, argv: List[str]):
    rc, out = call(argv)
    require(rc == 0, f"{argv[0]} exited {rc}: {out}")
    return out


# -- span: geometry of T, Q+ and the section ---------------------------------------


def make_span(rng: random.Random, inst: Instance) -> None:
    n, kind = inst.stratum
    # Small integer entries: the cost of enumerating T varies far less
    # between draws than with rational entries, so the mix stays steady.
    if kind == "metric":
        mu = gen.random_metric(rng, n, top=3, den=1)
    else:
        mu = gen.random_distance(rng, n, top=3, den=1)
    names = gen.labels(n)
    a = gen.lower_to_tight_span(mu, gen.random_p_point(rng, mu))
    b = gen.lower_to_tight_span(mu, gen.random_p_point(rng, mu))
    inst.add("m", gen.distance_json(mu, names))
    inst.add("p", gen.point_json(gen.random_p_point(rng, mu), names))
    inst.add("a", gen.point_json(a, names))
    inst.add("b", gen.point_json(b, names))
    inst.data.update(mu=mu, names=names, a=a, b=b)


def run_span(inst: Instance, call: Call) -> None:
    mu, names = inst.data["mu"], inst.data["names"]
    m = inst.paths["m"]
    t_dim = checks.check_complex(ok(call, ["tightspan", m]), mu, names, "T")
    checks.check_complex(ok(call, ["qplus", m]), mu, names, "Qplus")
    s_dim = checks.check_complex(ok(call, ["section", m]), mu, names, "Section")
    dim = checks.check_witness(ok(call, ["dim", m]), "dim_tight_span")
    rank = checks.check_witness(ok(call, ["rank", m]), "tropical_rank")
    require(t_dim == dim, f"largest face of T has dim {t_dim}, dim says {dim}")
    require(s_dim == rank - 1, f"largest face of the section has dim {s_dim}, rank says {rank}")

    out = ok(call, ["retract", m, inst.paths["p"], "--target", "section"])
    q = checks.point_of(out, names)
    checks.check_in_qplus(mu, q, "retracted point")
    require(min(q[1]) == 0 and out["membership"] == "Qplus", "retracted point is not on the section")

    out = ok(call, ["geodesic", m, inst.paths["a"], inst.paths["b"], "--k", "8"])
    a, b = inst.data["a"], inst.data["b"]
    want = checks.dinf(a, b)
    pts = [checks.point_of(x, names) for x in out["points"]]
    require(len(pts) == 9 and pts[0] == a and pts[-1] == b, "geodesic endpoints")
    for k, p in enumerate(pts):
        checks.check_in_t(mu, p, f"geodesic point {k}")
    steps = sum((checks.dinf(x, y) for x, y in zip(pts, pts[1:])), checks.F0)
    require(
        checks.frac(out["total_length"]) == want == steps and checks.frac(out["dinf"]) == want,
        "geodesic length differs from the sup-distance of its endpoints",
    )


# -- realize: rank, condition checkers and oriented-tree realizations ---------------

REALIZER = {"directed_path": "path", "path_subtrees": "tree", "singleton": "dtm"}


def make_realize(rng: random.Random, inst: Instance) -> None:
    n, kind = inst.stratum
    names = gen.labels(n)
    if kind == "generic":
        mu = gen.random_distance(rng, n)
        realizer = rng.choice(("path", "tree"))
    else:
        r = gen.random_realization(rng, kind, n)
        mu = r.distances()
        realizer = REALIZER[kind]
        if kind == "singleton":
            inst.add("r", gen.realization_json(r))
    inst.add("m", gen.distance_json(mu, names))
    inst.data.update(mu=mu, names=names, kind=kind, realizer=realizer)


def run_realize(inst: Instance, call: Call) -> None:
    mu, names, kind = inst.data["mu"], inst.data["names"], inst.data["kind"]
    n = len(names)
    m = inst.paths["m"]
    dim = checks.check_witness(ok(call, ["dim", m]), "dim_tight_span")
    rank = checks.check_witness(ok(call, ["rank", m]), "tropical_rank")
    if kind == "directed_path":
        require(dim <= 1, "a directed-path realization has dim <= 1")
    if kind in ("path_subtrees", "singleton"):
        require(rank <= 2, "an oriented-tree realization has rank <= 2")

    if n <= 6:
        out = ok(call, ["check", "path", m])
        require(out["path_condition"] == (dim <= 1) and out["dim_tight_span"] == dim, "check path")
        require((out["violator"] is None) == out["path_condition"], "check path violator")
        out = ok(call, ["check", "tree", m])
        require(out["tree_condition"] == (rank <= 2) and out["tropical_rank"] == rank, "check tree")
        require((out["violator"] is None) == out["tree_condition"], "check tree violator")
    if gen.is_metric(mu):
        dtm = ok(call, ["check", "dtm", m])["directed_tree_metric"]
        require(isinstance(dtm, bool), "check dtm answer is not a boolean")
        if kind in ("directed_path", "singleton"):
            require(dtm, "a singleton-subtree realization is a directed tree metric")

    if n <= 5:
        realizer = inst.data["realizer"]
        rc, out = call(["realize", realizer, m])
        possible = {"path": dim <= 1, "tree": rank <= 2, "dtm": kind == "singleton"}[realizer]
        if possible:
            require(rc == 0, f"realize {realizer} exited {rc}: {out}")
            checks.check_realization(out, mu, names, realizer)
        else:
            code = {"path": "DimensionTooHigh", "tree": "RankTooHigh"}[realizer]
            checks.expect_error(rc, out, code)

    if kind == "singleton":
        checks.check_splits(ok(call, ["decompose", inst.paths["r"]]), mu, names)


# -- minmax: the multiflow min-max and the packing LP -----------------------------


def draw_network(rng: random.Random, nv: int, nterm: int, kind: str, band=None):
    """A network of the given kind and a random terminal metric on it."""
    if kind == "eulerian":
        net = gen.random_eulerian_network(rng, nv, nterm)
    elif kind == "dense":
        net = gen.random_network(rng, nv, nterm, edge_prob=0.6)
    else:
        # The path LP grows with the number of S-paths, which varies a
        # hundredfold between networks of one size; drawing until the count
        # falls in the band states the input size and keeps one network
        # from taking a whole run.
        lo, hi = band
        while True:
            net = gen.random_network(rng, nv, nterm, edge_prob=0.45)
            if lo <= gen.count_s_paths(net) < hi:
                break
    return net, gen.random_metric(rng, nterm, zeros=0.15)


# The packing network of every minmax instance: 6 vertices, 4 terminals and
# 40-80 S-paths.  Larger networks cost up to 1.5 s and vary twofold even at a
# fixed S-path count.
PACKING = (6, 4, (40, 80))


def make_minmax(rng: random.Random, inst: Instance) -> None:
    nv, nterm, kind = inst.stratum
    net, mu = draw_network(rng, nv, nterm, kind)
    inst.add("net", gen.network_json(net))
    inst.add("m", gen.distance_json(mu, net[2]))
    nv, nterm, band = PACKING
    pnet, pmu = draw_network(rng, nv, nterm, "sparse", band)
    inst.add("pnet", gen.network_json(pnet))
    inst.add("pm", gen.distance_json(pmu, pnet[2]))
    inst.data.update(net=net, mu=mu, names=net[2], mode="Q" if kind == "eulerian" else "T", packing=(pnet, pmu))


def run_minmax(inst: Instance, call: Call) -> None:
    net, mu, names, mode = (inst.data[k] for k in ("net", "mu", "names", "mode"))
    out = ok(call, ["flow", "verify", inst.paths["net"], inst.paths["m"], "--mode", mode])
    top, low = checks.frac(out["max"]), checks.frac(out["min"])
    require(out["mode"] == mode and out["equal"] is True and top == low, "max differs from min")
    require(checks.check_path_flow(out["flow_paths"], net, mu, names) == top, "flow value differs from max")
    require(checks.check_extension(out["extension"], net, mu, names) == low, "extension objective differs from min")
    if mode == "T":
        require(checks.check_extension(out["tight_extension"], net, mu, names) == low, "tight extension objective")
        require(checks.frac(out["tight_objective"]) == low, "tight objective differs from min")
    else:
        checks.check_cycles(out["cycles"], net)
        require(checks.frac(out["cycle_total"]) == low and out["balanced"] is True, "cycle total differs from min")

    pnet, pmu = inst.data["packing"]
    out = ok(call, ["flow", "max", inst.paths["pnet"], inst.paths["pm"]])
    value = checks.frac(out["value"])
    require(checks.check_path_flow(out["paths"], pnet, pmu, pnet[2]) == value, "packing value differs from its paths")


class Workload:
    def __init__(self, name, strata, make, run, instances, traced):
        self.name = name
        self.strata = strata
        self.make = make
        self.run = run
        # A run makes passes over a fixed set of instances, so the latency
        # percentiles always rank the same instances.
        self.instances = instances
        # The traced run uses the first `traced` instances.
        self.traced = traced

    def instance(self, seed: int, index: int) -> Instance:
        inst = Instance(index, self.strata[index % len(self.strata)])
        self.make(random.Random(f"{self.name}/{seed}/{index}"), inst)
        return inst


# A pass takes 7-17 s on a 2-core host, so a 40 s run makes two to six
# passes, and each instance's median sheds a burst of host speed-up or
# slow-down shorter than half the run.  Per-instance costs are close within
# each size, so one seed's set costs about what another's does, and each mix
# keeps its median and its tail percentile inside one cluster of similar
# instances, away from the jump between two sizes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("span", [(3, "distance"), (3, "metric")], make_span, run_span, 36, 12),
        Workload(
            "realize",
            [
                (4, "directed_path"),
                (4, "path_subtrees"),
                (5, "generic"),
                (4, "singleton"),
                (5, "path_subtrees"),
                (4, "directed_path"),
                (4, "path_subtrees"),
                (6, "generic"),
                (4, "singleton"),
                (4, "directed_path"),
                (7, "generic"),
                (4, "singleton"),
                (5, "generic"),
                (4, "directed_path"),
                (5, "singleton"),
                (4, "path_subtrees"),
                (4, "singleton"),
                (6, "generic"),
                (4, "directed_path"),
                (4, "path_subtrees"),
            ],
            make_realize,
            run_realize,
            40,
            10,
        ),
        Workload(
            "minmax",
            [(4, 3, "dense"), (3, 2, "eulerian"), (4, 2, "dense"), (4, 3, "eulerian"), (3, 3, "dense"), (4, 2, "dense")],
            make_minmax,
            run_minmax,
            48,
            12,
        ),
    )
}
