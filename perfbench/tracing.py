"""Spans and counters at the program's layer boundaries, from outside.

``Tracer.install`` rebinds the public functions listed in ``WRAPPED`` in
every ``dtspan.*`` namespace that holds them (the defining module, every
module that imported the name, and module-level dispatch tables), so calls
between modules and calls inside one module are both seen.  ``uninstall`` puts the originals back.  Very hot
leaf helpers (``jsonio.to_jsonable``, ``geometry.dinf``, ``trees.tree_distance``,
``geometry.retract_ray``) stay unwrapped: their time lands in the caller's
self time, and wrapping them would cost more than the layers they serve.

A span is (name, start, end, parent, instance).  Spans stay in memory until
``write`` dumps them.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Dict, List, Tuple

LAYERS = ("metrics", "geometry", "complexes", "rank", "trees", "lp", "flow", "jsonio", "cli")

WRAPPED = {
    "metrics": ("is_metric", "check_path_condition", "check_tree_condition", "check_directed_tree_metric"),
    "geometry": (
        "classify_membership",
        "retract_to_tight_span",
        "retract_to_qplus",
        "retract_to_section",
        "geodesic_polyline",
        "canonical_points",
        "is_balanced",
    ),
    "complexes": ("polyhedron_vertices", "enumerate_tight_span", "enumerate_qplus", "enumerate_section", "skeleton_graph"),
    "rank": (
        "dim_tight_span_witness",
        "tropical_rank_witness",
        "dim_tight_span",
        "tropical_rank",
        "is_unique_optimum",
        "max_matching",
    ),
    "trees": (
        "realize_path",
        "realize_tree",
        "realize_directed_tree_metric",
        "evaluate_realization",
        "split_decomposition",
        "recombine_splits",
        "splits_pairwise_compatible",
    ),
    "lp": ("linear_program", "solve", "certificate_ok"),
    "flow": (
        "max_multiflow",
        "dual_metric_lp",
        "verify_minmax",
        "enumerate_s_paths",
        "tighten_extension",
        "is_tight_extension",
        "eulerian_decompose",
    ),
    "jsonio": (
        "dumps",
        "distance_from_json",
        "point_from_json",
        "network_from_json",
        "realization_from_json",
        "point_to_json",
        "complex_to_json",
        "skeleton_to_json",
        "realization_to_json",
        "splits_to_json",
    ),
    "cli": ("main",),
}

LP_CALLER = {"flow.dual_metric_lp": "dual", "flow.max_multiflow": "path"}


def _solve_cells(parent: str, args, lp_solution):
    lp = args[0]
    return [(f"lp.tableau_cells.{LP_CALLER.get(parent, 'other')}", len(lp.rows) * lp.nvars)]


# Counters read from arguments and return values at the layer boundary:
# hook(parent span name, args, result) -> [(counter, increment), ...].
HOOKS = {
    "complexes.polyhedron_vertices": lambda parent, args, r: [("complexes.p_vertices", len(r))],
    "complexes.enumerate_tight_span": lambda parent, args, r: [
        ("complexes.t_faces", len(r.faces)),
        ("complexes.t_vertices", len(r.vertices)),
    ],
    "flow.enumerate_s_paths": lambda parent, args, r: [("flow.s_paths", len(r))],
    "lp.solve": _solve_cells,
    "jsonio.dumps": lambda parent, args, r: [("jsonio.output_bytes", len(r.encode()))],
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, instance]
        self.counters: Dict[str, int] = {}
        self.instance = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = [name, 0.0, 0.0, parent, tracer.instance]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(spans[parent][0] if parent >= 0 else "", args, result):
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, names in WRAPPED.items():
            home = sys.modules[f"dtspan.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrappers[id(original)] = self._wrap(f"{layer}.{fname}", original)
        # Module namespaces, plus module-level dicts such as cli.COMPLEXES
        # that hold the functions themselves.
        tables = [vars(m) for k, m in sys.modules.items() if k == "dtspan" or k.startswith("dtspan.")]
        tables += [v for t in tables for k, v in t.items() if isinstance(v, dict) and k != "__builtins__"]
        for table in tables:
            for key, value in table.items():
                if id(value) in wrappers:
                    self._saved.append((table, key, value))
        for table, key, original in self._saved:
            table[key] = wrappers[id(original)]

    def uninstall(self) -> None:
        for table, key, original in self._saved:
            table[key] = original
        self._saved.clear()

    def pop_counters(self) -> Dict[str, int]:
        out = dict(self.counters)
        self.counters.clear()
        return out

    def self_times(self, first: int) -> Dict[Tuple[str, str], float]:
        """Self time per (span name, parent span name) over spans[first:],
        which must be a closed set of calls."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for _, t0, t1, parent, _ in spans[first:]:
            if parent >= first:
                child[parent - first] += t1 - t0
        out: Dict[Tuple[str, str], float] = {}
        for k, (name, t0, t1, parent, _) in enumerate(spans[first:]):
            key = (name, spans[parent][0] if parent >= first else "")
            out[key] = out.get(key, 0.0) + (t1 - t0 - child[k])
        return out

    def calls(self, first: int) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans[first:]:
            key = "calls." + span[0]
            out[key] = out.get(key, 0) + 1
        return out

    def write(self, path, origin: float) -> None:
        """Spans as [name, start_us, end_us, parent, instance], times from origin."""
        rows = [
            [name, round((t0 - origin) * 1e6), round((t1 - origin) * 1e6), parent, inst]
            for name, t0, t1, parent, inst in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "instance"], "spans": rows}, fh)


# Per-layer metrics of the traced run: (name, unit, better).  Times are
# seconds of self time per traced pass over the workload's fixed instance set;
# counts are per pass and repeat exactly.
PER_LAYER = (
    ("complexes.polyhedron_vertices.self_s", "s", "lower"),
    ("complexes.enumerate_tight_span.self_s", "s", "lower"),
    ("complexes.p_vertices", "count", "lower"),
    ("complexes.t_faces", "count", "lower"),
    ("complexes.minimal_vertex_ratio", "ratio", "higher"),
    ("geometry.classify_membership.calls", "count", "lower"),
    ("geometry.classify_membership.self_s", "s", "lower"),
    ("geometry.retract.self_s", "s", "lower"),
    ("rank.is_unique_optimum.calls", "count", "lower"),
    ("rank.witness_ratio", "ratio", "higher"),
    ("metrics.check_tree_condition.self_s", "s", "lower"),
    ("metrics.check_path_condition.self_s", "s", "lower"),
    ("metrics.is_metric.calls", "count", "lower"),
    ("lp.solve.self_s.dual", "s", "lower"),
    ("lp.solve.self_s.path", "s", "lower"),
    ("lp.tableau_cells.dual", "count", "lower"),
    ("lp.tableau_cells.path", "count", "lower"),
    ("lp.solve.calls", "count", "lower"),
    ("lp.certificate_ok.self_s", "s", "lower"),
    ("flow.enumerate_s_paths.self_s", "s", "lower"),
    ("flow.s_paths", "count", "lower"),
    ("flow.tighten_extension.self_s", "s", "lower"),
    ("jsonio.output_bytes", "bytes", "lower"),
    ("cli.calls", "count", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace_overhead", "ratio", "lower"),
)


def per_layer(self_s: Dict[Tuple[str, str], float], counts: Dict[str, int], overhead: float) -> Dict[str, float]:
    """Values of PER_LAYER from self times per pass and counts per pass."""
    name_s: Dict[str, float] = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    solve_s = {"dual": 0.0, "path": 0.0}
    for (name, parent), v in self_s.items():
        name_s[name] = name_s.get(name, 0.0) + v
        layer_s[name.split(".")[0]] += v
        if name == "lp.solve" and parent in LP_CALLER:
            solve_s[LP_CALLER[parent]] += v

    def count(key: str) -> int:
        return counts.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "complexes.polyhedron_vertices.self_s": name_s.get("complexes.polyhedron_vertices", 0.0),
        "complexes.enumerate_tight_span.self_s": name_s.get("complexes.enumerate_tight_span", 0.0),
        "complexes.p_vertices": count("complexes.p_vertices"),
        "complexes.t_faces": count("complexes.t_faces"),
        "complexes.minimal_vertex_ratio": ratio(count("complexes.t_vertices"), count("complexes.p_vertices")),
        "geometry.classify_membership.calls": count("calls.geometry.classify_membership"),
        "geometry.classify_membership.self_s": name_s.get("geometry.classify_membership", 0.0),
        "geometry.retract.self_s": sum((v for k, v in name_s.items() if k.startswith("geometry.retract_to_")), 0.0),
        "rank.is_unique_optimum.calls": count("calls.rank.is_unique_optimum"),
        "rank.witness_ratio": ratio(
            count("calls.rank.dim_tight_span_witness") + count("calls.rank.tropical_rank_witness"),
            count("calls.rank.is_unique_optimum"),
        ),
        "metrics.check_tree_condition.self_s": name_s.get("metrics.check_tree_condition", 0.0),
        "metrics.check_path_condition.self_s": name_s.get("metrics.check_path_condition", 0.0),
        "metrics.is_metric.calls": count("calls.metrics.is_metric"),
        "lp.solve.self_s.dual": solve_s["dual"],
        "lp.solve.self_s.path": solve_s["path"],
        "lp.tableau_cells.dual": count("lp.tableau_cells.dual"),
        "lp.tableau_cells.path": count("lp.tableau_cells.path"),
        "lp.solve.calls": count("calls.lp.solve"),
        "lp.certificate_ok.self_s": name_s.get("lp.certificate_ok", 0.0),
        "flow.enumerate_s_paths.self_s": name_s.get("flow.enumerate_s_paths", 0.0),
        "flow.s_paths": count("flow.s_paths"),
        "flow.tighten_extension.self_s": name_s.get("flow.tighten_extension", 0.0),
        "jsonio.output_bytes": count("jsonio.output_bytes"),
        "cli.calls": count("calls.cli.main"),
        "trace_overhead": overhead,
    }
    out.update({f"{layer}.self_s": v for layer, v in layer_s.items()})
    return out
