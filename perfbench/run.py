"""dtspan benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload span --seed 1 --seconds 40 --trace 0

Run from a checkout that holds ``src/dtspan``.  Set-up imports the program
from ``src``, generates the workload's instances from the seed and writes
them as JSON files under ``.perfbench/``; it is repeated and its median is
``setup_s``.  The run is a closed loop that drives ``dtspan.cli.main``
in-process: an instance is a few CLI invocations on its files, and the next
instance starts once the previous one's outputs are checked.

With ``--trace 0`` the loop runs for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload's fixed
instance set in cycles of one untraced and two traced executions per
instance, and reports self time and counters per layer.  The last line of
standard output is the JSON result; the lines before it repeat the metrics
for people, with the output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5


def import_program():
    """Import dtspan.cli afresh from SRC, so each set-up pays the import."""
    for name in [k for k in sys.modules if k == "dtspan" or k.startswith("dtspan.")]:
        del sys.modules[name]
    cli = importlib.import_module("dtspan.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"dtspan was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(wl: workloads.Workload, seed: int, workdir: Path):
    t0 = perf_counter()
    cli = import_program()
    pool = [wl.instance(seed, i) for i in range(wl.instances)]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for inst in pool:
        for name, obj in inst.files.items():
            path = workdir / f"{inst.index}-{name}.json"
            path.write_text(json.dumps(obj))
            inst.paths[name] = str(path)
    return perf_counter() - t0, cli, pool


class Runner:
    """Runs one instance through the CLI, timing only the program's calls."""

    def __init__(self, cli, wl: workloads.Workload):
        self.cli = cli
        self.wl = wl
        self.failures = 0
        self._elapsed = 0.0
        self._out: list = []

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                # looked up per call, so a traced run sees the rebound main
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            self._elapsed += perf_counter() - t0
        text = buf.getvalue()
        self._out.append(text)
        try:
            return rc, json.loads(text)
        except ValueError:
            raise checks.CheckFailed(f"{argv[0]} printed no JSON (exit {rc})")

    def run(self, inst: workloads.Instance):
        """(seconds in the program, outputs correct?, output text)."""
        self._elapsed = 0.0
        self._out = []
        try:
            self.wl.run(inst, self.call)
            ok = True
        except Exception as exc:  # a crash is a failed instance, not a failed run
            ok = False
            self.failures += 1
            if self.failures <= MAX_REPORTED_FAILURES:
                detail = str(exc) if isinstance(exc, checks.CheckFailed) else traceback.format_exc()
                print(f"instance {inst.index} {inst.stratum} failed: {detail}", file=sys.stderr)
        return self._elapsed, ok, "".join(self._out)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, pool, wl, seconds: float, setup_s: float):
    samples = {inst.index: [] for inst in pool}
    attempted = 0
    digest = hashlib.sha256()
    deadline = perf_counter() + seconds
    # Passes over the set until the deadline; the first pass always completes.
    while attempted < len(pool) or perf_counter() < deadline:
        inst = pool[attempted % len(pool)]
        dt, ok, out = runner.run(inst)
        if attempted < len(pool):
            digest.update(out.encode())
        attempted += 1
        if ok:
            samples[inst.index].append(dt)
    done = sum(len(v) for v in samples.values())
    failed = attempted - done
    # Per-instance medians: each instance counts once in the percentiles and
    # in the throughput, and a burst of host speed-up or slow-down that
    # covers less than half of the run does not move them.
    times = sorted(statistics.median(v) for v in samples.values() if v)
    if times:
        # the highest percentile with at least ten instances beyond it
        j = max(len(times) - 11, 0)
        tail, pct = times[j], 100.0 * (j + 1) / len(times)
        p50 = statistics.median(times)
    else:
        tail = pct = p50 = 0.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(len(times) / sum(times) if times else 0.0, "1/s"),
        "latency_p50_ms": metric(p50 * 1000, "ms"),
        "latency_tail_ms": metric(tail * 1000, "ms"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    for name, m in metrics.items():
        note = f"  (p{pct:.1f} of {len(times)} instances)" if name == "latency_tail_ms" else ""
        print(f"{name:18} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_frac':18} {failed / attempted:.6g} ratio  ({failed} of {attempted} executions)")
    print(f"{'passes':18} {attempted / len(pool):.2f}")
    print(f"outputs_sha256 {digest.hexdigest()}  ({wl.name}, {len(pool)} instances)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(runner: Runner, pool, wl, seconds: float, seed: int):
    tracer = tracing.Tracer()
    subset = pool[: wl.traced]
    untraced = {inst.index: [] for inst in subset}
    traced = {inst.index: [] for inst in subset}
    counts = {}
    self_s: dict = {}
    digest = hashlib.sha256()
    problems = []
    passes = attempted = failed = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        cycle_start = perf_counter()
        for inst in subset:
            dt, ok, plain = runner.run(inst)
            untraced[inst.index].append(dt)
            attempted += 1
            failed += not ok
            if passes == 0:
                digest.update(plain.encode())
            for _ in range(2):
                first = len(tracer.spans)
                tracer.instance = inst.index
                tracer.install()
                try:
                    dt, ok, out = runner.run(inst)
                finally:
                    tracer.uninstall()
                traced[inst.index].append(dt)
                attempted += 1
                failed += not ok
                seen = {**tracer.pop_counters(), **tracer.calls(first)}
                if counts.setdefault(inst.index, seen) != seen:
                    problems.append(f"instance {inst.index}: counters differ between traced executions")
                if out != plain:
                    problems.append(f"instance {inst.index}: traced output differs from untraced output")
                for key, v in tracer.self_times(first).items():
                    self_s[key] = self_s.get(key, 0.0) + v
        passes += 2
        now = perf_counter()
        if now + (now - cycle_start) > deadline:
            break

    for p in problems[:MAX_REPORTED_FAILURES]:
        print(p, file=sys.stderr)
    per_pass = {k: v / passes for k, v in self_s.items()}
    totals: dict = {}
    for seen in counts.values():
        for k, v in seen.items():
            totals[k] = totals.get(k, 0) + v
    overhead = sum(statistics.median(traced[i]) for i in traced) / sum(
        statistics.median(untraced[i]) for i in untraced
    ) - 1
    values = tracing.per_layer(per_pass, totals, overhead)
    metrics = {name: metric(values[name], unit) for name, unit, _ in tracing.PER_LAYER}

    total = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"{wl.name}: {len(subset)} instances, {passes} traced passes; self time per pass {total:.4f} s")
    for layer in tracing.LAYERS:
        v = values[f"{layer}.self_s"]
        print(f"  {layer:10} {v:10.4f} s  {100 * v / total:5.1f}%")
    for name, m in metrics.items():
        print(f"{name:40} {m['value']:.6g} {m['unit']}")
    print(f"outputs_sha256 {digest.hexdigest()}  ({wl.name}, first {wl.traced} instances)")
    spans_path = WORK / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(spans_path, start)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dtspan" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'dtspan'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"inputs-{wl.name}-seed{args.seed}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            dt, cli, pool = setup(wl, args.seed, workdir)
            setup_times.append(dt)
        runner = Runner(cli, wl)
        if args.trace:
            result = traced_run(runner, pool, wl, args.seconds, args.seed)
        else:
            result = timed_run(runner, pool, wl, args.seconds, statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
