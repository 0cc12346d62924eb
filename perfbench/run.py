#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of threecolor.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus-verify --seed 0 --seconds 30 --trace 0

Each run is one process: one caller, one thread, in a closed loop of
passes over the workload's operations (see ``workloads.py``), for about
``--seconds`` seconds; a pass is started only if it is expected to end
in time, and at least one is run.  The library is imported from the
checkout's ``src`` directory, never from an installed copy.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh processes that start, import threecolor and build and
write the inputs), and the medians over passes of ``wall_s`` and
``cpu_s``, plus the process's ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see ``tracing.py``), with the tracing overhead and the
share of time the spans cover.

Every pass's outputs are checked; a wrong output or an exception counts
as a failed operation instead of stopping the run, and ``error_rate``
is failed / attempted.  The last line of stdout is the result object;
the line before it holds the run's details and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}

# Per-layer metrics, with the end-to-end metric and workload each should move.
PER_LAYER = {
    "coloring.count.calls": "wall_s/cpu_s on corpus-verify; none on matrix-lemma",
    "coloring.count.self_s": "wall_s/cpu_s on corpus-verify; none on matrix-lemma",
    "coloring.count.nodes": "wall_s/cpu_s on corpus-verify; none on matrix-lemma",
    "coloring.boundary.calls": "wall_s on tower-chain; at most ~3% of corpus-verify",
    "coloring.boundary.self_s": "wall_s on tower-chain; at most ~3% of corpus-verify",
    "coloring.boundary.nodes": "wall_s on tower-chain; at most ~3% of corpus-verify",
    "coloring.boundary.zero_ratio": "wall_s on tower-chain (wasted pattern pairs)",
    "laminar.extract.calls": "wall_s on tower-chain; under 1% of corpus-verify",
    "laminar.extract.self_s": "wall_s on tower-chain; under 1% of corpus-verify",
    "laminar.decompose.self_s": "wall_s on tower-chain; under 1% of corpus-verify",
    "plane_graph.enumerate_cycles.calls": "wall_s on tower-chain",
    "plane_graph.enumerate_cycles.self_s": "wall_s on tower-chain",
    "plane_graph.region_partition.calls": "wall_s on tower-chain",
    "plane_graph.region_partition.self_s": "wall_s on tower-chain",
    "plane_graph.identify_neighbors.calls": "wall_s on tower-chain",
    "plane_graph.identify_neighbors.self_s": "wall_s on tower-chain",
    "plane_graph.subgraph.calls": "wall_s on tower-chain",
    "plane_graph.subgraph.self_s": "wall_s on tower-chain",
    "transition.matrix.calls": "wall_s on tower-chain",
    "transition.matrix.self_s": "wall_s on tower-chain",
    "transition.compose.calls": "wall_s on tower-chain",
    "transition.compose.self_s": "wall_s on tower-chain",
    "transition.classify.calls": "wall_s on tower-chain",
    "transition.classify.self_s": "wall_s on tower-chain",
    "transition.product_bound.calls": "wall_s on matrix-lemma",
    "transition.product_bound.self_s": "wall_s on matrix-lemma",
    "cli.sample.self_s": "wall_s on matrix-lemma only",
    "cli.sample.doubling_accept_ratio": "wall_s on matrix-lemma only",
    "bounds.verify.self_s": "wall_s on corpus-verify",
    "bounds.main_bound.self_s": "wall_s on corpus-verify",
    "plane_graph.load.self_s": "wall_s on corpus-verify and tower-chain",
    "generators.build_s": "setup_s on corpus-verify and tower-chain",
    "trace.overhead_s": "none: traced minus untraced pass wall time",
    "trace.coverage": "none: share of traced pass time inside layer spans",
}


def import_library():
    """Import threecolor from ROOT/src; return (package, cli module)."""
    src = ROOT / "src"
    if not (src / "threecolor" / "__init__.py").is_file():
        raise ImportError(f"no threecolor package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import threecolor
    from threecolor import cli
    if Path(threecolor.__file__).resolve().parent != src / "threecolor":
        raise ImportError(f"threecolor was imported from {threecolor.__file__}, "
                          f"not from {src}")
    return threecolor, cli


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment(tc) -> dict:
    import mpmath
    import numpy
    backend = getattr(tc, "kernel_backend", None)
    return {"kernel_backend": backend() if backend else None,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "THREECOLOR_PURE": os.environ.get("THREECOLOR_PURE"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "commit": _commit()}


class Outcome:
    """Counts of attempted and failed operations, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, workload, outputs):
        for name, out in outputs:
            self.attempted += 1
            try:
                problem = workload.check(name, out)
            except Exception as exc:   # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self.fail(f"{name}: {problem}")

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:500])


def run_pass(workload, tc, cli):
    """One pass; returns (outputs, wall seconds, cpu seconds)."""
    ops = workload.ops(tc, cli)
    outputs = []
    w0, c0 = time.perf_counter(), time.process_time()
    for name, thunk in ops:
        try:
            out = thunk()
        except Exception as exc:     # counted as a failed operation
            out = {"exception": f"{type(exc).__name__}: {exc}"}
        outputs.append((name, out))
    return outputs, time.perf_counter() - w0, time.process_time() - c0


def _setup_process_s(args, workdir: Path) -> float:
    """Wall time of a fresh process that imports and writes the inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir)]
    if args.smoke:
        argv.append("--smoke")
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(args) -> tuple[dict, dict]:
    """Run one benchmark run; return (result object, details)."""
    tc, cli = import_library()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    build_root = ROOT / ".bench_build"
    build_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_root))
    outcome = Outcome()
    try:
        setup_s = []
        if not args.trace:
            for i in range(1 if args.smoke else SETUP_REPEATS):
                d = workdir / f"setup{i}"
                d.mkdir()
                setup_s.append(_setup_process_s(args, d))
        build_s = workload.setup(tc, workdir)

        walls, cpus, traced_walls, layer_runs, covered = [], [], [], [], []
        start = time.perf_counter()
        while True:
            outputs, wall, cpu = run_pass(workload, tc, cli)
            walls.append(wall)
            cpus.append(cpu)
            outcome.record(workload, outputs)
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced, wall, _ = run_pass(workload, tc, cli)
                traced_walls.append(wall)
                layer_runs.append(tracer.metrics())
                covered.append(tracer.covered_s / wall)
                if traced != outputs:
                    outcome.fail("traced pass output differs from untraced pass")
            per_pass = _median(walls) + _median(traced_walls)
            if args.smoke or time.perf_counter() - start + per_pass > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: (statistics.median_low([r[name] for r in layer_runs]),
                          _layer_unit(name))
                   for name in PER_LAYER if name in layer_runs[0]}
        metrics["generators.build_s"] = (build_s, "s")
        metrics["trace.overhead_s"] = (_median(traced_walls) - _median(walls), "s")
        metrics["trace.coverage"] = (_median(covered), "ratio")
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": _median(setup_s), "wall_s": _median(walls),
                  "cpu_s": _median(cpus), "peak_rss_mb": peak_rss}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(walls), "pass_wall_s": walls,
               "setup_process_s": setup_s if not args.trace else None,
               "error_rate": outcome.failed / max(1, outcome.attempted),
               "failures": outcome.failures, "env": environment(tc)}
    return result, details


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and a single pass, for the tests")
    p.add_argument("--setup-only", action="store_true",
                   help="build and write the inputs into --workdir, then exit")
    p.add_argument("--workdir", type=Path)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        tc, _cli = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import threecolor: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.smoke).setup(tc, args.workdir)
        return 0
    result, details = measure(args)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    # Set iteration order, and so search order, depends on the hash seed.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])
    sys.exit(main())
