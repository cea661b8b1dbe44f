#!/usr/bin/env python3
"""The repository benchmark: host cost and simulated outcome of ``repro``.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload eco-poisson --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics: host time to set up and to
simulate the workload (in scaled seconds, see hostclock.py, reduced
over repeats), peak memory, and the simulated energy, tail latency, SLO
attainment and completions.
``--trace 1`` runs the workload once untraced and twice with every
``repro`` layer wrapped in spans, and prints the per-layer metrics.
Both check the simulator's outputs and exit 1 when a check fails. The
last line of standard output is a JSON summary; the full result (with a
run manifest, and the spans of a traced run) goes to ``.perfbench-out/``.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from spec.py.
"""

import time

_T_START = time.perf_counter()
_C_START = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

# One thread, as the workloads are measured single-threaded: numpy's
# OpenBLAS otherwise starts a thread per core at import, which cost about
# 0.13 s of set-up on the 2-core development host, some runs and not
# others. Set before anything imports numpy; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spec  # noqa: E402


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every ``src/`` Python file: identifies the code even
    where the checkout is not a git clone."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, workload, repeats: int) -> Dict[str, Any]:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "repeats": repeats,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
SETUP_REF_REPEATS = 5


def setup_probe(args) -> int:
    """Child-process mode: import, then build every shard; print the
    set-up time in raw and in scaled seconds (see hostclock.py)."""
    import hostclock
    timer = hostclock.SegmentTimer(repeats=SETUP_REF_REPEATS)
    # From the first line of this file to here: the standard library,
    # argument parsing and the benchmark's own modules.
    timer.add(time.perf_counter() - _T_START, time.process_time() - _C_START)
    timer.calibrate()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    from workloads import WORKLOADS, build_shard
    workload = WORKLOADS[args.workload]
    for shard in range(workload.shards):
        build_shard(workload, args.seed, shard)
        timer.add(time.perf_counter() - wall0, time.process_time() - cpu0)
        wall0, cpu0 = time.perf_counter(), time.process_time()
    timer.close()
    # Set-up is one long segment (the imports) and a few short ones, so
    # it is scaled by the median of all its reference timings, each a
    # median of several: one slow timing next to the imports would
    # otherwise skew the whole figure.
    raw = sum(seg[0] for seg in timer.segments)
    ref = statistics.median(wall for wall, _ in timer.refs)
    print(json.dumps({"setup_s": raw * hostclock.REF_NOMINAL_S / ref,
                      "raw_s": raw}))
    return 0


def measure_setup(args, probes: int) -> List[Dict[str, float]]:
    """``setup_s`` samples, each from a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def one_pass(workload, seed: int, timed: bool = False) -> list:
    """Build and simulate every shard once; the shard outcomes in order.

    ``timed`` simulates in timed slices (workloads.TimedEnvironment).
    """
    from workloads import build_shard, simulate
    outcomes = []
    for shard in range(workload.shards):
        cluster, trace = build_shard(workload, seed, shard, timed=timed)
        outcomes.append(simulate(cluster, trace))
        del cluster
    return outcomes


def check_pass(outcomes, reference, label: str) -> List[str]:
    """Output checks on one pass, against the first pass's fingerprints."""
    from workloads import check_shard
    problems = []
    for shard, out in enumerate(outcomes):
        problems += [f"{label} shard {shard}: {p}" for p in check_shard(out)]
        if reference is not None and out.fingerprint != reference[shard]:
            problems.append(f"{label} shard {shard}: cluster fingerprint"
                            f" {out.fingerprint[:16]} differs from the"
                            f" first pass's {reference[shard][:16]}")
    return problems


def end_to_end(args, workload, probes: int = spec.SETUP_PROBES
               ) -> Dict[str, Any]:
    from workloads import pooled
    setup = measure_setup(args, probes)
    passes = []
    problems: List[str] = []
    reference = None
    start = time.perf_counter()
    while (len(passes) < spec.MIN_REPEATS
           or time.perf_counter() - start < args.seconds):
        outcomes = one_pass(workload, args.seed, timed=True)
        problems += check_pass(outcomes, reference, f"repeat {len(passes)}")
        if reference is None:
            reference = [o.fingerprint for o in outcomes]
        passes.append(outcomes)
    walls = [sum(o.wall_s for o in p) for p in passes]
    cpus = [sum(o.cpu_s for o in p) for p in passes]

    def fastest_slices(index: int) -> float:
        # Every pass simulates the same slices. Each slice's fastest
        # scaled time over the passes, summed: what is left of a slow
        # spell after scaling (hostclock.py) hits one pass of a slice, not
        # all of them.
        total = 0.0
        for shard in range(workload.shards):
            for runs in zip(*(p[shard].scaled for p in passes)):
                total += min(run[index] for run in runs)
        return total

    sim = pooled(passes[0])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": fastest_slices(0),
        "cpu_s": fastest_slices(1),
        # ru_maxrss is KiB on Linux. This process runs one workload only,
        # so the peak does not depend on what ran before it.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_j": sim["energy_j"],
        "energy_per_workflow_j": sim["energy_per_workflow_j"],
        "p99_latency_s": sim["p99_latency_s"],
        "slo_met_rate": 1.0 - sim["slo_miss_rate"],
        "completed_ratio": 1.0 - sim["failed_ratio"],
        "completed": sim["completed"],
    }
    return {
        "metrics": metrics,
        "units": {m.name: m.unit for m in spec.END_TO_END},
        "problems": problems,
        "attempted": len(passes) * workload.shards,
        "repeats": len(passes),
        "detail": {
            "setup_s_samples": [s["setup_s"] for s in setup],
            "setup_raw_s_samples": [s["raw_s"] for s in setup],
            "raw_wall_s_per_repeat": walls,
            "raw_cpu_s_per_repeat": cpus,
            "simulated": sim,
            "fingerprints": reference,
        },
    }


def traced_pass(workload, seed: int, untraced_wall: float):
    """One pass with every layer wrapped.

    Returns the tracer, the shard outcomes, the pooled simulated outcome
    (with the MILP branch-and-bound totals) and the tracing overhead.
    """
    from tracing import SpanTracer
    from workloads import pooled
    milp = {"milp_nodes": 0, "milp_exhausted": 0}

    def on_solve(solution):
        milp["milp_nodes"] += solution.nodes_explored
        milp["milp_exhausted"] += int(solution.exhausted)

    tracer = SpanTracer({"core.milp:solve_milp": on_solve}).install()
    try:
        tracer.start()
        outcomes = one_pass(workload, seed)
        tracer.stop()
    finally:
        tracer.uninstall()
    sim = pooled(outcomes)
    sim.update(milp)
    overhead = sum(o.wall_s for o in outcomes) / untraced_wall - 1.0
    return tracer, outcomes, sim, overhead


def layer_values(tracer, sim, overhead: float) -> Dict[str, float]:
    view = spec.LayerView(
        count=tracer.count, calls_of=tracer.calls_of,
        self_s=tracer.self_s_of, sim=sim, overhead=overhead,
        coverage=sum(tracer.self_s) / tracer.window_s)
    return {name: extract(view)
            for name, (_, extract) in spec.PER_LAYER.items()}


def per_layer(args, workload) -> Dict[str, Any]:
    # The untraced pass runs in timed slices, so the fingerprint checks
    # below also show that slicing changes nothing simulated.
    untraced = one_pass(workload, args.seed, timed=True)
    problems = check_pass(untraced, None, "untraced")
    reference = [o.fingerprint for o in untraced]
    untraced_wall = sum(o.wall_s for o in untraced)
    runs = []
    for index in range(2):
        tracer, outcomes, sim, overhead = traced_pass(
            workload, args.seed, untraced_wall)
        # The wrappers only read: a traced run must simulate exactly what
        # the untraced one did.
        problems += check_pass(outcomes, reference, f"traced run {index}")
        values = layer_values(tracer, sim, overhead)
        runs.append({"values": values, "calls": tracer.counts(),
                     "self_s": tracer.component_self_s(),
                     "spans": tracer.n_spans})
        if index == 0:
            os.makedirs(OUT_DIR, exist_ok=True)
            # One spans file per workload, replaced by its next traced
            # run: a file holds millions of spans.
            tracer.write_spans(os.path.join(
                OUT_DIR, f"{workload.name}.spans.csv.gz"))
        del tracer
    first, second = runs
    # Exact-count determinism: call counts and simulated counters of two
    # traced runs of one seed must agree exactly.
    if first["calls"] != second["calls"]:
        moved = sorted(k for k in set(first["calls"]) | set(second["calls"])
                       if first["calls"].get(k) != second["calls"].get(k))
        problems.append(f"call counts differ between traced runs: {moved}")
    units = {name: unit for name, (unit, _) in spec.PER_LAYER.items()}
    metrics = {}
    for name, unit in units.items():
        a, b = first["values"][name], second["values"][name]
        if unit == "count" and a != b:
            problems.append(f"{name} differs between traced runs: {a} != {b}")
        metrics[name] = a if unit == "count" else statistics.median([a, b])
    for name in spec.MUST_BE_ZERO.get(workload.name, ()):
        if metrics[name] != 0:
            problems.append(f"{name} must be 0 on {workload.name},"
                            f" got {metrics[name]}")
    return {
        "metrics": metrics,
        "units": units,
        "problems": problems,
        "attempted": 3 * workload.shards,
        "repeats": 2,
        "detail": {
            "calls": first["calls"],
            "component_self_s": [r["self_s"] for r in runs],
            "spans": first["spans"],
            "untraced_wall_s": untraced_wall,
            "fits_per_observe_base": "fit_compute_memory calls per"
                                     " FrequencyProfile.observe call",
        },
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_benchmark_json:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    result = (per_layer if args.trace else end_to_end)(args, workload)
    problems = result["problems"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {workload.name}, seed {args.seed}: {workload.shards}"
          f" shards x {workload.trace_s:g} s of trace, {result['repeats']}"
          f" repeats")
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {result['units'][name]}")
    document = {
        "manifest": manifest(args, workload, result["repeats"]),
        "correct": not problems,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
        "detail": result["detail"],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": len(problems),
        "metrics": document["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
