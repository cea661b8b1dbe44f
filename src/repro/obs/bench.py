"""``repro bench``: benchmark telemetry and regression detection.

Runs a fixed, seed-pinned panel of representative experiments (baseline
and EcoFaaS under low load, chaos, guarded overload, and an HA
partition), measuring for each

* **wall-time** and **peak RSS** — the cost of running the reproduction
  itself (the only nondeterministic numbers in the file), and
* **simulated energy, p99 workflow latency, SLO-miss rate, completed
  workflows** — seed-deterministic results that double as a coarse
  correctness fingerprint.

The panel is written to ``BENCH_<date>.json``; ``--compare <old.json>``
diffs two such files and flags (a) wall-time regressions beyond a
tolerance and (b) *any* drift in the simulated metrics of a same-named
experiment, since those are bit-deterministic given the pinned seeds —
a drift means behavior changed, not noise. Both checks require the two
files to come from the same panel size (``quick``) — cross-size files
only get the experiment-presence check.

Each experiment entry also carries a ``profile`` section (events/sec,
wall-conservation, top self-time components) from the kernel
self-profiler (``repro.obs.prof``), and :func:`run_profile` drives the
dedicated ``repro profile`` scaling scenario: one pinned workload at a
ladder of trace-duration multipliers, with full hotspot tables and
collapsed-stack output per scale. :func:`history` walks every
``BENCH_*.json`` in a directory and lines the panels up as per-
experiment wall-time / energy trajectories.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines import BaselineSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import chaos as chaos_experiment
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults import FaultPlan
from repro.obs import prof as prof_mod
from repro.platform.cluster import ClusterConfig
from repro.session import RunSession

#: Simulated (seed-deterministic) metric keys compared exactly.
SIM_METRICS = ("energy_j", "p99_latency_s", "slo_miss_rate", "completed")

#: Wall-time regression thresholds for ``--compare``: both the relative
#: and the absolute bar must be exceeded (filters scheduler noise on
#: sub-second experiments).
WALL_REL_TOLERANCE = 0.30
WALL_ABS_FLOOR_S = 0.5


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None  # non-POSIX platform: omit the column


def _measure(cluster) -> Dict[str, Any]:
    summary = dict(cluster.metrics.bench_summary())
    summary["energy_j"] = round(cluster.total_energy_j, 6)
    return summary


def _scenarios(quick: bool) -> List[Tuple[str, Callable[[], Any]]]:
    """The benchmark panel: (name, runner) pairs, seeds pinned."""
    duration = 8.0 if quick else 30.0
    n_servers = 2 if quick else 3
    cores = 20

    def low_load(system_factory):
        def runner():
            trace = make_load_trace("low", n_servers, duration, seed=3)
            return run_cluster(system_factory(), trace,
                               ClusterConfig(n_servers=n_servers, seed=3))
        return runner

    def chaos():
        trace = make_load_trace("medium", n_servers, duration, seed=4)
        plan = FaultPlan.calibrated(
            duration_s=duration, n_servers=n_servers,
            functions=chaos_experiment.all_function_names(), seed=5)
        config = ClusterConfig(
            n_servers=n_servers, seed=4, drain_s=10.0,
            reliability=chaos_experiment.default_policy())
        return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config,
                           fault_plan=plan)

    def overload():
        trace = make_load_trace("high", n_servers, duration, seed=6,
                                cores_per_server=cores)
        config = ClusterConfig(
            n_servers=n_servers, seed=6,
            guard=overload_experiment.guard_config(n_servers, cores))
        return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)

    def partition():
        return partition_experiment.run_one(
            seed=0, with_faults=True,
            duration_s=max(duration, 60.0) if not quick else 60.0,
            n_servers=3)

    return [
        ("baseline_low", low_load(BaselineSystem)),
        ("ecofaas_low", low_load(lambda: EcoFaaSSystem(EcoFaaSConfig()))),
        ("ecofaas_chaos", chaos),
        ("ecofaas_overload", overload),
        ("ecofaas_partition", partition),
    ]


def _profile_section(profiler: prof_mod.Profiler, wall_s: float,
                     top_n: int = 3) -> Dict[str, Any]:
    """The per-experiment ``profile`` entry of a BENCH document."""
    return {
        "events_per_s": round(profiler.pops / wall_s, 1) if wall_s else 0.0,
        "wall_conservation": round(
            profiler.profiled_s() / wall_s, 4) if wall_s else 0.0,
        "top_components": [
            {"component": row["component"], "self_s": row["self_s"],
             "share": row["share"]}
            for row in profiler.by_component()[:top_n]
        ],
    }


def run_bench(quick: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              profile: bool = True,
              fingerprints: bool = False) -> Dict[str, Any]:
    """Run the panel and return the BENCH document.

    ``profile`` arms the kernel self-profiler around each experiment and
    adds its events/sec, wall-conservation, and top components to the
    entry; it reads only the host wall-clock, so the simulated metrics
    are identical either way.

    ``fingerprints`` additionally arms a tracer with a progressive
    fingerprint recorder per experiment and stores each entry's chain
    digests, letting ``--compare`` point at the first diverging epoch
    and subsystem when a simulated metric drifts. Off by default: the
    tracer costs wall-time, so fingerprinted panels should only be
    wall-compared against other fingerprinted panels.
    """
    import repro.obs as obs
    experiments: Dict[str, Any] = {}
    # ru_maxrss is a process-lifetime *high-water mark*, not current
    # usage: it can only ever rise. rss_grew_kb is therefore the growth
    # of that high-water mark while the entry ran — order-dependent by
    # nature (the biggest experiment claims the growth; later entries
    # that fit under its peak report 0), hence panel_index.
    rss_high_water = _peak_rss_kb()
    for index, (name, runner) in enumerate(_scenarios(quick)):
        if progress is not None:
            progress(f"bench: running {name} ...")
        profiler = prof_mod.Profiler() if profile else None
        tracer = obs.Tracer(
            fingerprint=obs.FingerprintRecorder()) if fingerprints else None
        t0 = time.perf_counter()
        with RunSession(tracer=tracer, profiler=profiler):
            if profiler is not None:
                profiler.start()
            cluster = runner()
            if profiler is not None:
                profiler.stop()
        wall = time.perf_counter() - t0
        entry = _measure(cluster)
        if tracer is not None and tracer.fingerprint.entries:
            last = tracer.fingerprint.entries[-1]
            entry["fingerprint"] = {"final": last["final"],
                                    "n_epochs": last["n_epochs"],
                                    "chains": last["chains"]}
        entry["panel_index"] = index
        entry["wall_s"] = round(wall, 3)
        rss = _peak_rss_kb()
        entry["peak_rss_kb"] = rss
        if rss is not None and rss_high_water is not None:
            entry["rss_grew_kb"] = max(0, rss - rss_high_water)
            rss_high_water = max(rss_high_water, rss)
        else:
            entry["rss_grew_kb"] = None
        if profiler is not None:
            entry["profile"] = _profile_section(profiler, wall)
        experiments[name] = entry
    return {
        "source": "repro bench (EcoFaaS reproduction)",
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "rss_note": "rss_grew_kb tracks the process high-water mark and"
                    " depends on panel order (see panel_index)",
        "experiments": experiments,
    }


def default_path(document: Dict[str, Any]) -> str:
    return f"BENCH_{document['date']}.json"


def write_bench(document: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def compare(old: Dict[str, Any], new: Dict[str, Any],
            wall_rel_tolerance: float = WALL_REL_TOLERANCE
            ) -> List[str]:
    """Regression findings between two BENCH documents (empty = clean).

    Wall-time is noisy, so it only flags past both a relative and an
    absolute threshold. The simulated metrics are seed-deterministic, so
    any drift at all is flagged. Both checks are skipped entirely when
    the two files were produced at different panel sizes (``quick``
    mismatch): a full panel is legitimately many times slower than a
    quick one, so a cross-size wall comparison is pure noise — only
    experiment presence is checked.
    """
    findings: List[str] = []
    comparable = old.get("quick") == new.get("quick")
    if not comparable:
        findings.append(
            f"panel size mismatch: old quick={old.get('quick')} vs"
            f" new quick={new.get('quick')} — wall-time and simulated"
            f" metrics not compared")
    old_exp = old.get("experiments", {})
    new_exp = new.get("experiments", {})
    for name in sorted(old_exp):
        if name not in new_exp:
            findings.append(f"{name}: experiment missing from new run")
            continue
        if not comparable:
            continue
        before, after = old_exp[name], new_exp[name]
        wall_before = before.get("wall_s") or 0.0
        wall_after = after.get("wall_s") or 0.0
        if (wall_after > wall_before * (1.0 + wall_rel_tolerance)
                and wall_after - wall_before > WALL_ABS_FLOOR_S):
            findings.append(
                f"{name}: wall-time regression"
                f" {wall_before:.2f}s -> {wall_after:.2f}s"
                f" (+{100.0 * (wall_after / max(wall_before, 1e-9) - 1):.0f}%)")
        drifted = False
        for key in SIM_METRICS:
            a, b = before.get(key), after.get(key)
            if a is None and b is None:
                continue
            if a is None or b is None or (
                    abs(a - b) > 1e-9 * max(abs(a), abs(b), 1.0)):
                drifted = True
                findings.append(
                    f"{name}: simulated metric {key} drifted"
                    f" {a} -> {b} (same-seed run; behavior changed)")
        if drifted:
            finding = _first_divergence_finding(name, before, after)
            if finding is not None:
                findings.append(finding)
    return findings


def _first_divergence_finding(name: str, before: Dict[str, Any],
                              after: Dict[str, Any]) -> Optional[str]:
    """Point a sim-metric drift at its first diverging epoch/subsystem.

    Available when both panels ran with ``--fingerprints``; chains are
    bisected exactly as ``repro diff`` does.
    """
    from repro.obs.diff import PRIORITY, first_mismatch
    chains_a = (before.get("fingerprint") or {}).get("chains")
    chains_b = (after.get("fingerprint") or {}).get("chains")
    if not chains_a or not chains_b:
        return None
    diverged = []
    for sub in set(chains_a) & set(chains_b):
        epoch = first_mismatch(chains_a[sub], chains_b[sub])
        if epoch is not None:
            diverged.append((sub, epoch))
    if not diverged:
        return (f"{name}: fingerprint chains agree despite the drift"
                f" (divergence is outside the chained subsystems)")
    rank = {sub: i for i, sub in enumerate(PRIORITY)}
    sub, epoch = min(diverged,
                     key=lambda d: (d[1], rank.get(d[0], len(rank))))
    return (f"{name}: first divergence at epoch {epoch} in subsystem"
            f" '{sub}' (re-run with --trace --fingerprints and"
            f" `repro diff` for the decision-level delta)")


# ---------------------------------------------------------------------------
# repro profile: the pinned scaling scenario
# ---------------------------------------------------------------------------
def _profile_scenario(scale: float, quick: bool):
    """One pinned profiling run at ``scale``× the base trace duration.

    EcoFaaS under medium load — the configuration that exercises every
    instrumented component (predictor, DPT/MILP splits, energy
    integration, pool retunes) without the fault machinery's extra
    variance. Seeds pinned so the simulated metrics double as a
    determinism check against an unprofiled run.
    """
    duration = (8.0 if quick else 20.0) * scale
    n_servers = 2 if quick else 3
    trace = make_load_trace("medium", n_servers, duration, seed=7)
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                       ClusterConfig(n_servers=n_servers, seed=7))


def run_profile(scales: Tuple[float, ...] = (1, 3, 10),
                quick: bool = True,
                progress: Optional[Callable[[str], None]] = None
                ) -> Dict[str, Any]:
    """Profile the pinned scenario at each trace-duration multiplier.

    Returns the PROFILE document: one entry per scale with the hotspot
    rows, component tree, collapsed-stack text, kernel counters, and the
    wall-conservation ratio (self-times over externally measured wall).
    """
    entries: List[Dict[str, Any]] = []
    for scale in scales:
        if progress is not None:
            progress(f"profile: running scale {scale:g}x ...")
        profiler = prof_mod.Profiler()
        with RunSession(profiler=profiler):
            t0 = time.perf_counter()
            profiler.start()
            cluster = _profile_scenario(scale, quick)
            profiler.stop()
            wall = time.perf_counter() - t0
        entries.append({
            "scale": scale,
            "wall_s": round(wall, 4),
            "profiled_s": round(profiler.profiled_s(), 4),
            "wall_conservation": round(
                profiler.profiled_s() / wall, 4) if wall else 0.0,
            "events_per_s": round(profiler.pops / wall, 1) if wall else 0.0,
            "sim_metrics": _measure(cluster),
            "counters": profiler.counters(),
            "components": profiler.by_component(),
            "tree": profiler.tree(),
            "collapsed": profiler.collapsed(),
        })
    return {
        "source": "repro profile (EcoFaaS reproduction)",
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "scales": entries,
    }


def default_profile_collapsed_path(document: Dict[str, Any],
                                   scale: float) -> str:
    return f"PROFILE_{document['date']}.scale{scale:g}.collapsed"


# ---------------------------------------------------------------------------
# repro bench --history: the BENCH_*.json trajectory
# ---------------------------------------------------------------------------
def history(directory: str = ".") -> Dict[str, Any]:
    """Collect every ``BENCH_*.json`` under ``directory`` into one view.

    Files are ordered by name — the date-stamped default filenames sort
    chronologically — and grouped per experiment as wall-time / energy
    trajectories. Unreadable files are reported, not fatal.
    """
    points: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as handle:
                document = json.load(handle)
            experiments = document["experiments"]
        except (OSError, ValueError, KeyError, TypeError) as error:
            skipped.append(f"{os.path.basename(path)}: {error}")
            continue
        points.append({
            "file": os.path.basename(path),
            "date": document.get("date"),
            "quick": document.get("quick"),
            "experiments": {
                name: {"wall_s": entry.get("wall_s"),
                       "energy_j": entry.get("energy_j")}
                for name, entry in experiments.items()
            },
        })
    names = sorted({name for point in points
                    for name in point["experiments"]})
    return {
        "source": "repro bench --history",
        "directory": directory,
        "files": [point["file"] for point in points],
        "skipped": skipped,
        "experiments": {
            name: [
                {"file": point["file"], "date": point["date"],
                 "quick": point["quick"],
                 **point["experiments"][name]}
                for point in points if name in point["experiments"]
            ]
            for name in names
        },
    }


def format_history(document: Dict[str, Any]) -> str:
    """Render a :func:`history` document as per-experiment text tables."""
    if not document["files"]:
        return (f"no BENCH_*.json files under {document['directory']}\n")
    lines = [f"== bench history: {len(document['files'])} panel(s)"
             f" under {document['directory']} =="]
    for name, trajectory in document["experiments"].items():
        lines.append(f"-- {name} --")
        lines.append(f"  {'file':24s}  {'panel':5s}  {'wall_s':>8s}"
                     f"  {'energy_j':>12s}")
        for point in trajectory:
            wall = point.get("wall_s")
            energy = point.get("energy_j")
            lines.append(
                f"  {point['file']:24s}"
                f"  {'quick' if point.get('quick') else 'full':5s}"
                f"  {wall if wall is not None else '-':>8}"
                f"  {energy if energy is not None else '-':>12}")
    for note in document["skipped"]:
        lines.append(f"skipped {note}")
    return "\n".join(lines) + "\n"
