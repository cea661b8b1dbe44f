"""Declarations of the benchmark: its workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``); the self-test
checks that the committed file matches. Nothing here imports ``repro``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

#: Host seconds one run spends repeating the workload (at least
#: ``MIN_REPEATS`` passes are made whatever this says). Every workload's
#: pass takes more than a third of this on the 2-core Xeon development
#: host, so each run makes exactly ``MIN_REPEATS`` passes: ``wall_s``
#: takes a minimum over the passes, which falls as passes are added.
RUN_SECONDS = 10
MIN_REPEATS = 3
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3

#: Workload names and why each was chosen (details in workloads.py).
WORKLOAD_WHY = {
    "eco-poisson": "EcoFaaS at medium Poisson load: predictor, MLP, MILP"
                   " and DPT work dominate host time",
    "baseline-poisson": "MXFaaS baseline at the same load: bypasses"
                        " predictor, MLP and MILP; kernel, scheduler and"
                        " frontend dominate",
    "eco-faults": "EcoFaaS under a calibrated fault mix with guard, HA and"
                  " cancel armed: retry, abort and cancel paths",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


#: End-to-end metrics (``--trace 0``). Host timings are in scaled seconds
#: (hostclock.py), reduced over the run's repeats; simulated outcomes
#: repeat exactly for a seed, and their bound covers the spread across
#: seeds.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("energy_j", "J", "lower", 0.15),
    Metric("energy_per_workflow_j", "J", "lower", 0.15),
    Metric("p99_latency_s", "s", "lower", 0.25),
    Metric("slo_met_rate", "ratio", "higher", 0.2),
    Metric("completed_ratio", "ratio", "higher", 0.2),
    Metric("completed", "count", "higher", 0.15),
]


class LayerView(NamedTuple):
    """What a per-layer metric is computed from."""

    count: Callable[[str], int]          # calls of one traced function
    calls_of: Callable[[str], int]       # calls of every method of a class
    self_s: Callable[[str], float]       # self time of a component/layer
    sim: Dict[str, Any]                  # pooled simulated outcome
    overhead: float
    coverage: float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_PRED = "core.predictor:FrequencyProfile."

#: Per-layer metrics (``--trace 1``): name -> (unit, extractor). Counts
#: of calls and simulated counters are exact and repeat for a seed;
#: ``self_s`` values are host time and noisy.
PER_LAYER: Dict[str, tuple] = {
    "sim.events": ("count", lambda v: v.count("sim.engine:Environment.step")),
    "sim.self_s": ("s", lambda v: v.self_s("sim")),
    "hardware.core.starts": (
        "count", lambda v: v.count("hardware.core:Core.start")),
    "hardware.core.freq_sets": (
        "count", lambda v: v.count("hardware.core:Core.set_frequency")),
    "hardware.energy.adds": (
        "count", lambda v: v.count("hardware.energy:EnergyMeter.add")),
    "hardware.self_s": ("s", lambda v: v.self_s("hardware")),
    "workloads.samples": (
        "count",
        lambda v: v.count("workloads.model:FunctionModel.sample_invocation")),
    "workloads.self_s": ("s", lambda v: v.self_s("workloads")),
    "traces.self_s": ("s", lambda v: v.self_s("traces")),
    "platform.cluster.pick_node.calls": (
        "count", lambda v: v.count("platform.cluster:Cluster.pick_node")),
    "platform.cluster.self_s": ("s", lambda v: v.self_s("platform.cluster")),
    "platform.scheduler.submits": (
        "count",
        lambda v: v.count("platform.scheduler:CorePoolScheduler.submit")),
    "platform.scheduler.load_reads": (
        "count",
        lambda v: v.count("platform.scheduler:CorePoolScheduler.load")),
    "platform.scheduler.self_s": (
        "s", lambda v: v.self_s("platform.scheduler")),
    "platform.self_s": ("s", lambda v: v.self_s("platform")),
    "platform.cold_starts": (
        "count", lambda v: v.sim["counters"]["cold_starts"]),
    "platform.retries": ("count", lambda v: v.sim["counters"]["retries"]),
    "platform.timeouts": ("count", lambda v: v.sim["counters"]["timeouts"]),
    "platform.crash_redispatches": (
        "count", lambda v: v.sim["counters"]["crash_redispatches"]),
    "platform.lost_invocations": (
        "count", lambda v: v.sim["counters"]["lost_invocations"]),
    "platform.queue_s.p50": ("s", lambda v: v.sim["queue_p50_s"]),
    "platform.queue_s.p99": ("s", lambda v: v.sim["queue_p99_s"]),
    "core.predictor.predictions": (
        "count", lambda v: (v.count(_PRED + "predict_t_run")
                            + v.count(_PRED + "predict_energy")
                            + v.count(_PRED + "predict_t_block"))),
    "core.predictor.observes": ("count", lambda v: v.count(_PRED + "observe")),
    "core.predictor.fits": (
        "count", lambda v: v.count("core.predictor:fit_compute_memory")),
    "core.predictor.fits_per_observe": (
        "ratio", lambda v: _ratio(v.count("core.predictor:fit_compute_memory"),
                                  v.count(_PRED + "observe"))),
    "core.predictor.self_s": ("s", lambda v: v.self_s("core.predictor")),
    "core.mlp.train_steps": (
        "count", lambda v: v.count("core.mlp:MLPRegressor.partial_fit")),
    "core.mlp.predicts": (
        "count", lambda v: v.count("core.mlp:MLPRegressor.predict_one")),
    "core.mlp.self_s": ("s", lambda v: v.self_s("core.mlp")),
    "core.milp.solves": ("count", lambda v: v.count("core.milp:solve_milp")),
    "core.milp.bb_nodes": ("count", lambda v: v.sim["milp_nodes"]),
    "core.milp.exhausted": ("count", lambda v: v.sim["milp_exhausted"]),
    "core.milp.self_s": ("s", lambda v: v.self_s("core.milp")),
    "core.dpt.splits": (
        "count", lambda v: v.count("core.dpt:split_deadlines")),
    "core.dpt.self_s": ("s", lambda v: v.self_s("core.dpt")),
    "core.dispatcher.registers": (
        "count",
        lambda v: v.count("core.dispatcher:EnergyAwareDispatcher.register")),
    "core.dispatcher.self_s": ("s", lambda v: v.self_s("core.dispatcher")),
    "core.node.refreshes": (
        "count", lambda v: v.count("core.node:EcoFaaSNode.refresh")),
    "core.node.self_s": ("s", lambda v: v.self_s("core.node")),
    "core.workflow_controller.self_s": (
        "s", lambda v: v.self_s("core.workflow_controller")),
    "core.self_s": ("s", lambda v: v.self_s("core")),
    "baselines.self_s": ("s", lambda v: v.self_s("baselines")),
    "guard.checks": (
        "count", lambda v: v.calls_of("guard.runtime:GuardRuntime")),
    "guard.self_s": ("s", lambda v: v.self_s("guard")),
    "guard.breaker_opens": (
        "count", lambda v: v.sim["counters"]["breaker_opens"]),
    "ha.checks": ("count", lambda v: v.calls_of("ha.runtime:HARuntime")),
    "ha.self_s": ("s", lambda v: v.self_s("ha")),
    "ha.redispatches": (
        "count", lambda v: v.sim["counters"]["ha_redispatches"]),
    "cancel.checks": (
        "count", lambda v: v.calls_of("cancel.runtime:CancelRuntime")),
    "cancel.self_s": ("s", lambda v: v.self_s("cancel")),
    "cancel.doomed_workflows": (
        "count", lambda v: v.sim["counters"]["doomed_workflows"]),
    "faults.self_s": ("s", lambda v: v.self_s("faults")),
    "trace.overhead": ("ratio", lambda v: v.overhead),
    "trace.coverage": ("ratio", lambda v: v.coverage),
}

#: Per-layer counts that must be exactly zero on a workload (the
#: self-test and every traced run check them).
_OPT_IN_COUNTS = ("guard.checks", "ha.checks", "cancel.checks",
                  "guard.breaker_opens", "ha.redispatches",
                  "cancel.doomed_workflows")
MUST_BE_ZERO = {
    "eco-poisson": _OPT_IN_COUNTS,
    "baseline-poisson": ("core.predictor.predictions",
                         "core.predictor.observes", "core.predictor.fits",
                         "core.mlp.train_steps", "core.mlp.predicts",
                         "core.milp.solves", "core.dpt.splits")
                        + _OPT_IN_COUNTS,
}


def benchmark_json() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document these declarations define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": ("higher" if name == "trace.coverage"
                                  else "lower")}
                      for name, (unit, _) in PER_LAYER.items()],
    }
