"""The benchmark's workloads: seeded cluster runs of the ``repro`` simulator.

A workload is a fixed set of independent *shards*. Each shard is one
cluster simulating one open-loop Poisson trace (arrivals drawn in
simulated time, whatever the cluster's state) from a sub-seed derived
from the benchmark seed. Pooling several short shards steadies the
simulated outcomes across seeds far more cheaply than one long trace,
whose host cost grows faster than its length on EcoFaaS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import BaselineSystem
from repro.cancel import CancelConfig
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import chaos
from repro.experiments.common import make_load_trace
from repro.faults import FaultPlan
from repro.guard.config import GuardConfig
from repro.ha import HAConfig
from repro.obs.fingerprint import cluster_fingerprint
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.metrics import percentile
from repro.sim import Environment

from hostclock import SegmentTimer

#: Section VII load level every workload runs at (50 % CPU utilisation).
LOAD_LEVEL = "medium"

#: Relative tolerance of the energy-conservation check.
ENERGY_RTOL = 1e-9

#: Simulated seconds per timed slice of a shard (TimedEnvironment).
SLICE_S = 0.25


@dataclass(frozen=True)
class Workload:
    """One named workload: the cluster shape and how it is sharded."""

    name: str
    system: str          # "ecofaas" or "baseline"
    n_servers: int
    trace_s: float       # simulated trace length of one shard
    shards: int
    drain_s: float
    faults: bool = False

    def scaled(self, trace_s: float, shards: int) -> "Workload":
        """A smaller copy (the self-test's tiny runs)."""
        return Workload(self.name, self.system, self.n_servers,
                        trace_s, shards, self.drain_s, self.faults)


#: The workloads by name; why each was chosen is in spec.WORKLOAD_WHY.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("eco-poisson", system="ecofaas", n_servers=2,
             trace_s=7.0, shards=12, drain_s=10.0),
    Workload("baseline-poisson", system="baseline", n_servers=2,
             trace_s=25.0, shards=6, drain_s=10.0),
    Workload("eco-faults", system="ecofaas", n_servers=3,
             trace_s=3.0, shards=28, drain_s=15.0, faults=True),
)}


def shard_seeds(seed: int, shard: int) -> Tuple[int, int, int]:
    """(trace, cluster, fault-plan) seeds of one shard of a run."""
    state = np.random.SeedSequence([seed, shard]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


class TimedEnvironment(Environment):
    """An ``Environment`` whose ``run(until)`` advances in slices of
    ``SLICE_S`` simulated seconds, each timed by a ``SegmentTimer``.

    Stopping the clock between events and resuming it changes nothing
    that is simulated: every traced run checks that its fingerprints
    equal those of a run on this environment.
    """

    def __init__(self) -> None:
        super().__init__()
        self.timer = SegmentTimer()

    def run(self, until: Optional[float] = None) -> None:
        if until is None:
            super().run()
            return
        until = float(until)
        self.timer.calibrate()
        while True:
            stop = min(self.now + SLICE_S, until)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            super().run(until=stop)
            self.timer.add(time.perf_counter() - wall0,
                           time.process_time() - cpu0)
            if stop >= until:
                break
        self.timer.close()


def build_shard(workload: Workload, seed: int, shard: int,
                timed: bool = False) -> Tuple[Cluster, Any]:
    """Generate one shard's inputs and construct its cluster.

    Everything before the first simulated event happens here: trace and
    fault-plan generation, system and cluster construction. ``timed``
    runs the cluster on a ``TimedEnvironment``.
    """
    trace_seed, cluster_seed, plan_seed = shard_seeds(seed, shard)
    trace = make_load_trace(LOAD_LEVEL, workload.n_servers,
                            workload.trace_s, seed=trace_seed)
    if workload.system == "ecofaas":
        system = EcoFaaSSystem(EcoFaaSConfig())
    else:
        system = BaselineSystem()
    plan = None
    if workload.faults:
        plan = FaultPlan.calibrated(
            duration_s=workload.trace_s, n_servers=workload.n_servers,
            functions=chaos.all_function_names(), seed=plan_seed)
        config = ClusterConfig(
            n_servers=workload.n_servers, seed=cluster_seed,
            drain_s=workload.drain_s, reliability=chaos.default_policy(),
            guard=GuardConfig.full(admission=None), ha=HAConfig(),
            cancel=CancelConfig.full())
    else:
        config = ClusterConfig(n_servers=workload.n_servers,
                               seed=cluster_seed, drain_s=workload.drain_s)
    env = TimedEnvironment() if timed else Environment()
    return Cluster(env, system, config, fault_plan=plan), trace


@dataclass
class ShardOutcome:
    """What one simulated shard produced, reduced to what is reported."""

    fingerprint: str
    wall_s: float
    cpu_s: float
    submitted: int
    completed: int
    failed: int
    doomed: int
    shed: int
    inflight: int
    energy_j: float
    energy_components_j: float
    latencies_s: List[float]
    slo_misses: int
    queue_s: List[float]
    counters: Dict[str, int]
    #: (wall, cpu) scaled seconds of each slice, on a TimedEnvironment.
    scaled: List[Tuple[float, float]] = field(default_factory=list)


def simulate(cluster: Cluster, trace) -> ShardOutcome:
    """Run one built shard to completion and reduce its outcome."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    cluster.run_trace(trace)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    m = cluster.metrics
    records = m.workflow_records
    env = cluster.env
    if isinstance(env, TimedEnvironment):
        # Raw host time of the slices alone, without the reference
        # timings made between them.
        wall = sum(seg[0] for seg in env.timer.segments)
        cpu = sum(seg[1] for seg in env.timer.segments)
    return ShardOutcome(
        fingerprint=cluster_fingerprint(cluster),
        wall_s=wall, cpu_s=cpu,
        submitted=cluster.submitted_workflows,
        completed=len(records),
        failed=m.failed_workflows,
        doomed=m.doomed_workflows,
        shed=m.shed_count(),
        inflight=cluster.inflight,
        energy_j=cluster.total_energy_j,
        energy_components_j=sum(cluster.energy_by_component().values()),
        latencies_s=[r.latency_s for r in records],
        slo_misses=sum(1 for r in records if not r.met_slo),
        queue_s=[r.t_queue_s for r in m.function_records],
        counters={
            "cold_starts": m.cold_start_count(),
            "retries": m.retries,
            "timeouts": m.timeouts,
            "crash_redispatches": m.crash_redispatches,
            "lost_invocations": m.lost_invocations,
            "breaker_opens": m.breaker_opens,
            "ha_redispatches": m.ha_redispatches,
            "doomed_workflows": m.doomed_workflows,
        },
        scaled=(env.timer.scaled() if isinstance(env, TimedEnvironment)
                else []),
    )


def check_shard(out: ShardOutcome) -> List[str]:
    """Output checks on one shard; returns the failures found."""
    problems = []
    if abs(out.energy_components_j - out.energy_j) > ENERGY_RTOL * max(
            abs(out.energy_j), 1.0):
        problems.append(f"energy by component sums to"
                        f" {out.energy_components_j!r}, total is"
                        f" {out.energy_j!r}")
    # Doomed workflows are a sub-count of failed ones (MetricsCollector.
    # record_workflow_doomed), so they are not added a second time.
    accounted = out.completed + out.failed + out.shed + out.inflight
    if out.submitted != accounted:
        problems.append(f"{out.submitted} workflows submitted but"
                        f" {accounted} accounted for ({out.completed}"
                        f" completed + {out.failed} failed (of which"
                        f" {out.doomed} doomed) + {out.shed} shed +"
                        f" {out.inflight} still in flight)")
    if out.completed == 0:
        problems.append("no workflow completed")
    return problems


def pooled(outcomes: List[ShardOutcome]) -> Dict[str, Any]:
    """The simulated end-to-end outcome of one pass over every shard."""
    submitted = sum(o.submitted for o in outcomes)
    completed = sum(o.completed for o in outcomes)
    energy = sum(o.energy_j for o in outcomes)
    latencies = [x for o in outcomes for x in o.latencies_s]
    # A workflow that failed, was doomed or shed, or never finished
    # counts as an SLO miss against everything submitted.
    misses = (sum(o.slo_misses for o in outcomes) + submitted - completed)
    queue = [x for o in outcomes for x in o.queue_s]
    counters: Dict[str, int] = {}
    for o in outcomes:
        for key, value in o.counters.items():
            counters[key] = counters.get(key, 0) + value
    return {
        "submitted": submitted,
        "completed": completed,
        "energy_j": energy,
        "energy_per_workflow_j": energy / completed,
        "latency_samples": len(latencies),
        "p50_latency_s": percentile(latencies, 50.0),
        "p99_latency_s": percentile(latencies, 99.0),
        "slo_miss_rate": misses / submitted,
        "failed_ratio": (submitted - completed) / submitted,
        "queue_samples": len(queue),
        "queue_p50_s": percentile(queue, 50.0),
        "queue_p99_s": percentile(queue, 99.0),
        "counters": counters,
    }
