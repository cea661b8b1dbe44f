"""The run session: the observers that record the cluster runs of a block.

``with RunSession(tracer=..., audit=..., profiler=..., verifier=...):``
makes the session current; every ``run_cluster`` inside the block opens
and closes its run through it. Leaving the block restores the previous
session, so sessions nest and an exception cannot leak observers into
later runs. Outside every block the current session has no observer.
Observers only *read* simulation state, so recorded runs stay
bit-identical to plain ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs import prof
from repro.obs.audit import AuditLog
from repro.obs.tracer import Tracer
from repro.platform.cluster import Cluster, ClusterConfig
from repro.sim import Environment
from repro.verify.invariants import Verifier


@dataclass
class RunSession:
    """The observers attached to every cluster run of a ``with`` block."""

    tracer: Optional[Tracer] = None
    audit: Optional[AuditLog] = None
    profiler: Optional[prof.Profiler] = None
    verifier: Optional[Verifier] = None

    def __enter__(self) -> "RunSession":
        _stack.append(self)
        _point_profiled_at(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _stack.pop()
        _point_profiled_at(_stack[-1])

    def open_run(self, system, config: ClusterConfig, fault_plan,
                 label: str) -> Cluster:
        """Build one run's environment and cluster with observers bound."""
        env = Environment()
        if self.profiler is not None:
            # Kernel counters and dispatch timers: wall-clock only.
            self.profiler.bind(env)
        if self.tracer is not None:
            self.tracer.begin_run(label)
            self.tracer.bind(env)
        if self.audit is not None:
            self.audit.begin_run(label)
            self.audit.bind(env)
        if self.verifier is not None:
            self.verifier.begin_run(label)
            self.verifier.bind(env)
        cluster = Cluster(env, system, config, fault_plan=fault_plan)
        if self.verifier is not None:
            self.verifier.arm(cluster)
        if self.tracer is not None:
            env.process(_trace_counter_sampler(env, cluster, self.tracer),
                        name="obs-counter-sampler")
        return cluster

    def close_run(self, cluster: Cluster) -> None:
        """Close a finished run through every observer, in dependency order.

        The verifier's end-of-run sweep comes first. The ledger then
        classifies the run's entries and checks conservation against the
        hardware meters (raising on a mismatch), and the tenancy layer
        prices the closed ledger run into a bill. The fingerprint recorder
        folds the run after both, so its energy chains see classified
        entries, and the verifier finally recomputes those chains with
        its own hashing.
        """
        tracer, verifier = self.tracer, self.verifier
        if verifier is not None:
            verifier.close_run(cluster)
        if tracer is None:
            return
        if tracer.ledger is not None:
            tracer.ledger.close_run(cluster)
            if cluster.tenancy is not None:
                cluster.tenancy.settle(tracer.ledger)
        if tracer.fingerprint is not None:
            entry = tracer.fingerprint.close_run(cluster, tracer,
                                                 audit=self.audit)
            if verifier is not None:
                verifier.check_fingerprints(tracer.fingerprint, entry,
                                            cluster)


#: Entered sessions, innermost last; the bottom one carries no observer.
_stack: List[RunSession] = [RunSession()]


def current_session() -> RunSession:
    """The innermost entered session (an observer-free one outside all)."""
    return _stack[-1]


def _point_profiled_at(session: RunSession) -> None:
    """Route ``@profiled`` scopes to ``session``'s profiler."""
    prof._active = (session.profiler if session.profiler is not None
                    else prof.NULL_PROFILER)


def _trace_counter_sampler(env, cluster, tracer):
    """Read-only periodic counters: per-node power draw, EWT, load."""
    while True:
        profiler = env.prof
        if profiler.enabled:
            # The sampler is pure tracer overhead: bill it (and the
            # power snapshots nested inside) to the obs components.
            profiler.enter("obs.trace")
        try:
            for node in cluster.nodes:
                track = f"node{node.server.server_id}"
                tracer.counter(track, "power_w",
                               node.server.power_snapshot_w())
                tracer.counter(track, "ewt_s",
                               sum(pool.ewt_seconds
                                   for pool in node.iter_pools()))
                tracer.counter(track, "outstanding", node.outstanding)
        finally:
            if profiler.enabled:
                profiler.exit("obs.trace")
        yield env.timeout(tracer.counter_period_s)
