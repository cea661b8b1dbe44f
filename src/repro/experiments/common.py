"""Shared experiment infrastructure: result tables and standard runs."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

from repro import obs
from repro.baselines import BaselineSystem, PowerCtrlSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.session import current_session
from repro.sim import Environment
from repro.traces.azure import (
    AzureTraceConfig,
    generate_azure_trace,
    map_to_benchmarks,
)
from repro.traces.poisson import (
    LOAD_LEVELS,
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace
from repro.workloads.model import FunctionModel
from repro.workloads.registry import all_benchmarks, benchmark_names

#: The three evaluated systems in the paper's presentation order.
SYSTEM_ORDER = ("Baseline", "Baseline+PowerCtrl", "EcoFaaS")


@dataclass
class ExperimentResult:
    """A reproduced table/figure: named rows of column → value."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **columns: object) -> None:
        self.rows.append(columns)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]

    def row_for(self, **match: object) -> Dict[str, object]:
        """The first row whose columns match all of ``match``."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.name}")

    def format_table(self) -> str:
        """Render the rows as a fixed-width text table."""
        if not self.rows:
            return f"{self.name}: (no rows)"
        columns = list(self.rows[0].keys())

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        widths = {
            c: max(len(c), *(len(fmt(row.get(c, ""))) for row in self.rows))
            for c in columns
        }
        lines = [f"== {self.name}: {self.description} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append("  ".join(
                fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# System factories and standard runs
# ---------------------------------------------------------------------------
def make_systems(ecofaas_config: Optional[EcoFaaSConfig] = None) -> Dict[str, object]:
    """Fresh instances of the three evaluated systems."""
    return {
        "Baseline": BaselineSystem(),
        "Baseline+PowerCtrl": PowerCtrlSystem(),
        "EcoFaaS": EcoFaaSSystem(ecofaas_config or EcoFaaSConfig()),
    }


def run_cluster(system, trace: Trace,
                config: Optional[ClusterConfig] = None,
                sample_period_s: Optional[float] = None,
                fault_plan=None, label: Optional[str] = None) -> Cluster:
    """Run one trace on one system; returns the finalized cluster.

    ``sample_period_s`` arms periodic frequency-timeline sampling on every
    server (the Fig. 14 data source). ``fault_plan`` arms deterministic
    fault injection (``repro.faults``); None or an empty plan leaves the
    run untouched. The current :class:`~repro.session.RunSession` records
    the run: with a tracer it becomes a new run scope named after the
    system — or ``label``, which experiment A/B arms pass so their
    fingerprints/manifests stay distinguishable.
    """
    if label is None:
        label = getattr(system, "name", type(system).__name__)
    session = current_session()
    cluster = session.open_run(system, config or ClusterConfig(),
                               fault_plan, label)
    if sample_period_s is not None:
        env = cluster.env

        def sampler():
            while True:
                for server in cluster.servers:
                    server.sample_timeline()
                yield env.timeout(sample_period_s)
        env.process(sampler(), name="freq-sampler")
    cluster.run_trace(trace)
    session.close_run(cluster)
    return cluster


@contextlib.contextmanager
def ledger_tracer() -> Iterator[obs.Tracer]:
    """The tracer whose energy ledger an experiment's billing reads.

    The current session's tracer is used when it carries a ledger. With
    no tracer, a nested session adds a private ledger-bearing one. A
    tracer without a ledger is refused: the experiment's billing and
    conservation columns would silently read as zero.
    """
    session = current_session()
    if session.tracer is None:
        with replace(session,
                     tracer=obs.Tracer(ledger=obs.EnergyLedger())) as inner:
            yield inner.tracer
    elif session.tracer.ledger is None:
        raise ValueError("this experiment bills energy through the ledger;"
                         " pass --ledger together with --trace")
    else:
        yield session.tracer


def run_three_systems(trace: Trace, config: Optional[ClusterConfig] = None,
                      ecofaas_config: Optional[EcoFaaSConfig] = None,
                      sample_period_s: Optional[float] = None,
                      fault_plan=None) -> Dict[str, Cluster]:
    """Run the same trace on Baseline, Baseline+PowerCtrl, and EcoFaaS."""
    clusters = {}
    for name, system in make_systems(ecofaas_config).items():
        clusters[name] = run_cluster(system, trace, config, sample_period_s,
                                     fault_plan=fault_plan)
    return clusters


def make_load_trace(level: str, n_servers: int, duration_s: float,
                    seed: int = 1,
                    cores_per_server: int = 20) -> Trace:
    """The Section VII Poisson load at ``level`` in {low, medium, high}."""
    if level not in LOAD_LEVELS:
        raise ValueError(f"unknown load level {level!r}; "
                         f"expected one of {sorted(LOAD_LEVELS)}")
    rate = rate_for_utilization(
        all_benchmarks(), LOAD_LEVELS[level],
        total_cores=n_servers * cores_per_server)
    return generate_poisson_trace(PoissonLoadConfig(
        benchmark_names(), rate_rps=rate, duration_s=duration_s, seed=seed))


def make_azure_benchmark_trace(duration_s: float, seed: int = 0) -> Trace:
    """The Section VIII-A real-world-pattern trace mapped to benchmarks."""
    raw = generate_azure_trace(
        AzureTraceConfig.evaluation(duration_s=duration_s, seed=seed))
    return map_to_benchmarks(raw, benchmark_names())


# ---------------------------------------------------------------------------
# Micro-runs: one function on an unloaded fixed-frequency core
# ---------------------------------------------------------------------------
@dataclass
class MicroRun:
    """Mean unloaded service time and active energy of one function."""

    service_s: float
    run_s: float
    energy_j: float


def measure_unloaded(fn_model: FunctionModel, freq_ghz: float,
                     n_invocations: int = 20, seed: int = 0,
                     mem_time_multiplier: float = 1.0,
                     dispersion: float = 1.0) -> MicroRun:
    """Execute invocations back-to-back on one idle core at ``freq_ghz``.

    This drives the full core/scheduler machinery (not just the analytic
    model), so the Fig. 2/3 characterizations exercise the same code paths
    as the big experiments.
    """
    import numpy as np
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    core = Core(env, 0, power, meter, freq_ghz)
    pool = CorePoolScheduler(env, [core], frequency_ghz=freq_ghz,
                             context_switch_s=0.0)
    rng = np.random.default_rng(seed)
    jobs: List[Job] = []
    for i in range(n_invocations):
        spec = fn_model.sample_invocation(
            rng, dispersion=dispersion,
            mem_time_multiplier=mem_time_multiplier)
        job = Job(env, spec, fn_model.name, arrival_s=env.now)
        pool.submit(job)
        env.run()  # serial: one at a time, no queueing
        jobs.append(job)
    service = sum(j.latency_s for j in jobs) / len(jobs)
    run = sum(j.t_run for j in jobs) / len(jobs)
    energy = sum(j.energy_j for j in jobs) / len(jobs)
    return MicroRun(service_s=service, run_s=run, energy_j=energy)
