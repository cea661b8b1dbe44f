"""Tenancy: mixed-tenant contention under a shrinking power cap.

Not a paper figure — the ``repro.tenancy`` evaluation (ROADMAP item 4):
three tenants partition the twelve benchmarks, each with a per-tenant
energy budget over a sliding window, and the same contention trace is
replayed under a cluster power cap swept from 100% down to 40% of the
uncapped draw. What the sweep shows:

* **energy vs cap** — cluster energy is monotonically non-increasing as
  the cap shrinks: every governor step moves the whole cluster down the
  frequency/core ladder, and at every DVFS level of the platform's scale
  the marginal joules-per-unit-work shrink with frequency once the idle
  baseline is accounted (the CI smoke asserts the monotonicity);
* **fairness** — the Jain index of the tenants' energy shares, computed
  from the settled bill, stays near the uncapped value because the cap
  actuates cluster-wide rather than per-tenant;
* **SLO-miss vs cap** — misses of SLO-bearing tenants grow as the cap
  bites: work runs slower at the capped frequencies;
* **billing** — each run settles into a per-tenant bill whose joules sum
  to the ledger's run total within 1e-6 (conservation by construction:
  unattributed joules are spread pro-rata over the attributed totals).

The calibration run (row ``cap_pct=100``) measures the uncapped average
cluster draw; the capped rows arm a :class:`PowerCapGovernor` at the
given percentage of it. All runs replay the identical arrival trace and
every tenancy decision is a pure function of simulation time and metered
counters, so the whole table is seed-deterministic.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import (
    ExperimentResult,
    ledger_tracer,
    run_cluster,
)
from repro.platform.cluster import ClusterConfig
from repro.tenancy import (
    PowerCapConfig,
    TenancyConfig,
    TenantSpec,
    jain_index,
)
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.workloads.registry import all_benchmarks

#: Power-cap sweep, as a fraction of the measured uncapped draw.
CAP_FRACTIONS = (1.0, 0.85, 0.7, 0.55, 0.4)

#: Offered utilization: mild contention, so budgets and caps both bite.
CONTENTION_UTILIZATION = 1.2

#: The three tenants partitioning the twelve Table-1 benchmarks.
TENANT_BENCHMARKS = (
    ("interactive", ("WebServ", "ImgProc", "eBank", "eBook")),
    ("analytics", ("CNNServ", "LRServ", "RNNServ", "DataAn")),
    ("batch", ("MLTrain", "MLTune", "VidProc", "VidAn")),
)


def make_tenants(n_servers: int,
                 window_s: float = 5.0) -> Tuple[TenantSpec, ...]:
    """The evaluation's tenant set, budgets scaled to the cluster size.

    Budgets are joules per ``window_s`` sliding window, sized off a
    ~160 W/server contention draw split three ways: *interactive* gets
    headroom above its fair share (throttles should be rare), *analytics*
    sits right at it (throttles under contention), and *batch* — the
    best-effort tenant — gets half of a fair share, so its arrivals are
    the first shed when the budget meter catches up with it.
    """
    fair_share_j = 160.0 * n_servers * window_s / 3.0
    return (
        TenantSpec("interactive", TENANT_BENCHMARKS[0][1],
                   budget_j=1.5 * fair_share_j, window_s=window_s),
        TenantSpec("analytics", TENANT_BENCHMARKS[1][1],
                   budget_j=1.0 * fair_share_j, window_s=window_s),
        TenantSpec("batch", TENANT_BENCHMARKS[2][1],
                   budget_j=0.5 * fair_share_j, window_s=window_s,
                   best_effort=True),
    )


def make_tenancy(n_servers: int,
                 cap_w: Optional[float] = None) -> TenancyConfig:
    """A full tenancy policy; ``cap_w`` arms the power-cap governor."""
    # A fast governor tick (vs the 2 s default) lets shallow caps reach
    # equilibrium and deep caps bottom out within the short quick-mode
    # runs, so the sweep's rows actually differ.
    return TenancyConfig(
        tenants=make_tenants(n_servers),
        power_cap=(PowerCapConfig(cap_w=cap_w, period_s=0.5)
                   if cap_w is not None else None))


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        "Tenancy",
        "Mixed-tenant contention under a shrinking cluster power cap")
    duration = 10.0 if quick else 40.0
    n_servers = 2 if quick else 4
    cores = 20
    drain_s = 6.0
    best_effort = set(TENANT_BENCHMARKS[2][1])

    rate = CONTENTION_UTILIZATION * rate_for_utilization(
        all_benchmarks(), 1.0, total_cores=n_servers * cores)
    trace = generate_poisson_trace(PoissonLoadConfig(
        tuple(b for _, bs in TENANT_BENCHMARKS for b in bs),
        rate_rps=rate, duration_s=duration, seed=seed + 29))

    # Billing needs a ledger: settlement prices each closed ledger run.
    with ledger_tracer():
        nominal_w: Optional[float] = None
        for fraction in CAP_FRACTIONS:
            cap_w = (None if nominal_w is None
                     else round(fraction * nominal_w, 1))
            config = ClusterConfig(
                n_servers=n_servers, cores_per_server=cores, seed=seed,
                drain_s=drain_s,
                tenancy=make_tenancy(n_servers, cap_w=cap_w))
            cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                                  config)
            energy_j = cluster.total_energy_j
            if nominal_w is None:
                # Calibration: the 100% row runs uncapped and defines
                # the nominal draw the capped rows are fractions of.
                nominal_w = energy_j / (duration + drain_s)
                cap_w = round(nominal_w, 1)
            metrics = cluster.metrics
            bill = cluster.tenancy.bills[-1]
            billed = [row for row in bill["tenants"]
                      if row["tenant"] != "(unattributed)"]
            slo_records = [r for r in metrics.workflow_records
                           if r.benchmark not in best_effort]
            result.add(
                cap_pct=int(round(fraction * 100)),
                cap_w=cap_w,
                energy_j=round(energy_j, 1),
                cap_steps=metrics.power_cap_steps,
                jain=round(jain_index([row["energy_j"]
                                       for row in billed]), 4)
                if billed else 1.0,
                slo_miss=sum(1 for r in slo_records if not r.met_slo),
                throttles=metrics.tenant_throttles,
                shed_be=sum(count for bench, count
                            in metrics.shed_by_benchmark.items()
                            if bench in best_effort),
                cost_usd=round(bill["total_usd"], 6),
                billed_j=round(bill["total_j"], 1),
            )

    result.note("cap_pct 100 is the uncapped calibration run; its average"
                " draw defines the watts the capped rows are fractions of")
    result.note("energy_j is monotonically non-increasing down the sweep:"
                " every cap step lowers the cluster frequency ceiling, and"
                " lower levels burn fewer joules per unit of work"
                " (CI-asserted)")
    result.note("jain: Jain fairness index of the tenants' billed energy"
                " shares (1.0 = perfectly even)")
    result.note("billed_j equals the run's ledger total within 1e-6:"
                " unattributed joules are spread pro-rata, so the bill"
                " conserves energy by construction")
    result.note("throttles: over-budget enforcement decisions (batch is"
                " shed outright, SLO-bearing tenants are rate-limited)")
    return result
