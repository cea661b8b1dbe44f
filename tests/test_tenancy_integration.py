"""repro.tenancy end-to-end: enforcement, capping, billing, conservation.

The acceptance bars from the tenancy issue:

* per-tenant ledger rollups sum to the cluster ledger total within 1e-6
  across plain / chaos / overload regimes (conservation property);
* a cap sweep produces monotonically non-increasing cluster energy;
* enforcement decisions leave audit records and trace instants, and the
  report/bill/explain pipelines surface them;
* tenancy-off runs still match the stored seed fingerprints, and armed
  runs are bitwise repeatable.
"""

import json

import pytest

from repro import obs
from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.experiments.common import make_load_trace, run_cluster
from repro.experiments.overload import guard_config
from repro.faults.plan import FaultPlan
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.session import RunSession
from repro.tenancy import (
    PowerCapConfig,
    TenancyConfig,
    TenantSpec,
)
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.workloads.registry import all_benchmarks, benchmark_names

from tests.fingerprints import (
    cluster_fingerprint,
    load_reference,
    reference_runs,
)

#: A tenant set that partitions every benchmark, with budgets small
#: enough that enforcement fires even on short test traces.
def tight_tenancy(power_cap=None, batch_budget_j=25.0):
    names = sorted(benchmark_names())
    third = len(names) // 3
    return TenancyConfig(
        tenants=(
            TenantSpec("alpha", tuple(names[:third]), budget_j=400.0,
                       window_s=4.0),
            TenantSpec("beta", tuple(names[third:2 * third]),
                       budget_j=150.0, window_s=4.0),
            TenantSpec("gamma", tuple(names[2 * third:]),
                       budget_j=batch_budget_j, window_s=4.0,
                       best_effort=True),
        ),
        meter_period_s=0.5,
        power_cap=power_cap,
    )


def run_armed(tenancy, trace=None, fault_plan=None, policy=None,
              guard=None, seed=3):
    config = ClusterConfig(n_servers=2, drain_s=4.0, seed=seed,
                           reliability=policy, guard=guard,
                           tenancy=tenancy)
    return run_cluster(
        EcoFaaSSystem(EcoFaaSConfig()),
        trace if trace is not None
        else make_load_trace("medium", 2, 6.0, seed=seed),
        config, fault_plan=fault_plan)


@pytest.fixture(scope="module")
def armed_artifacts(tmp_path_factory):
    """One enforced, capped, chaos-free run with every artifact exported."""
    out = tmp_path_factory.mktemp("tenancy")
    tracer = obs.Tracer(ledger=obs.EnergyLedger())
    audit = obs.AuditLog()
    with RunSession(tracer=tracer, audit=audit):
        cluster = run_armed(tight_tenancy(
            power_cap=PowerCapConfig(cap_w=150.0, period_s=0.5)))
    trace_path = str(out / "trace.json")
    ledger_path = str(out / "ledger.json")
    audit_path = str(out / "audit.jsonl")
    obs.write_chrome_trace(tracer, trace_path)
    tracer.ledger.write(ledger_path)
    audit.write(audit_path)
    return {"cluster": cluster, "tracer": tracer, "audit": audit,
            "trace": trace_path, "ledger": ledger_path,
            "audit_path": audit_path}


class TestEnforcement:
    def test_throttles_fired_and_were_recorded(self, armed_artifacts):
        cluster = armed_artifacts["cluster"]
        assert cluster.metrics.tenant_throttles > 0
        counts = cluster.tenancy.registry.throttle_counts
        assert sum(counts.values()) == cluster.metrics.tenant_throttles
        # The best-effort tenant, with the smallest budget, is hit first.
        assert counts.get("gamma", 0) > 0

    def test_best_effort_sheds_account_in_metrics(self, armed_artifacts):
        metrics = armed_artifacts["cluster"].metrics
        assert metrics.shed_count("tenant_budget") > 0

    def test_audit_records_every_throttle(self, armed_artifacts):
        audit = armed_artifacts["audit"]
        records = audit.of_kind("tenant_throttle")
        assert len(records) \
            == armed_artifacts["cluster"].metrics.tenant_throttles
        sample = records[0]
        assert sample.inputs["tenant"]
        assert sample.action["decision"] in ("shed", "throttled_admit",
                                             "throttled_drop")

    def test_trace_instants_match_the_count(self, armed_artifacts):
        tracer = armed_artifacts["tracer"]
        instants = [i for i in tracer.instants
                    if i.name == "tenant_throttle"]
        assert len(instants) \
            == armed_artifacts["cluster"].metrics.tenant_throttles


class TestPowerCap:
    def test_governor_stepped(self, armed_artifacts):
        metrics = armed_artifacts["cluster"].metrics
        assert metrics.power_cap_steps > 0
        assert metrics.power_cap_tightens > 0
        assert metrics.power_cap_steps \
            == metrics.power_cap_tightens + metrics.power_cap_releases

    def test_cap_step_instants_carry_epochs(self, armed_artifacts):
        tracer = armed_artifacts["tracer"]
        epochs = [i.args["epoch"] for i in tracer.instants
                  if i.name == "power_cap_step"]
        assert epochs and epochs == sorted(epochs)

    def test_cap_sweep_energy_is_monotone(self):
        """The issue's acceptance bar, in miniature: cap 100%→40%."""
        energies = []
        for cap_w in (None, 150.0, 80.0):
            cap = (PowerCapConfig(cap_w=cap_w, period_s=0.5)
                   if cap_w is not None else None)
            cluster = run_armed(tight_tenancy(power_cap=cap,
                                              batch_budget_j=1e6))
            energies.append(cluster.total_energy_j)
        assert energies[0] >= energies[1] >= energies[2], energies

    def test_schedule_change_bumps_epoch(self):
        cap = PowerCapConfig(cap_w=1e6, period_s=0.5,
                             schedule=((3.0, 120.0),))
        cluster = run_armed(tight_tenancy(power_cap=cap,
                                          batch_budget_j=1e6))
        governor = cluster.tenancy.governor
        assert governor.epoch > 0
        # After the schedule step the active cap is the scheduled one.
        assert governor._active_cap_w == pytest.approx(120.0)


class TestConservation:
    """Per-tenant rollups sum to the ledger total within 1e-6."""

    def check(self, tracer, cluster):
        ledger = tracer.ledger
        registry = cluster.tenancy.registry
        for report in ledger.reports:
            assert report.ok
            by_tenant = ledger.by_tenant(registry.tenant_name_of,
                                         run=report.run)
            total = sum(by_tenant.values())
            assert total == pytest.approx(report.ledger_j, rel=1e-6), (
                f"run {report.run}: tenant rollup {total} !="
                f" ledger {report.ledger_j}")
            bill = cluster.tenancy.bills[report.run]
            assert bill["total_j"] == pytest.approx(report.ledger_j,
                                                    rel=1e-6)

    def run_regime(self, regime):
        tracer = obs.Tracer(ledger=obs.EnergyLedger())
        with RunSession(tracer=tracer):
            if regime == "plain":
                cluster = run_armed(tight_tenancy())
            elif regime == "chaos":
                policy = ReliabilityPolicy(max_retries=8,
                                           backoff_base_s=0.05)
                plan = FaultPlan.calibrated(6.0, 2,
                                            ["WebServ", "CNNServ"],
                                            seed=5)
                cluster = run_armed(tight_tenancy(), fault_plan=plan,
                                    policy=policy)
            else:  # overload
                rate = 2.0 * rate_for_utilization(
                    all_benchmarks(), 1.0, total_cores=40)
                trace = generate_poisson_trace(PoissonLoadConfig(
                    benchmark_names(), rate_rps=rate, duration_s=6.0,
                    seed=7))
                cluster = run_armed(tight_tenancy(), trace=trace,
                                    guard=guard_config(2, 20))
        return tracer, cluster

    @pytest.mark.parametrize("regime", ["plain", "chaos", "overload"])
    def test_rollup_sums_to_ledger_total(self, regime):
        tracer, cluster = self.run_regime(regime)
        assert cluster.metrics.completed_workflows() > 0
        self.check(tracer, cluster)


class TestReportAndBillPipelines:
    def test_report_text_has_tenant_section(self, armed_artifacts):
        text = obs.report(armed_artifacts["trace"])
        assert "tenants (energy share / billed cost / throttles)" in text
        assert "gamma" in text

    def test_report_json_has_tenant_rows(self, armed_artifacts):
        document = json.loads(obs.report(armed_artifacts["trace"],
                                         fmt="json"))
        rows = document["runs"][0]["tenants"]
        assert rows, "tenant rows missing from --format json"
        by_name = {row["tenant"]: row for row in rows}
        assert by_name["gamma"]["throttles"] > 0
        total_share = sum(row["energy_share"] for row in rows)
        assert total_share == pytest.approx(1.0, abs=1e-6)

    def test_report_without_tenancy_has_no_section(self, tmp_path):
        tracer = obs.Tracer()
        with RunSession(tracer=tracer):
            run_armed(None)
        path = str(tmp_path / "plain.json")
        obs.write_chrome_trace(tracer, path)
        text = obs.report(path)
        assert "tenants (energy share" not in text
        document = json.loads(obs.report(path, fmt="json"))
        assert document["runs"][0]["tenants"] == []

    def test_cli_bill_text_and_json(self, armed_artifacts, capsys):
        from repro.cli import main
        names = sorted(benchmark_names())
        third = len(names) // 3
        argv = ["bill", armed_artifacts["ledger"],
                "--tenant", "alpha=" + ",".join(names[:third]),
                "--tenant", "beta=" + ",".join(names[third:2 * third]),
                "--tenant", "gamma=" + ",".join(names[2 * third:])]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "energy bill" in text and "Jain" in text
        assert main(argv + ["--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        bill = document["runs"][0]["bill"]
        with open(armed_artifacts["ledger"]) as handle:
            ledger_doc = json.load(handle)
        assert bill["total_j"] == pytest.approx(
            ledger_doc["runs"][0]["ledger_j"], rel=1e-6)

    def test_cli_bill_rejects_bad_tenant_spec(self, armed_artifacts,
                                              capsys):
        from repro.cli import main
        assert main(["bill", armed_artifacts["ledger"],
                     "--tenant", "nonsense"]) == 2
        capsys.readouterr()

    def test_explain_names_budget_and_cap(self, armed_artifacts):
        from repro.obs.explain import (
            explain,
            load_explain_data,
            missed_workflows,
        )
        data = load_explain_data(armed_artifacts["trace"],
                                 audit_path=armed_artifacts["audit_path"])
        kinds = set()
        for span in missed_workflows(data)[:20]:
            result = explain(data, span.uid, run=span.run)
            kinds |= {c["kind"] for c in result["causes"]}
        assert "tenant_budget" in kinds or "power_cap" in kinds, (
            "no missed workflow was explained by a tenancy cause despite"
            " throttles and cap steps firing in this run")


class TestTenancyOffDeterminism:
    """No TenancyConfig == the pre-tenancy code path, to the byte."""

    @pytest.mark.parametrize("label", ["baseline", "ecofaas",
                                       "ecofaas_chaos"])
    def test_reference_fingerprint_is_reproduced(self, label):
        reference = load_reference()
        factory = dict(reference_runs())[label]
        assert cluster_fingerprint(factory()) == reference[label], (
            f"tenancy-off run {label!r} no longer matches the stored seed"
            f" fingerprint — an unarmed code path changed behaviour")


class TestArmedDeterminism:
    def test_armed_runs_are_bitwise_repeatable(self):
        def run():
            return run_armed(tight_tenancy(
                power_cap=PowerCapConfig(cap_w=150.0, period_s=0.5)))
        first, second = run(), run()
        assert cluster_fingerprint(first) == cluster_fingerprint(second)
        # Repeatability is not vacuous: enforcement and capping fired.
        assert first.metrics.tenant_throttles > 0
        assert first.metrics.power_cap_steps > 0
        assert (first.metrics.tenant_throttles
                == second.metrics.tenant_throttles)

    def test_armed_chaos_runs_are_bitwise_repeatable(self):
        policy = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05)

        def run():
            plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                        seed=5)
            return run_armed(tight_tenancy(), fault_plan=plan,
                             policy=policy)
        assert cluster_fingerprint(run()) == cluster_fingerprint(run())

    def test_armed_differs_from_unarmed(self):
        """Sanity: the tenancy layer is live once configured."""
        armed = run_armed(tight_tenancy(
            power_cap=PowerCapConfig(cap_w=150.0, period_s=0.5)))
        plain = run_armed(None)
        assert cluster_fingerprint(armed) != cluster_fingerprint(plain)
