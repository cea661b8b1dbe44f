"""repro.cancel end to end: bit-identity off, determinism and kills on.

The contract under test, in order of importance:

1. **Opt-in means untouched** — a run with no ``CancelConfig`` (or an
   empty one) is bit-identical to the unarmed platform, including under
   chaos faults (the stored-seed-fingerprint anchor rides in
   ``tests/test_guard_determinism.py``; here we pin the empty-config
   equivalence directly).
2. Armed runs are deterministic — every cancel/budget decision is a
   pure function of simulation time and counters.
3. The mechanisms actually fire under fault pressure, the verifier
   stays clean, and the ledger (with the new ``cancelled``/``doomed``
   buckets) still conserves within 1e-6.
4. The ALL_DOWN poll regression: a full-cluster outage that outlives
   the invocation's deadline must bail out, not poll unbounded.
5. The ``retrystorm`` experiment reproduces metastability: the cancel-off
   arm stays degraded at least twice as long after the trigger clears.
"""

import pytest

from repro import obs
from repro.cancel import CancelConfig, DeadlineConfig, RetryBudgetConfig
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.ledger import EnergyLedger
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.session import RunSession
from repro.verify.invariants import Verifier

from tests.fingerprints import cluster_fingerprint


def ecofaas():
    return EcoFaaSSystem(EcoFaaSConfig())


def chaos_scenario(seed, cancel):
    """A small chaotic run with hedging + timeouts, cancel configurable."""
    trace = make_load_trace("low", 2, 6.0, seed=seed)
    plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                seed=seed + 2)
    config = ClusterConfig(
        n_servers=2, seed=seed, drain_s=4.0,
        reliability=ReliabilityPolicy(
            max_retries=8, backoff_base_s=0.05,
            invocation_timeout_s=2.0, hedge_after_s=0.8),
        cancel=cancel)
    return trace, config, plan


def run_chaos(seed, cancel):
    trace, config, plan = chaos_scenario(seed, cancel)
    return run_cluster(ecofaas(), trace, config, fault_plan=plan)


class TestOptInUntouched:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_empty_config_is_bit_identical_under_chaos(self, seed):
        bare = run_chaos(seed, None)
        empty = run_chaos(seed, CancelConfig())  # both sections None
        assert cluster_fingerprint(empty) == cluster_fingerprint(bare)

    def test_empty_config_is_bit_identical_without_faults(self):
        trace = make_load_trace("low", 2, 6.0, seed=3)
        bare = run_cluster(ecofaas(), trace,
                           ClusterConfig(n_servers=2, seed=3, drain_s=4.0))
        armed = run_cluster(
            ecofaas(), trace,
            ClusterConfig(n_servers=2, seed=3, drain_s=4.0,
                          cancel=CancelConfig()))
        assert cluster_fingerprint(armed) == cluster_fingerprint(bare)


class TestArmedDeterminism:
    def test_armed_chaos_run_is_bit_deterministic(self):
        first = run_chaos(3, CancelConfig.full())
        second = run_chaos(3, CancelConfig.full())
        assert cluster_fingerprint(first) == cluster_fingerprint(second)
        # And cancel counters agree too (not part of the fingerprint).
        assert (first.metrics.cancelled_attempts,
                first.metrics.doomed_workflows,
                first.metrics.retry_budget_denials) == \
               (second.metrics.cancelled_attempts,
                second.metrics.doomed_workflows,
                second.metrics.retry_budget_denials)


class TestArmedMechanisms:
    def run_armed(self, seed=3):
        trace, config, plan = chaos_scenario(seed, CancelConfig.full())
        ledger = EnergyLedger()
        verifier = Verifier()
        with RunSession(tracer=obs.Tracer(ledger=ledger), verifier=verifier):
            cluster = run_cluster(ecofaas(), trace, config,
                                  fault_plan=plan)
        return cluster, ledger, list(verifier.violations)

    def test_kills_budget_and_conservation(self):
        cluster, ledger, violations = self.run_armed()
        m = cluster.metrics
        assert violations == []
        # Every mechanism fired under this fault mix.
        assert m.cancelled_attempts > 0
        assert m.doomed_workflows > 0
        assert m.retry_budget_denials > 0
        assert m.doomed_workflows <= m.failed_workflows
        assert m.cancelled_energy_j >= 0.0
        assert m.cancelled_reclaimed_s > 0.0
        # The ledger conserves with the new buckets populated.
        report = ledger.reports[0]
        assert report.ok and report.rel_error <= EnergyLedger.TOLERANCE
        assert report.by_component["cancelled"] > 0.0
        assert report.by_component["doomed"] >= 0.0

    def test_workflow_lifecycle_equation_includes_doomed(self):
        cluster, _, violations = self.run_armed()
        assert violations == []
        m = cluster.metrics
        # Doomed workflows count under failed: submitted arrivals are
        # fully partitioned into completed + failed + shed + inflight
        # (the verifier's close_run sweep asserts the same equation).
        assert m.doomed_workflows > 0
        assert m.failed_workflows >= m.doomed_workflows

    def test_deadline_only_config_cancels_without_budget(self):
        trace, config, plan = chaos_scenario(
            3, CancelConfig(deadline=DeadlineConfig()))
        cluster = run_cluster(ecofaas(), trace, config, fault_plan=plan)
        m = cluster.metrics
        assert m.cancelled_attempts > 0
        assert m.retry_budget_denials == 0  # no budget armed

    def test_budget_only_config_denies_without_cancelling(self):
        trace, config, plan = chaos_scenario(
            3, CancelConfig(retry_budget=RetryBudgetConfig(
                ratio=0.01, window_s=2.0, floor=0)))
        cluster = run_cluster(ecofaas(), trace, config, fault_plan=plan)
        m = cluster.metrics
        assert m.retry_budget_denials > 0
        assert m.cancelled_attempts == 0  # no deadline section armed
        # Retries actually consumed grants; the budget capped them.
        assert m.retries <= cluster.cancel.budget.granted_total


class TestAllDownDeadlineBail:
    """Satellite 1: a full-cluster outage must not poll past the
    invocation's deadline."""

    def scenario(self, crash_down_s):
        trace = make_load_trace("low", 1, 2.0, seed=3)
        # The single node dies early and stays down long past every
        # deadline in the trace.
        plan = FaultPlan(
            (FaultEvent(time_s=1.0, kind="node_crash", node=0,
                        duration_s=crash_down_s),)
        ).validate(n_servers=1, functions=[])
        config = ClusterConfig(
            n_servers=1, seed=3, drain_s=2.0,
            reliability=ReliabilityPolicy(max_retries=2,
                                          backoff_base_s=0.05))
        return trace, config, plan

    def test_outage_past_deadline_bails_instead_of_polling(self):
        trace, config, plan = self.scenario(crash_down_s=500.0)
        tracer = obs.Tracer()
        with RunSession(tracer=tracer):
            cluster = run_cluster(ecofaas(), trace, config,
                                  fault_plan=plan)
        bailed = [i for i in tracer.instants
                  if i.name == "invocation_lost"
                  and i.args.get("deadline_passed")]
        # Pre-fix, the retry loop just kept polling for an up node while
        # every deadline expired: zero invocations were ever written off
        # and the stranded workflows sat in flight forever. Now each one
        # bails the moment its deadline is unmeetable.
        assert bailed, "no invocation bailed at its deadline"
        assert cluster.metrics.lost_invocations >= len(bailed)
        assert cluster.metrics.failed_workflows > 0


class TestRetrystormMetastability:
    """The headline acceptance: cancel off stays collapsed >= 2x longer
    than cancel on after the identical trigger clears."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import retrystorm
        return retrystorm.run(quick=True, seed=0)

    def test_off_arm_degraded_at_least_twice_as_long(self, result):
        from repro.experiments.retrystorm import degraded_ratio
        off = result.row_for(cancel="off")
        on = result.row_for(cancel="on")
        ratio = degraded_ratio(result)
        assert ratio is not None and ratio >= 2.0, (off, on)

    def test_wasted_energy_fraction_reported_and_reduced(self, result):
        off = result.row_for(cancel="off")
        on = result.row_for(cancel="on")
        assert off["wasted_pct"] > on["wasted_pct"]
        assert on["conserved"] is True and off["conserved"] is True

    def test_guarded_arm_recovers_goodput(self, result):
        off = result.row_for(cancel="off")
        on = result.row_for(cancel="on")
        assert on["goodput_after"] > off["goodput_after"]
        assert on["denials"] > 0 and on["cancelled"] > 0
