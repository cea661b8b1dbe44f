"""Unit tests for repro.verify: the monitors and the planted mutations."""

import pytest

from repro.baselines import BaselineSystem
from repro.obs import NULL_PROFILER, NULL_TRACER, AuditLog, Profiler, Tracer
from repro.platform.cluster import ClusterConfig
from repro.session import RunSession, current_session
from repro.sim.engine import Environment
from repro.tenancy.config import TenantSpec
from repro.verify import (
    BREAKER_STATES,
    LEGAL_BREAKER_TRANSITIONS,
    NULL_VERIFIER,
    Verifier,
    Violation,
)
from repro.verify.mutate import MUTATIONS, planted


class TestNullVerifier:
    def test_every_environment_starts_null(self):
        env = Environment()
        assert env.verify is NULL_VERIFIER
        assert not env.verify.enabled

    def test_null_hooks_are_no_ops(self):
        null = NULL_VERIFIER
        assert null.bind(None) is null
        null.begin_run("x")
        null.on_step(1.0)
        null.on_breaker_transition("f", "open", "closed")
        null.on_tenant_admit("b", None, "run")
        null.arm(None)
        null.close_run(None)


class TestSession:
    def test_nested_and_failed_sessions_restore_the_outer_one(self):
        outer = Verifier()
        with RunSession(verifier=outer):
            with RunSession(verifier=Verifier()) as inner:
                assert current_session() is inner
            assert current_session().verifier is outer
            with pytest.raises(RuntimeError, match="boom"):
                with RunSession():
                    raise RuntimeError("boom")
            assert current_session().verifier is outer
        assert current_session().verifier is None

    def test_env_built_after_exit_has_no_observer(self):
        def build_env():
            return current_session().open_run(
                BaselineSystem(), ClusterConfig(n_servers=1), None, "x").env
        with RunSession(tracer=Tracer(), audit=AuditLog(),
                        profiler=Profiler(), verifier=Verifier()) as session:
            assert build_env().verify is session.verifier
        env = build_env()
        assert (env.trace, env.audit, env.prof, env.verify) == (
            NULL_TRACER, None, NULL_PROFILER, NULL_VERIFIER)


class TestViolation:
    def test_to_json_carries_details_as_dict(self):
        violation = Violation(
            invariant="clock-monotonic", time_s=2.5, run="EcoFaaS",
            message="clock moved backwards",
            details=(("now_s", 1.0), ("previous_s", 2.0)))
        assert violation.to_json() == {
            "invariant": "clock-monotonic", "time_s": 2.5,
            "run": "EcoFaaS", "message": "clock moved backwards",
            "details": {"now_s": 1.0, "previous_s": 2.0}}


class TestVerifierHooks:
    def _bound(self):
        verifier = Verifier()
        verifier.bind(Environment())
        verifier.begin_run("Test")
        return verifier

    def test_sweep_period_must_be_positive(self):
        with pytest.raises(ValueError):
            Verifier(sweep_period_s=0.0)

    def test_clock_monotonicity(self):
        verifier = self._bound()
        verifier.on_step(1.0)
        verifier.on_step(1.0)   # equal is fine
        verifier.on_step(2.0)
        assert verifier.violations == []
        verifier.on_step(1.5)
        assert verifier.summary() == {"clock-monotonic": 1}
        assert verifier.violations[0].run == "Test"

    def test_legal_breaker_transitions_pass(self):
        verifier = self._bound()
        for old, new in sorted(LEGAL_BREAKER_TRANSITIONS):
            verifier.on_breaker_transition("fn", old, new)
        assert verifier.violations == []

    def test_illegal_breaker_transitions_recorded(self):
        verifier = self._bound()
        illegal = [(old, new) for old in BREAKER_STATES
                   for new in BREAKER_STATES
                   if old != new
                   and (old, new) not in LEGAL_BREAKER_TRANSITIONS]
        for old, new in illegal:
            verifier.on_breaker_transition("fn", old, new)
        assert verifier.summary() == {"breaker-transition": len(illegal)}

    def test_unknown_breaker_state_recorded(self):
        verifier = self._bound()
        verifier.on_breaker_transition("fn", "closed", "ajar")
        assert verifier.summary() == {"breaker-transition": 1}

    def test_over_budget_best_effort_must_shed(self):
        verifier = self._bound()
        batch = TenantSpec(name="batch", benchmarks=("WebServ",),
                           budget_j=5.0, best_effort=True)
        slo = TenantSpec(name="slo", benchmarks=("MLServ",),
                         budget_j=5.0, best_effort=False)
        verifier.on_tenant_admit("WebServ", batch, "shed")
        verifier.on_tenant_admit("WebServ", slo, "throttle")
        assert verifier.violations == []
        verifier.on_tenant_admit("WebServ", batch, "throttle")
        assert verifier.summary() == {"tenant-enforcement": 1}

    def test_summary_counts_per_invariant(self):
        verifier = self._bound()
        verifier.record("a", "first")
        verifier.record("a", "second")
        verifier.record("b", "third", key=1)
        assert verifier.summary() == {"a": 2, "b": 1}


class TestMutations:
    def test_catalog_names_four_layers(self):
        assert MUTATIONS == {
            "journal-fence": "ha-journal-crosscheck",
            "ledger-bucket": "energy-conservation",
            "breaker-jump": "breaker-transition",
            "cancel-leak": "cancel-lifecycle"}

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            with planted("nonsense"):
                pass

    def test_planted_restores_originals(self):
        from repro.guard.breaker import CircuitBreaker
        from repro.ha.journal import RedispatchJournal
        from repro.obs.ledger import EnergyLedger
        from repro.platform.scheduler import CorePoolScheduler

        def snapshot():
            return (RedispatchJournal.record_redispatch,
                    EnergyLedger.record_core, CircuitBreaker.allow,
                    CorePoolScheduler.cancel_job)

        originals = snapshot()
        for name in MUTATIONS:
            with pytest.raises(RuntimeError):
                with planted(name):
                    assert snapshot() != originals
                    raise RuntimeError("unwind")
            assert snapshot() == originals

    def test_journal_fence_bug_drops_the_write(self):
        from repro.ha.journal import RedispatchJournal
        journal = RedispatchJournal()
        journal.register((1, 0, 0), 0.5)
        with planted("journal-fence"):
            journal.record_redispatch((1, 0, 0), 1.0)
        assert journal.redispatch_count() == 0
