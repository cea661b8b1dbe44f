"""Armed-verifier determinism: monitoring must not change the run.

The verifier only reads simulation state (no RNG draws, no platform
mutation, only its own sweep timeout), so a run with every invariant
monitor armed must reproduce the stored seed fingerprints
byte-for-byte — the same contract ``repro.guard`` and ``repro.obs``
pin. And on the correct tree, those reference runs (including the
chaos one with live faults and retries) must report zero violations.
"""

import pytest

from repro.session import RunSession, current_session
from repro.verify import Verifier

from tests.fingerprints import (
    cluster_fingerprint,
    load_reference,
    reference_runs,
)


@pytest.fixture
def installed_verifier():
    with RunSession(verifier=Verifier()) as session:
        yield session.verifier


class TestArmedRunsMatchSeed:
    @pytest.mark.parametrize("label", ["baseline", "ecofaas",
                                       "ecofaas_chaos"])
    def test_fingerprint_identical_with_monitors_armed(
            self, label, installed_verifier):
        factory = dict(reference_runs())[label]
        assert cluster_fingerprint(factory()) == load_reference()[label], (
            f"arming the verifier changed the {label!r} run — monitors"
            f" must be read-only")

    def test_reference_runs_report_zero_violations(self,
                                                   installed_verifier):
        for label, factory in reference_runs():
            factory()
        assert installed_verifier.violations == [], (
            "reference runs violated invariants: "
            f"{installed_verifier.summary()}")
        assert installed_verifier.runs == len(reference_runs())

    def test_verifier_stamps_run_labels(self, installed_verifier):
        factory = dict(reference_runs())["ecofaas"]
        factory()
        installed_verifier.record("synthetic", "stamp check")
        assert installed_verifier.violations[-1].run == "EcoFaaS"


class TestUninstalledIsUntouched:
    def test_no_active_verifier_between_tests(self):
        assert current_session().verifier is None


class TestRepoAllVerifyExitCodes:
    """'repro all --verify' must FAIL the panel and exit non-zero when
    any armed monitor reports a violation (and pass clean otherwise)."""

    @pytest.fixture
    def stub_experiments(self, monkeypatch):
        import sys
        import types

        from repro import cli
        from repro.experiments.common import ExperimentResult

        def make(name, violate):
            module = types.ModuleType(name)

            def run(quick=True, seed=0):
                result = ExperimentResult(name, "stub")
                result.add(value=1)
                verifier = current_session().verifier
                if violate and verifier is not None:
                    verifier.record("breaker-transition",
                                    "synthetic violation for the exit"
                                    " code test")
                return result

            module.run = run
            monkeypatch.setitem(sys.modules, name, module)
            return name

        def install(mapping):
            monkeypatch.setattr(cli, "EXPERIMENTS", {
                key: make(f"tests._stub_{key}", violate)
                for key, violate in mapping.items()})
            return cli

        return install

    def test_all_verify_clean_exits_zero(self, stub_experiments, capsys):
        cli = stub_experiments({"ok": False, "fine": False})
        assert cli.main(["all", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "[verify: 0 run(s) monitored, 0 violation(s)]" in out

    def test_all_verify_violation_fails_panel(self, stub_experiments,
                                              capsys):
        cli = stub_experiments({"ok": False, "bad": True})
        assert cli.main(["all", "--verify"]) == 1
        captured = capsys.readouterr()
        assert "invariants: breaker-transition x1" in captured.out
        assert "FAIL" in captured.out
        assert "bad" in captured.out

    def test_single_experiment_violation_exits_nonzero(
            self, stub_experiments, capsys):
        cli = stub_experiments({"bad": True})
        assert cli.main(["bad", "--verify"]) == 1
        captured = capsys.readouterr()
        assert "breaker-transition" in captured.err
        # Without --verify the same experiment passes untouched.
        assert cli.main(["bad"]) == 0
