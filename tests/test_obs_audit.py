"""Decision audit log: coverage, determinism, and zero perturbation.

Every control-plane decision point must leave a structured "why" record
when a log is installed, two same-seed runs must serialize to
byte-identical JSONL, and an audited run must be bit-identical to an
unaudited one.
"""

import pytest

from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.audit import AuditLog, load_jsonl
from repro.platform.cluster import ClusterConfig
from repro.session import RunSession


def run_audited(seed=6, duration_s=8.0):
    """One guarded overload run with an audit log installed."""
    audit = AuditLog()
    trace = make_load_trace("high", 2, duration_s, seed=seed,
                            cores_per_server=20)
    config = ClusterConfig(
        n_servers=2, seed=seed,
        guard=overload_experiment.guard_config(2, 20))
    with RunSession(audit=audit):
        cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                              config)
    return cluster, audit


def test_control_plane_decisions_are_recorded():
    _, audit = run_audited()
    kinds = {record.kind for record in audit.records}
    assert "milp_split" in kinds
    assert "pool_retune" in kinds
    assert "admission_shed" in kinds
    assert "brownout_change" in kinds
    for record in audit.records:
        assert record.actor
        assert record.reason
        assert record.action or record.alternatives


def test_ha_decisions_are_recorded():
    audit = AuditLog()
    with RunSession(audit=audit):
        partition_experiment.run_one(seed=0, with_faults=True,
                                     duration_s=25.0, n_servers=3)
    kinds = {record.kind for record in audit.records}
    assert "ha_failover" in kinds
    assert "ha_redispatch" in kinds
    redispatches = audit.of_kind("ha_redispatch")
    assert all(r.workflow_uid is not None for r in redispatches)
    # for_workflow() finds the redispatch by its workflow uid.
    uid = redispatches[0].workflow_uid
    assert audit.for_workflow(uid)


def test_same_seed_audit_logs_are_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        _, audit = run_audited()
        path = tmp_path / f"audit{i}.jsonl"
        audit.write(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    loaded = load_jsonl(str(paths[0]))
    assert loaded
    assert [r["seq"] for r in loaded] == \
        sorted(r["seq"] for r in loaded)
    assert all(r["kind"] for r in loaded)


def test_audited_run_is_bit_identical_to_unaudited():
    def fingerprint(cluster):
        m = cluster.metrics
        return (m.function_records, m.workflow_records, m.shed_workflows,
                [s.meter.total_j for s in cluster.servers])

    audited, _ = run_audited()
    trace = make_load_trace("high", 2, 8.0, seed=6, cores_per_server=20)
    config = ClusterConfig(n_servers=2, seed=6,
                           guard=overload_experiment.guard_config(2, 20))
    bare = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)
    assert fingerprint(audited) == fingerprint(bare)


def test_record_requires_binding():
    log = AuditLog()
    with pytest.raises(RuntimeError):
        _ = log.now


def test_breaker_trip_is_recorded():
    """Drive a breaker open via the guard runtime with a stub env."""
    from repro.guard.config import BreakerConfig, GuardConfig
    from repro.guard.runtime import GuardRuntime

    class StubTrace:
        enabled = False

        def instant(self, *args, **kwargs):
            pass

    class StubEnv:
        now = 1.0
        trace = StubTrace()
        audit = None
        ha = None

    class StubCluster:
        env = StubEnv()
        metrics = type("M", (), {"breaker_opens": 0,
                                 "breaker_fast_fails": 0})()
        nodes = ()

    config = GuardConfig(breaker=BreakerConfig(min_failures=2,
                                               failure_rate=0.5,
                                               window_s=10.0))
    runtime = GuardRuntime(StubCluster(), config)
    audit = AuditLog()
    audit.begin_run("stub")
    audit.bind(StubEnv)
    StubEnv.audit = audit
    runtime.record_attempt_failure("f")
    runtime.record_attempt_failure("f")
    trips = audit.of_kind("breaker_trip")
    assert len(trips) == 1
    assert trips[0].inputs["function"] == "f"
    assert trips[0].action["state"] == "open"
