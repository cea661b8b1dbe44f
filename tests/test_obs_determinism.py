"""Tracing must not perturb the simulation (the zero-overhead contract).

Two guarantees:

* a traced run produces **bit-identical metrics** to an untraced run of
  the same seed (the tracer only reads state, never mutates or draws
  random numbers);
* two traced runs of the same seed produce **byte-identical** trace
  files (the exporters are fully deterministic).
"""

import pytest

from repro import obs
from repro.baselines import BaselineSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.platform.cluster import ClusterConfig
from repro.session import RunSession

CONFIG = ClusterConfig(n_servers=2, drain_s=4.0)


def small_trace():
    return make_load_trace("low", 2, 6.0, seed=3)


def run_once(system_factory, traced, fault_plan=None):
    """One run; returns (cluster, tracer-or-None)."""
    tracer = obs.Tracer() if traced else None
    with RunSession(tracer=tracer):
        cluster = run_cluster(system_factory(), small_trace(), CONFIG,
                              fault_plan=fault_plan)
    return cluster, tracer


def metrics_fingerprint(cluster):
    """Every observable outcome of a run, in a comparable form."""
    m = cluster.metrics
    return {
        "functions": m.function_records,
        "workflows": m.workflow_records,
        "retries": m.retries,
        "timeouts": m.timeouts,
        "failures": m.failures,
        "energy": [s.meter.total_j for s in cluster.servers],
    }


@pytest.mark.parametrize("system_factory", [
    BaselineSystem,
    lambda: EcoFaaSSystem(EcoFaaSConfig()),
], ids=["baseline", "ecofaas"])
def test_traced_run_is_bit_identical_to_untraced(system_factory):
    untraced, _ = run_once(system_factory, traced=False)
    traced, tracer = run_once(system_factory, traced=True)
    assert metrics_fingerprint(traced) == metrics_fingerprint(untraced)
    # And the tracer actually recorded the run.
    assert tracer.spans_of("invocation")
    assert tracer.spans_of("phase")
    assert tracer.counters


def test_traced_chaos_run_is_bit_identical_to_untraced():
    from repro.platform.reliability import ReliabilityPolicy

    def plan():
        return FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"], seed=5)
    chaos_config = ClusterConfig(
        n_servers=2, drain_s=4.0,
        reliability=ReliabilityPolicy(max_retries=8, backoff_base_s=0.05))
    results = []
    for traced in (False, True):
        tracer = obs.Tracer() if traced else None
        with RunSession(tracer=tracer):
            cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                                  small_trace(), chaos_config,
                                  fault_plan=plan())
        results.append(cluster)
    untraced, traced_cluster = results
    assert metrics_fingerprint(traced_cluster) == \
        metrics_fingerprint(untraced)
    assert tracer.instants_named("fault_node_crash")


def test_two_traced_runs_write_byte_identical_files(tmp_path):
    paths = []
    for i in range(2):
        _, tracer = run_once(lambda: EcoFaaSSystem(EcoFaaSConfig()),
                             traced=True)
        path = tmp_path / f"trace{i}.json"
        obs.write_chrome_trace(tracer, str(path))
        obs.write_epoch_metrics(tracer, str(tmp_path / f"epochs{i}.csv"))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (tmp_path / "epochs0.csv").read_bytes() == \
           (tmp_path / "epochs1.csv").read_bytes()
    assert obs.validate_file(str(paths[0])) == []


def test_cli_trace_and_report(tmp_path):
    """The --trace/--epoch-metrics/report plumbing end to end."""
    from repro.cli import main
    _, tracer = run_once(lambda: EcoFaaSSystem(EcoFaaSConfig()), traced=True)
    trace_path = tmp_path / "trace.json"
    obs.write_chrome_trace(tracer, str(trace_path))
    assert main(["report", str(trace_path), "--top", "3"]) == 0


def test_epoch_metrics_requires_trace_flag(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["fig16", "--epoch-metrics", "x.csv"])
