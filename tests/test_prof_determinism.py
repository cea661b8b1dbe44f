"""Self-profiling must not perturb the simulation, and must conserve wall.

Three guarantees:

* with ``repro.obs.prof`` imported but no profiler in the session, the
  reference runs still reproduce the stored seed fingerprints
  byte-for-byte (including under chaos) — profiler-off is bit-identical;
* a *profiled* run produces bit-identical metrics to an unprofiled run
  of the same seed (the profiler reads only the host wall-clock);
* the profiler's attributed self-times sum to at least 90% of the
  externally measured wall-time (the wall-conservation contract of
  ``repro profile``).
"""

import pytest

import repro.obs.prof  # noqa: F401 - importable-but-unbound is the point
from tests.fingerprints import (
    cluster_fingerprint,
    current_fingerprints,
    load_reference,
    reference_runs,
)
from repro.obs import prof
from repro.session import RunSession, current_session

MIN_CONSERVATION = 0.90


def test_profiler_off_reproduces_seed_fingerprints():
    """The hard opt-in contract, chaos run included."""
    assert current_session().profiler is None
    assert current_fingerprints() == load_reference()


def test_profiled_runs_are_bit_identical_to_unprofiled():
    for label, factory in reference_runs():
        plain = cluster_fingerprint(factory())
        profiler = prof.Profiler()
        with RunSession(profiler=profiler):
            profiler.start()
            profiled_cluster = factory()
            profiler.stop()
        assert cluster_fingerprint(profiled_cluster) == plain, label
        # And the profiler actually observed the run.
        assert profiler.pops > 0, label
        assert any("kernel.dispatch" in path
                   for path in profiler.self_s), label


def test_wall_conservation_on_quick_profile():
    from repro.obs import bench

    document = bench.run_profile(scales=(1,), quick=True)
    (entry,) = document["scales"]
    assert entry["wall_conservation"] >= MIN_CONSERVATION
    assert entry["profiled_s"] == pytest.approx(
        sum(row["self_s"] for row in entry["components"]), rel=1e-3)
    assert entry["events_per_s"] > 0
    assert entry["collapsed"].strip()
    # The scenario touches every heavily instrumented layer.
    names = {row["component"] for row in entry["components"]}
    assert {"kernel.dispatch", "core.predictor",
            "hardware.energy"} <= names


def test_profile_document_is_seed_deterministic_in_sim_metrics():
    from repro.obs import bench

    first = bench.run_profile(scales=(1,), quick=True)
    second = bench.run_profile(scales=(1,), quick=True)
    assert first["scales"][0]["sim_metrics"] == \
        second["scales"][0]["sim_metrics"]
