"""repro.obs.fingerprint: canonical JSON, chain digests, recorder.

Covers the three contracts the module makes:

* the canonical-JSON serialization is byte-stable (it backs every pinned
  digest in the repo — seed fingerprints, fuzz-corpus artifacts);
* chain digests are *progressive*: two chains agree at epoch ``e`` iff
  every epoch up to ``e`` agreed, which is what ``repro diff`` bisects;
* a fingerprints-armed run is bit-identical to the stored seed
  fingerprints (including under chaos), and the verify-layer self-check
  catches tampered chains.
"""

import dataclasses
import json

import pytest

from repro import obs, verify
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.obs.fingerprint import (
    SUBSYSTEMS,
    FingerprintRecorder,
    canon,
    canonical_json,
    chain_seed,
    cluster_fingerprint,
    digest,
    fold_chain,
    load_document,
)
from repro.obs.ledger import EnergyLedger
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.session import RunSession


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------
def test_canon_floats_are_full_precision_reprs():
    assert canon(0.1) == repr(0.1)
    assert canon(1.0) == "1.0"
    assert canon(True) is True  # bool is not an int here
    assert canon(7) == 7


def test_canonical_json_uses_default_separators():
    # The stored seed fingerprints were produced with json.dumps default
    # separators (", " / ": "); this byte-level contract must hold.
    assert canonical_json([1, 2]) == "[1, 2]"
    assert canonical_json({"a": 1}) == '{"a": 1}'


def test_canon_dict_keys_stringified_and_sorted():
    out = canonical_json({2: "b", 1: "a", "x": None})
    assert out == '{"1": "a", "2": "b", "x": null}'


def test_canon_dataclass_by_field():
    @dataclasses.dataclass
    class Row:
        t: float
        n: int

    assert canon(Row(t=0.5, n=3)) == {"t": "0.5", "n": 3}


def test_digest_is_stable_across_equivalent_inputs():
    assert digest({"b": 2, "a": 1}) == digest({"a": 1, "b": 2})
    assert digest({"a": 1}) != digest({"a": 2})


# ---------------------------------------------------------------------------
# Chain digests
# ---------------------------------------------------------------------------
def test_chain_seeds_are_distinct_per_subsystem():
    seeds = {chain_seed(sub) for sub in SUBSYSTEMS}
    assert len(seeds) == len(SUBSYSTEMS)


def test_fold_chain_is_progressive():
    a = fold_chain("metrics", ["p0", "p1", "p2", "p3"])
    b = fold_chain("metrics", ["p0", "p1", "px", "p3"])
    assert a[0] == b[0] and a[1] == b[1]  # shared prefix agrees
    assert a[2] != b[2]  # first differing payload breaks the chain...
    assert a[3] != b[3]  # ...and every later link, same tail or not
    assert fold_chain("ledger", ["p0"]) != fold_chain("metrics", ["p0"])


def test_recorder_rejects_nonpositive_epoch():
    with pytest.raises(ValueError):
        FingerprintRecorder(epoch_s=0.0)


# ---------------------------------------------------------------------------
# Armed reference runs (bit-identity + self-check)
# ---------------------------------------------------------------------------
def _armed_run(fault_plan=None, config=None):
    """One EcoFaaS reference run with every observer armed."""
    session = RunSession(
        tracer=obs.Tracer(ledger=EnergyLedger(),
                          fingerprint=FingerprintRecorder()),
        audit=obs.AuditLog(), verifier=verify.Verifier())
    with session:
        cluster = run_cluster(
            EcoFaaSSystem(EcoFaaSConfig()),
            make_load_trace("low", 2, 6.0, seed=3),
            config or ClusterConfig(n_servers=2, drain_s=4.0),
            fault_plan=fault_plan)
    return cluster, session.tracer, session.audit, session.verifier


@pytest.fixture(scope="module")
def armed():
    return _armed_run()


def _seed_reference():
    from tests.fingerprints import load_reference
    return load_reference()


def test_armed_run_matches_stored_seed_fingerprint(armed):
    cluster, tracer, _, _ = armed
    reference = _seed_reference()["ecofaas"]
    assert cluster_fingerprint(cluster) == reference
    assert tracer.fingerprint.entries[-1]["final"] == reference


def test_armed_chaos_run_matches_stored_seed_fingerprint():
    chaos_config = ClusterConfig(
        n_servers=2, drain_s=4.0,
        reliability=ReliabilityPolicy(max_retries=8, backoff_base_s=0.05))
    plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"], seed=5)
    cluster, _, _, verifier = _armed_run(fault_plan=plan,
                                         config=chaos_config)
    assert cluster_fingerprint(cluster) == \
        _seed_reference()["ecofaas_chaos"]
    assert verifier.violations == []


def test_entry_has_all_subsystem_chains(armed):
    _, tracer, _, _ = armed
    entry = tracer.fingerprint.entries[-1]
    assert set(entry["chains"]) == set(SUBSYSTEMS)
    for chain in entry["chains"].values():
        assert len(chain) == entry["n_epochs"]
    assert entry["n_epochs"] > 0
    assert entry["label"] == "EcoFaaS"


def test_summary_rolls_up_energy_and_workflows(armed):
    cluster, tracer, _, _ = armed
    summary = tracer.fingerprint.entries[-1]["summary"]
    assert summary["energy_total_j"] == pytest.approx(
        cluster.total_energy_j)
    assert summary["workflows_completed"] <= summary["workflows"]
    total_by_component = sum(summary["energy_by_component"].values())
    assert total_by_component == pytest.approx(cluster.total_energy_j,
                                               rel=1e-6)


def test_verify_selfcheck_passes_on_honest_run(armed):
    _, _, _, verifier = armed
    assert verifier.violations == []


def test_verify_selfcheck_catches_tampered_chain(armed):
    cluster, tracer, _, _ = armed
    entry = json.loads(json.dumps(tracer.fingerprint.entries[-1]))
    entry["chains"]["metrics"][1] = "0" * 64
    fresh = verify.Verifier()
    fresh.check_fingerprints(tracer.fingerprint, entry, cluster)
    assert [v.invariant for v in fresh.violations] == ["fingerprint-chain"]
    assert dict(fresh.violations[0].details)["epoch"] == 1


def test_verify_selfcheck_catches_tampered_final(armed):
    cluster, tracer, _, _ = armed
    entry = json.loads(json.dumps(tracer.fingerprint.entries[-1]))
    entry["final"] = "f" * 64
    fresh = verify.Verifier()
    fresh.check_fingerprints(tracer.fingerprint, entry, cluster)
    assert [v.invariant for v in fresh.violations] == ["fingerprint-chain"]


def test_document_roundtrip(tmp_path, armed):
    _, tracer, _, _ = armed
    path = tmp_path / "fp.json"
    manifest = {"seed": 3, "config_digest": digest({"seed": 3})}
    written = tracer.fingerprint.write(str(path), manifest)
    loaded = load_document(str(path))
    assert loaded == written
    assert loaded["manifest"]["seed"] == 3
    assert loaded["runs"][0]["chains"]["metrics"]


def test_load_document_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other", "runs": []}))
    with pytest.raises(ValueError):
        load_document(str(path))
