"""repro.obs.diff: chain bisection, run alignment, golden diff output.

The integration half builds one deterministic "arena" of fingerprint
artifacts — two identical plain EcoFaaS reference runs plus one chaos
arm on the same trace — and pins ``repro diff`` against golden files:

* same seed, same config  → every chain identical, exit 0;
* config delta (chaos arm) → a stable first-divergence report naming
  the epoch, subsystem, and first diverging audit decision, with the
  energy delta attributed across ledger buckets to 1e-6.

Regenerate the goldens (only when diff *output* intentionally changes)::

    PYTHONPATH=src:. python tests/test_obs_diff.py --write-golden
"""

import json
import os

import pytest

from repro import obs
from repro.cli import _diff
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.obs.diff import diff_documents, first_mismatch
from repro.obs.fingerprint import FingerprintRecorder, digest, fold_chain
from repro.obs.ledger import EnergyLedger
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.session import RunSession

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TEXT = os.path.join(DATA_DIR, "diff_golden.txt")
GOLDEN_JSON = os.path.join(DATA_DIR, "diff_golden.json")


# ---------------------------------------------------------------------------
# Chain bisection units
# ---------------------------------------------------------------------------
def test_first_mismatch_identical_chains():
    chain = fold_chain("metrics", ["a", "b", "c"])
    assert first_mismatch(chain, list(chain)) is None
    assert first_mismatch([], []) is None


def test_first_mismatch_finds_first_divergence():
    base = ["p0", "p1", "p2", "p3", "p4"]
    for k in range(len(base)):
        other = list(base)
        other[k] = "XX"
        assert first_mismatch(fold_chain("m", base),
                              fold_chain("m", other)) == k


def test_first_mismatch_prefix_diverges_at_shorter_length():
    chain = fold_chain("m", ["p0", "p1", "p2"])
    assert first_mismatch(chain, chain[:2]) == 2
    assert first_mismatch(chain[:2], chain) == 2
    assert first_mismatch([], chain) == 0


# ---------------------------------------------------------------------------
# The deterministic diff arena
# ---------------------------------------------------------------------------
def _run_arm(chaos: bool):
    """One reference run with fingerprints + ledger + audit armed."""
    tracer = obs.Tracer(ledger=EnergyLedger(),
                        fingerprint=FingerprintRecorder())
    audit = obs.AuditLog()
    if chaos:
        config = ClusterConfig(
            n_servers=2, drain_s=4.0,
            reliability=ReliabilityPolicy(max_retries=8,
                                          backoff_base_s=0.05))
        plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"], seed=5)
    else:
        config = ClusterConfig(n_servers=2, drain_s=4.0)
        plan = None
    with RunSession(tracer=tracer, audit=audit):
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                    make_load_trace("low", 2, 6.0, seed=3), config,
                    fault_plan=plan)
    return tracer, audit


def _manifest(arm: str, stem: str) -> dict:
    config = {"experiment": "ref", "seed": 3, "arm": arm}
    return {"experiment": "ref", "seed": 3,
            "config_digest": digest(config),
            "artifacts": {"audit": f"{stem}_audit.jsonl",
                          "trace": f"{stem}_trace.json"}}


def build_arena(dirpath: str) -> None:
    """Write a.json/b.json (identical plain runs) and chaos.json."""
    from repro.obs.export import write_chrome_trace
    for stem, chaos in (("a", False), ("b", False), ("chaos", True)):
        tracer, audit = _run_arm(chaos)
        audit.write(os.path.join(dirpath, f"{stem}_audit.jsonl"))
        write_chrome_trace(tracer,
                           os.path.join(dirpath, f"{stem}_trace.json"))
        tracer.fingerprint.write(
            os.path.join(dirpath, f"{stem}.json"),
            _manifest("chaos" if chaos else "plain", stem))


@pytest.fixture(scope="module")
def arena(tmp_path_factory):
    dirpath = tmp_path_factory.mktemp("diff_arena")
    build_arena(str(dirpath))
    return str(dirpath)


# ---------------------------------------------------------------------------
# Same seed, same config: identical
# ---------------------------------------------------------------------------
def test_same_seed_runs_diff_identical(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a.json", "b.json"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "identical: every chain and the final fingerprint agree" in out
    assert "first divergence" not in out


def test_run_against_itself_is_identical(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a.json", "a.json", "--run-a", "0", "--run-b", "0"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "identical" in out


# ---------------------------------------------------------------------------
# Config delta: golden first-divergence report
# ---------------------------------------------------------------------------
def _golden(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def test_config_delta_matches_golden_text(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a.json", "chaos.json"])
    out, _ = capsys.readouterr()
    assert rc == 1
    assert out == _golden(GOLDEN_TEXT)


def test_config_delta_matches_golden_json(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a.json", "chaos.json", "--json", "-"])
    out, _ = capsys.readouterr()
    assert rc == 1
    assert out == _golden(GOLDEN_JSON)


def test_diff_output_is_byte_identical_across_invocations(
        arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    _diff(["a.json", "chaos.json"])
    first, _ = capsys.readouterr()
    _diff(["a.json", "chaos.json"])
    second, _ = capsys.readouterr()
    assert first == second


def test_first_divergence_names_an_audit_decision(arena, monkeypatch):
    monkeypatch.chdir(arena)
    result = diff_documents("a.json", "chaos.json")
    assert result["identical"] is False
    pair = result["pairs"][0]
    assert pair["first"] is not None
    assert pair["first"]["subsystem"] in pair["subsystems"]
    assert pair["subsystems"][pair["first"]["subsystem"]]["status"] == \
        "diverged"
    decision = pair["decision"]
    assert decision is not None
    assert decision["source"] in ("audit", "instants")
    # The manifest config digests differ and the note says so.
    assert any("config_digest differs" in note for note in result["notes"])


def test_attribution_buckets_resum_to_energy_total(arena, monkeypatch):
    monkeypatch.chdir(arena)
    result = diff_documents("a.json", "chaos.json")
    attribution = result["pairs"][0]["attribution"]
    energy = attribution["energy_total_j"]
    buckets = attribution["energy_by_component_delta_j"]
    assert attribution["bucket_deltas_resum_to_total"] is True
    scale = max(abs(energy["a"]), abs(energy["b"]))
    assert abs(sum(buckets.values()) - energy["delta"]) <= 1e-6 * scale


def test_epoch_length_mismatch_is_an_error(arena, tmp_path, monkeypatch):
    monkeypatch.chdir(arena)
    with open("a.json") as handle:
        document = json.load(handle)
    document["epoch_s"] = 1.0
    other = tmp_path / "other_epoch.json"
    other.write_text(json.dumps(document))
    with pytest.raises(ValueError):
        diff_documents("a.json", str(other))


# ---------------------------------------------------------------------------
# Golden regeneration entrypoint
# ---------------------------------------------------------------------------
if __name__ == "__main__":
    import contextlib
    import io
    import sys
    import tempfile

    if "--write-golden" not in sys.argv:
        sys.exit("usage: python tests/test_obs_diff.py --write-golden")
    workdir = tempfile.mkdtemp(prefix="diff_arena_")
    build_arena(workdir)
    os.chdir(workdir)
    for golden, argv in ((GOLDEN_TEXT, ["a.json", "chaos.json"]),
                         (GOLDEN_JSON,
                          ["a.json", "chaos.json", "--json", "-"])):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = _diff(argv)
        assert rc == 1, f"expected divergence, got rc={rc}"
        with open(golden, "w") as handle:
            handle.write(buffer.getvalue())
        print(f"wrote {golden}")
