"""``repro bench``: benchmark telemetry document and regression diffs."""

import copy
import json

import pytest

import repro.obs.bench as bench
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.platform.cluster import ClusterConfig
from repro.session import current_session


def tiny_panel(quick):
    """A one-experiment panel so tests stay fast."""
    def runner():
        trace = make_load_trace("low", 1, 3.0, seed=3)
        return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                           ClusterConfig(n_servers=1, seed=3))
    return [("tiny_low", runner)]


@pytest.fixture()
def tiny_bench(monkeypatch):
    monkeypatch.setattr(bench, "_scenarios", tiny_panel)


def test_bench_document_shape(tiny_bench, tmp_path):
    document = bench.run_bench(quick=True)
    assert document["quick"] is True
    assert document["date"]
    entry = document["experiments"]["tiny_low"]
    assert entry["wall_s"] >= 0.0
    assert entry["energy_j"] > 0.0
    assert entry["completed"] > 0
    assert 0.0 <= entry["slo_miss_rate"] <= 1.0
    assert entry["p99_latency_s"] is None or entry["p99_latency_s"] > 0
    # peak RSS is optional (non-POSIX), but on Linux it is present.
    assert entry["peak_rss_kb"] is None or entry["peak_rss_kb"] > 0

    path = tmp_path / bench.default_path(document)
    assert path.name.startswith("BENCH_")
    bench.write_bench(document, str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(document))


def test_bench_sim_metrics_are_seed_deterministic(tiny_bench):
    first = bench.run_bench(quick=True)["experiments"]["tiny_low"]
    second = bench.run_bench(quick=True)["experiments"]["tiny_low"]
    for key in bench.SIM_METRICS:
        assert first[key] == second[key], key


def test_compare_clean_when_identical(tiny_bench):
    document = bench.run_bench(quick=True)
    assert bench.compare(document, copy.deepcopy(document)) == []


def test_compare_flags_injected_sim_regression(tiny_bench):
    old = bench.run_bench(quick=True)
    new = copy.deepcopy(old)
    new["experiments"]["tiny_low"]["energy_j"] *= 1.01
    findings = bench.compare(old, new)
    assert len(findings) == 1
    assert "energy_j drifted" in findings[0]
    assert "behavior changed" in findings[0]


def test_run_bench_fingerprints_attaches_chains(tiny_bench):
    document = bench.run_bench(quick=True, profile=False,
                               fingerprints=True)
    entry = document["experiments"]["tiny_low"]
    section = entry["fingerprint"]
    assert set(section) == {"final", "n_epochs", "chains"}
    for chain in section["chains"].values():
        assert len(chain) == section["n_epochs"]
    assert {"metrics", "instants"} <= set(section["chains"])
    assert current_session().tracer is None  # detached after the panel


def test_run_bench_fingerprints_off_adds_nothing(tiny_bench):
    document = bench.run_bench(quick=True, profile=False)
    assert "fingerprint" not in document["experiments"]["tiny_low"]


def test_compare_points_drift_at_first_diverging_epoch(tiny_bench):
    old = bench.run_bench(quick=True, profile=False, fingerprints=True)
    new = copy.deepcopy(old)
    entry = new["experiments"]["tiny_low"]
    entry["energy_j"] *= 1.01
    chains = entry["fingerprint"]["chains"]
    for epoch in range(1, len(chains["metrics"])):
        chains["metrics"][epoch] = "0" * 64
    findings = bench.compare(old, new)
    assert any("energy_j drifted" in f for f in findings)
    assert any("first divergence at epoch 1 in subsystem 'metrics'" in f
               for f in findings)


def test_compare_drift_without_chains_has_no_divergence_pointer(
        tiny_bench):
    old = bench.run_bench(quick=True, profile=False)
    new = copy.deepcopy(old)
    new["experiments"]["tiny_low"]["energy_j"] *= 1.01
    findings = bench.compare(old, new)
    assert not any("first divergence" in f for f in findings)


def test_compare_flags_wall_time_regression():
    old = {"quick": True, "experiments": {"x": {"wall_s": 2.0}}}
    new = {"quick": True, "experiments": {"x": {"wall_s": 3.5}}}
    findings = bench.compare(old, new)
    assert any("wall-time regression" in f for f in findings)
    # Below the absolute floor, relative jumps are scheduler noise.
    old_small = {"quick": True, "experiments": {"x": {"wall_s": 0.1}}}
    new_small = {"quick": True, "experiments": {"x": {"wall_s": 0.3}}}
    assert bench.compare(old_small, new_small) == []


def test_compare_flags_missing_experiment():
    old = {"quick": True, "experiments": {"x": {"wall_s": 1.0},
                                          "y": {"wall_s": 1.0}}}
    new = {"quick": True, "experiments": {"x": {"wall_s": 1.0}}}
    findings = bench.compare(old, new)
    assert findings == ["y: experiment missing from new run"]


def test_compare_skips_metrics_across_panel_sizes():
    old = {"quick": False, "experiments": {"x": {"wall_s": 1.0,
                                                 "energy_j": 10.0}}}
    new = {"quick": True, "experiments": {"x": {"wall_s": 1.0,
                                                "energy_j": 99.0}}}
    findings = bench.compare(old, new)
    assert len(findings) == 1
    assert "panel size mismatch" in findings[0]


def test_compare_skips_wall_time_across_panel_sizes():
    """A full panel is legitimately slower than a quick one: no wall
    regression may be reported across a quick mismatch."""
    old = {"quick": True, "experiments": {"x": {"wall_s": 2.0}}}
    new = {"quick": False, "experiments": {"x": {"wall_s": 60.0}}}
    findings = bench.compare(old, new)
    assert len(findings) == 1
    assert "panel size mismatch" in findings[0]
    assert not any("wall-time regression" in f for f in findings)
    # Experiment presence is still checked across sizes.
    gone = {"quick": False, "experiments": {}}
    findings = bench.compare(old, gone)
    assert any("missing from new run" in f for f in findings)


def test_cli_bench_compare_exits_nonzero_on_regression(
        tiny_bench, tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    assert out.exists()

    # Inject a regression into the stored baseline, then compare.
    old = json.loads(out.read_text())
    old["experiments"]["tiny_low"]["energy_j"] *= 0.5
    baseline = tmp_path / "old.json"
    baseline.write_text(json.dumps(old))
    assert main(["bench", "--quick", "--out", str(out),
                 "--compare", str(baseline)]) == 1
    assert "regression finding" in capsys.readouterr().out

    # A same-seed rerun against an honest baseline is clean. (The new
    # document is written to --out before --compare is read, so
    # comparing a run against its own output must find nothing.)
    assert main(["bench", "--quick", "--out", str(out),
                 "--compare", str(out)]) == 0


def test_full_panel_names_are_stable():
    names = [name for name, _ in bench._scenarios(quick=True)]
    assert names == ["baseline_low", "ecofaas_low", "ecofaas_chaos",
                     "ecofaas_overload", "ecofaas_partition"]


def test_rss_growth_is_against_running_high_water_mark(
        tiny_bench, monkeypatch):
    """ru_maxrss only ever rises; growth must be charged against the
    running max, never go negative, and carry the panel order."""
    samples = iter([1000, 5000, 5000])  # before, after exp 0, after exp 1

    def two_panel(quick):
        (name, runner) = tiny_panel(quick)[0]
        return [("first", runner), ("second", runner)]

    monkeypatch.setattr(bench, "_scenarios", two_panel)
    monkeypatch.setattr(bench, "_peak_rss_kb", lambda: next(samples))
    document = bench.run_bench(quick=True, profile=False)
    first = document["experiments"]["first"]
    second = document["experiments"]["second"]
    assert first["panel_index"] == 0
    assert second["panel_index"] == 1
    assert first["rss_grew_kb"] == 4000   # claimed the high-water growth
    assert second["rss_grew_kb"] == 0     # ran under the existing peak
    assert "panel order" in document["rss_note"]


def test_bench_profile_section(tiny_bench):
    document = bench.run_bench(quick=True)
    section = document["experiments"]["tiny_low"]["profile"]
    assert section["events_per_s"] > 0
    assert section["wall_conservation"] > 0.5
    assert section["top_components"]
    assert all({"component", "self_s", "share"} <= set(row)
               for row in section["top_components"])
    # profile=False omits the section and leaves sim metrics unchanged.
    plain = bench.run_bench(quick=True, profile=False)
    assert "profile" not in plain["experiments"]["tiny_low"]
    for key in bench.SIM_METRICS:
        assert plain["experiments"]["tiny_low"][key] == \
            document["experiments"]["tiny_low"][key], key


def test_bench_profile_leaves_no_active_profiler(tiny_bench):
    bench.run_bench(quick=True)
    assert current_session().profiler is None


# ---------------------------------------------------------------------------
# repro bench --history
# ---------------------------------------------------------------------------
def _write_panel(path, date, quick, wall_s, energy_j):
    path.write_text(json.dumps({
        "date": date, "quick": quick,
        "experiments": {"tiny_low": {"wall_s": wall_s,
                                     "energy_j": energy_j}},
    }))


def test_history_orders_files_and_groups_by_experiment(tmp_path):
    _write_panel(tmp_path / "BENCH_2026-08-02.json", "2026-08-02",
                 True, 1.0, 10.0)
    _write_panel(tmp_path / "BENCH_2026-08-01.json", "2026-08-01",
                 True, 2.0, 11.0)
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    (tmp_path / "OTHER.json").write_text("{}")
    document = bench.history(str(tmp_path))
    assert document["files"] == ["BENCH_2026-08-01.json",
                                 "BENCH_2026-08-02.json"]
    trajectory = document["experiments"]["tiny_low"]
    assert [point["wall_s"] for point in trajectory] == [2.0, 1.0]
    assert [point["energy_j"] for point in trajectory] == [11.0, 10.0]
    assert len(document["skipped"]) == 1
    text = bench.format_history(document)
    assert "tiny_low" in text
    assert "BENCH_2026-08-01.json" in text
    assert "skipped BENCH_broken.json" in text


def test_history_empty_directory(tmp_path):
    document = bench.history(str(tmp_path))
    assert document["files"] == []
    assert "no BENCH_*.json" in bench.format_history(document)


def test_cli_bench_history(tmp_path, capsys):
    from repro.cli import main

    _write_panel(tmp_path / "BENCH_2026-08-01.json", "2026-08-01",
                 True, 2.0, 11.0)
    assert main(["bench", "--history", str(tmp_path)]) == 0
    assert "bench history" in capsys.readouterr().out
    assert main(["bench", "--history", str(tmp_path),
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["files"] == ["BENCH_2026-08-01.json"]
    # Empty directory: nothing to show, non-zero exit.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--history", str(empty)]) == 1


# ---------------------------------------------------------------------------
# repro profile CLI
# ---------------------------------------------------------------------------
@pytest.fixture()
def tiny_profile(monkeypatch):
    def scenario(scale, quick):
        trace = make_load_trace("low", 1, 3.0 * scale, seed=3)
        return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                           ClusterConfig(n_servers=1, seed=3))
    monkeypatch.setattr(bench, "_profile_scenario", scenario)


def test_cli_profile_text_and_artifacts(tiny_profile, tmp_path, capsys,
                                        monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "profile.json"
    assert main(["profile", "--scale", "1,2", "--quick",
                 "--out", str(out),
                 "--collapsed", str(tmp_path / "prof")]) == 0
    text = capsys.readouterr().out
    assert "scaling curve" in text
    assert "conservation" in text
    document = json.loads(out.read_text())
    assert [entry["scale"] for entry in document["scales"]] == [1, 2]
    for scale in (1, 2):
        collapsed = tmp_path / f"prof.scale{scale}.collapsed"
        assert collapsed.exists()
        for line in collapsed.read_text().strip().splitlines():
            path, usec = line.rsplit(" ", 1)
            assert int(usec) > 0


def test_cli_profile_json_format(tiny_profile, tmp_path, capsys,
                                 monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["profile", "--scale", "1", "--quick",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["scales"][0]["wall_conservation"] >= 0.9


def test_cli_profile_min_conservation_gate(tiny_profile, tmp_path,
                                           monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    # An impossible bar must trip the gate (conservation can't beat 2.0).
    assert main(["profile", "--scale", "1", "--quick",
                 "--min-conservation", "2.0"]) == 1
    assert "wall conservation" in capsys.readouterr().err


def test_cli_profile_rejects_bad_scale(capsys):
    from repro.cli import main

    assert main(["profile", "--scale", "nope"]) == 2
    assert main(["profile", "--scale", "0"]) == 2
    assert "bad --scale" in capsys.readouterr().err


def test_cli_profile_cprofile_dump(tiny_profile, tmp_path, monkeypatch):
    import pstats

    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    dump = tmp_path / "prof.pstats"
    assert main(["profile", "--scale", "1", "--quick",
                 "--cprofile", str(dump)]) == 0
    stats = pstats.Stats(str(dump))
    assert stats.total_calls > 0
