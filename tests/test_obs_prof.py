"""Unit tests for the kernel self-profiler (``repro.obs.prof``)."""

import pytest

from repro.obs import prof
from repro.obs.registry import PROFILE_COMPONENTS
from repro.session import RunSession, current_session


class FakeClock:
    """A deterministic perf_counter stand-in, advanced by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clocked():
    clock = FakeClock()
    return prof.Profiler(clock=clock), clock


def test_exclusive_accounting_sums_to_window(clocked):
    p, clock = clocked
    p.start()
    clock.advance(1.0)            # harness
    p.enter("core.milp")
    clock.advance(2.0)            # core.milp
    p.enter("core.predictor")
    clock.advance(0.5)            # nested predictor
    p.exit("core.predictor")
    clock.advance(1.0)            # back in core.milp
    p.exit("core.milp")
    clock.advance(0.25)           # harness again
    total = p.stop()

    assert total == pytest.approx(4.75)
    assert p.profiled_s() == pytest.approx(total)
    assert p.self_s[("harness",)] == pytest.approx(1.25)
    assert p.self_s[("harness", "core.milp")] == pytest.approx(3.0)
    assert p.self_s[("harness", "core.milp",
                     "core.predictor")] == pytest.approx(0.5)


def test_by_component_aggregates_across_paths(clocked):
    p, clock = clocked
    p.start()
    for _ in range(2):
        p.enter("core.dpt")
        clock.advance(1.0)
        p.exit("core.dpt")
        p.enter("kernel.dispatch")
        p.enter("core.dpt")       # same component, different path
        clock.advance(2.0)
        p.exit("core.dpt")
        p.exit("kernel.dispatch")
    p.stop()
    rows = {row["component"]: row for row in p.by_component()}
    assert rows["core.dpt"]["self_s"] == pytest.approx(6.0)
    assert rows["core.dpt"]["calls"] == 4
    assert rows["core.dpt"]["share"] == pytest.approx(1.0, abs=1e-3)
    # Hotspots first.
    assert p.by_component()[0]["component"] == "core.dpt"


def test_tree_nests_children(clocked):
    p, clock = clocked
    p.start()
    p.enter("kernel.dispatch")
    p.enter("core.milp")
    clock.advance(1.0)
    p.exit("core.milp")
    p.exit("kernel.dispatch")
    p.stop()
    tree = p.tree()
    milp = tree["harness"]["children"]["kernel.dispatch"]["children"][
        "core.milp"]
    assert milp["self_s"] == pytest.approx(1.0)
    assert milp["calls"] == 1


def test_collapsed_stack_format(clocked):
    p, clock = clocked
    p.start()
    p.enter("hardware.energy")
    clock.advance(0.001)
    p.exit("hardware.energy")
    clock.advance(0.002)
    p.stop()
    lines = p.collapsed().strip().splitlines()
    assert "harness 2000" in lines
    assert "harness;hardware.energy 1000" in lines
    for line in lines:
        path, count = line.rsplit(" ", 1)
        assert int(count) > 0
        assert path


def test_kernel_counters(clocked):
    p, _ = clocked
    p.note_push(3)
    p.note_push(5)
    p.note_push(4)
    p.note_event("JobDone", 2)
    p.note_event("Timeout", 1)
    p.note_event("JobDone", 0)
    counters = p.counters()
    assert counters["heap_pushes"] == 3
    assert counters["heap_pops"] == 3
    assert counters["callbacks_dispatched"] == 3
    assert counters["heap_depth_max"] == 5
    assert counters["heap_depth_mean"] == pytest.approx(4.0)
    assert counters["events_by_type"] == {"JobDone": 2, "Timeout": 1}


def test_scope_mismatch_raises(clocked):
    p, _ = clocked
    p.start()
    p.enter("guard")
    with pytest.raises(RuntimeError, match="scope mismatch"):
        p.exit("ha")


def test_double_start_raises(clocked):
    p, _ = clocked
    p.start()
    with pytest.raises(RuntimeError, match="already running"):
        p.start()
    p.stop()
    with pytest.raises(RuntimeError, match="not running"):
        p.stop()


def test_hooks_are_noops_when_not_started(clocked):
    p, clock = clocked
    p.enter("guard")
    clock.advance(1.0)
    p.exit("guard")
    assert p.profiled_s() == 0.0
    assert not p.enabled


def test_decorator_dispatches_only_while_installed_and_running():
    calls = []

    @prof.profiled("tenancy")
    def work(x):
        calls.append(x)
        return x * 2

    # No profiler in the session: plain call.
    assert work(1) == 2
    assert current_session().profiler is None

    p = prof.Profiler(clock=FakeClock())
    with RunSession(profiler=p):
        # In the session but not started: still a plain call.
        assert work(2) == 4
        assert ("harness", "tenancy") not in p.calls
        p.start()
        assert work(3) == 6
        with RunSession():
            assert work(4) == 8  # the inner session has no profiler
        assert work(5) == 10  # ...and leaving it restores the outer one
    assert current_session().profiler is None
    with pytest.raises(RuntimeError, match="boom"):
        with RunSession(profiler=p):
            raise RuntimeError("boom")
    assert work(6) == 12  # still running, but no longer in a session
    p.stop()
    assert p.calls[("harness", "tenancy")] == 2
    assert calls == [1, 2, 3, 4, 5, 6]


def test_null_profiler_is_inert():
    null = prof.NULL_PROFILER
    assert null.enabled is False
    null.enter("x")
    null.exit("y")            # no mismatch check on the null object
    null.note_push(1)
    null.note_event("E", 2)


def test_component_registry_covers_instrumented_names():
    names = {name for name, _ in PROFILE_COMPONENTS}
    assert prof.ROOT_COMPONENT in names
    for expected in ("kernel.dispatch", "hardware.energy", "core.milp",
                     "core.dpt", "core.predictor", "obs.trace",
                     "obs.ledger", "obs.audit", "guard", "ha", "tenancy"):
        assert expected in names
    for name, description in PROFILE_COMPONENTS:
        assert description


def test_environment_binds_profiler_and_counts_events():
    from repro.sim import Environment

    env = Environment()
    assert env.prof is prof.NULL_PROFILER
    p = prof.Profiler()
    p.bind(env)
    assert env.prof is p
    p.start()

    fired = []

    def proc():
        yield env.timeout(1.0)
        fired.append(env.now)
        yield env.timeout(2.0)
        fired.append(env.now)

    env.process(proc(), name="p")
    env.run()
    p.stop()
    assert fired == [1.0, 3.0]
    assert p.pushes > 0
    assert p.pops > 0
    assert p.callbacks_dispatched > 0
    assert p.heap_depth_max >= 1
    assert p.events_by_type
    # Dispatch time was attributed under the kernel component.
    assert any("kernel.dispatch" in path for path in p.calls)


def test_format_hotspots_and_scaling_render():
    entry = {
        "scale": 1,
        "wall_s": 1.234,
        "events_per_s": 10000.0,
        "wall_conservation": 0.998,
        "components": [
            {"component": "kernel.dispatch", "self_s": 0.9,
             "share": 0.73, "calls": 1000},
            {"component": "harness", "self_s": 0.334,
             "share": 0.27, "calls": 1},
        ],
        "counters": {"heap_pops": 1000, "callbacks_dispatched": 900,
                     "heap_depth_mean": 12.5, "heap_depth_max": 40},
    }
    text = prof.format_hotspots(entry)
    assert "kernel.dispatch" in text
    assert "99.8%" in text
    assert "1000 events dispatched" in text
    scaling = prof.format_scaling({"scales": [entry]})
    assert "scaling curve" in scaling
    assert "kernel.dispatch (73.0%)" in scaling
