"""Kernel self-profiling: wall-time attribution and event-loop counters.

The same measure-before-you-bill philosophy the energy ledger applies to
simulated joules applies here to the reproduction's own runtime: before
anyone optimizes the discrete-event kernel, every wall-second of a run
should be attributed to a component, with a conservation check.

A :class:`Profiler` collects two kinds of data, both from the host
wall-clock (``time.perf_counter``) and never from simulation state:

* **kernel counters** — heap push/pop totals, max/mean heap depth,
  callback dispatch counts, and per-event-type counts, sampled by
  ``Environment.schedule``/``step`` through the ``env.prof`` hook;
* **wall-time attribution** — scoped timers around the known-hot
  components (MILP solves, energy integration, tracer overhead, ...),
  accounted *exclusively*: entering a scope stops the parent's clock, so
  the per-path self-times sum to the profiled window by construction.
  The components are named in
  :data:`repro.obs.registry.PROFILE_COMPONENTS`.

Opt-in follows the ``env.trace`` pattern: ``Environment.prof`` is the
shared :data:`NULL_PROFILER` (every hook a no-op) until a real profiler
is bound. Code without an environment at hand (the MILP solver, the
predictor) is instrumented with the :func:`profiled` decorator, which
dispatches to the profiler of the current
:class:`~repro.session.RunSession` — the decorator short-circuits to a
plain call while no profiler is running, and the profiler only ever
*reads* the wall clock, so profiler-off and profiler-on runs are both
bit-identical in every simulated metric.

Aggregated output:

* :meth:`Profiler.by_component` — hotspot rows (self-time, share, calls);
* :meth:`Profiler.collapsed` — collapsed-stack text (``a;b;c <usec>``)
  loadable by standard flamegraph tools (flamegraph.pl, speedscope,
  inferno);
* :func:`format_hotspots` / :func:`format_scaling` — the text tables the
  ``repro profile`` CLI prints.

This module deliberately imports nothing from the rest of ``repro``
except the (equally import-free) name registry, so the sim kernel and
the core solvers can depend on it without cycles.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import PROFILE_COMPONENTS

#: Component the profiled window opens with; its self-time is everything
#: not claimed by a nested scope (harness setup, trace generation,
#: metric rollups).
ROOT_COMPONENT = "harness"

#: Presentation order of the known components (unknown ones sort after,
#: alphabetically).
_COMPONENT_ORDER = {name: i for i, (name, _) in enumerate(PROFILE_COMPONENTS)}

COMPONENT_DESCRIPTIONS = dict(PROFILE_COMPONENTS)


class NullProfiler:
    """The shared do-nothing profiler: every hook is a no-op.

    Installed as ``Environment.prof`` by default so the kernel's
    instrumentation points pay one attribute lookup and one falsy check
    per event, nothing more.
    """

    enabled = False

    def bind(self, env) -> None:
        pass

    def enter(self, component: str) -> None:
        pass

    def exit(self, component: str) -> None:
        pass

    def note_push(self, depth: int) -> None:
        pass

    def note_event(self, event_type: str, n_callbacks: int) -> None:
        pass


#: The one shared null profiler (kernel hooks dispatch through this when
#: no real profiler is bound).
NULL_PROFILER = NullProfiler()


class Profiler(NullProfiler):
    """Records exclusive wall-time per component path plus kernel counters.

    Lifecycle: construct, enter ``RunSession(profiler=...)`` (so the
    decorator-instrumented solvers see it), :meth:`start`, run the
    scenario (``run_cluster`` binds it to each environment it builds),
    :meth:`stop`, leave the session. ``enabled`` is False outside
    start/stop, which short-circuits every hook.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.enabled = False
        self._clock = clock
        self._stack: List[str] = []
        self._mark = 0.0
        self._t0 = 0.0
        #: Total profiled wall-time across start/stop windows.
        self.total_s = 0.0
        #: Exclusive self-time per component path (tuple of scope names).
        self.self_s: Dict[Tuple[str, ...], float] = {}
        #: Scope entry count per component path.
        self.calls: Dict[Tuple[str, ...], int] = {}
        # Kernel counters (Environment.schedule / step).
        self.pushes = 0
        self.pops = 0
        self.callbacks_dispatched = 0
        self.events_by_type: Dict[str, int] = {}
        self.heap_depth_max = 0
        self._heap_depth_sum = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, env) -> None:
        """Attach to ``env``: the kernel's counter hooks route here."""
        env.prof = self

    def start(self) -> None:
        """Open a profiled window rooted at :data:`ROOT_COMPONENT`."""
        if self.enabled:
            raise RuntimeError("profiler is already running")
        self._stack = [ROOT_COMPONENT]
        self._t0 = self._clock()
        self._mark = self._t0
        self.calls[(ROOT_COMPONENT,)] = self.calls.get((ROOT_COMPONENT,),
                                                       0) + 1
        self.enabled = True

    def stop(self) -> float:
        """Close the window; returns total profiled seconds so far."""
        if not self.enabled:
            raise RuntimeError("profiler is not running")
        now = self._clock()
        self._accrue(now)
        self.enabled = False
        self.total_s += now - self._t0
        self._stack = []
        return self.total_s

    # ------------------------------------------------------------------
    # Scoped timers (exclusive accounting)
    # ------------------------------------------------------------------
    def _accrue(self, now: float) -> None:
        dt = now - self._mark
        if dt > 0:
            path = tuple(self._stack)
            self.self_s[path] = self.self_s.get(path, 0.0) + dt
        self._mark = now

    def enter(self, component: str) -> None:
        if not self.enabled:
            return
        self._accrue(self._clock())
        self._stack.append(component)
        path = tuple(self._stack)
        self.calls[path] = self.calls.get(path, 0) + 1

    def exit(self, component: str) -> None:
        if not self.enabled:
            return
        if not self._stack or self._stack[-1] != component:
            raise RuntimeError(
                f"profiler scope mismatch: exiting {component!r} but the"
                f" stack is {self._stack}")
        self._accrue(self._clock())
        self._stack.pop()

    # ------------------------------------------------------------------
    # Kernel counters
    # ------------------------------------------------------------------
    def note_push(self, depth: int) -> None:
        """One event queued; ``depth`` is the heap size after the push."""
        self.pushes += 1
        self._heap_depth_sum += depth
        if depth > self.heap_depth_max:
            self.heap_depth_max = depth

    def note_event(self, event_type: str, n_callbacks: int) -> None:
        """One event popped and about to dispatch ``n_callbacks``."""
        self.pops += 1
        self.callbacks_dispatched += n_callbacks
        self.events_by_type[event_type] = (
            self.events_by_type.get(event_type, 0) + 1)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def profiled_s(self) -> float:
        """Sum of all self-times (equals the window length by design)."""
        return sum(self.self_s.values())

    def by_component(self) -> List[Dict[str, Any]]:
        """Hotspot rows: one per component, presentation-ordered.

        Self-time aggregates every path *ending* in the component, so a
        component's row is its exclusive time no matter where in the
        tree it was entered from.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        for path, seconds in self.self_s.items():
            row = rows.setdefault(path[-1], {"self_s": 0.0, "calls": 0})
            row["self_s"] += seconds
        for path, count in self.calls.items():
            rows.setdefault(path[-1], {"self_s": 0.0, "calls": 0})
            rows[path[-1]]["calls"] += count
        total = self.profiled_s()
        out = []
        for name in sorted(rows, key=lambda n: (_COMPONENT_ORDER.get(
                n, len(_COMPONENT_ORDER)), n)):
            row = rows[name]
            out.append({
                "component": name,
                "self_s": round(row["self_s"], 6),
                "share": round(row["self_s"] / total, 4) if total else 0.0,
                "calls": row["calls"],
            })
        out.sort(key=lambda r: -r["self_s"])
        return out

    def tree(self) -> Dict[str, Any]:
        """The component tree: nested ``{children: {...}, self_s, calls}``."""
        root: Dict[str, Any] = {"self_s": 0.0, "calls": 0, "children": {}}
        for path in sorted(set(self.self_s) | set(self.calls)):
            node = root
            for name in path:
                node = node["children"].setdefault(
                    name, {"self_s": 0.0, "calls": 0, "children": {}})
            node["self_s"] = round(node["self_s"]
                                   + self.self_s.get(path, 0.0), 6)
            node["calls"] += self.calls.get(path, 0)
        return root["children"]

    def collapsed(self) -> str:
        """Collapsed-stack text (one ``a;b;c <microseconds>`` per line).

        Loadable by flamegraph.pl, inferno, or speedscope; the "sample
        count" is integer microseconds of exclusive time.
        """
        lines = []
        for path in sorted(self.self_s):
            usec = int(round(self.self_s[path] * 1e6))
            if usec <= 0:
                continue
            lines.append(";".join(path) + f" {usec}")
        return "\n".join(lines) + ("\n" if lines else "")

    def counters(self) -> Dict[str, Any]:
        """The kernel counters as one JSON-ready dict."""
        return {
            "heap_pushes": self.pushes,
            "heap_pops": self.pops,
            "callbacks_dispatched": self.callbacks_dispatched,
            "heap_depth_max": self.heap_depth_max,
            "heap_depth_mean": round(self._heap_depth_sum / self.pushes, 2)
                               if self.pushes else 0.0,
            "events_by_type": dict(sorted(self.events_by_type.items())),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Everything the profiler measured, as one JSON-ready dict."""
        return {
            "total_s": round(self.total_s, 6),
            "profiled_s": round(self.profiled_s(), 6),
            "components": self.by_component(),
            "tree": self.tree(),
            "counters": self.counters(),
        }


# ---------------------------------------------------------------------------
# The profiler @profiled scopes report to
# ---------------------------------------------------------------------------
#: The current run session's profiler (repro.session writes it on every
#: session enter and exit; NULL_PROFILER while no session carries one).
_active: NullProfiler = NULL_PROFILER


def profiled(component: str):
    """Decorator: attribute a callable's wall-time to ``component``.

    While the current session has no started profiler this is a falsy
    check plus one extra frame; nested profiled calls account exclusively
    (the callee's time is not double-counted in the caller).
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prof = _active
            if not prof.enabled:
                return fn(*args, **kwargs)
            prof.enter(component)
            try:
                return fn(*args, **kwargs)
            finally:
                prof.exit(component)
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# Text rendering (the `repro profile` CLI's tables)
# ---------------------------------------------------------------------------
def format_hotspots(entry: Dict[str, Any]) -> str:
    """One scale's hotspot table from a ``run_profile`` scale entry."""
    counters = entry["counters"]
    lines = [
        f"== profile: scale {entry['scale']:g}x — wall {entry['wall_s']:.2f}s,"
        f" {entry['events_per_s']:,.0f} events/s,"
        f" conservation {100.0 * entry['wall_conservation']:.1f}% ==",
        f"{'component':16s}  {'self_s':>8s}  {'share':>6s}  {'calls':>9s}"
        f"  description",
        f"{'-' * 16}  {'-' * 8}  {'-' * 6}  {'-' * 9}  {'-' * 11}",
    ]
    for row in entry["components"]:
        lines.append(
            f"{row['component']:16s}  {row['self_s']:8.3f}"
            f"  {100.0 * row['share']:5.1f}%  {row['calls']:9d}"
            f"  {COMPONENT_DESCRIPTIONS.get(row['component'], '')}")
    lines.append(
        f"kernel: {counters['heap_pops']} events dispatched"
        f" ({counters['callbacks_dispatched']} callbacks),"
        f" heap depth mean {counters['heap_depth_mean']:g}"
        f" / max {counters['heap_depth_max']}")
    return "\n".join(lines)


def format_scaling(document: Dict[str, Any]) -> str:
    """The cross-scale summary table of a ``run_profile`` document."""
    lines = [
        "== scaling curve ==",
        f"{'scale':>5s}  {'wall_s':>8s}  {'events':>9s}  {'events/s':>9s}"
        f"  {'conserv':>7s}  top component",
        f"{'-' * 5}  {'-' * 8}  {'-' * 9}  {'-' * 9}  {'-' * 7}  {'-' * 13}",
    ]
    for entry in document["scales"]:
        top = entry["components"][0] if entry["components"] else None
        top_text = (f"{top['component']} ({100.0 * top['share']:.1f}%)"
                    if top else "-")
        lines.append(
            f"{entry['scale']:5g}  {entry['wall_s']:8.2f}"
            f"  {entry['counters']['heap_pops']:9d}"
            f"  {entry['events_per_s']:9,.0f}"
            f"  {100.0 * entry['wall_conservation']:6.1f}%  {top_text}")
    return "\n".join(lines)
