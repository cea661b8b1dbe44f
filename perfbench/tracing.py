"""Span tracing of the ``repro`` layers, installed by monkeypatching.

The simulator's source is never edited: :meth:`SpanTracer.install` walks
the loaded ``repro`` modules of the traced layers and replaces every
public function and method with a wrapper that counts its calls and,
when the call crosses into another component, records a span (name,
host start, host end, parent span, and the job id when the call receives
a ``Job``). :meth:`SpanTracer.uninstall` restores the originals.

Spans are kept in memory in flat arrays and written out at the end of
the run. A component's self time is the duration of its spans minus the
part covered by their child spans, accumulated online as calls return.

Generator functions (simulation processes) are left unwrapped: their
bodies run while ``Environment.step`` resumes them, so that time is
billed to ``sim``. Of the kernel itself only ``Environment.step`` and
``Environment.run`` are wrapped; the event factories are called from
every layer and are cheaper than a wrapper around them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``repro`` sub-packages whose public functions are traced. Each is a
#: layer; a component is the module inside it (``core.predictor``).
LAYERS = ("sim", "hardware", "workloads", "traces", "platform", "core",
          "baselines", "guard", "ha", "cancel", "faults", "tenancy")

#: The only kernel entry points traced (see the module docstring).
SIM_METHODS = {"Environment": ("step", "run")}

#: Properties whose reads are counted, without a span: a span around a
#: getter this small would cost more than the getter. Their time, like
#: that of every other property, is billed to the caller.
#: ``component -> class -> property names``.
TRACED_PROPERTIES = {"platform.scheduler": {"CorePoolScheduler": ("load",)}}

_ROOT = -1


def _component_of(module_name: str) -> Optional[str]:
    """``repro.core.predictor`` -> ``core.predictor``; None if untraced."""
    parts = module_name.split(".")
    if len(parts) < 3 or parts[0] != "repro" or parts[1] not in LAYERS:
        return None
    return ".".join(parts[1:3])


def _job_position(fn: Callable) -> Optional[int]:
    """Positional index of a parameter named ``job``, if the call has one."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("job") if "job" in params else None


class SpanTracer:
    """Records spans and per-function call counts for one traced window."""

    def __init__(self, result_hooks: Optional[Dict[str, Callable]] = None
                 ) -> None:
        #: Called with the return value of the named functions.
        self.result_hooks = dict(result_hooks or {})
        #: Qualified function names (``core.predictor:fit_compute_memory``).
        self.names: List[str] = []
        self.components: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        # Span columns.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        #: (open span id, its component id), the root being (-1, -1).
        self._current = [_ROOT, _ROOT]
        #: Child-time accumulators of the open spans; index 0 is the root.
        self._child = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self.window_s = 0.0
        self._window_start: Optional[float] = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _component_id(self, component: str) -> int:
        if component not in self.components:
            self.components.append(component)
            self.self_s.append(0.0)
        return self.components.index(component)

    def _register(self, qualname: str, component: str) -> Tuple[int, int]:
        """Add one traced function; its (function id, component id)."""
        cid = self._component_id(component)
        self.names.append(qualname)
        self.calls.append(0)
        return len(self.names) - 1, cid

    def _count_only(self, fn: Callable, qualname: str,
                    component: str) -> Callable:
        """Count calls without a span (for property reads)."""
        fid, _ = self._register(qualname, component)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[fid] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(counted, fn)
        return counted

    def _wrap(self, fn: Callable, qualname: str, component: str) -> Callable:
        fid, cid = self._register(qualname, component)
        job_pos = _job_position(fn)
        hook = self.result_hooks.get(qualname)
        calls, self_s = self.calls, self.self_s
        current, child = self._current, self._child
        s_name, s_parent = self.span_name, self.span_parent
        s_job = self.span_job
        s_start, s_end = self.span_start, self.span_end
        perf = time.perf_counter

        def traced(*args, **kwargs):
            calls[fid] += 1
            if current[1] == cid:
                # Still inside this component: no boundary, no span; the
                # time stays in the enclosing span's self time.
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            job_id = -1
            if job_pos is not None:
                job = (args[job_pos] if len(args) > job_pos
                       else kwargs.get("job"))
                job_id = getattr(job, "job_id", -1)
            parent, parent_cid = current
            sid = len(s_name)
            s_name.append(fid)
            s_parent.append(parent)
            s_job.append(job_id)
            s_start.append(0.0)
            s_end.append(0.0)
            current[0], current[1] = sid, cid
            child.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                end = perf()
                duration = end - start
                self_s[cid] += duration - child.pop()
                child[-1] += duration
                s_start[sid] = start
                s_end[sid] = end
                current[0], current[1] = parent, parent_cid

        functools.update_wrapper(traced, fn)
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "SpanTracer":
        """Wrap every traced callable of the loaded ``repro`` modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, Callable] = {}
        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if name.startswith("repro.") and mod is not None)
        for mod_name, module in modules:
            component = _component_of(mod_name)
            if component is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod_name:
                    self._wrap_class(value, component, replaced)
                elif (inspect.isfunction(value)
                      and value.__module__ == mod_name
                      and component.split(".")[0] != "sim"
                      and not inspect.isgeneratorfunction(value)):
                    replaced[id(value)] = self._wrap(
                        value, f"{component}:{attr}", component)
                    self._patch(module, attr, replaced[id(value)])
        # Re-point names other modules imported (``from x import f``).
        for mod_name, module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value)) if callable(value) else None
                if wrapped is not None and value is not wrapped:
                    self._patch(module, attr, wrapped)
        return self

    def _wrap_class(self, cls: type, component: str,
                    replaced: Dict[int, Callable]) -> None:
        layer = component.split(".")[0]
        only = SIM_METHODS.get(cls.__name__) if layer == "sim" else None
        if layer == "sim" and only is None:
            return
        props = TRACED_PROPERTIES.get(component, {}).get(cls.__name__, ())
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or (only is not None and attr not in only):
                continue
            qualname = f"{component}:{cls.__name__}.{attr}"
            if isinstance(value, property):
                if attr in props and value.fget is not None:
                    getter = self._count_only(value.fget, qualname, component)
                    self._patch(cls, attr, property(getter, value.fset,
                                                    value.fdel, value.__doc__))
                continue
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.isgeneratorfunction(inner):
                    continue
                self._patch(cls, attr, type(value)(
                    self._wrap(inner, qualname, component)))
                continue
            if (inspect.isfunction(value)
                    and not inspect.isgeneratorfunction(value)):
                wrapped = self._wrap(value, qualname, component)
                replaced[id(value)] = wrapped
                self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Windows and queries
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._window_start = time.perf_counter()

    def stop(self) -> None:
        if self._window_start is not None:
            self.window_s += time.perf_counter() - self._window_start
            self._window_start = None

    def count(self, qualname: str) -> int:
        """Calls of one function; raises if it was never wrapped, so a
        rename in ``src/`` cannot silently read as zero."""
        if qualname not in self.names:
            raise KeyError(f"no traced function {qualname}")
        return self.calls[self.names.index(qualname)]

    def calls_of(self, prefix: str) -> int:
        """Calls of every method of one class (``ha.runtime:HARuntime``)."""
        counts = [n for name, n in zip(self.names, self.calls)
                  if name.startswith(prefix + ".")]
        if not counts:
            raise KeyError(f"no traced methods under {prefix}")
        return sum(counts)

    def counts(self) -> Dict[str, int]:
        """Every non-zero call count, by qualified function name."""
        return {name: n for name, n in sorted(zip(self.names, self.calls))
                if n}

    def component_self_s(self) -> Dict[str, float]:
        return dict(zip(self.components, self.self_s))

    def self_s_of(self, prefix: str) -> float:
        """Self time of a component, or of a whole layer (``hardware``)."""
        times = [s for c, s in zip(self.components, self.self_s)
                 if c == prefix or c.startswith(prefix + ".")]
        if not times:
            raise KeyError(f"no traced component {prefix}")
        return sum(times)

    @property
    def n_spans(self) -> int:
        return len(self.span_end)

    def write_spans(self, path: str) -> None:
        """Write spans as gzipped CSV: id, name, parent, job, start, end.

        Times are host seconds relative to the first span.
        """
        base = self.span_start[0] if self.n_spans else 0.0
        names = self.names
        rows = zip(range(self.n_spans), self.span_name, self.span_parent,
                   self.span_job, self.span_start, self.span_end)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,parent,job,start_s,end_s\n")
            out.writelines(f"{sid},{names[fid]},{parent},{job},"
                           f"{start - base:.9f},{end - base:.9f}\n"
                           for sid, fid, parent, job, start, end in rows)
