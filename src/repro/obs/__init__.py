"""repro.obs — invocation-lifecycle tracing, attribution, and telemetry.

A zero-overhead-when-disabled observability subsystem: the platform is
threaded with hooks that dispatch through ``Environment.trace`` (the
shared :data:`~repro.obs.tracer.NULL_TRACER` by default). Attaching a
real :class:`~repro.obs.tracer.Tracer` — via ``with
RunSession(tracer=...)`` (:mod:`repro.session`) for the experiment
harness, or ``tracer.bind(env)`` directly — records typed
span/instant/counter streams that export to Perfetto-loadable Chrome
trace JSON, per-epoch metrics time series, and plain-text summaries.

v2 adds, all equally opt-in and determinism-safe:

* :class:`~repro.obs.ledger.EnergyLedger` — per-joule attribution into
  run / block / cold-start / idle / freq-switch / retry-waste / shed /
  static components, validated against the hardware meters;
* :class:`~repro.obs.audit.AuditLog` — structured "why" records from
  every control-plane decision point (``RunSession(audit=...)``);
* :class:`~repro.obs.burnrate.BurnRateMonitor` — per-benchmark SLO
  burn-rate alerting on deterministic log-bucket histograms;
* :mod:`~repro.obs.explain` — ranked root causes for missed-SLO
  workflows from the exported artifacts;
* :mod:`~repro.obs.bench` — the ``repro bench`` telemetry panel.
"""

from __future__ import annotations

# NB: repro.obs.bench is deliberately NOT imported here — it pulls in the
# experiment harness, which imports the sim kernel, which imports
# repro.obs.tracer; importing bench at package-init time would close that
# loop into a cycle. Use ``import repro.obs.bench`` directly (the CLI does).
from repro.obs.audit import AuditLog, AuditRecord
from repro.obs.burnrate import (
    BurnRateConfig,
    BurnRateMonitor,
    LogBucketHistogram,
)
from repro.obs.diff import diff_documents, format_diff
from repro.obs.explain import explain, format_explanation, load_explain_data
from repro.obs.export import (
    chrome_trace_events,
    epoch_rows,
    queueing_by_function,
    run_summary,
    write_chrome_trace,
    write_epoch_metrics,
)
from repro.obs.fingerprint import (
    FingerprintRecorder,
    canon,
    canonical_json,
    cluster_fingerprint,
    digest,
)
from repro.obs.ledger import EnergyConservationError, EnergyLedger
from repro.obs.prof import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    profiled,
)
from repro.obs.registry import (
    EPOCH_INSTANT_COLUMNS,
    LEDGER_COMPONENTS,
    LEDGER_EPOCH_COLUMNS,
)
from repro.obs.report import report
from repro.obs.tracer import (
    NULL_TRACER,
    CounterRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)
from repro.obs.validate import validate_events, validate_file

__all__ = [
    "EPOCH_INSTANT_COLUMNS",
    "LEDGER_COMPONENTS",
    "LEDGER_EPOCH_COLUMNS",
    "NULL_PROFILER",
    "NULL_TRACER",
    "AuditLog",
    "AuditRecord",
    "BurnRateConfig",
    "BurnRateMonitor",
    "CounterRecord",
    "EnergyConservationError",
    "EnergyLedger",
    "FingerprintRecorder",
    "InstantRecord",
    "LogBucketHistogram",
    "NullProfiler",
    "NullTracer",
    "Profiler",
    "SpanRecord",
    "Tracer",
    "canon",
    "canonical_json",
    "chrome_trace_events",
    "cluster_fingerprint",
    "diff_documents",
    "digest",
    "epoch_rows",
    "explain",
    "format_diff",
    "format_explanation",
    "load_explain_data",
    "profiled",
    "queueing_by_function",
    "report",
    "run_summary",
    "validate_events",
    "validate_file",
    "write_chrome_trace",
    "write_epoch_metrics",
]
