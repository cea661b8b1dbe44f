"""repro.verify — cross-layer invariant monitors and chaos fuzzing.

Two halves:

* :mod:`repro.verify.invariants` — online monitors (clock monotonicity,
  energy conservation/monotonicity, exactly-once workflow lifecycle,
  breaker state-machine legality, HA epoch fencing, tenant budget and
  power-cap bounds) hooked through ``Environment.verify``. NULL by
  default: verification-off runs are bit-identical to the stored seed
  fingerprints.
* :mod:`repro.verify.fuzz` — the seeded chaos fuzzer behind
  ``repro fuzz``: samples random fault schedules + config draws, runs
  each trial with every invariant armed, and delta-debugs any violating
  schedule down to a minimal replayable JSON artifact.

Like the tracer and auditor in :mod:`repro.obs`, a verifier is attached
with ``with RunSession(verifier=...)`` (:mod:`repro.session`), so
experiment modules pick it up without plumbing it through every
``run()`` signature.

NB: ``repro.verify.fuzz`` and ``repro.verify.mutate`` are deliberately
NOT imported here — they import the experiment harness, which imports
the sim kernel, which imports this package. The CLI imports them
lazily.
"""

from repro.verify.invariants import (
    BREAKER_STATES,
    LEGAL_BREAKER_TRANSITIONS,
    NULL_VERIFIER,
    NullVerifier,
    Verifier,
    Violation,
)

__all__ = [
    "BREAKER_STATES",
    "LEGAL_BREAKER_TRANSITIONS",
    "NULL_VERIFIER",
    "NullVerifier",
    "Verifier",
    "Violation",
]
