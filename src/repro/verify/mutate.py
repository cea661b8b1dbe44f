"""Planted bugs for validating the verifier and fuzzer (test hook).

``repro fuzz --mutate <name>`` (hidden flag) and the verify test suite
use these to prove the pipeline *finds and shrinks* real violations
rather than just passing on a correct tree. Each mutation is a
monkeypatch installed for the duration of a ``with planted(name):``
block, reverting on exit even if the run raises.

The bugs are chosen to land in different layers, one per major
invariant family:

* ``journal-fence`` — ``RedispatchJournal.record_redispatch`` silently
  drops the write, so the exactly-once journal never sees the
  re-dispatches the frontend performs. Falsifies the
  ``ha-journal-crosscheck`` invariant (and, under repeated failovers,
  exactly-once itself).
* ``ledger-bucket`` — ``EnergyLedger.record_core`` skips cold-start
  setup segments (``raw == "active_setup"``), so classified components
  no longer sum to the hardware meters. Falsifies
  ``energy-conservation``.
* ``breaker-jump`` — ``CircuitBreaker.allow`` jumps an OPEN breaker
  straight back to CLOSED once the cooldown elapses, skipping the
  half-open probe. Falsifies ``breaker-transition``.
* ``cancel-leak`` — ``CorePoolScheduler.cancel_job`` flags the job
  cancelled but never removes it from the pool, so "killed" work keeps
  executing and runs to completion. Falsifies ``cancel-lifecycle``
  (cancelled work must never complete).
* ``load-drift`` — ``CorePoolScheduler.abort_all`` forgets to take the
  lost jobs off its node's running job count, so after a crash the load
  balancer sees phantom work on the rebooted node. Falsifies
  ``kernel-counts`` (count == Σ pool load).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.guard import breaker as _breaker_mod
from repro.ha import journal as _journal_mod
from repro.obs import ledger as _ledger_mod
from repro.platform import scheduler as _scheduler_mod

#: Public mutation names (the ``--mutate`` vocabulary), mapped to the
#: invariant family each one falsifies.
MUTATIONS = {
    "journal-fence": "ha-journal-crosscheck",
    "ledger-bucket": "energy-conservation",
    "breaker-jump": "breaker-transition",
    "cancel-leak": "cancel-lifecycle",
    "load-drift": "kernel-counts",
}


def _plant_journal_fence():
    original = _journal_mod.RedispatchJournal.record_redispatch

    def record_redispatch(self, key, now=0.0):
        return None  # bug: the fence write is dropped

    _journal_mod.RedispatchJournal.record_redispatch = record_redispatch
    return ("record_redispatch", original)


def _plant_ledger_bucket():
    original = _ledger_mod.EnergyLedger.record_core

    def record_core(self, core, t0, t1, joules, raw, job=None):
        if raw == "active_setup":  # bug: cold-start joules vanish
            return
        original(self, core, t0, t1, joules, raw, job=job)

    _ledger_mod.EnergyLedger.record_core = record_core
    return ("record_core", original)


def _plant_breaker_jump():
    original = _breaker_mod.CircuitBreaker.allow

    def allow(self, now):
        if (self.state == _breaker_mod.OPEN
                and now - self._opened_at >= self.config.open_for_s):
            # bug: skip the half-open probe entirely
            self._set_state(_breaker_mod.CLOSED)
            self._opened_at = None
            self._probe_in_flight = False
            self._outcomes.clear()
            return True
        return original(self, now)

    _breaker_mod.CircuitBreaker.allow = allow
    return ("allow", original)


def _plant_cancel_leak():
    original = _scheduler_mod.CorePoolScheduler.cancel_job

    def cancel_job(self, job):
        if job.finished or job.aborted or job.cancelled:
            return False
        found = (any(queued is job for _, queued in self._ready)
                 or any(r is job for r in self._running.values())
                 or job.job_id in self._blocked_jobs)
        if not found:
            return False
        job.cancelled = True  # bug: flagged but left running in the pool
        return True

    _scheduler_mod.CorePoolScheduler.cancel_job = cancel_job
    return ("cancel_job", original)


def _plant_load_drift():
    original = _scheduler_mod.CorePoolScheduler.abort_all

    def abort_all(self):
        owner, self.owner = self.owner, None  # bug: the count is not told
        try:
            return original(self)
        finally:
            self.owner = owner

    _scheduler_mod.CorePoolScheduler.abort_all = abort_all
    return ("abort_all", original)


_PLANTERS = {
    "journal-fence": (_journal_mod.RedispatchJournal, _plant_journal_fence),
    "ledger-bucket": (_ledger_mod.EnergyLedger, _plant_ledger_bucket),
    "breaker-jump": (_breaker_mod.CircuitBreaker, _plant_breaker_jump),
    "cancel-leak": (_scheduler_mod.CorePoolScheduler, _plant_cancel_leak),
    "load-drift": (_scheduler_mod.CorePoolScheduler, _plant_load_drift),
}


@contextmanager
def planted(name: str):
    """Install the named bug for the duration of the block."""
    if name not in _PLANTERS:
        raise ValueError(
            f"unknown mutation {name!r}; expected one of"
            f" {sorted(MUTATIONS)}")
    target, planter = _PLANTERS[name]
    attribute, original = planter()
    try:
        yield
    finally:
        setattr(target, attribute, original)
