"""Load accounting: a node's running job count (DESIGN §4d).

The load balancer reads ``NodeSystem.outstanding``, a count the node's
pools keep up to date at the five places a job enters or leaves their
books. These tests pin the count against the pools' own ``load`` under
seeded random operation sequences, and gate how often the simulation
reads ``CorePoolScheduler.load`` at all: a return to summing every pool
on each dispatch multiplies the reads and fails the gate on any host.
"""

import random
from types import SimpleNamespace

import pytest

from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.sim import Environment
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment
from tests.fingerprints import (
    cluster_fingerprint,
    load_reference,
    reference_runs,
)

#: ``CorePoolScheduler.load`` reads in the ``baseline`` reference run:
#: 6,019 with the running count, 39,245 when ``outstanding`` summed every
#: pool on each read. The ceiling leaves about 6 % for unrelated changes.
BASELINE_LOAD_READS_CEILING = 6400


def _job(env, rng):
    segments = [RunSegment(WorkUnit(gcycles=rng.uniform(0.003, 0.3)))]
    if rng.random() < 0.5:
        segments.append(BlockSegment(rng.uniform(0.005, 0.1)))
        segments.append(RunSegment(WorkUnit(gcycles=0.003)))
    return Job(env, InvocationSpec("fn", segments), "bench",
               arrival_s=env.now)


@pytest.mark.parametrize("seed", range(6))
def test_count_matches_pool_load_under_random_operations(seed):
    rng = random.Random(seed)
    env = Environment()
    meter, power = EnergyMeter(), PowerModel()
    owner = SimpleNamespace(pool_jobs=0)
    pools = [
        CorePoolScheduler(
            env, [Core(env, base + i, power, meter, 3.0) for i in range(2)],
            frequency_ghz=3.0, name=f"p{base}", owner=owner,
            switch_on_idle=switch_on_idle)
        for base, switch_on_idle in ((0, True), (10, False))]
    live = []

    def check():
        assert owner.pool_jobs == sum(pool.load for pool in pools)

    def churn():
        for _ in range(300):
            yield env.timeout(rng.uniform(0.0, 0.02))
            check()  # completions, blocks and wake-ups since the last op
            op = rng.random()
            pool = rng.choice(pools)
            if op < 0.6:
                job = _job(env, rng)
                live.append(job)
                pool.submit(job)
            elif op < 0.85 and live:
                pool.cancel_job(rng.choice(live))
            elif op < 0.97:
                other = pools[1] if pool is pools[0] else pools[0]
                for job in pool.drain_ready():
                    other.submit(job)
            else:
                pool.abort_all()
            check()

    env.process(churn(), name="churn")
    env.run()
    check()
    assert owner.pool_jobs == 0


def test_baseline_reference_run_load_reads_under_ceiling(monkeypatch):
    label, factory = reference_runs()[0]
    assert label == "baseline"
    reads = []
    load = CorePoolScheduler.load

    def counting(self):
        reads.append(None)
        return load.fget(self)

    monkeypatch.setattr(CorePoolScheduler, "load", property(counting))
    cluster = factory()
    assert cluster_fingerprint(cluster) == load_reference()[label]
    assert 0 < len(reads) <= BASELINE_LOAD_READS_CEILING, (
        f"{len(reads)} CorePoolScheduler.load reads (ceiling"
        f" {BASELINE_LOAD_READS_CEILING}): is the load balancer summing"
        f" pools again?")
