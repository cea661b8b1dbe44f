#!/usr/bin/env python3
"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is emitted with its
unit, that the output checks pass on real runs and fail on tampered
outcomes, that predictor, MLP and MILP counts are zero on
``baseline-poisson`` and opt-in runtime counts zero on ``eco-poisson``
(and neither is vacuously zero where the layer runs), that the tracer
restores what it patched, and that ``BENCHMARK.json`` matches spec.py.
Exits 1 on the first failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import run  # sets up sys.path for spec, workloads and repro
import spec
import workloads

#: Tiny shape: a few simulated seconds on two shards per workload.
TINY_TRACE_S = 6.0
TINY_SHARDS = 2

#: Per-layer counts that must be positive on a workload, so the zero
#: checks above cannot pass because a layer never ran at all.
MUST_BE_POSITIVE = {
    "eco-poisson": ("core.predictor.predictions", "core.predictor.fits",
                    "core.mlp.predicts", "core.milp.solves",
                    "core.dpt.splits", "sim.events"),
    "baseline-poisson": ("sim.events", "platform.scheduler.submits",
                         "platform.cluster.pick_node.calls"),
    "eco-faults": ("guard.checks", "ha.checks", "cancel.checks"),
}


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def check_metrics(result, declared, label: str) -> None:
    if result["problems"]:
        fail(f"{label}: output checks failed: {result['problems']}")
    if set(result["metrics"]) != set(declared):
        fail(f"{label}: emitted {sorted(result['metrics'])},"
             f" declared {sorted(declared)}")
    for name, unit in declared.items():
        if result["units"].get(name) != unit:
            fail(f"{label}: {name} has unit {result['units'].get(name)!r},"
                 f" declared {unit!r}")


def check_tampering(outcome) -> None:
    """The shard checks must catch broken energy and lifecycle books."""
    bad_energy = dataclasses.replace(
        outcome, energy_components_j=outcome.energy_j * (1 + 1e-6))
    lost = dataclasses.replace(outcome, submitted=outcome.submitted + 1)
    for tampered, what in ((bad_energy, "energy"), (lost, "lifecycle")):
        if not workloads.check_shard(tampered):
            fail(f"check_shard missed a broken {what} account")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        if json.load(fh) != spec.benchmark_json():
            fail("BENCHMARK.json differs from spec.benchmark_json();"
                 " run perfbench/run.py --write-benchmark-json")
    from repro.core import predictor
    from repro.sim.engine import Environment
    originals = (predictor.fit_compute_memory, Environment.__dict__["step"])
    end_units = {m.name: m.unit for m in spec.END_TO_END}
    layer_units = {name: unit for name, (unit, _) in spec.PER_LAYER.items()}
    for name, workload in workloads.WORKLOADS.items():
        tiny = workload.scaled(TINY_TRACE_S, TINY_SHARDS)
        args = argparse.Namespace(workload=name, seed=3, seconds=0.0,
                                  trace=0)
        e2e = run.end_to_end(args, tiny, probes=1)
        check_metrics(e2e, end_units, f"{name} --trace 0")
        for metric in ("setup_s", "wall_s", "cpu_s"):
            if not e2e["metrics"][metric] > 0:
                fail(f"{name}: {metric} is {e2e['metrics'][metric]}")
        layers = run.per_layer(args, tiny)
        check_metrics(layers, layer_units, f"{name} --trace 1")
        for metric in MUST_BE_POSITIVE.get(name, ()):
            if layers["metrics"][metric] <= 0:
                fail(f"{name}: {metric} is {layers['metrics'][metric]},"
                     f" expected a positive count")
        print(f"ok  {name}: {len(e2e['metrics'])} end-to-end and"
              f" {len(layers['metrics'])} per-layer metrics")
    check_tampering(run.one_pass(tiny, 3)[0])
    if (predictor.fit_compute_memory,
            Environment.__dict__["step"]) != originals:
        fail("the tracer left repro patched after uninstall")
    print("ok  output checks, tracer restore, BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
