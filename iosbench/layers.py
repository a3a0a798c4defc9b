"""Per-layer metrics of the traced run, derived from the tracer's totals.

Counts are per traced pass; times are per call unless the name says
otherwise.  The step-loop parts (right-hand side, input lookup, blow-up
guard norm and output map) are not wrapped inside ``systems.simulate``:
they are timed afterwards from outside, on (x, u, t) samples drawn from
the trajectories the workload itself produced.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ioslab.constructs import CONSTRUCTIONS


def _per_call(seconds: float, calls: float) -> float:
    return seconds / calls if calls else 0.0


def _time_per_call(fn, samples) -> float:
    """Median over 5 repeats of the mean seconds per call of fn(sample)."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for s in samples:
                fn(s)
        if time.perf_counter() - t0 >= 2e-3 or reps >= 4096:
            break
        reps *= 2
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            for s in samples:
                fn(s)
        runs.append((time.perf_counter() - t0) / (reps * len(samples)))
    return statistics.median(runs)


def _samples(pairs, rng, n=32):
    out = []
    for _ in range(n):
        u, traj = pairs[int(rng.integers(len(pairs)))]
        k = int(rng.integers(len(traj.times)))
        out.append((traj.states[k], u, float(traj.times[k]), traj.input_values[k]))
    return out


def step_part_costs(sources, seed: int) -> dict:
    """Seconds per call of each step-loop part, weighted by steps simulated."""
    rng = np.random.default_rng(seed)
    parts = {
        "rhs": lambda sys: lambda s: sys.rhs(s[0], s[3]),
        "input": lambda sys: lambda s: s[1](s[2]),
        "state_norm": lambda sys: lambda s: sys.state_norm(s[0]),
        "output": lambda sys: lambda s: sys.output(s[0], s[3]),
    }
    acc = {k: 0.0 for k in parts}
    weight = 0.0
    for sys, pairs, steps in sources:
        if not pairs or not steps:
            continue
        samples = _samples(pairs, rng)
        for k, make in parts.items():
            acc[k] += steps * _time_per_call(make(sys), samples)
        weight += steps
    return {k: (v / weight if weight else 0.0) for k, v in acc.items()}


def twin_rhs_costs(twins, tracer, seed: int):
    """Seconds per rhs call of the descriptor twins and of their native systems,
    both on the twin's own samples."""
    rng = np.random.default_rng(seed)
    dsl = native = weight = 0.0
    for _, native_sys, twin in twins:
        entry = tracer.trajectories.get(id(twin))
        steps = tracer.counts.get(f"steps_of.{id(twin)}", 0)
        if entry is None or not steps:
            continue
        samples = _samples(entry[1], rng)
        dsl += steps * _time_per_call(lambda s: twin.rhs(s[0], s[3]), samples)
        native += steps * _time_per_call(lambda s: native_sys.rhs(s[0], s[3]), samples)
        weight += steps
    return (dsl / weight, native / weight) if weight else (0.0, 0.0)


def layer_metrics(tracer, passes, workload, untraced_wall: float, seed: int) -> dict:
    """Every per-layer metric named in BENCHMARK.json, as {name: (value, unit)}."""
    n = len(passes)
    wall = sum(p.wall for p in passes)
    calls = lambda name: tracer.calls.get(name, 0)
    total = lambda name: tracer.total.get(name, 0.0)
    own = lambda name: tracer.self_time.get(name, 0.0)
    count = lambda key: tracer.counts.get(key, 0)

    steps = count("simulate.steps")
    requests = calls("properties.probeset.data")
    parts = step_part_costs(workload.step_sources(tracer), seed)
    twins = getattr(workload, "twins", [])
    dsl_rhs, native_rhs = twin_rhs_costs(twins, tracer, seed)
    compile_s = getattr(workload, "compile_s", [])
    recipe_misses = sum(1 for p in passes for name in p.misses if name.startswith("recipe:"))

    m = {
        "systems.simulate.calls": (calls("systems.simulate") / n, "count"),
        "systems.simulate.steps": (steps / n, "count"),
        "systems.simulate.blowups": (count("simulate.blowups") / n, "count"),
        "systems.simulate.us_per_probe_step": (_per_call(total("systems.simulate"), steps) * 1e6,
                                               "us"),
        "systems.simulate.share": (total("systems.simulate") / wall, "ratio"),
        "systems.rhs.us_per_call": (parts["rhs"] * 1e6, "us"),
        "systems.state_norm.us_per_call": (parts["state_norm"] * 1e6, "us"),
        "systems.output.us_per_call": (parts["output"] * 1e6, "us"),
        "signals.input.us_per_call": (parts["input"] * 1e6, "us"),
        "properties.probeset.requests": (requests / n, "count"),
        "properties.probeset.hit_ratio": (
            (requests - count("probeset.misses")) / requests if requests else 0.0, "ratio"),
        "properties.verify.self_ms": (
            _per_call(own("properties.verify"), calls("properties.verify")) * 1e3, "ms"),
        "properties.verify.us_per_sample": (
            _per_call(own("properties.verify"), count("verify.samples")) * 1e6, "us"),
        "properties.estimate.self_ms": (
            _per_call(own("properties.estimate"), calls("properties.estimate")) * 1e3, "ms"),
        "properties.falsify.sims": (count("falsify.sims") / n, "count"),
        "properties.falsify.samples_reported": (count("falsify.samples") / n, "count"),
        "properties.falsify.sims_per_budget": (count("falsify.sims_per_budget"), "ratio"),
        "properties.witness.replay_ms": (
            _per_call(total("properties.witness.replay"),
                      calls("properties.witness.replay")) * 1e3, "ms"),
        "properties.certificate.ms_per_build": (
            _per_call(total("properties.certificate"), calls("properties.certificate")) * 1e3,
            "ms"),
        "comparison.check_kl.ms_per_call": (
            _per_call(total("comparison.check_kl"), calls("comparison.check_kl")) * 1e3, "ms"),
        "comparison.kl.ns_per_point": (
            _per_call(total("comparison.kl"), count("kl.points")) * 1e9, "ns"),
        "comparison.kl.points": (count("kl.points") / n, "count"),
        "comparison.scalar.ns_per_point": (
            _per_call(total("comparison.scalar"), count("scalar.points")) * 1e9, "ns"),
    }
    for recipe in CONSTRUCTIONS:
        name = f"constructs.{recipe}"
        m[f"{name}.ms"] = (_per_call(total(name), calls(name)) * 1e3, "ms")
    m["constructs.failed"] = (recipe_misses / n, "count")
    m["sysdsl.compile.ms"] = (statistics.median(compile_s) * 1e3 if compile_s else 0.0, "ms")
    m["sysdsl.rhs.us_per_call"] = (dsl_rhs * 1e6, "us")
    m["sysdsl.native_rhs.us_per_call"] = (native_rhs * 1e6, "us")
    m["trace.overhead_ratio"] = (statistics.median(p.wall for p in passes) / untraced_wall,
                                 "ratio")
    return m
