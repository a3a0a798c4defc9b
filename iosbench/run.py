"""Benchmark of the ioslab package: one workload per run, in one process.

    python3 iosbench/run.py --workload zoo_sweep --seed 0 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``.  A run
sets its workload up several times (``setup_s`` is the median, plus the
one-off import time), then runs complete passes until ``--seconds`` have
passed, always at least one.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs untraced passes for half the time and traced passes for
the rest, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Each run also writes its op digest (and, traced, its spans) to .benchout/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".benchout"

# one thread everywhere and a fixed string hash order, set before start-up
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = {"zoo_sweep": 5, "falsify_search": 5, "warm_recheck": 3}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to every sampling plan's seed; 0 keeps the zoo's")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _pin_environment(argv) -> None:
    """Re-exec this interpreter (same process) with the pinned environment."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + argv,
              dict(os.environ, **PINNED_ENV))


def _run_passes(workload, seconds: float, tracer=None) -> list:
    from workloads import Pass

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        p = Pass(tracer)
        t0 = time.perf_counter()
        workload.run_pass(p)
        p.wall = time.perf_counter() - t0
        passes.append(p)
        if time.perf_counter() >= deadline:
            return passes


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


def main(argv) -> int:
    args = _args(argv)
    _pin_environment(argv)
    if not (ROOT / "src" / "ioslab" / "__init__.py").is_file():
        print(f"error: no ioslab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import numpy
    import workloads
    import_s = time.perf_counter() - t0

    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS[args.workload]):
        workload = None  # let the previous build go before timing the next
        t0 = time.perf_counter()
        workload = cls(args.seed)
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        from layers import layer_metrics
        from tracer import Tracer, install

        untraced = _run_passes(workload, args.seconds / 2)
        tracer = Tracer()
        undo = install(tracer)
        try:
            passes = _run_passes(workload, args.seconds / 2, tracer)
        finally:
            undo.restore()
        untraced_wall = statistics.median(p.wall for p in untraced)
        metrics = layer_metrics(tracer, passes, workload, untraced_wall, args.seed)
        passes = untraced + passes
    else:
        passes = _run_passes(workload, args.seconds)

    attempted = sum(len(p.records) for p in passes)
    missed = sum(len(p.misses) for p in passes)
    unexpected = sorted({u for p in passes for u in p.unexpected})
    digests = {_digest(p.records) for p in passes}
    correct = not unexpected and len(digests) == 1
    margins = [m for p in passes for m in p.margins]
    latencies = [x for p in passes for x in p.latencies]
    op_p50_ms = statistics.median(latencies) * 1e3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_ratio": ((attempted - missed) / attempted, "ratio"),
            "witness_margin_min": (min(margins, default=0.0), "ratio"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "peak_rss_mb": peak_rss_mb,
        "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
        "setup_s": setup_times, "import_s": import_s,
        "attempted": attempted, "missed": missed, "fail_ratio": missed / attempted,
        "op_p50_ms": op_p50_ms,
        "misses": passes[0].misses, "unexpected": unexpected,
        "digest_sha256": sorted(digests), "ops": passes[0].records,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")

    print(f"ioslab benchmark: workload={args.workload} seed={args.seed} "
          f"passes={len(passes)} ops={attempted}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()) +
          f" peak_rss_mb={peak_rss_mb:.1f}")
    print(f"op_p50_ms={op_p50_ms:.6g} ms (median of {attempted} op latencies)")
    print(f"fail_ratio={missed / attempted:.6f} ({missed} of {attempted} ops missed their "
          f"expected outcome; {len(unexpected)} not known defects)")
    for u in unexpected:
        print(f"  unexpected: {u}")
    print(f"digest: {' '.join(sorted(digests))} ({OUT.name}/{stem}.json)")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len([u for p in passes for u in p.unexpected]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
