"""Benchmark of the scalarweyl pipeline: one workload per run, closed loop.

    python3 perfbench/run.py --workload curvature_4d --seed 0 --seconds 20 --trace 0

After set-up, a child process runs the accuracy probe (probe.py); then one
caller runs passes back to back until ``--seconds`` of pass time have been
measured (at least one pass).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans.  Human-readable lines come first; the last
line of standard output is one JSON object.  Each run also writes its record
(environment, per-pass outcomes, metrics) and, when traced, its spans under
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# BLAS threads: one gives the plain single-threaded baseline
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """Pin BLAS threads; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "scalarweyl" / "__init__.py").is_file():
        raise SystemExit(f"no scalarweyl sources under {src}")
    sys.path.insert(0, str(src))
    import scalarweyl

    if Path(scalarweyl.__file__).resolve().parent != src / "scalarweyl":
        raise SystemExit(f"imported scalarweyl from {scalarweyl.__file__}, not {src}")


def run_probe(seed: int) -> dict:
    """The accuracy probe, in a child process so that its memory stays out
    of this process's peak RSS."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout)


def environment(args, sizes) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "grid": list(sizes),
        "seed": args.seed,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_package()
    from spans import OUTCOME_COUNTS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    origin = time.perf_counter()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        problems = None  # release the previous set before building the next
        start = time.perf_counter()
        problems = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    probe = run_probe(args.seed)

    tracer = Tracer() if args.trace else None
    passes = []  # one dict per pass
    measured = 0.0
    while measured < args.seconds or (tracer and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        # a traced pass runs the problem of the untraced pass before it
        inputs = problems[(len(passes) // 2 if tracer else len(passes)) % len(problems)]
        entry = {"pass": len(passes), "traced": traced}
        start = time.perf_counter()
        try:
            if traced:
                with tracer.traced_pass(len(passes)):
                    out = wl.run_pass(inputs, tracer.stage)
            else:
                out = wl.run_pass(inputs, contextlib.nullcontext)
            entry["wall_s"] = time.perf_counter() - start
            entry["record"], entry["failures"] = wl.check(inputs, out, probe)
            del out
        except Exception:
            entry.setdefault("wall_s", time.perf_counter() - start)
            entry["failures"] = [traceback.format_exc()]
        measured += entry["wall_s"]
        passes.append(entry)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = probe["failures"] + [f for e in passes for f in e["failures"]]
    failed = sum(bool(e["failures"]) for e in passes)
    ok_walls = [e["wall_s"] for e in passes if not e["failures"] and not e["traced"]]
    plain_walls = ok_walls or [e["wall_s"] for e in passes if not e["traced"]]

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(plain_walls),
            "peak_rss_mb": peak_rss_mb,
            "weyl_identity_order": probe["weyl_identity_order"],
            "scalar_identity_order": probe["scalar_identity_order"],
        }
    else:
        traced_passes = [e for e in passes if e["traced"]]
        counts = {
            name: statistics.fmean(e.get("record", {}).get(key, 0) for e in traced_passes)
            for name, key in OUTCOME_COUNTS.items()
        }
        metrics = tracer.metrics(len(traced_passes), counts["construct.cells_evaluated"])
        metrics.update(counts)
        traced_s = statistics.median(e["wall_s"] for e in traced_passes)
        metrics["pass.traced_s"] = traced_s
        metrics["trace_overhead"] = traced_s / statistics.median(plain_walls) - 1.0
        drift = tracer.self_sum_error()
        if drift > 1e-6 * traced_s:
            failures.append(f"span self times miss the traced wall time by {drift:.3e} s")
    metrics = {name: metrics[name] for name in units}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args, wl.sizes),
        "setup_times_s": setup_times,
        "probe": probe,
        "passes": passes,
        "metrics": metrics,
        "units": units,
        "failures": failures,
    }
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json", origin)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for f in failures:
        print(f"GATE FAILED: {f}", file=sys.stderr)
    _print_summary(args, passes, plain_walls, metrics, units, failed)
    result = {
        "correct": not failures,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_summary(args, passes, plain_walls, metrics, units, failed):
    n = len(plain_walls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes ({n} untraced), fail_frac {failed / len(passes):.3f}")
    if n < 11:
        print(f"pass_s is the median of {n} untraced passes; no tail percentile "
              "(it needs 10 samples beyond it)")
    else:
        # the highest percentile with 10 samples beyond it
        print(f"pass_s p{100 * (n - 10) / n:.0f} = {sorted(plain_walls)[n - 11]:.6g} s "
              f"over {n} untraced passes")
    for e in passes:
        print(f"  pass {e['pass']}{' traced' if e['traced'] else ''}: "
              f"{e['wall_s']:.3f} s {json.dumps(e.get('record', {}), default=float)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
