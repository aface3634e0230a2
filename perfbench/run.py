"""Benchmark entry point.

    python3 perfbench/run.py --workload binary-knn --seed 0 --seconds 40 --trace 0

Writes the workload's seeded CSVs to a temporary directory in the checkout,
loads them as a user would, certifies the method table and checks every
output.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  BLAS is pinned
to one thread before numpy loads, so that timings do not depend on how BLAS
threads share a small machine's cores with the rest of its load.

``--record-fingerprint SECONDS`` spends that long certifying the exact and
verifier entries at the default seed and stores their epsilons in
``fingerprint.json``; runs at the default seed compare against it.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "knnrobust").glob("*.py"))),
    }


def _print_summary(summaries: dict, res) -> None:
    print(f"{'method':>15} {'n':>5} {'median_ms':>10} {'mean_ms':>10} {'high pct':>16} {'max_ms':>10}")
    for method, s in summaries.items():
        high = next(((k, v) for k, v in s.items() if k.startswith("p")), None)
        high_txt = f"{high[0][:-3]}={high[1]:.2f}" if high else "-"
        print(f"{method:>15} {s['n']:>5} {s['median_ms']:>10.2f} {s['mean_ms']:>10.2f} "
              f"{high_txt:>16} {s['max_ms']:>10.2f}")
    print(f"checks: attempted={res.attempted} failed={len(res.failed)} "
          f"failed_ratio={len(res.failed) / max(res.attempted, 1):.4g} (1) "
          f"failed checks={dict(sorted(res.failures.items()))} "
          f"raised={dict(sorted(res.errors.items()))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprint", type=float, default=None, metavar="SECONDS")
    args = parser.parse_args(argv)

    if not (SRC / "knnrobust" / "__init__.py").is_file():
        print(f"knnrobust sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    from spans import LAYER_METRICS
    from workloads import WORKLOADS, write_csvs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        paths = write_csvs(w, args.seed, Path(tmp))
        if args.record_fingerprint is not None:
            if args.seed != harness.DEFAULT_SEED:
                print("fingerprints are recorded at the default seed only", file=sys.stderr)
                return 2
            stored = harness.record_fingerprint(w, paths, args.record_fingerprint)
            print(f"recorded {stored} epsilons for {w.name}")
            return 0

        res = harness.Results()
        if args.trace:
            layers = harness.traced_layers(w, paths, w.trace_queries, res)
            metrics = {name: (value, LAYER_METRICS[name][0]) for name, value in layers.items()}
        else:
            sample, setup_seconds = harness.timed_setup(w, paths)
            harness.run_table(w, sample, res, seconds=args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = harness.end_to_end(res, setup_seconds, peak_mb)

    compared = harness.fingerprint_check(w, args.seed, res)
    _print_summary(harness.method_summaries(res), res)
    print(f"fingerprint: {compared} epsilons compared"
          + ("" if args.seed == harness.DEFAULT_SEED else " (default seed only)"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in (LAYER_METRICS if args.trace else harness.END_TO_END)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
