"""kerrbath benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). One process runs at a time, each single-threaded: a fresh
worker process per set of runs, after setup-only probe processes that time
``import kerrbath`` plus input construction. Sets repeat until --seconds
have passed (at least one set; at least MIN_SETS untraced sets). The last line of stdout is the JSON result;
the line before it records the environment.

--trace 0 reports the end-to-end metrics of untraced sets. --trace 1
alternates untraced and traced sets and reports the per-layer metrics of
the traced ones, plus trace.overhead_s, traced minus untraced set time.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("quantum-corner", "sweep", "transient-setup", "lab-oracles")
SETUP_PROBES = 4
# lab-oracles runs take ~4.5 s; with one or two per run its medians spread
# by 10% across runs on a 2-vCPU VM, four halved that over five seeds
MIN_SETS = {"lab-oracles": 4}
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:  # one thread per process: 1 worker + 1 waiting parent
        env[var] = "1"
    return env


def worker(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S:g} s: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def units(kind: str) -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(setups, sets) -> dict:
    runs = [r for s in sets for r in s["runs"]]
    times = [r["s"] for r in runs]
    failed = sum(1 for r in runs if r["failures"])
    # every set runs the same inputs in the same order, so a run's position
    # names its input; repeats of one input differ only by machine noise
    by_input = [statistics.median(t) for t in zip(*([r["s"] for r in s["runs"]] for s in sets))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["set_s"] for s in sets),
        "run_s.p50": statistics.median(times),
        "run_s.max": max(by_input),
        "peak_rss_mb": max(s["rss_mb"] for s in sets),
        "fom_dev": max(s["fom_dev"] for s in sets),
        "ok_frac": 1.0 - failed / len(runs),
    }


def per_layer(plain, traced) -> dict:
    out = {}
    for name in units("per_layer"):
        if name == "trace.overhead_s":
            out[name] = (statistics.median(s["set_s"] for s in traced)
                         - statistics.median(s["set_s"] for s in plain))
        elif name == "cli.bytes_written":
            out[name] = statistics.median(s["bytes_written"] for s in traced)
        else:
            out[name] = statistics.median(s["layers"][name] for s in traced)
    return out


def mark_digest_mismatch(sets) -> None:
    """lab-oracles writes trajectory.csv; it must be byte-identical across runs."""
    digests = [s["digest"] for s in sets if s["digest"] is not None]
    for s in sets:
        if s["digest"] is not None and s["digest"] != digests[0]:
            for r in s["runs"]:
                r["failures"].append("trajectory.csv differs from the first set's")


def bench(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    flags = ("--smoke",) if smoke else ()
    setups = [worker(workload, seed, "--setup-only", *flags)["setup_s"]
              for _ in range(1 if smoke else SETUP_PROBES)]
    plain, traced = [], []
    min_sets = 1 if trace else MIN_SETS.get(workload, 1)
    t0 = time.perf_counter()
    while not (len(plain) >= min_sets and (traced or not trace)
               and time.perf_counter() - t0 >= seconds):
        want_trace = trace and len(traced) < len(plain)
        result = worker(workload, seed, *flags, *(("--trace",) if want_trace else ()))
        (traced if want_trace else plain).append(result)
        setups.append(result["setup_s"])
    sets = plain + traced
    mark_digest_mismatch(sets)
    runs = [r for s in sets for r in s["runs"]]
    failed = [r["failures"] for r in runs if r["failures"]]
    for failures in failed:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
    if any(s["fom_dev"] is None for s in sets):
        raise BenchError("a set finished no run; nothing to measure")
    metrics = per_layer(plain, traced) if trace else end_to_end(setups, plain)
    unit = units("per_layer" if trace else "end_to_end")
    print(json.dumps({
        "environment": dict(sets[0]["environment"], nproc=os.cpu_count(),
                            threads={v: "1" for v in THREAD_VARS}),
        "workload": workload, "seed": seed, "sets": len(plain),
        "traced_sets": len(traced), "runs_per_set": len(sets[0]["runs"]),
        "n_max": sorted({n for s in sets for n in s["n_max"]}),
    }))
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one setup probe: for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not Path("src/kerrbath/__init__.py").is_file():
        print("error: run from the root of a kerrbath checkout (no src/kerrbath)",
              file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(".perfbench_tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
