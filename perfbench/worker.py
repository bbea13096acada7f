"""One benchmark process: set up a workload, run one set, print one JSON line.

    python3 perfbench/worker.py WORKLOAD --seed N [--trace] [--setup-only] [--smoke]

run.py starts this once per set of runs, so no result cache carries from one
timed set into the next. The clock starts before kerrbath is imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports kerrbath and numpy)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_set(workload, items, tracer) -> dict:
    runs, figs, raws = [], [], []
    t_set = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            raw, error = workload.run(item), None
        except Exception as exc:  # a run that raises is a failed run
            raw, error = None, f"{type(exc).__name__}: {exc}"
        raws.append((time.perf_counter() - t0, raw, error))
    set_s = time.perf_counter() - t_set
    layers = tracer.metrics(set_s) if tracer is not None else None
    if tracer is not None:
        tracer.uninstall()  # checks below are not part of the traced set
    for seconds, raw, error in raws:
        failures = [error] if error else []
        if raw is not None:
            try:
                fig, fails = workload.check(raw)
            except Exception as exc:  # unreadable outputs fail the run
                fails = [f"check: {type(exc).__name__}: {exc}"]
            else:
                figs.append(fig)
            failures += fails
        runs.append({"s": seconds, "failures": failures})
    fom, set_failures = workload.summarize(figs) if figs else (None, ["no run finished"])
    for r in runs:
        r["failures"] += set_failures
    return {
        "set_s": set_s,
        "runs": runs,
        "fom_dev": fom,
        "n_max": sorted({n for f in figs for n in f["n_max"]}),
        "digest": next((f["digest"] for f in figs if "digest" in f), None),
        "bytes_written": sum(f.get("bytes_written", 0) for f in figs),
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    items = workload.inputs(args.seed, args.smoke)
    out = {"setup_s": time.perf_counter() - T_START}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(run_set(workload, items, tracer))
        out["environment"] = environment()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
