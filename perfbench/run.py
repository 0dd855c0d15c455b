"""The repository benchmark: one workload per call, one JSON line of results.

    python3 perfbench/run.py --workload http_cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` installs span wrappers in the generator and in the serving
processes and prints the per-layer metrics instead. The metric names and
units come from ``BENCHMARK.json``. Earlier output lines carry the run
environment, the generator's health and the detail behind each metric;
the last line is the result object. The line before it says whether the
run is ``valid``: a run whose load generator fell behind, or from which
the hypervisor took more than ``harness.STEAL_LIMIT`` of the CPU, is
invalid rather than slow; stderr says so too. The result object's keys
and the exit code 0 of a run that answered correctly are fixed by the
benchmark's result format, so they do not carry validity. A wrong answer
sets ``correct`` to false and the exit code to 1. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: BLAS threads in every process of a run: the generator (which also
#: hosts the cluster coordinator and the oracle), serve-http and each
#: cluster worker. With the library default, every process starts one
#: BLAS thread per core, so two workers encoding at once on a two-core
#: machine oversubscribe it and their adds slow down three-fold, at
#: random; the figures then measure the scheduler, not the program.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def environment() -> dict:
    """What the numbers depend on; of these, only the BLAS threads are set
    (``BLAS_THREADS``), the rest is recorded as found."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # numpy without config introspection
        blas = f"unknown ({error!r})"
    threads = {key: os.environ[key] for key in BLAS_THREADS
               if key in os.environ}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas": blas,
        "blas_threads": threads or "library default",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory (logs, span dumps)")
    args = parser.parse_args(argv)
    # before numpy is imported here; the serving processes inherit it
    os.environ.update(BLAS_THREADS)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness
    import layers
    import procs
    import tracing
    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), flush=True)

    workdir = os.path.join(HERE, ".work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    ticks = procs.cpu_ticks()
    try:
        result = workloads.WORKLOADS[args.workload](
            workdir, args.seed, args.seconds, bool(args.trace))
        steal = procs.steal_share(ticks, procs.cpu_ticks())
        result.notes["cpu_steal_share"] = steal
        invalid = harness.invalid_reasons(
            steal, result.notes.get("generator_lateness_p99_ms"))
        if args.trace:
            if args.keep:
                recorder.dump(os.path.join(workdir, "generator.dump.json"),
                              pid=os.getpid())
            wanted = spec["per_layer"]
            values = layers.compute(args.workload, result, recorder.spans)
        else:
            wanted = spec["end_to_end"]
            values = result.metrics
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"notes": result.notes, "valid": not invalid,
                      "invalid_because": invalid,
                      "oracle": {"rows": result.oracle.checked,
                                 "wrong": result.oracle.wrong,
                                 "bitexact": result.oracle.bitexact,
                                 "examples": result.oracle.examples}},
                     default=float), flush=True)
    for reason in invalid:
        print(f"run invalid: {reason}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    correct = result.oracle.wrong == 0 and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
