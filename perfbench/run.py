"""Run one benchmark workload against the ncqmlab sources beside this folder.

    python3 perfbench/run.py --workload landau-spectrum --seed 1 \
        --seconds 20 --trace 0

A run is set-up followed by passes.  Each pass runs the workload's scenario
set on fresh inputs drawn from the seed; passes repeat until the next one
would carry the summed wall time of the passes past ``--seconds`` (at least
MIN_PASSES run).
Checks run after each pass, outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are its per-layer ones, and the
spans are written to ``perfbench/traces/``.

Times are CPU seconds of this process (``time.process_time``), with BLAS on
one thread, so a pass's time is its wall time on an otherwise idle machine.
The kernel leaves out the time a hypervisor steals from the guest, which
on a shared host is the largest source of run-to-run spread in wall time.
Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
# One BLAS thread keeps process CPU time equal to busy wall time: a second
# thread would add its spin-waits while the first is descheduled.
BLAS_THREADS = 1
CLOCK = time.process_time
MIN_PASSES = 3
MAX_PASSES = 64
# Set-up is read once in this process and SETUP_PROBES times in fresh
# interpreters started one after another; the median is reported.
SETUP_PROBES = 2
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads, whatever the caller's
    environment says."""
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    return BLAS_THREADS


def set_up(workload: str, seed: int):
    """Import numpy, scipy and ncqmlab and draw every pass's inputs.

    Returns (seconds taken, the workload module, the workload, inputs).
    """
    start = CLOCK()
    sys.path[:0] = [SOURCE, HERE]
    import numpy as np
    import workloads
    spec = workloads.WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    inputs = [spec.draw(rng) for _ in range(MAX_PASSES)]
    return CLOCK() - start, workloads, spec, inputs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time read in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run(args, threads: int) -> dict:
    metric_specs = load_metric_specs()
    setup_readings = []
    setup_s, workloads, spec, inputs = set_up(args.workload, args.seed)
    setup_readings.append(setup_s)
    if not args.trace:
        setup_readings += [probe_setup(args.workload, args.seed)
                           for _ in range(SETUP_PROBES)]

    from tracer import NullTracer, Tracer
    tracer = Tracer() if args.trace else NullTracer()
    ops = workloads.Ops(tracer)
    scratch = os.path.join(HERE, "tmp")
    os.makedirs(scratch, exist_ok=True)
    failures: list[str] = []
    pass_times: list[float] = []
    wall_times: list[float] = []
    try:
        for index, inp in enumerate(inputs):
            workdir = tempfile.mkdtemp(prefix="pass-", dir=scratch)
            try:
                tracer.begin_pass(index)
                start, wall = CLOCK(), time.perf_counter()
                with tracer.span("pass"):
                    out = spec.run(inp, ops, workdir)
                pass_times.append(CLOCK() - start)
                wall_times.append(time.perf_counter() - wall)
                failures += spec.check(inp, out, index == 0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if (len(wall_times) >= MIN_PASSES and sum(wall_times)
                    + statistics.median(wall_times) > args.seconds):
                break
    finally:
        if not os.listdir(scratch):
            os.rmdir(scratch)

    for message in ops.errors + failures:
        print(message, file=sys.stderr)
    if args.trace:
        names = [m["name"] for m in metric_specs["per_layer"]]
        values = tracer.layer_metrics(names, len(pass_times))
        units = {m["name"]: m["unit"] for m in metric_specs["per_layer"]}
        traces = os.path.join(HERE, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.dump(os.path.join(traces,
                                 f"{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "blas_threads": threads,
                     "pass_times": pass_times, "wall_times": wall_times})
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"solve_s": statistics.median(pass_times),
                  "setup_s": statistics.median(setup_readings),
                  "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in metric_specs["end_to_end"]}
    print(f"{args.workload} seed {args.seed}: {len(pass_times)} passes, "
          f"CPU {[round(t, 3) for t in pass_times]}, "
          f"wall {[round(t, 3) for t in wall_times]}, BLAS threads {threads}, "
          f"set-up readings {[round(t, 3) for t in setup_readings]}",
          file=sys.stderr)
    return {"correct": not failures, "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("landau-spectrum", "landau-truncation",
                                 "classical-orbits", "cli-scenarios"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SOURCE, "ncqmlab", "__init__.py")):
        print(f"error: no ncqmlab sources under {SOURCE}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    if args.setup_probe:
        print(set_up(args.workload, args.seed)[0])
        return 0
    print(json.dumps(run(args, threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
