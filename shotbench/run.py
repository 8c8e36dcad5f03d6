"""Benchmark of shotgamma: one workload per run, metrics as the last stdout line.

    python3 shotbench/run.py --workload grid_det --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations for ``--seconds`` seconds
in this process (one thread, BLAS pinned to one thread), then checks every
round's outputs. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps the calls between the program's modules and prints per-layer
metrics instead. The program is imported from ``src/`` of the checkout
that holds this file; without it the run exits 2 before doing anything.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "shotbench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[var] = "1"

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import shotgamma
from shotgamma.config import load_config
load_config(sys.argv[2])
"""


def measure_setup(config_path: Path) -> float:
    """Median wall time from a fresh interpreter to a loaded config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                       check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shotgamma" / "__init__.py").is_file():
        print(f"shotgamma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import shotgamma

    if Path(shotgamma.__file__).resolve().parent != SRC / "shotgamma":
        print(f"imported shotgamma from {shotgamma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed, tracing.NullTracer())
        wl.prepare()
        setup_s = None if args.trace else measure_setup(wl.config_path)
        wl.warm_up()
        uninstall = None
        if args.trace:
            wl.tracer = tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)

        attempted = failed = 0
        start = time.perf_counter()
        while not wl.rounds or time.perf_counter() - start < args.seconds:
            ops = wl.run_round(len(wl.rounds))
            wl.rounds.append(ops)
            attempted += len(ops)
            failed += sum(not op.ok for op in ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if uninstall:
            uninstall()

        fails = wl.check()
        for msg in fails:
            print(f"CHECK FAILED {args.workload}: {msg}", file=sys.stderr)

        ok_rounds = [ops for ops in wl.rounds if all(op.ok for op in ops)]
        rates = [wl.throughput(ops) for ops in ok_rounds]
        print(f"{args.workload}: {len(wl.rounds)} rounds, throughput per round "
              + " ".join(f"{v:.6g}" for v in rates), file=sys.stderr)
        throughput = statistics.median(rates) if rates else None
        if args.trace:
            work = wl.work_done()
            values = tracing.layer_metrics(tracer, len(wl.rounds), work.get("cell_cycles", 0),
                                           work.get("cells", 0), work.get("fits", 0))
            values.update(wl.op_rates())
            values["run.throughput_per_s"] = throughput
            metrics = {k: (values.get(k, 0.0), unit) for k, unit in tracing.UNITS.items()}
            tracer.write(OUT / f"trace-{args.workload}.csv")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "throughput_per_s": (throughput, "1/s"),
            }
        result = {
            "correct": not fails and throughput is not None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    sys.exit(main())
