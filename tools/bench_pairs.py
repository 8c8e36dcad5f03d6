"""Alternating parent/change pairs of the shotbench benchmark, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --label cluster --parent HEAD~1 \
        --change "what the change does" --claim "what it claims" \
        --workload analytic_stack:10:0 --workload analytic_stack:5:1 \
        --workload grid_det:10:0 --workload cost_sweep_re:10:0

Each ``--workload NAME:PAIRS:TRACE`` runs ``PAIRS`` pairs of
``shotbench/run.py --workload NAME --seed i --seconds S --trace TRACE``,
with ``S`` the ``run_seconds`` of BENCHMARK.json, pair ``i`` with seed
``i`` on both sides, the parent first in odd pairs and the change first in
even pairs, one run at a time. Untraced workloads, which give the
end-to-end metrics, need at least 10 pairs. The parent side runs from a
``git archive`` export of ``--parent`` made under ``--workdir``; the
change side runs from this working tree, so ``--parent`` may be ``HEAD``
only while the change is uncommitted. The summary gives, per
workload and end-to-end metric, each side's median, quartiles and range
and the number of pairs the change wins; traced runs give per-layer values
per side. The host's core count and library versions are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def export_parent(rev: str, workdir: Path) -> tuple[Path, str]:
    """A plain copy of the tree at ``rev`` under ``workdir``; returns it and the short hash."""
    commit = git("rev-parse", "--short", rev)
    dest = Path(tempfile.mkdtemp(prefix=f"parent-{commit}-", dir=workdir))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest, commit


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its parsed last stdout line, with ``correct`` false on a crash."""
    proc = subprocess.run([sys.executable, "shotbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def side_stats(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "quartiles": [float(q1), float(q3)],
            "iqr": float(q3 - q1), "range": [float(min(values)), float(max(values))]}


def summarise(runs: list[dict], better: dict) -> dict:
    """Per workload, the untraced end-to-end metrics of both sides."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if len(p) == 2]
        entry = {}
        for metric, direction in better.items():
            pv = [p["parent"]["metrics"].get(metric) for p in pairs]
            cv = [p["change"]["metrics"].get(metric) for p in pairs]
            ok = [(a, b) for a, b in zip(pv, cv) if a is not None and b is not None]
            if not ok:
                continue
            pv, cv = [a for a, _ in ok], [b for _, b in ok]
            sign = 1.0 if direction == "higher" else -1.0
            ps, cs = side_stats(pv), side_stats(cv)
            entry[metric] = {
                "better": direction,
                "pairs": len(ok),
                "change_wins": sum(sign * (b - a) > 0 for a, b in ok),
                "parent_median": ps["median"],
                "change_median": cs["median"],
                "ratio_change_over_parent": cs["median"] / ps["median"],
                "parent_quartiles": ps["quartiles"],
                "parent_iqr": ps["iqr"],
                "change_quartiles": cs["quartiles"],
                "parent_range": ps["range"],
                "change_range": cs["range"],
            }
        entry["all_correct"] = all(r["correct"] for r in mine)
        entry["failed_ops"] = {side: sum(r["failed"] for r in mine if r["side"] == side)
                               for side in ("parent", "change")}
        summary[workload] = entry
    return summary


def traced(runs: list[dict]) -> dict:
    """Per workload, every per-layer metric of the traced runs, listed per side."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 1):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        names = dict.fromkeys(k for r in mine for k in r["metrics"])
        out[workload] = {
            "all_correct": all(r["correct"] for r in mine),
            "layers": {k: {side: [r["metrics"].get(k) for r in mine if r["side"] == side]
                           for side in ("parent", "change")} for k in names},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, help="git revision the change is measured against")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--claim", required=True, help="the gain claimed, or why none is")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS:TRACE")
    parser.add_argument("--workdir", default=tempfile.gettempdir(),
                        help="where the parent's export is made")
    args = parser.parse_args(argv)

    plan = []
    for spec in args.workload:
        name, pairs, trace = spec.split(":")
        plan.append((name, int(pairs), int(trace)))
        if int(trace) == 0 and int(pairs) < MIN_PAIRS:
            parser.error(f"{name}: end-to-end metrics need at least {MIN_PAIRS} pairs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if git("rev-parse", args.parent) == git("rev-parse", "HEAD") and not git("status", "--porcelain", "--untracked-files=no"):
        parser.error(f"--parent {args.parent} is HEAD and the tree is clean: nothing to compare")

    parent_tree, commit = export_parent(args.parent, Path(args.workdir))
    trees = {"parent": parent_tree, "change": ROOT}
    runs = []
    try:
        for name, pairs, trace in plan:
            for seed in range(1, pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], name, seed, seconds, trace)
                    runs.append({"side": side, "workload": name, "seed": seed, "trace": trace,
                                 **result})
                    shown = result["metrics"] if trace == 0 else {"correct": result["correct"]}
                    print(f"{name} seed {seed} trace {trace} {side}: {json.dumps(shown)}", flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    protocol = (f"python3 shotbench/run.py --workload W --seed S --seconds {seconds} "
                "--trace T, run from a git-archive export of the parent and from the working "
                "tree; pair i uses seed i for both sides, parent first in odd pairs and change "
                "first in even pairs; one process, one thread, runs strictly sequential; "
                + "; ".join(f"{n}: {p} pairs at --trace {t}" for n, p, t in plan))
    result = {
        "label": args.label,
        "change": args.change,
        "parent_commit": commit,
        "claim": args.claim,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "protocol": protocol,
        "summary": summarise(runs, better),
        "traced_per_layer": traced(runs),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
