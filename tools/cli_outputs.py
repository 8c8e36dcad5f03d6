"""Run every shotgamma command of one source tree and keep all it writes, for byte comparisons.

    python3 tools/cli_outputs.py --out OUT [--root TREE] [CONFIG.yaml ...]

Runs the six commands (simulate-arrivals, reliability, fit, optimize,
sensitivity, validate) with ``--deterministic --seed 7`` through the CLI
of ``TREE`` (default: this checkout), on both presets and on each YAML
file named. ``OUT/<config>/<command>/`` receives the command's output
files, its stdout and stderr, and its exit code; ``fit`` reads
``OUT/observations.csv``, written here from a fixed generator. A command
that rejects its config (``sensitivity`` on a preset, which has no
sensitivity section) is recorded like any other. One more step,
``analytic``, which no CLI command reaches, writes
``OUT/<config>/analytic/surface.csv``: ``cost_rate_analytic`` of ``TREE``
at its defaults on every cell of the config's grid, as ``%.10g`` or the
name of the exception the cell raised.

To check that a change leaves every output byte-identical, run the parent
from a ``git archive`` export and compare the two directories:

    git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
    python3 tools/cli_outputs.py --root /tmp/parent --out /tmp/out-parent extra.yaml
    python3 tools/cli_outputs.py --out /tmp/out-change extra.yaml
    diff -r /tmp/out-parent /tmp/out-change
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("benchmark_deterministic", "benchmark_random_effects")
COMMANDS = ("simulate-arrivals", "reliability", "fit", "optimize", "sensitivity", "validate", "analytic")
SEED = 7
# The ``analytic`` step, run as ``python -c ANALYTIC_SURFACE CONFIG OUTDIR``.
ANALYTIC_SURFACE = """
import sys
from shotgamma.analytics import cost_rate_analytic
from shotgamma.config import load_config
from shotgamma.maintenance import PolicyParams

config = load_config(sys.argv[1])
t_grid, m_grid = config.grids_or_error()
with open(sys.argv[2] + "/surface.csv", "w") as fh:
    fh.write("T,M,cost_rate\\n")
    for T in t_grid:
        for M in m_grid:
            try:
                value = "%.10g" % cost_rate_analytic(config.system, PolicyParams(float(T), float(M)),
                                                     config.costs_or_error())
            except Exception as exc:
                value = type(exc).__name__
            fh.write("%.10g,%.10g,%s\\n" % (T, M, value))
"""


def write_observations(path: Path, seed: int = 20240) -> None:
    """20 gamma paths (shape rate 1.1, inverse rate uniform on (0.75, 1.25)) seen at t = 1..30."""
    rng = np.random.default_rng(seed)
    times = np.arange(1.0, 31.0)
    with open(path, "w") as fh:
        fh.write("process_id,time,level\n")
        for pid in range(20):
            rate = 1.0 / rng.uniform(0.75, 1.25)
            levels = np.cumsum(rng.gamma(1.1 * np.diff(times, prepend=0.0), 1.0 / rate))
            for t, x in zip(times, levels):
                fh.write(f"{pid},{t:.12g},{x:.12g}\n")


def run_command(root: Path, command: str, config: str, data: Path, outdir: Path) -> None:
    outdir.mkdir(parents=True)
    if command == "analytic":
        argv = [sys.executable, "-c", ANALYTIC_SURFACE, config, str(outdir)]
    else:
        argv = [sys.executable, "-m", "shotgamma.cli", command, "--config", config,
                "--seed", str(SEED), "--out", str(outdir), "--deterministic"]
    if command == "fit":
        argv += ["--data", str(data)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    (outdir / "stdout.txt").write_text(proc.stdout)
    (outdir / "stderr.txt").write_text(proc.stderr.replace(str(root), "<root>"))
    (outdir / "exit_code.txt").write_text(f"{proc.returncode}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="YAML configs to run besides the presets")
    parser.add_argument("--root", type=Path, default=ROOT, help="source tree whose CLI runs")
    parser.add_argument("--out", type=Path, required=True, help="new directory for all outputs")
    args = parser.parse_args(argv)
    # the commands run in --root, so a relative --out must not be read from there
    args.root, args.out = args.root.resolve(), args.out.resolve()
    args.out.mkdir(parents=True)
    data = args.out / "observations.csv"
    write_observations(data)
    names = list(PRESETS) + [Path(c).stem for c in args.configs]
    if len(set(names)) != len(names):
        parser.error("configs must have distinct file names, none named after a preset")
    sources = list(PRESETS) + [str(Path(c).resolve()) for c in args.configs]
    for name, source in zip(names, sources):
        for command in COMMANDS:
            run_command(args.root, command, source, data, args.out / name / command)
            code = (args.out / name / command / "exit_code.txt").read_text().strip()
            print(f"{name} {command}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
