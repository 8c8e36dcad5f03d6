"""Command-line experiment runner.

Subcommands mirror the library surface: trajectory simulation with its
closed-form check, reliability curves with a Monte Carlo overlay, the
random-effects MLE, policy optimization, sensitivity sweeps, and a
self-validation suite. Every run writes a manifest with the resolved
configuration and seed; with ``--deterministic`` outputs are byte-stable
for a fixed seed and thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .arrivals import expected_num_arrivals, simulate_arrival_batch, write_trajectory_csv
from .config import ExperimentConfig, load_config
from .degradation import (
    fit_half_width,
    log_likelihood,  # noqa: F401 -- unused here, but shotbench traces cli.log_likelihood
    random_effect_moments,
    read_observations_csv,
)
from .errors import NumericalError, ValidationError
from .lifetime import first_passage_law, hazard_limit, simulate_first_passage_batch
from .maintenance import SimCounts, grid_search, sensitivity_sweep, write_surface_csv, write_sweep_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _write_manifest(outdir: Path, command: str, config: ExperimentConfig, args, extra=None):
    manifest = {
        "command": command,
        "version": __version__,
        "master_seed": config.master_seed,
        "threads": args.threads,
        "config": config.as_dict(),
    }
    if extra:
        manifest.update(extra)
    if not args.deterministic:
        manifest["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(outdir / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate_arrivals(config: ExperimentConfig, args, outdir: Path) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(1,)))
    n = config.n_trajectories
    horizon = config.horizon
    run_ids, times = simulate_arrival_batch(config.system.arrivals, horizon, n, rng)
    first = np.sort(times[run_ids == 0])
    write_trajectory_csv(outdir / "arrivals.csv", first)
    grid = np.linspace(horizon / 10.0, horizon, 10)
    with open(outdir / "arrival_check.csv", "w") as fh:
        fh.write("t,empirical_mean,analytic,std_error,n_runs\n")
        worst = 0.0
        for t in grid:
            counts = np.bincount(run_ids[times <= t], minlength=n)
            emp = counts.mean()
            se = counts.std(ddof=1) / np.sqrt(n)
            ana = expected_num_arrivals(config.system.arrivals, float(t))
            worst = max(worst, abs(emp - ana) / max(se, 1e-12))
            fh.write(f"{t:.10g},{emp:.10g},{ana:.10g},{se:.10g},{n}\n")
    print(f"simulated {n} trajectories on [0, {horizon}]; worst |z| vs closed form: {worst:.2f}")
    _write_manifest(outdir, "simulate-arrivals", config, args, {"worst_abs_z": worst})
    tol = 4.0 * float(config.validation.get("tolerance_scale", 1.0))
    if worst > tol:
        print(f"arrival counts off the closed form: worst |z| {worst:.2f} > {tol:.2g}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


_LIFETIME_GP = """set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'survival'
plot 'lifetime.csv' using 1:2 with lines, '' using 1:5 with points pt 6
"""


def cmd_reliability(config: ExperimentConfig, args, outdir: Path) -> int:
    spec = config.system
    horizon = config.horizon
    law = first_passage_law(spec, spec.failure_threshold, 1.25 * horizon + 1.0)
    ts = np.linspace(0.0, horizon, 201)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(2,)))
    w = simulate_first_passage_batch(spec, spec.failure_threshold, horizon, config.n_trajectories, rng)
    limit = hazard_limit(spec.arrivals)
    curve = law.curve(ts)
    mc_surv = np.array([1.0 - np.mean(w <= t) for t in ts])
    curve.write_csv(
        outdir / "lifetime.csv",
        extra_columns={"hazard_limit": np.full_like(ts, limit), "mc_survival": mc_surv},
    )
    (outdir / "lifetime.gp").write_text(_LIFETIME_GP)
    gap = float(np.max(np.abs(curve.survival - mc_surv)))
    print(f"lifetime curve on [0, {horizon}]; hazard limit {limit:.6f}; max |analytic-MC| = {gap:.4f}")
    _write_manifest(outdir, "reliability", config, args, {"max_gap": gap, "hazard_limit": limit})
    return EXIT_OK


def cmd_fit(config: ExperimentConfig, args, outdir: Path) -> int:
    fit_cfg = config.fit
    data_path = args.data or fit_cfg.get("data")
    if not data_path:
        raise ValidationError("fit needs a data CSV: pass --data or set fit.data")
    data = read_observations_csv(data_path)
    center = float(fit_cfg.get("center", 1.0))
    grid = np.linspace(
        float(fit_cfg.get("grid_start", 0.02)),
        float(fit_cfg.get("grid_stop", min(0.9 * center, 0.6))),
        int(fit_cfg.get("grid_count", 30)),
    )
    alpha = config.system.growth.shape_rate
    est, nll, scanned, values = fit_half_width(alpha, center, data, grid, full_output=True)
    with open(outdir / "fit_curve.csv", "w") as fh:
        fh.write("alpha_star,neg_log_likelihood\n")
        for w, v in zip(scanned, values):
            fh.write(f"{w:.10g},{v:.10g}\n")
    print(
        f"fitted half-width {est:.4f} (neg. log-likelihood {nll:.4f}) "
        f"over {data.n_processes} processes, shape rate fixed at {alpha}"
    )
    _write_manifest(outdir, "fit", config, args, {"alpha_star_hat": est, "neg_log_likelihood": nll})
    return EXIT_OK


_SURFACE_GP = """set datafile separator ','
set key autotitle columnhead
set xlabel 'T'
set ylabel 'M'
set zlabel 'cost rate'
set dgrid3d
splot 'surface.csv' using 1:2:3 with lines
"""


def cmd_optimize(config: ExperimentConfig, args, outdir: Path) -> int:
    t_grid, m_grid = config.grids_or_error()
    result = grid_search(
        config.system,
        config.costs_or_error(),
        t_grid,
        m_grid,
        config.n_cycles,
        config.sim,
        config.master_seed,
        threads=args.threads,
    )
    write_surface_csv(outdir / "surface.csv", result)
    (outdir / "surface.gp").write_text(_SURFACE_GP)
    print(
        f"optimum T={result.t_opt:.4f} M={result.m_opt:.4f} "
        f"cost rate {result.cost:.4f} ({config.n_cycles} cycles/cell)"
    )
    _write_manifest(
        outdir, "optimize", config, args,
        {"t_opt": result.t_opt, "m_opt": result.m_opt, "cost": result.cost, **result.counts.as_dict()},
    )
    return EXIT_OK


def cmd_sensitivity(config: ExperimentConfig, args, outdir: Path) -> int:
    sens = config.sensitivity
    if not sens:
        raise ValidationError("sensitivity needs a sensitivity: section (kind, axis1, axis2)")
    kind = sens.get("kind", "parameters")
    axis1 = [float(v) for v in sens.get("axis1", [])]
    axis2 = [float(v) for v in sens.get("axis2", [])]
    if not axis1 or not axis2:
        raise ValidationError("sensitivity.axis1 and axis2 must be non-empty")
    costs = config.costs_or_error()
    n_cycles = int(sens.get("n_cycles", config.n_cycles))
    if kind == "parameters":
        t_grid, m_grid = config.grids_or_error()
        rows = sensitivity_sweep(
            config.system, costs, kind, axis1, axis2, t_grid, m_grid,
            n_cycles, config.sim, config.master_seed, threads=args.threads,
        )
    else:
        rows = sensitivity_sweep(
            config.system, costs, kind, axis1, axis2, None, None,
            n_cycles, config.sim, config.master_seed, threads=args.threads,
            fixed_policy=config.policy_or_error(),
        )
    write_sweep_csv(outdir / "sensitivity.csv", rows)
    print(f"sensitivity sweep ({kind}): {len(rows)} cells written")
    simulated = sum((r.simulated for r in rows), SimCounts())
    _write_manifest(outdir, "sensitivity", config, args,
                    {"kind": kind, "cells": len(rows), **simulated.as_dict()})
    return EXIT_OK


def _validation_checks(config: ExperimentConfig, scale: float):
    """Yield (name, passed, detail) for the analytic/Monte-Carlo cross-checks."""
    from .arrivals import expected_intensity
    from .special import integrate

    spec = config.system
    arr = spec.arrivals
    seed = config.master_seed

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(10,)))
    n = 20000
    horizon = 5.0
    run_ids, times = simulate_arrival_batch(arr, horizon, n, rng)
    counts = np.bincount(run_ids, minlength=n)
    emp, se = counts.mean(), counts.std(ddof=1) / np.sqrt(n)
    ana = expected_num_arrivals(arr, horizon)
    z = abs(emp - ana) / max(se, 1e-12)
    yield "arrival_count_mean", z <= 4.0 * scale, f"|z|={z:.2f} tol={4.0 * scale:.2g}"

    integral = integrate(lambda u: float(expected_intensity(arr, u)), 0.0, horizon)
    rel = abs(integral - ana) / ana if ana else 0.0
    yield "intensity_integral_identity", rel <= 1e-7 * max(scale, 1.0), f"rel={rel:.2e}"

    law = first_passage_law(spec, spec.failure_threshold, 40.0)
    s_grid = law.survival(np.linspace(0, 40.0, 400))
    mono = bool(np.all(np.diff(s_grid) <= 1e-12))
    yield "first_passage_survival_monotone", mono, "non-increasing on grid"

    c1, c2 = law.factors(np.linspace(0.5, 40.0, 100))
    in_range = bool(np.all((c1 > 0) & (c1 <= 1)) and np.all((c2 > 0) & (c2 <= 1)))
    prod_ok = bool(
        np.allclose(c1 * c2, law.survival(np.linspace(0.5, 40.0, 100)), rtol=1e-8, atol=1e-12)
    )
    yield "survival_factorization", in_range and prod_ok, "survival = C1*C2, factors in (0,1]"

    hd = law.hazard_derivative(np.linspace(0.1, 38.0, 300))
    min_hd = float(hd.min())
    yield "increasing_failure_rate", min_hd >= -1e-10 * max(scale, 1.0), f"min r'={min_hd:.2e}"

    t_big = 40.0
    lim = hazard_limit(arr)
    gap = abs(float(law.hazard(t_big)) - lim)
    yield "hazard_limit", gap <= 1e-2 * scale + 1e-3, f"|r(40)-limit|={gap:.2e} tol={1e-2 * scale + 1e-3:.2g}"

    eps = 1e-4
    t_mid = 12.0
    num = -(np.log(law.survival(t_mid + eps)) - np.log(law.survival(t_mid - eps))) / (2 * eps)
    dev = abs(num - float(law.hazard(t_mid)))
    yield "hazard_matches_log_survival_slope", dev <= 1e-4 * max(scale, 1.0), f"dev={dev:.2e}"

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    w = simulate_first_passage_batch(spec, spec.failure_threshold, 20.0, 20000, rng)
    worst = 0.0
    for t in np.linspace(1.0, 20.0, 20):
        worst = max(worst, abs((1.0 - np.mean(w <= t)) - float(law.survival(t))))
    yield "lifetime_mc_overlay", worst <= 0.02 * scale, f"max gap={worst:.4f} tol={0.02 * scale:.2g}"

    if spec.growth.has_random_effects:
        model = spec.growth
        ss = model.scale_spec
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(12,)))
        t = 5.0
        theta = rng.uniform(ss.a, ss.b, size=200000)
        draws = rng.gamma(model.shape_rate * t, theta)
        mean, var, _ = random_effect_moments(model, t)
        z_m = abs(draws.mean() - mean) / (draws.std(ddof=1) / np.sqrt(draws.size))
        yield "random_effect_mean", z_m <= 4.0 * scale, f"|z|={z_m:.2f}"


def cmd_validate(config: ExperimentConfig, args, outdir: Path) -> int:
    scale = float(config.validation.get("tolerance_scale", 1.0))
    failures = []
    lines = []
    for name, ok, detail in _validation_checks(config, scale):
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}: {detail}"
        print(line)
        lines.append(line)
        if not ok:
            failures.append(name)
    (outdir / "validation_report.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(outdir, "validate", config, args, {"failures": failures})
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


_COMMANDS = {
    "simulate-arrivals": cmd_simulate_arrivals,
    "reliability": cmd_reliability,
    "fit": cmd_fit,
    "optimize": cmd_optimize,
    "sensitivity": cmd_sensitivity,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotgamma",
        description="Degradation arrivals, reliability and inspection-policy optimization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config path or preset name")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--deterministic", action="store_true",
            help="suppress timestamps so outputs are byte-stable",
        )
        if name == "fit":
            p.add_argument("--data", default=None, help="observations CSV (process_id,time,level)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.master_seed = int(args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, args, outdir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
