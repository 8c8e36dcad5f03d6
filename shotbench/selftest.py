"""Self-test of the benchmark's checks.

    python3 shotbench/selftest.py

Runs each kind of operation once through the program, feeds the check the
real output, which must pass, and then perturbed copies of it, each of
which must be rejected by the check it targets. Exits 1 if any expectation
fails. Takes about ten seconds on one core.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def _record(name: str, fails: list[str], ok: bool) -> None:
    RESULTS.append((name, ok))
    verdict = "passes" if not fails else f"rejects ({fails[0]})"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")


def passes(name: str, fails: list[str]) -> None:
    _record(name, fails, not fails)


def rejects(name: str, reason: str, fails: list[str]) -> None:
    """The perturbed output must fail, with a message naming ``reason``."""
    _record(name, fails, any(reason in msg for msg in fails))


def perturbed(data, **edits):
    """Deep copy of a parsed CSV with ``column=(row, function)`` edits applied."""
    out = copy.deepcopy(data)
    for col, (row, fn) in edits.items():
        out[col][row] = fn(out[col][row])
    return out


def grid_cases(workdir: Path) -> None:
    wl = wls.GridDet(workdir, 7, tracing.NullTracer())
    wl.prepare()
    (surface, manifest), = [op.result for op in wl.run_round(0)]
    ref = wl.oracle()
    n = wl.n_cycles
    m_size = wl.m_grid.size

    def check(s=surface, m=manifest):
        return checks.check_grid(s, m, wl.t_grid, wl.m_grid, n, ref["moments"], ref["failure_mean"],
                                 wls.SYSTEM_DET.failure_threshold, wls.COSTS, wls.SUBSTEPS)

    row_long = 9 * m_size + 3           # T = 25, M = 4.86: one-window cycles
    row_pure = 2 * m_size + m_size - 1  # T = 6.33, M = L
    passes("grid: real output", check())
    rejects("grid: one cell's mean_cycle_length +20%", "mean cycle length",
            check(perturbed(surface, mean_cycle_length=(row_long, lambda v: 1.2 * v))))
    # A bias shared by the cells: 1.5 SE each, inside every per-cell bound.
    shifted = copy.deepcopy(surface)
    for row in range(surface["T"].size):
        mom = ref["moments"][(float(wl.t_grid[row // m_size]), float(wl.m_grid[row % m_size]))]
        if n * mom.var_n >= 1.0:
            shifted["mean_cycle_length"][row] += 1.5 * mom.T * np.sqrt(mom.var_n / n)
    rejects("grid: shared +1.5 SE cycle-length bias", "pooled", check(shifted))
    rejects("grid: fractions sum to 1.05", "fractions sum",
            check(perturbed(surface, preventive_fraction=(row_long, lambda v: v + 0.05))))
    rejects("grid: censored cycles", "censored fraction",
            check(perturbed(surface, preventive_fraction=(row_long, lambda v: v - 0.01),
                            censored_fraction=(row_long, lambda v: v + 0.01))))
    rejects("grid: preventive replacement at M = L", "corrective fraction",
            check(perturbed(surface, preventive_fraction=(row_pure, lambda v: 0.01),
                            corrective_fraction=(row_pure, lambda v: 0.99))))
    mom = ref["moments"][(float(wl.t_grid[2]), float(wl.m_grid[-1]))]
    exact = oracles.pure_corrective_rate(mom, ref["failure_mean"], wls.COSTS)
    se = surface["std_error"][row_pure]
    bias = wls.COSTS["downtime_rate"] * (wl.t_grid[2] / wls.SUBSTEPS) / mom.mean_length
    rejects("grid: pure-corrective cost 7 SE above exact", "pure-corrective",
            check(perturbed(surface, cost_rate=(row_pure, lambda v: exact + 7 * se))))
    rejects("grid: pure-corrective cost 7 SE below the bias band", "pure-corrective",
            check(perturbed(surface, cost_rate=(row_pure, lambda v: exact - bias - 7 * se))))
    other = (int(np.argmin(surface["cost_rate"])) + 1) % surface["T"].size
    wrong = dict(manifest, t_opt=float(surface["T"][other]), m_opt=float(surface["M"][other]))
    rejects("grid: manifest names another cell", "manifest optimum", check(m=wrong))


def sweep_cases(workdir: Path) -> None:
    wl = wls.CostSweepRE(workdir, 7, tracing.NullTracer())
    wl.prepare()
    wl.n_cycles = 100
    sweep, = [op.result for op in wl.run_round(0)]
    moments = wl.oracle()

    def check(s):
        return checks.check_sweep(s, wl.policy, moments, wl.n_cycles)

    passes("sweep: real output", check(sweep))
    rejects("sweep: another T_opt", "fixed policy", check(perturbed(sweep, T_opt=(0, lambda v: v + 1.0))))
    bent = copy.deepcopy(sweep)
    bent["cost_opt"] += 1e-5 * bent["axis1"] * bent["axis2"]
    rejects("sweep: non-affine (monotone) surface", "not affine", check(bent))
    last = sweep["axis1"].size - 1
    rejects("sweep: cost falls along C_c", "falls", check(perturbed(sweep, cost_opt=(last, lambda v: v - 5.0))))
    steep = copy.deepcopy(sweep)
    steep["cost_opt"] *= 1.25
    rejects("sweep: slopes sum to 1.25/E[R]", "slope_c + slope_p", check(steep))


def analytic_cases(workdir: Path) -> None:
    from shotgamma import PolicyParams
    from shotgamma.analytics import cost_rate_analytic

    wl = wls.AnalyticStack(workdir, 7, tracing.NullTracer())
    wl.prepare()
    for T, M in [(8.0, 7.0), (6.0, wls.SYSTEM_DET.failure_threshold)]:
        value = cost_rate_analytic(wl.spec, PolicyParams(T, M), wl.costs)
        parts, surv, moments, pure = wl.cell_reference(T, M)
        tag = f"cell T={T:g} M={M:g}"

        def check(p=parts, values=(value,)):
            return checks.check_analytic_cell(T, p, list(values), surv, moments, wls.COSTS, pure)

        def edit(key, fn):
            p = copy.deepcopy(parts)
            p[key] = fn(p[key])
            return p

        first = np.eye(parts["P_c"].size)[0]
        passes(f"{tag}: real output", check())
        rejects(f"{tag}: cost rate off its parts by 1e-6", "recomputed from its parts",
                check(values=(value * (1 + 1e-6),)))
        rejects(f"{tag}: E[R] != T*E[N_I]", "T*E[N_I]", check(edit("E_R", lambda v: v * (1 + 1e-6))))
        rejects(f"{tag}: E[R] and E[N_I] 1e-5 off the series", "independent series",
                check(edit("E_N", lambda v: v * (1 + 1e-5)) | {"E_R": parts["E_R"] * (1 + 1e-5)}))
        rejects(f"{tag}: broken window partition", "P_p + P_c", check(edit("P_c", lambda v: v + 1e-4 * first)))
        rejects(f"{tag}: downtime above T*P_c", "downtime outside",
                check(edit("E_d", lambda v: v + T * parts["P_c"] * first + 1e-3)))
        if pure is not None:
            nudged = edit("E_d", lambda v: v * (1 + 1e-3))
            cost = (wls.COSTS["corrective"] * parts["P_c"].sum() + wls.COSTS["inspection"] * parts["E_N"]
                    + wls.COSTS["downtime_rate"] * nudged["E_d"].sum()) / parts["E_R"]
            rejects(f"{tag}: pure-corrective cost 1e-3 off exact", "pure-corrective", check(nudged, (cost,)))


def lifetime_fit_cases(workdir: Path) -> None:
    wl = wls.AnalyticStack(workdir, 7, tracing.NullTracer())
    wl.prepare()
    wl.cells = []
    rel, fit = wl.run_round(0)
    ref = wl.lifetime_reference()
    limit = oracles.hazard_limit(wls.SYSTEM_DET)
    curve = rel.result
    at5 = int(np.argmin(np.abs(curve["t"] - 5.0)))

    def check_rel(c):
        return checks.check_lifetime(c, ref, limit, wl.n_trajectories)

    passes("lifetime: real output", check_rel(curve))
    rejects("lifetime: survival(5) off by 1e-5", "vs independent",
            check_rel(perturbed(curve, survival=(at5, lambda v: v + 1e-5))))
    rejects("lifetime: survival rises once", "monotonically",
            check_rel(perturbed(curve, survival=(at5 + 1, lambda v: curve["survival"][at5] + 1e-9))))
    rejects("lifetime: hazard dips once", "hazard falls",
            check_rel(perturbed(curve, hazard=(at5 + 1, lambda v: curve["hazard"][at5] - 1e-6))))
    rejects("lifetime: hazard above its limit", "limit",
            check_rel(perturbed(curve, hazard=(-1, lambda v: limit * 1.001))))
    rejects("lifetime: mc_survival off by 0.02", "binomial band",
            check_rel(perturbed(curve, mc_survival=(at5, lambda v: v + 0.02))))

    fit_curve, manifest = fit.result
    nll = wl.fit_reference(0, fit_curve["alpha_star"])

    def check_fit(c=fit_curve, est=manifest["alpha_star_hat"], val=manifest["neg_log_likelihood"]):
        return checks.check_fit(c, nll, est, val, wl.center)

    passes("fit: real output", check_fit())
    rejects("fit: one likelihood 1e-6 off", "quadrature",
            check_fit(perturbed(fit_curve, neg_log_likelihood=(3, lambda v: v * (1 + 1e-6)))))
    rejects("fit: estimate's value above the grid minimum", "grid minimum",
            check_fit(val=float(fit_curve["neg_log_likelihood"].min()) + 1.0))
    rejects("fit: estimate outside the bracket", "bracket", check_fit(est=float(fit_curve["alpha_star"][-1])))


def main() -> int:
    workdir = HERE.parent / "shotbench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for cases in (grid_cases, sweep_cases, analytic_cases, lifetime_fit_cases):
            cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} expectations met")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
