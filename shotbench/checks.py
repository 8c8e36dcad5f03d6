"""Checks of the program's outputs against the oracles and the method's properties.

Every check returns a list of failure messages, empty when the output
passes. None compares with a stored earlier output. Tolerances (the README
says why each holds):

- ``Z``: standard errors allowed in a statistical comparison. Two sets of
  22 runs of every workload make about 1e5 of them; at 6 SE a normal tail
  gives 2e-9 each.
- ``SLACK_EVENTS``: added to every count comparison, in units of the
  counted event (windows, failed systems). A cell whose variance comes from
  a rare event (``P(N > 1) = 8.3e-5`` at T = 11.7, M = 6.1) sees 0 or 1
  such events in 100 cycles, and one is an 11-SE outlier on that variance.
- ``TOL_LAW``: absolute error of the program's tabulated first-exceedance
  law (a 0.005-step grid; 4e-7 measured at t_max 40, 8e-8 at the
  reliability command's 13.5).
- ``TOL_WINDOW``: absolute error of a window's ``P_p + P_c`` from its
  32-node quadrature of the crossing density (2.1e-7 measured).
- ``REL_EXACT``: relative rounding allowed where the program's output must
  equal a value recomputed from its own parts (CSV values carry 10 digits).
- ``REL_SERIES``: relative error of an analytic ``E[R]`` or pure-corrective
  cost rate built from the tabulated law.
- ``REL_NLL``: relative error of a log-likelihood value against the
  independent quadrature.
"""

from __future__ import annotations

import math

import numpy as np

Z = 6.0
SLACK_EVENTS = 3.0
TOL_LAW = 1e-6
TOL_WINDOW = 2e-6
REL_EXACT = 1e-9
REL_SERIES = 2e-6
REL_NLL = 1e-8


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def count_bound(n: int, var):
    """Largest deviation from its mean that a sum of ``n`` counts of variance ``var`` may show."""
    return Z * np.sqrt(np.maximum(n * np.asarray(var), 0.0)) + SLACK_EVENTS


def cycle_length_deviation(mean_length: float, moments, n: int) -> tuple[float, float]:
    """(deviation of the summed inspection count from its mean, allowed bound)."""
    dev = n * (mean_length / moments.T - moments.mean_n)
    return dev, count_bound(n, moments.var_n)


def check_grid(surface, manifest, t_grid, m_grid, n_cycles, moments, failure_mean,
               failure_level, costs, substeps) -> list[str]:
    """``shotgamma optimize``: cycle lengths, fractions, pure-corrective cost, optimum."""
    fails = []
    n_rows = len(surface["T"])
    if n_rows != t_grid.size * m_grid.size:
        return [f"surface has {n_rows} rows, expected {t_grid.size * m_grid.size}"]
    z_sum, z_cells = 0.0, 0
    for row in range(n_rows):
        T, M = float(t_grid[row // m_grid.size]), float(m_grid[row % m_grid.size])
        if not (_close(surface["T"][row], T, REL_EXACT) and _close(surface["M"][row], M, REL_EXACT)):
            fails.append(f"row {row} is ({surface['T'][row]}, {surface['M'][row]}), expected ({T}, {M})")
            continue
        where = f"T={T:.4g} M={M:.4g}"
        mom = moments[(T, M)]
        mean_len = surface["mean_cycle_length"][row]
        dev, bound = cycle_length_deviation(mean_len, mom, n_cycles)
        if abs(dev) > bound:
            fails.append(f"{where}: mean cycle length {mean_len:.6g} vs E[R] {mom.mean_length:.6g} "
                         f"({dev:+.1f} windows over {n_cycles} cycles, bound {bound:.1f})")
        # Pooled over the cells whose variance is not carried by rare events.
        if n_cycles * mom.var_n >= 1.0:
            z_sum += dev / math.sqrt(n_cycles * mom.var_n)
            z_cells += 1
        prev, corr, cens = (surface[k][row] for k in
                            ("preventive_fraction", "corrective_fraction", "censored_fraction"))
        if abs(prev + corr + cens - 1.0) > REL_EXACT:
            fails.append(f"{where}: fractions sum to {prev + corr + cens!r}")
        if cens != 0.0:
            fails.append(f"{where}: censored fraction {cens}")
        if M == failure_level:
            if corr != 1.0:
                fails.append(f"{where}: corrective fraction {corr} at M = L")
            exact = (costs["inspection"] * mom.mean_n + costs["corrective"]
                     + costs["downtime_rate"] * (mom.mean_length - failure_mean)) / mom.mean_length
            bias = costs["downtime_rate"] * (T / substeps) / mom.mean_length
            cost, se = surface["cost_rate"][row], surface["std_error"][row]
            if not (se > 0 and math.isfinite(se)):
                fails.append(f"{where}: standard error {se}")
            elif not (exact - bias - Z * se <= cost <= exact + Z * se):
                fails.append(f"{where}: pure-corrective cost {cost:.6g} outside "
                             f"[{exact - bias - Z * se:.6g}, {exact + Z * se:.6g}] (exact {exact:.6g})")
    if z_cells:
        pooled = z_sum / math.sqrt(z_cells)
        if abs(pooled) > Z:
            fails.append(f"pooled cycle-length z {pooled:+.2f} over {z_cells} cells")

    costs_col = surface["cost_rate"]
    best = int(np.argmin(costs_col))
    t_opt, m_opt = surface["T"][best], surface["M"][best]
    if not (_close(manifest["t_opt"], t_opt, REL_EXACT) and _close(manifest["m_opt"], m_opt, REL_EXACT)
            and _close(manifest["cost"], costs_col[best], REL_EXACT)):
        fails.append(f"manifest optimum ({manifest['t_opt']}, {manifest['m_opt']}, {manifest['cost']}) "
                     f"is not the first minimum of surface.csv ({t_opt}, {m_opt}, {costs_col[best]})")
    return fails


def check_sweep(sweep, policy, moments, n_cycles) -> list[str]:
    """``shotgamma sensitivity`` (costs): fixed policy, monotone, affine, slopes sum to 1/E[R]."""
    fails = []
    cc, cp, cost = sweep["axis1"], sweep["axis2"], sweep["cost_opt"]
    if not (np.all(sweep["T_opt"] == policy[0]) and np.all(sweep["M_opt"] == policy[1])):
        fails.append(f"T_opt/M_opt differ from the fixed policy {policy}")
    scale = float(np.max(np.abs(cost)))
    for axis, other in ((cc, cp), (cp, cc)):
        for v in np.unique(other):
            sel = other == v
            order = np.argsort(axis[sel], kind="stable")
            steps = np.diff(cost[sel][order])
            if np.any(steps < -REL_EXACT * scale):
                fails.append(f"cost rate falls along an axis at fixed {v:g}: steps {steps}")
    design = np.column_stack([np.ones_like(cc), cc, cp])
    coef, *_ = np.linalg.lstsq(design, cost, rcond=None)
    resid = float(np.max(np.abs(design @ coef - cost)))
    if resid > 10 * REL_EXACT * scale:
        fails.append(f"cost rate is not affine in (C_c, C_p): residual {resid:.3g}")
    slope_sum = coef[1] + coef[2]
    if not slope_sum > 0:
        fails.append(f"slopes sum to {slope_sum}")
    else:
        dev, bound = cycle_length_deviation(1.0 / slope_sum, moments, n_cycles)
        if abs(dev) > bound:
            fails.append(f"1/(slope_c + slope_p) = {1 / slope_sum:.6g} vs E[R] {moments.mean_length:.6g} "
                         f"({dev:+.1f} windows, bound {bound:.1f})")
    return fails


def check_analytic_cell(T, parts, values, survival_at_inspections, moments, costs, pure_rate) -> list[str]:
    """One ``cost_rate_analytic`` cell: window partition, downtime range, series, cost from parts."""
    fails = []
    p_p, p_c, e_d = (np.asarray(parts[k], float) for k in ("P_p", "P_c", "E_d"))
    s = np.asarray(survival_at_inspections, float)
    window_mass = s[:-1] - s[1:]
    gap = np.abs(p_p + p_c - window_mass)
    if np.any(gap > TOL_WINDOW):
        fails.append(f"P_p + P_c differs from S(kT) - S((k+1)T) by up to {gap.max():.3g}")
    if np.any(e_d < 0) or np.any(e_d > T * p_c + 1e-12):
        fails.append(f"downtime outside [0, T*P_c]: E_d={e_d}, T*P_c={T * p_c}")
    if not _close(parts["E_R"], T * parts["E_N"], REL_EXACT):
        fails.append(f"E[R] {parts['E_R']} != T*E[N_I] {T * parts['E_N']}")
    if not _close(parts["E_R"], moments.mean_length, REL_SERIES):
        fails.append(f"E[R] {parts['E_R']:.10g} vs independent series {moments.mean_length:.10g}")
    from_parts = (costs["corrective"] * p_c.sum() + costs["preventive"] * p_p.sum()
                  + costs["inspection"] * parts["E_N"] + costs["downtime_rate"] * e_d.sum()) / parts["E_R"]
    for v in values:
        if not _close(v, from_parts, REL_EXACT):
            fails.append(f"cost rate {v!r} != {from_parts!r} recomputed from its parts")
            break
    if pure_rate is not None and not _close(from_parts, pure_rate, REL_SERIES):
        fails.append(f"pure-corrective cost {from_parts:.10g} vs exact {pure_rate:.10g}")
    return fails


def check_lifetime(curve, survival_ref: dict, limit: float, n: int) -> list[str]:
    """``lifetime.csv``: survival against the oracle, monotone laws, hazard limit, MC band."""
    fails = []
    t, surv, haz = curve["t"], curve["survival"], curve["hazard"]
    for tr, sr in survival_ref.items():
        k = int(np.argmin(np.abs(t - tr)))
        if abs(t[k] - tr) > 1e-9 or abs(surv[k] - sr) > TOL_LAW:
            fails.append(f"survival({tr}) = {surv[k]:.10g} vs independent {sr:.10g}")
    if surv[0] != 1.0 or np.any(np.diff(surv) > 0):
        fails.append("survival does not fall monotonically from 1")
    if np.any(np.diff(haz) < 0):
        fails.append("hazard falls somewhere")
    if np.any(haz > limit * (1 + REL_EXACT)) or not np.allclose(curve["hazard_limit"], limit, rtol=REL_EXACT):
        fails.append(f"hazard exceeds or misstates the limit {limit:.10g}")
    dev = n * np.abs(curve["mc_survival"] - surv)
    bound = count_bound(n, surv * (1 - surv))
    if np.any(dev > bound):
        k = int(np.argmax(dev - bound))
        fails.append(f"mc_survival({t[k]:g}) = {curve['mc_survival'][k]:.6g} outside the binomial "
                     f"band of {surv[k]:.6g} over {n} systems")
    return fails


def check_fit(curve, nll_ref, estimate, estimate_nll, center) -> list[str]:
    """``fit``: likelihood curve against the quadrature, estimate at or below the grid, in its bracket."""
    fails = []
    grid, nll = curve["alpha_star"], curve["neg_log_likelihood"]
    rel = np.abs(nll - nll_ref) / np.maximum(np.abs(nll_ref), 1.0)
    if np.any(rel > REL_NLL):
        k = int(np.argmax(rel))
        fails.append(f"neg_log_likelihood at {grid[k]:g} = {nll[k]:.10g} vs quadrature {nll_ref[k]:.10g}")
    if np.any(estimate_nll > nll + REL_EXACT * np.abs(nll)):
        fails.append(f"estimate's value {estimate_nll:.10g} exceeds the grid minimum {nll.min():.10g}")
    k = int(np.argmin(nll))
    lo = grid[k - 1] if k > 0 else 0.5 * grid[0]
    hi = grid[k + 1] if k + 1 < grid.size else min(center, 1.5 * grid[-1])
    if not lo <= estimate <= hi:
        fails.append(f"estimate {estimate:.6g} outside the bracket [{lo:.6g}, {hi:.6g}] of the grid minimum")
    return fails
