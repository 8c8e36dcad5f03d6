"""Periodic-inspection maintenance policy: simulation, estimation, search.

A renewal cycle runs until the first inspection that finds a process at or
beyond the failure threshold (corrective replacement, downtime billed since
the unnoticed crossing) or beyond the preventive threshold (preventive
replacement). The cost-rate estimator is the renewal-reward ratio of sums
over simulated cycles; the grid search evaluates it over a Cartesian
policy grid with counter-derived random streams so results are identical
at any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from warnings import warn

import numpy as np

from .arrivals import thin_history
from .degradation import DeterministicScale, GammaModel, UniformInverseScale
from .errors import NumericalError, ValidationError
from .lifetime import SystemSpec

PREVENTIVE = "preventive"
CORRECTIVE = "corrective"
CENSORED = "censored"


@dataclass(frozen=True)
class PolicyParams:
    """Inspection period and preventive threshold of the policy.

    ``preventive_threshold`` equal to the failure threshold is allowed and
    means preventive replacements never happen (pure corrective policy);
    the reconstructed preset grids contain that endpoint.
    """

    inspection_period: float
    preventive_threshold: float

    def __post_init__(self):
        if self.inspection_period <= 0:
            raise ValidationError("inspection period must be positive")
        if self.preventive_threshold <= 0:
            raise ValidationError("preventive threshold must be positive")

    def validate_against(self, spec: SystemSpec) -> None:
        if self.preventive_threshold > spec.failure_threshold:
            raise ValidationError("preventive threshold must not exceed the failure threshold")


@dataclass(frozen=True)
class CostRates:
    """Costs of the maintenance actions; downtime is billed per time unit."""

    preventive: float
    corrective: float
    inspection: float
    downtime_rate: float

    def __post_init__(self):
        for name in ("preventive", "corrective", "inspection", "downtime_rate"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} cost must be non-negative")
        if self.corrective < self.preventive:
            warn("corrective cost below preventive cost; check the configuration")

    def cycle_cost(self, action: str, inspections: int, downtime: float) -> float:
        """Cost of one cycle: its inspections, the replacement its action calls for, downtime."""
        replacement = {CORRECTIVE: self.corrective, PREVENTIVE: self.preventive}.get(action, 0.0)
        return self.inspection * inspections + replacement + self.downtime_rate * downtime


@dataclass(frozen=True)
class SimControl:
    """Resolution and guard rails of the cycle simulator.

    ``substeps`` fixes the fine path grid at ``T / substeps``; levels at
    inspections are exact at any resolution (gamma increments are exact on
    any partition) while the failure-crossing time is localized to one fine
    step, biasing downtime low by at most ``T / substeps``.
    ``crossing_refinement`` adds that many bridge-bisection levels inside
    the crossing step, shrinking the bias by ``2**levels``.
    """

    substeps: int = 16
    max_inspections: int = 200
    crossing_refinement: int = 0

    def __post_init__(self):
        if self.substeps < 1 or self.max_inspections < 1 or self.crossing_refinement < 0:
            raise ValidationError("invalid simulation controls")


@dataclass(frozen=True)
class CycleOutcome:
    """One renewal cycle: its length, action taken and accumulated cost."""

    length: float
    inspections: int
    action: str
    downtime: float
    cycle_cost: float


@dataclass(frozen=True)
class CostRateEstimate:
    """Ratio-of-sums renewal-reward estimate with a delta-method error bar."""

    point: float
    std_error: float
    n_cycles: int
    preventive_fraction: float
    corrective_fraction: float
    censored_fraction: float
    mean_cycle_length: float


def cycle_rng(master_seed: int, cell_index: int, cycle_index: int) -> np.random.Generator:
    """Counter-derived stream: a pure function of (seed, cell, cycle)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index, cycle_index))
    )


def _refine_crossing(
    rng: np.random.Generator,
    shape_rate: float,
    t_lo: float,
    t_hi: float,
    v_lo: float,
    v_hi: float,
    threshold: float,
    levels: int,
) -> float:
    """Bridge-bisect the crossing time inside one fine step.

    Conditional on the endpoint levels, the mid-step level splits by a
    symmetric Beta draw (scale-free), so the localization is exact in
    distribution at every level of refinement.
    """
    for _ in range(levels):
        t_mid = 0.5 * (t_lo + t_hi)
        frac = rng.beta(shape_rate * (t_mid - t_lo), shape_rate * (t_hi - t_mid))
        v_mid = v_lo + (v_hi - v_lo) * frac
        if v_mid >= threshold:
            t_hi, v_hi = t_mid, v_mid
        else:
            t_lo, v_lo = t_mid, v_mid
    return t_hi


def simulate_cycle(
    spec: SystemSpec,
    policy: PolicyParams,
    costs: CostRates,
    sim: SimControl,
    rng: np.random.Generator,
) -> CycleOutcome:
    """Simulate one renewal cycle window by window.

    Within each inspection window: shocks, thinned arrivals conditional on
    the full shock history (carried as a decayed sum), exact gamma
    increments for every active process on the fine grid, then the
    inspection decision. Cycles that never trigger are censored at the
    inspection cap and surfaced as such, never dropped.
    """
    policy.validate_against(spec)
    T = policy.inspection_period
    M = policy.preventive_threshold
    L = spec.failure_threshold
    arr = spec.arrivals
    growth = spec.growth
    alpha = growth.shape_rate
    substeps = sim.substeps
    h = T / substeps
    grid_rel = h * np.arange(1, substeps + 1)

    levels = np.empty(0)
    rates = np.empty(0)
    births = np.empty(0)
    carry = 0.0

    for k in range(sim.max_inspections):
        t0 = k * T
        # shocks inside this window
        n_sh = rng.poisson(arr.mu * T)
        sh = np.sort(rng.uniform(0.0, T, size=n_sh)) if n_sh else np.empty(0)
        # thinned arrivals, unsorted: their order fixes the order of the gamma draws
        new_rel = thin_history(arr, sh, T, carry, rng)
        carry = carry * math.exp(-arr.delta * T) + float(np.exp(-arr.delta * (T - sh)).sum())

        # grow existing paths across the window; standard_gamma gives the
        # same draws as gamma(shape, 1.0) and skips the scale argument
        n_old = levels.size
        if n_old:
            inc = rng.standard_gamma(alpha * h, size=(n_old, substeps)) / rates[:, None]
            grid_old = levels[:, None] + np.cumsum(inc, axis=1)
        else:
            grid_old = np.empty((0, substeps))
        # spawn paths for this window's arrivals
        n_new = new_rel.size
        if n_new:
            new_rates = growth.draw_rates(rng, n_new)
            dts = np.minimum(np.maximum(grid_rel[None, :] - new_rel[:, None], 0.0), h)
            inc = rng.standard_gamma(alpha * dts) / new_rates[:, None]
            grid_new = np.cumsum(inc, axis=1)
            grid = np.concatenate((grid_old, grid_new)) if n_old else grid_new
            rates = np.concatenate([rates, new_rates])
            births = np.concatenate([births, t0 + new_rel])
        else:
            grid = grid_old

        n_proc = grid.shape[0]
        if n_proc:
            end_levels = grid[:, -1]
            top = end_levels.max()
            inspections = k + 1
            if top >= L:
                # paths never decrease, so only rows ending at or above L cross
                rows = np.flatnonzero(end_levels >= L)
                first_col = (grid[rows] >= L).argmax(axis=1)
                col_min = int(first_col.min())
                cross_time = t0 + grid_rel[col_min]
                if sim.crossing_refinement:
                    refined = math.inf
                    for i in rows[first_col == col_min]:
                        v_lo = grid[i, col_min - 1] if col_min else (levels[i] if i < n_old else 0.0)
                        # A process born inside the crossing step bridges
                        # from its arrival (level 0), not the step start.
                        t_lo = max(cross_time - h, births[i])
                        refined = min(
                            refined,
                            _refine_crossing(
                                rng, alpha, t_lo, cross_time,
                                v_lo, grid[i, col_min], L, sim.crossing_refinement,
                            ),
                        )
                    cross_time = refined
                return _outcome(costs, T, inspections, CORRECTIVE, inspections * T - cross_time)
            if top >= M:
                return _outcome(costs, T, inspections, PREVENTIVE, 0.0)
            levels = end_levels
        else:
            levels = np.empty(0)

    return _outcome(costs, T, sim.max_inspections, CENSORED, 0.0)


def _outcome(costs: CostRates, T: float, inspections: int, action: str, downtime: float) -> CycleOutcome:
    return CycleOutcome(
        length=inspections * T,
        inspections=inspections,
        action=action,
        downtime=downtime,
        cycle_cost=costs.cycle_cost(action, inspections, downtime),
    )


def _simulate_cycles(
    spec: SystemSpec,
    policy: PolicyParams,
    costs: CostRates,
    n_cycles: int,
    sim: SimControl,
    master_seed: int,
    cell_index: int,
) -> list[CycleOutcome]:
    if n_cycles < 1:
        raise ValidationError("n_cycles must be at least 1")
    return [
        simulate_cycle(spec, policy, costs, sim, cycle_rng(master_seed, cell_index, i))
        for i in range(n_cycles)
    ]


def _renewal_reward(outcomes: list[CycleOutcome], costs: CostRates) -> CostRateEstimate:
    """Ratio of summed cycle costs to summed lengths over the uncensored cycles.

    Each cycle is priced at ``costs``, whatever costs it was simulated with.
    """
    n_cycles = len(outcomes)
    cost_sum = 0.0
    len_sum = 0.0
    cost_sq = 0.0
    len_sq = 0.0
    cross = 0.0
    n_prev = n_corr = n_cens = 0
    for out in outcomes:
        if out.action == CENSORED:
            n_cens += 1
            continue
        if out.action == PREVENTIVE:
            n_prev += 1
        else:
            n_corr += 1
        cost = costs.cycle_cost(out.action, out.inspections, out.downtime)
        cost_sum += cost
        len_sum += out.length
        cost_sq += cost**2
        len_sq += out.length**2
        cross += cost * out.length
    n_done = n_prev + n_corr
    if n_done == 0:
        raise NumericalError("all simulated cycles were censored at the inspection cap")
    mean_c = cost_sum / n_done
    mean_l = len_sum / n_done
    ratio = mean_c / mean_l
    if n_done > 1:
        var_c = (cost_sq - n_done * mean_c**2) / (n_done - 1)
        var_l = (len_sq - n_done * mean_l**2) / (n_done - 1)
        cov = (cross - n_done * mean_c * mean_l) / (n_done - 1)
        se = math.sqrt(
            max(var_c - 2 * ratio * cov + ratio**2 * var_l, 0.0) / n_done
        ) / mean_l
    else:
        se = math.inf
    return CostRateEstimate(
        point=ratio,
        std_error=se,
        n_cycles=n_cycles,
        preventive_fraction=n_prev / n_cycles,
        corrective_fraction=n_corr / n_cycles,
        censored_fraction=n_cens / n_cycles,
        mean_cycle_length=mean_l,
    )


def estimate_cost_rate(
    spec: SystemSpec,
    policy: PolicyParams,
    costs: CostRates,
    n_cycles: int,
    sim: SimControl,
    master_seed: int,
    cell_index: int = 0,
) -> CostRateEstimate:
    """Renewal-reward cost rate over ``n_cycles`` independent cycles.

    Every cycle consumes its own counter-derived stream, so the estimate is
    a deterministic function of ``(master_seed, cell_index)`` regardless of
    scheduling. Censored cycles are excluded from the ratio but reported in
    the fractions; an all-censored batch raises.
    """
    outcomes = _simulate_cycles(spec, policy, costs, n_cycles, sim, master_seed, cell_index)
    return _renewal_reward(outcomes, costs)


@dataclass(frozen=True)
class GridSearchResult:
    t_opt: float
    m_opt: float
    cost: float
    surface: list  # of (T, M, CostRateEstimate)

    def surface_rows(self) -> list[tuple]:
        rows = []
        for T, M, est in self.surface:
            rows.append(
                (
                    T,
                    M,
                    est.point,
                    est.std_error,
                    est.preventive_fraction,
                    est.corrective_fraction,
                    est.censored_fraction,
                    est.mean_cycle_length,
                )
            )
        return rows


_SURFACE_HEADER = (
    "T,M,cost_rate,std_error,preventive_fraction,corrective_fraction,"
    "censored_fraction,mean_cycle_length"
)


def write_surface_csv(path, result: GridSearchResult) -> None:
    with open(path, "w") as fh:
        fh.write(_SURFACE_HEADER + "\n")
        for row in result.surface_rows():
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def _grid_cell(args) -> tuple[int, CostRateEstimate]:
    idx, spec, policy, costs, n_cycles, sim, master_seed = args
    return idx, estimate_cost_rate(spec, policy, costs, n_cycles, sim, master_seed, idx)


def grid_search(
    spec: SystemSpec,
    costs: CostRates,
    t_grid,
    m_grid,
    n_cycles: int,
    sim: SimControl,
    master_seed: int,
    threads: int = 1,
) -> GridSearchResult:
    """Minimize the estimated cost rate over the policy grid.

    Cell ``(i, j)`` always maps to stream index ``i * len(m_grid) + j``; ties
    break toward smaller T, then smaller M (the row-major first minimum).
    """
    t_grid = np.asarray(t_grid, float)
    m_grid = np.asarray(m_grid, float)
    if t_grid.size == 0 or m_grid.size == 0:
        raise ValidationError("policy grids must be non-empty")
    cells = []
    for i, T in enumerate(t_grid):
        for j, M in enumerate(m_grid):
            policy = PolicyParams(float(T), float(M))
            policy.validate_against(spec)
            idx = i * m_grid.size + j
            cells.append((idx, spec, policy, costs, n_cycles, sim, master_seed))
    estimates: list[CostRateEstimate | None] = [None] * len(cells)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for idx, est in pool.map(_grid_cell, cells, chunksize=4):
                estimates[idx] = est
    else:
        for args in cells:
            idx, est = _grid_cell(args)
            estimates[idx] = est
    surface = []
    for i, T in enumerate(t_grid):
        for j, M in enumerate(m_grid):
            surface.append((float(T), float(M), estimates[i * m_grid.size + j]))
    costs_flat = np.array([est.point for _, _, est in surface])
    best = int(np.argmin(costs_flat))
    t_opt, m_opt, best_est = surface[best]
    return GridSearchResult(t_opt=t_opt, m_opt=m_opt, cost=best_est.point, surface=surface)


def _with_parameters(spec: SystemSpec, shape_rate: float, scale_value: float) -> SystemSpec:
    """Rebuild the system with a new shape rate and scale-axis value.

    For a deterministic model the scale axis is the rate itself; for random
    effects it is the center of the inverse-rate window, keeping the
    half-width.
    """
    old = spec.growth.scale_spec
    if isinstance(old, DeterministicScale):
        growth = GammaModel(shape_rate, DeterministicScale(scale_value))
    else:
        half = 0.5 * (old.b - old.a)
        growth = GammaModel(shape_rate, UniformInverseScale(scale_value - half, scale_value + half))
    return replace(spec, growth=growth)


@dataclass(frozen=True)
class SweepRow:
    axis1: float
    axis2: float
    cost_opt: float
    t_opt: float
    m_opt: float


def sensitivity_sweep(
    spec: SystemSpec,
    costs: CostRates,
    kind: str,
    axis1,
    axis2,
    t_grid,
    m_grid,
    n_cycles: int,
    sim: SimControl,
    master_seed: int,
    threads: int = 1,
    fixed_policy: PolicyParams | None = None,
) -> list[SweepRow]:
    """Parameter sweeps of the optimal policy or of the cost at a fixed one.

    ``kind="parameters"``: axis1 is the shape rate, axis2 the scale axis
    (rate, or inverse-rate center under random effects); each cell re-runs
    the full grid search. ``kind="costs"``: axis1 is the corrective cost,
    axis2 the preventive cost; the policy stays at ``fixed_policy``, and the
    cycles of stream cell 0 are simulated once and re-priced for every pair,
    since costs never enter a path.
    """
    rows: list[SweepRow] = []
    if kind == "parameters":
        for a1 in axis1:
            for a2 in axis2:
                cell_spec = _with_parameters(spec, float(a1), float(a2))
                res = grid_search(cell_spec, costs, t_grid, m_grid, n_cycles, sim, master_seed, threads)
                rows.append(SweepRow(float(a1), float(a2), res.cost, res.t_opt, res.m_opt))
    elif kind == "costs":
        if fixed_policy is None:
            raise ValidationError("cost sweep requires a fixed policy")
        fixed_policy.validate_against(spec)
        outcomes = _simulate_cycles(spec, fixed_policy, costs, n_cycles, sim, master_seed, 0)
        for cc in axis1:
            for cp in axis2:
                cell_costs = CostRates(
                    preventive=float(cp),
                    corrective=float(cc),
                    inspection=costs.inspection,
                    downtime_rate=costs.downtime_rate,
                )
                est = _renewal_reward(outcomes, cell_costs)
                rows.append(
                    SweepRow(float(cc), float(cp), est.point, fixed_policy.inspection_period,
                             fixed_policy.preventive_threshold)
                )
    else:
        raise ValidationError("sweep kind must be 'parameters' or 'costs'")
    return rows


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    with open(path, "w") as fh:
        fh.write("axis1,axis2,cost_opt,T_opt,M_opt\n")
        for r in rows:
            fh.write(f"{r.axis1:.10g},{r.axis2:.10g},{r.cost_opt:.10g},{r.t_opt:.10g},{r.m_opt:.10g}\n")
