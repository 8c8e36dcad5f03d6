"""Periodic-inspection maintenance policy: simulation, estimation, search.

A renewal cycle runs until the first inspection that finds a process at or
beyond the failure threshold (corrective replacement, downtime billed since
the unnoticed crossing) or beyond the preventive threshold (preventive
replacement). One block engine advances a cell's cycles together, window
by window. The cost-rate estimator is the renewal-reward ratio of sums
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

from .arrivals import simulate_carried_batch
from .errors import NumericalError, ValidationError, checked_number, store_checked
from .lifetime import SystemSpec

PREVENTIVE = "preventive"
CORRECTIVE = "corrective"
CENSORED = "censored"
# Action codes of the engine's outcome arrays index this tuple.
ACTIONS = (PREVENTIVE, CORRECTIVE, CENSORED)
_PREVENTIVE, _CORRECTIVE, _CENSORED = range(3)

# Cycles per block of a cell. A constant, so block b always holds cycles
# b*BLOCK_SIZE onward, whatever the worker count.
BLOCK_SIZE = 1024
# Third word of a block stream key (cycle keys have two words).
_BLOCK_KEY = 0


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
        store_checked(self, "inspection_period", above=0)
        store_checked(self, "preventive_threshold", above=0)

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
            store_checked(self, name, at_least=0)
        if self.corrective < self.preventive:
            warn("corrective cost below preventive cost; check the configuration")

    def cycle_cost(self, action, inspections, downtime):
        """Cost of cycles: their inspections, the replacement each action calls for, downtime.

        ``action`` is an action name or an array of codes into :data:`ACTIONS`.
        """
        code = ACTIONS.index(action) if isinstance(action, str) else action
        replacement = np.array([self.preventive, self.corrective, 0.0])[code]
        return self.inspection * inspections + replacement + self.downtime_rate * downtime


@dataclass(frozen=True)
class SimControl:
    """Resolution and guard rails of the cycle simulator.

    Levels at inspections are exact (one gamma increment per window). Only
    the paths that end a window at or above the failure threshold are
    bridged: each failed cycle's first crossing is dated at the first point
    of the fine grid ``T / substeps`` at or above it, found by
    ``ceil(log2(substeps))`` bisections of the gamma bridge, which biases
    downtime low by at most ``T / substeps``. ``crossing_refinement`` adds
    that many bridge halvings inside the crossing step, shrinking the bias
    by ``2**levels``. A cycle still running after ``max_inspections``
    windows is censored. Every field is an integer (not a bool); numpy
    integers are stored as Python ints (``errors.checked_number``'s rule).
    """

    substeps: int = 16
    max_inspections: int = 200
    crossing_refinement: int = 0

    def __post_init__(self):
        store_checked(self, "substeps", at_least=1, integer=True)
        store_checked(self, "max_inspections", at_least=1, integer=True)
        store_checked(self, "crossing_refinement", at_least=0, integer=True)


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
    n_windows: int


@dataclass(frozen=True)
class SimCounts:
    """Work of a simulation: cycles, inspection windows and censored cycles."""

    cycles: int = 0
    windows: int = 0
    censored: int = 0

    def __add__(self, other: SimCounts) -> SimCounts:
        return SimCounts(self.cycles + other.cycles, self.windows + other.windows,
                         self.censored + other.censored)

    def as_dict(self) -> dict:
        return {"cycles": self.cycles, "windows": self.windows, "censored_cycles": self.censored}


def cycle_rng(master_seed: int, cell_index: int, cycle_index: int) -> np.random.Generator:
    """Counter-derived stream of one cycle: a pure function of (seed, cell, cycle)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index, cycle_index))
    )


def block_rng(master_seed: int, cell_index: int, block_index: int) -> np.random.Generator:
    """Stream of one block of a cell's cycles: a pure function of (seed, cell, block).

    The key has three words, so it never equals a two-word :func:`cycle_rng` key.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index, block_index, _BLOCK_KEY))
    )


@dataclass(frozen=True)
class CycleOutcomes:
    """Outcomes of a cell's cycles as arrays: inspections, action codes, downtime.

    ``action`` holds indices into :data:`ACTIONS`.
    """

    policy: PolicyParams
    max_inspections: int
    inspections: np.ndarray
    action: np.ndarray
    downtime: np.ndarray

    @property
    def length(self) -> np.ndarray:
        return self.inspections * self.policy.inspection_period

    @property
    def counts(self) -> SimCounts:
        return SimCounts(
            self.inspections.size,
            int(self.inspections.sum()),
            int(np.count_nonzero(self.action == _CENSORED)),
        )


def _first_crossings(
    rng: np.random.Generator,
    alpha: float,
    T: float,
    sim: SimControl,
    L: float,
    cyc: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    born: np.ndarray,
    n: int,
) -> np.ndarray:
    """Earliest time inside the window at which a row of each of ``n`` cycles crosses L.

    Row ``r`` of cycle ``cyc[r]`` goes from ``v0 < L`` at 0 to ``v1 >= L``
    at ``T``; a row born at ``born > 0`` holds level 0 until then. A
    crossing is dated at the first point of the fine grid ``T/substeps`` at
    or above L, as on a full fine path. Each row's gamma bridge is bisected
    on the fine-grid index (Avramidis, L'Ecuyer & Tremblay 2003, "Efficient
    simulation of gamma and variance-gamma processes", WSC): given the
    levels at ``t_lo`` and ``t_hi``, the level at ``t_mid`` takes the
    ``Beta(alpha*(t_mid - max(t_lo, born)), alpha*(t_hi - t_mid))``
    fraction of the increment, none when ``t_mid <= born``. After each
    level, a row whose interval starts at or after its cycle's earliest
    interval end cannot hold that cycle's first crossing and is dropped, so
    at the end only rows in the cycle's earliest fine step remain.
    ``crossing_refinement`` symmetric Beta halvings then localise the
    crossing inside that step. Cycles without rows read ``inf``.
    """
    h = T / sim.substeps
    scale = alpha * h
    at = born / h  # births on the fine-index axis
    lo = np.zeros(v0.size, dtype=np.intp)
    hi = np.full(v0.size, sim.substeps)
    v_lo, v_hi = v0, v1
    shared = cyc.size > 1 and np.bincount(cyc).max() > 1  # else no row can be dropped
    for _ in range((sim.substeps - 1).bit_length()):  # ceil(log2(substeps)) levels
        mid = (lo + hi) >> 1
        a = mid - np.maximum(lo, at)
        grown = a > 0.0  # a width-1 interval has mid == lo and never moves
        frac = rng.beta(np.where(grown, scale * a, 1.0), scale * (hi - mid))
        v_mid = v_lo + (v_hi - v_lo) * (frac * grown)
        up = v_mid >= L
        lo, v_lo = np.where(up, lo, mid), np.where(up, v_lo, v_mid)
        hi, v_hi = np.where(up, mid, hi), np.where(up, v_mid, v_hi)
        if shared:
            first = np.full(n, sim.substeps)
            np.minimum.at(first, cyc, hi)
            keep = lo < first[cyc]
            lo, hi, v_lo, v_hi, cyc, at = (x[keep] for x in (lo, hi, v_lo, v_hi, cyc, at))
    t_hi = h * hi
    if sim.crossing_refinement:
        # a process born inside the crossing step bridges from its arrival (level 0)
        t_lo = h * np.maximum(lo, at)
        # Halving j splits the step by a symmetric Beta(alpha*s, alpha*s)
        # draw, s = width/2**j: all drawn at once.
        steps = np.outer(0.5 ** np.arange(1, sim.crossing_refinement + 1), t_hi - t_lo)
        for frac, step in zip(rng.beta(alpha * steps, alpha * steps), steps):
            v_mid = v_lo + (v_hi - v_lo) * frac
            up = v_mid >= L
            v_hi = np.where(up, v_mid, v_hi)
            v_lo = np.where(up, v_lo, v_mid)
            t_lo = np.where(up, t_lo, t_lo + step)
        t_hi = t_lo + step
    cross = np.full(n, np.inf)
    np.minimum.at(cross, cyc, t_hi)
    return cross


def _simulate_block(
    spec: SystemSpec,
    policy: PolicyParams,
    sim: SimControl,
    n: int,
    rng: np.random.Generator,
) -> CycleOutcomes:
    """Simulate ``n`` renewal cycles together, one inspection window per step.

    The live cycles and their processes are flat arrays: each cycle's shock
    carry, and each process's cycle, level and rate. A step draws the shocks
    and arrivals of every live cycle in one batch, one exact gamma increment
    per process over the window, takes each cycle's top level and decides
    them all at once; only the rows that end at or above L are bridged, to
    date each failed cycle's first crossing (:func:`_first_crossings`).
    Finished cycles leave the arrays. Cycles that never trigger are
    censored at the inspection cap.
    """
    policy.validate_against(spec)
    T = policy.inspection_period
    M = policy.preventive_threshold
    L = spec.failure_threshold
    arrivals = spec.arrivals
    growth = spec.growth
    alpha = growth.shape_rate
    inspections = np.full(n, sim.max_inspections)
    action = np.full(n, _CENSORED, dtype=np.int8)
    downtime = np.zeros(n)
    live = np.arange(n)  # block index of each live cycle
    carry = np.zeros(n)  # its summed shock contribution at the window start
    cyc = np.empty(0, dtype=np.intp)  # live position of each process
    level = np.empty(0)
    rate = np.empty(0)

    for k in range(sim.max_inspections):
        new_cyc, born, carry = simulate_carried_batch(arrivals, T, carry, rng)
        n_old = level.size
        start = level
        level = level + rng.standard_gamma(alpha * T, size=n_old) / rate
        if born.size:
            new_rate = growth.draw_rates(rng, born.size)
            cyc = np.concatenate((cyc, new_cyc))
            level = np.concatenate((level, rng.standard_gamma(alpha * (T - born)) / new_rate))
            rate = np.concatenate((rate, new_rate))
        top = np.zeros(live.size)
        np.maximum.at(top, cyc, level)
        done = top >= M
        if not done.any():
            continue
        failed = top >= L
        if failed.any():
            # paths never decrease, so only rows ending at or above L cross
            rows = np.flatnonzero(level >= L)
            v0 = np.concatenate((start, np.zeros(born.size)))[rows]
            b = np.concatenate((np.zeros(n_old), born))[rows]
            cross = _first_crossings(rng, alpha, T, sim, L, cyc[rows], v0, level[rows], b, live.size)
            downtime[live[failed]] = T - cross[failed]
        finished = live[done]
        inspections[finished] = k + 1
        action[finished] = np.where(failed[done], _CORRECTIVE, _PREVENTIVE)
        keep = ~done
        if not keep.any():
            break
        stay = keep[cyc]
        cyc = (np.cumsum(keep) - 1)[cyc[stay]]
        level = level[stay]
        rate = rate[stay]
        live = live[keep]
        carry = carry[keep]

    return CycleOutcomes(policy, sim.max_inspections, inspections, action, downtime)


def simulate_cycle(
    spec: SystemSpec,
    policy: PolicyParams,
    costs: CostRates,
    sim: SimControl,
    rng: np.random.Generator,
) -> CycleOutcome:
    """Simulate one renewal cycle: the block engine with a block of one.

    A cycle still running at the inspection cap comes back censored.
    """
    out = _simulate_block(spec, policy, sim, 1, rng)
    action = ACTIONS[out.action[0]]
    inspections = int(out.inspections[0])
    downtime = float(out.downtime[0])
    return CycleOutcome(
        length=inspections * policy.inspection_period,
        inspections=inspections,
        action=action,
        downtime=downtime,
        cycle_cost=float(costs.cycle_cost(action, inspections, downtime)),
    )


def _simulate_cell(
    spec: SystemSpec,
    policy: PolicyParams,
    n_cycles: int,
    sim: SimControl,
    master_seed: int,
    cell_index: int,
) -> CycleOutcomes:
    """A cell's cycles in blocks of :data:`BLOCK_SIZE`, each on its own stream."""
    n_cycles = checked_number(n_cycles, "n_cycles", at_least=1, integer=True)
    blocks = [
        _simulate_block(spec, policy, sim, min(BLOCK_SIZE, n_cycles - start),
                        block_rng(master_seed, cell_index, b))
        for b, start in enumerate(range(0, n_cycles, BLOCK_SIZE))
    ]
    return CycleOutcomes(
        policy,
        sim.max_inspections,
        np.concatenate([o.inspections for o in blocks]),
        np.concatenate([o.action for o in blocks]),
        np.concatenate([o.downtime for o in blocks]),
    )


def _renewal_reward(outcomes: CycleOutcomes, costs: CostRates) -> CostRateEstimate:
    """Ratio of summed cycle costs to summed lengths, with its delta-method SE.

    Each cycle is priced at ``costs``, whatever costs it was simulated with.
    A censored cycle has no replacement to price, and dropping it would bias
    the ratio toward short cycles, so any censored cycle raises.
    """
    counts = outcomes.counts
    policy = outcomes.policy
    if counts.censored:
        raise NumericalError(
            f"{counts.censored} of {counts.cycles} cycles censored at max_inspections="
            f"{outcomes.max_inspections} (T={policy.inspection_period:g}, "
            f"M={policy.preventive_threshold:g}); raise the cap"
        )
    n = counts.cycles
    lengths = outcomes.length
    cost = costs.cycle_cost(outcomes.action, outcomes.inspections, outcomes.downtime)
    mean_l = lengths.mean()
    ratio = cost.mean() / mean_l
    if n > 1:
        resid = cost - ratio * lengths
        se = math.sqrt(float(np.dot(resid, resid)) / (n - 1) / n) / mean_l
    else:
        se = math.inf
    n_corr = int(np.count_nonzero(outcomes.action == _CORRECTIVE))
    return CostRateEstimate(
        point=float(ratio),
        std_error=se,
        n_cycles=n,
        preventive_fraction=(n - n_corr) / n,
        corrective_fraction=n_corr / n,
        censored_fraction=0.0,
        mean_cycle_length=float(mean_l),
        n_windows=counts.windows,
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

    The cycles run in blocks of :data:`BLOCK_SIZE` on streams keyed by
    ``(master_seed, cell_index, block)``, so the estimate is a deterministic
    function of those and of ``n_cycles``, regardless of scheduling. A
    censored cycle raises.
    """
    outcomes = _simulate_cell(spec, policy, n_cycles, sim, master_seed, cell_index)
    return _renewal_reward(outcomes, costs)


@dataclass(frozen=True)
class GridSearchResult:
    t_opt: float
    m_opt: float
    cost: float
    surface: list  # of (T, M, CostRateEstimate)

    @property
    def counts(self) -> SimCounts:
        """Cycles and windows simulated over the grid (a successful search censors none)."""
        return sum((SimCounts(est.n_cycles, est.n_windows) for _, _, est in self.surface), SimCounts())


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
            policy = PolicyParams(T, M)
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


@dataclass(frozen=True)
class SweepRow:
    axis1: float
    axis2: float
    cost_opt: float
    t_opt: float
    m_opt: float
    simulated: SimCounts = SimCounts()  # cycles simulated for this row


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
    cycles of stream cell 0 are simulated once, counted on the first row,
    and re-priced for every pair, since costs never enter a path.
    """
    rows: list[SweepRow] = []
    if kind == "parameters":
        for a1 in axis1:
            for a2 in axis2:
                cell_spec = replace(spec, growth=spec.growth.with_axes(a1, a2))
                res = grid_search(cell_spec, costs, t_grid, m_grid, n_cycles, sim, master_seed, threads)
                rows.append(SweepRow(float(a1), float(a2), res.cost, res.t_opt, res.m_opt, res.counts))
    elif kind == "costs":
        if fixed_policy is None:
            raise ValidationError("cost sweep requires a fixed policy")
        fixed_policy.validate_against(spec)
        outcomes = _simulate_cell(spec, fixed_policy, n_cycles, sim, master_seed, 0)
        simulated = outcomes.counts
        for cc in axis1:
            for cp in axis2:
                est = _renewal_reward(outcomes, replace(costs, preventive=cp, corrective=cc))
                rows.append(
                    SweepRow(float(cc), float(cp), est.point, fixed_policy.inspection_period,
                             fixed_policy.preventive_threshold, simulated)
                )
                simulated = SimCounts()
    else:
        raise ValidationError("sweep kind must be 'parameters' or 'costs'")
    return rows
