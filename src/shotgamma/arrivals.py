"""Shot-noise Cox process driving the initiation of degradation processes.

Shocks arrive as a homogeneous Poisson process and each shock adds an
exponentially decaying bump to the arrival intensity on top of a constant
base level. Degradation-process arrival times are sampled exactly by
thinning against a piecewise-constant dominating rate; one kernel,
:func:`thin_segments`, serves every sampler of the arrival process itself
(``lifetime.simulate_first_passage_batch`` draws only the arrivals that
can fail, from the process's cluster form thinned by the hitting law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ShotNoiseParams:
    """Parameters of the stochastic arrival intensity.

    ``lambda0`` is the constant Poisson base level, ``mu`` the shock rate and
    ``delta`` the exponential decay rate of each shock's contribution. With
    ``mu = 0`` the process degenerates to a homogeneous Poisson process of
    rate ``lambda0``.
    """

    lambda0: float
    mu: float
    delta: float

    def __post_init__(self):
        if self.lambda0 < 0:
            raise ValidationError("lambda0 must be non-negative")
        if self.mu < 0:
            raise ValidationError("mu must be non-negative")
        if self.delta <= 0:
            raise ValidationError("delta must be positive")

    @property
    def stationary_intensity(self) -> float:
        """Long-run mean of the stochastic intensity."""
        return self.lambda0 + self.mu / self.delta


def _validate_times(times: np.ndarray, horizon: float, what: str) -> np.ndarray:
    times = np.asarray(times, float)
    if times.ndim != 1:
        raise ValidationError(f"{what} must be a 1-d array of times")
    if times.size and (times[0] < 0 or times[-1] > horizon):
        raise ValidationError(f"{what} must lie within [0, horizon]")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValidationError(f"{what} must be strictly increasing")
    return times


@dataclass(frozen=True)
class ShockTrajectory:
    """Sorted shock times on ``[0, horizon]``."""

    horizon: float
    shock_times: np.ndarray

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        object.__setattr__(
            self, "shock_times", _validate_times(self.shock_times, self.horizon, "shock times")
        )


@dataclass(frozen=True)
class ArrivalTrajectory:
    """Sorted degradation-process arrival times on ``[0, horizon]``."""

    horizon: float
    arrival_times: np.ndarray

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        object.__setattr__(
            self,
            "arrival_times",
            _validate_times(self.arrival_times, self.horizon, "arrival times"),
        )


def intensity_at(params: ShotNoiseParams, shocks: ShockTrajectory, s) -> np.ndarray:
    """Stochastic arrival intensity at time(s) ``s`` given a shock history.

    Right-continuous with a unit jump at every shock time; never below the
    base level.
    """
    s_arr = np.asarray(s, float)
    if np.any(s_arr < 0) or np.any(s_arr > shocks.horizon):
        raise ValidationError("evaluation time outside the shock trajectory horizon")
    lags = s_arr[..., None] - shocks.shock_times
    contrib = np.where(lags >= 0, np.exp(-params.delta * np.where(lags >= 0, lags, 0.0)), 0.0)
    out = params.lambda0 + contrib.sum(axis=-1)
    return float(out) if np.isscalar(s) else out


def expected_intensity(params: ShotNoiseParams, s) -> np.ndarray:
    """Mean of the stochastic intensity at time(s) ``s``.

    Rises monotonically from the base level to ``lambda0 + mu/delta``.
    """
    s_arr = np.asarray(s, float)
    if np.any(s_arr < 0):
        raise ValidationError("time must be non-negative")
    out = params.lambda0 + params.mu / params.delta * (-np.expm1(-params.delta * s_arr))
    return float(out) if np.isscalar(s) else out


def expected_num_arrivals(params: ShotNoiseParams, s) -> np.ndarray:
    """Expected number of degradation-process arrivals by time(s) ``s``.

    Time integral of :func:`expected_intensity`:
    ``lambda0*s + mu*s/delta + mu/delta**2 * (exp(-delta*s) - 1)``.
    """
    s_arr = np.asarray(s, float)
    if np.any(s_arr < 0):
        raise ValidationError("time must be non-negative")
    d = params.delta
    out = params.lambda0 * s_arr + params.mu * s_arr / d + params.mu / d**2 * np.expm1(-d * s_arr)
    return float(out) if np.isscalar(s) else out


def simulate_shocks(
    params: ShotNoiseParams, horizon: float, rng: np.random.Generator
) -> ShockTrajectory:
    """Sample the homogeneous Poisson shock process on ``[0, horizon]``."""
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    n = rng.poisson(params.mu * horizon)
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    return ShockTrajectory(horizon=horizon, shock_times=times)


def thin_segments(
    params: ShotNoiseParams,
    left: np.ndarray,
    length: np.ndarray,
    carry: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Thinning on inter-shock segments against a piecewise-constant bound.

    Segment ``j`` starts at ``left[j]``, lasts ``length[j]`` and opens with
    the summed shock contribution ``carry[j]``. Its dominating rate is the
    intensity at the left edge frozen there (the decaying kernel only falls
    in between), which the sampler asserts on every proposal. Returns the
    segment index and time of each accepted point, in proposal order.
    """
    bounds = params.lambda0 + carry
    counts = rng.poisson(bounds * length)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=int), np.empty(0)
    seg = np.repeat(np.arange(left.size), counts)
    u = rng.uniform(size=2 * total)
    start = left[seg]
    proposals = start + u[:total] * length[seg]
    lam = params.lambda0 + carry[seg] * np.exp(-params.delta * (proposals - start))
    bound_at = bounds[seg]
    if np.count_nonzero(lam > bound_at * (1 + 1e-12)):
        raise AssertionError("thinning dominating bound violated")
    keep = u[total:] * bound_at <= lam
    return seg[keep], proposals[keep]


def thin_history(
    params: ShotNoiseParams,
    shock_times: np.ndarray,
    stop: float,
    carry: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Arrival times on ``(0, stop]`` of one shock history, unsorted.

    ``carry`` is the summed shock contribution at 0 from earlier shocks;
    ``shock_times`` are the sorted shocks inside ``(0, stop]``, each opening
    a new segment. No segment's carry may exceed ``carry`` plus the number
    of shocks before it.
    """
    delta = params.delta
    shocks = shock_times.tolist()  # the scalar loop runs faster on Python floats
    seg_carry = [carry]
    c, prev = carry, 0.0
    for j, t in enumerate(shocks, 1):
        c = c * math.exp(-delta * (t - prev)) + 1.0
        if c > (carry + j) * (1 + 1e-12):
            raise AssertionError("thinning dominating bound violated")
        seg_carry.append(c)
        prev = t
    edges = np.array([0.0, *shocks, stop])
    return thin_segments(params, edges[:-1], edges[1:] - edges[:-1], np.array(seg_carry), rng)[1]


def simulate_arrivals(
    params: ShotNoiseParams,
    shocks: ShockTrajectory,
    horizon: float,
    rng: np.random.Generator,
) -> ArrivalTrajectory:
    """Sample arrival times on ``[0, horizon]`` conditional on the shocks.

    Exact (no discretization): Ogata-style thinning with the dominating rate
    refreshed at each shock.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    if shocks.horizon < horizon:
        raise ValidationError("shock trajectory horizon shorter than requested horizon")
    inside = shocks.shock_times[shocks.shock_times <= horizon]
    times = np.sort(thin_history(params, inside, horizon, 0.0, rng))
    return ArrivalTrajectory(horizon=horizon, arrival_times=times)


def sort_within_runs(runs: np.ndarray, times: np.ndarray, horizon: float) -> np.ndarray:
    """``times`` ordered by run, then by time: exactly ``times[np.lexsort((times, runs))]``.

    ``times`` lie in ``[0, horizon]``. One sort of the offset key
    ``run*(horizon+1) + time`` orders them; rounding of the key can merge
    close times out of order, so the gathered runs and times are checked to
    rise, and ``lexsort`` takes over when they do not.
    """
    order = np.argsort(runs * (horizon + 1.0) + times)
    sorted_runs = runs[order]
    out = times[order]
    run_step = sorted_runs[1:] - sorted_runs[:-1]
    if (run_step < 0).any() or ((run_step == 0) & (out[1:] < out[:-1])).any():
        out = times[np.lexsort((times, runs))]
    return out


def simulate_carried_batch(
    params: ShotNoiseParams,
    horizon: float,
    carry: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals on ``(0, horizon]`` of ``carry.size`` independent runs in one flat pass.

    Run ``i`` opens with the summed contribution ``carry[i]`` of earlier
    shocks. Returns ``(run_ids, times, end_carry)``: times unsorted within a
    run, and each run's summed shock contribution at ``horizon``, which
    opens its next stretch. The carries follow the recursion of
    :func:`thin_history`, advanced by shock rank for all runs at once, under
    the same bound, and every run's segments go through one
    :func:`thin_segments` call.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    n_runs = carry.size
    delta = params.delta
    n_sh = rng.poisson(params.mu * horizon, size=n_runs)
    total_sh = int(n_sh.sum())
    sh_run = np.repeat(np.arange(n_runs), n_sh)
    sh_t = sort_within_runs(sh_run, rng.uniform(0.0, horizon, size=total_sh), horizon)
    # Carry just after each shock: c_j = c_{j-1} * exp(-delta * gap) + 1,
    # with c_0 the run's opening carry and the first gap measured from 0.
    first_at = n_sh.cumsum() - n_sh
    has_sh = n_sh > 0
    sh_carry = np.ones(total_sh)
    opening = first_at[has_sh]
    sh_carry[opening] += carry[has_sh] * np.exp(-delta * sh_t[opening])
    decay = np.exp(-delta * (sh_t[1:] - sh_t[:-1]))
    # Runs sorted by shock count, so those with more than r shocks, n_over[r]
    # of them, form a prefix; first holds each run's first shock position.
    by_count = np.argsort(-n_sh, kind="stable")
    first = first_at[by_count]
    n_over = np.searchsorted(-n_sh[by_count], -np.arange(int(n_sh.max(initial=0))), side="left")
    for rank in range(1, n_over.size):
        idx = first[: n_over[rank]] + rank
        sh_carry[idx] += sh_carry[idx - 1] * decay[idx - 1]
    # c_j <= c_0 + j, the dominating bound of every segment of the run
    rank_of = np.arange(total_sh) - first_at[sh_run]
    if np.count_nonzero(sh_carry > (carry[sh_run] + rank_of + 1) * (1 + 1e-12)):
        raise AssertionError("thinning dominating bound violated")
    # One segment per (run, inter-shock gap): N_i + 1 segments per run, the
    # first opening at 0 with the run's carry, the last ending at the horizon.
    run_first = first_at + np.arange(n_runs)
    at_shock = np.arange(total_sh) + sh_run + 1
    left = np.zeros(total_sh + n_runs)
    left[at_shock] = sh_t
    right = np.full(total_sh + n_runs, float(horizon))
    right[at_shock - 1] = sh_t
    seg_carry = np.zeros(total_sh + n_runs)
    seg_carry[run_first] = carry
    seg_carry[at_shock] = sh_carry
    seg, times = thin_segments(params, left, right - left, seg_carry, rng)
    last = run_first + n_sh
    end_carry = seg_carry[last] * np.exp(-delta * (horizon - left[last]))
    return np.repeat(np.arange(n_runs), n_sh + 1)[seg], times, end_carry


def simulate_arrival_batch(
    params: ShotNoiseParams,
    horizon: float,
    n_runs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times for many independent trajectories from time 0.

    Returns ``(run_ids, times)`` with times unsorted within a run: the runs
    of :func:`simulate_carried_batch` opened with no earlier shocks.
    """
    run_ids, times, _ = simulate_carried_batch(params, horizon, np.zeros(n_runs), rng)
    return run_ids, times


def write_trajectory_csv(path, times: np.ndarray) -> None:
    """One time per row under a ``time`` header."""
    with open(path, "w") as fh:
        fh.write("time\n")
        for t in np.asarray(times, float):
            fh.write(f"{t:.12g}\n")
