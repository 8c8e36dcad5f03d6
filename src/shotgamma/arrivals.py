"""Shot-noise Cox process driving the initiation of degradation processes.

Shocks arrive as a homogeneous Poisson process and each shock adds an
exponentially decaying bump to the arrival intensity on top of a constant
base level. Given its shocks the process is a Poisson cluster process,
and every sampler draws it in that form, exactly: base arrivals plus an
independent cluster of decaying rate per shock. One helper,
:func:`_cluster_arrivals`, serves the single-history and the batch
samplers (``lifetime.simulate_first_passage_batch`` draws only the
arrivals that can fail, from the same form thinned by the hitting law).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, store_checked


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
        store_checked(self, "lambda0", at_least=0)
        store_checked(self, "mu", at_least=0)
        store_checked(self, "delta", above=0)

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


def _cluster_arrivals(
    params: ShotNoiseParams,
    horizon: float,
    carry: np.ndarray,
    sh_run: np.ndarray,
    sh_t: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals on ``[0, horizon]`` of ``carry.size`` runs given their shocks, in cluster form.

    Run ``i`` opens with the summed contribution ``carry[i]`` of earlier
    shocks; shock ``j`` of run ``sh_run[j]`` falls at ``sh_t[j]`` (any
    order). Given its shocks the process is a Poisson cluster process
    (Møller 2003, "Shot noise Cox processes", Adv. Appl. Prob. 35):
    ``Poisson(lambda0*h)`` base arrivals at uniform times, and one cluster
    per carry and per shock. A cluster of weight ``w`` opening at ``s`` has
    ``Poisson(w*(1 - exp(-delta*(h-s)))/delta)`` children at ``s`` plus an
    ``Exp(delta)`` age truncated to ``h - s``. Returns ``(run_ids, times,
    end_carry)``, times unsorted, the end carry
    ``carry*exp(-delta*h) + sum exp(-delta*(h - s))`` opening the next
    stretch.
    """
    n_runs = carry.size
    delta = params.delta
    starts = np.concatenate((np.zeros(n_runs), sh_t))
    decay = np.exp(-delta * (horizon - starts))
    span = 1.0 - decay
    weight = np.concatenate((carry, np.ones(sh_t.size)))
    counts = rng.poisson(np.concatenate((np.full(n_runs, params.lambda0 * horizon),
                                         weight * span / delta)))
    source = np.repeat(np.arange(counts.size), counts)
    u = rng.uniform(size=source.size)
    n_base = int(counts[:n_runs].sum())
    parent = source[n_base:] - n_runs
    times = np.empty(source.size)
    times[:n_base] = horizon * u[:n_base]
    # rounding can carry a child past the horizon when delta*(h - s) is large
    times[n_base:] = np.minimum(
        starts[parent] - np.log1p(-u[n_base:] * span[parent]) / delta, horizon
    )
    run_ids = np.concatenate((np.arange(n_runs), np.arange(n_runs), sh_run))[source]
    end_carry = carry * decay[:n_runs] + np.bincount(sh_run, decay[n_runs:], minlength=n_runs)
    return run_ids, times, end_carry


def simulate_arrivals(
    params: ShotNoiseParams,
    shocks: ShockTrajectory,
    horizon: float,
    rng: np.random.Generator,
) -> ArrivalTrajectory:
    """Sample arrival times on ``[0, horizon]`` conditional on the shocks.

    Exact (no discretization): the cluster form of :func:`_cluster_arrivals`
    with no earlier shocks.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    if shocks.horizon < horizon:
        raise ValidationError("shock trajectory horizon shorter than requested horizon")
    inside = shocks.shock_times[shocks.shock_times <= horizon]
    _, times, _ = _cluster_arrivals(
        params, horizon, np.zeros(1), np.zeros(inside.size, dtype=np.intp), inside, rng
    )
    return ArrivalTrajectory(horizon=horizon, arrival_times=np.sort(times))


def simulate_carried_batch(
    params: ShotNoiseParams,
    horizon: float,
    carry: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrivals on ``[0, horizon]`` of ``carry.size`` independent runs in one flat pass.

    Run ``i`` opens with the summed contribution ``carry[i]`` of earlier
    shocks. Each run draws ``Poisson(mu*horizon)`` shocks at uniform times,
    and :func:`_cluster_arrivals` draws its arrivals given them. Returns
    ``(run_ids, times, end_carry)``: times unsorted within a run, and each
    run's summed shock contribution at ``horizon``, which opens its next
    stretch.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    n_sh = rng.poisson(params.mu * horizon, size=carry.size)
    sh_run = np.repeat(np.arange(carry.size), n_sh)
    sh_t = rng.uniform(0.0, horizon, size=sh_run.size)
    return _cluster_arrivals(params, horizon, carry, sh_run, sh_t, rng)


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
