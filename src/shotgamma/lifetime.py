"""System lifetime under shot-noise-initiated gamma degradation.

Arrivals displaced by their hitting times form another Cox process, which
yields closed forms for the expected exceedance intensity, the expected
number of exceedances, and the survival/hazard of the first threshold
exceedance. The survival factorizes as ``C1 * C2``: a base-level factor and
a shock factor, both built from the hitting law of the threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .arrivals import ShotNoiseParams, expected_intensity, simulate_arrival_batch
from .degradation import (
    DeterministicScale,
    GammaModel,
    difference_pdf,
    hitting_cdf,
    random_effect_hitting_cdf,
)
from .errors import ValidationError
from .special import leggauss


@dataclass(frozen=True)
class SystemSpec:
    """Arrival process, growth model and failure threshold of one system."""

    arrivals: ShotNoiseParams
    growth: GammaModel
    failure_threshold: float

    def __post_init__(self):
        if self.failure_threshold <= 0:
            raise ValidationError("failure threshold must be positive")


@dataclass(frozen=True)
class LifetimeCurve:
    """Survival and hazard of the first exceedance on a time grid."""

    times: np.ndarray
    survival: np.ndarray
    hazard: np.ndarray

    def write_csv(self, path, extra_columns: dict | None = None) -> None:
        cols = {"t": self.times, "survival": self.survival, "hazard": self.hazard}
        if extra_columns:
            cols.update(extra_columns)
        names = list(cols)
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*(np.asarray(cols[n], float) for n in names)):
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


class HittingLaw:
    """CDF/pdf of the first time a degradation process reaches a level."""

    def __init__(self, growth: GammaModel, threshold: float):
        if threshold <= 0:
            raise ValidationError("threshold must be positive")
        self.growth = growth
        self.threshold = threshold

    def cdf(self, t) -> np.ndarray:
        spec = self.growth.scale_spec
        if isinstance(spec, DeterministicScale):
            return hitting_cdf(self.growth.shape_rate, spec.beta, self.threshold, t)
        return random_effect_hitting_cdf(self.growth, self.threshold, t)

    def pdf(self, t) -> np.ndarray:
        return difference_pdf(self.cdf, t)


class FirstPassageLaw:
    """Grid-cached survival, hazard and density of the first exceedance.

    All three come from two cumulative integrals of the hitting CDF ``F``:
    ``I(t) = int_0^t F`` and the decayed convolution
    ``q(t) = int_0^t exp(-delta*(t-v)) F(v) dv``, advanced exactly per step
    for piecewise-linear ``F``. Then ``survival = exp(-lambda0*I - mu*J)``
    with ``J(t) = int_0^t (1 - exp(-q))``, and
    ``hazard = lambda0*F + mu*(1 - exp(-q))``.
    """

    def __init__(
        self,
        arrivals: ShotNoiseParams,
        law: HittingLaw,
        t_max: float,
        n_grid: int | None = None,
    ):
        # imported on first use: scipy.interpolate adds about 26 MB to a process
        from scipy.interpolate import PchipInterpolator

        if t_max <= 0:
            raise ValidationError("t_max must be positive")
        self.arrivals = arrivals
        self.law = law
        self.t_max = float(t_max)
        if n_grid is None:
            n_grid = int(np.clip(t_max / 0.005, 4096, 60000))
        ts = np.linspace(0.0, t_max, n_grid + 1)
        h = ts[1] - ts[0]
        F = law.cdf(ts)
        delta = arrivals.delta
        q = _decayed_convolution(F, h, delta)
        G = -np.expm1(-q)
        I = _cumulative_simpson(F, h)
        J = _cumulative_simpson(G, h)
        self.times = ts
        self._c1_interp = PchipInterpolator(ts, arrivals.lambda0 * I)
        self._c2_interp = PchipInterpolator(ts, arrivals.mu * J)
        self._q_interp = PchipInterpolator(ts, q)

    def _check_range(self, t_arr: np.ndarray) -> None:
        if np.any(t_arr < 0) or np.any(t_arr > self.t_max + 1e-9):
            raise ValidationError(f"time outside cached range [0, {self.t_max}]")

    def survival(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, float))
        self._check_range(t_arr)
        tc = np.clip(t_arr, 0.0, self.t_max)
        out = np.exp(-(self._c1_interp(tc) + self._c2_interp(tc)))
        return float(out[0]) if np.isscalar(t) else out

    def factors(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The base-level and shock survival factors, each in (0, 1]."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        self._check_range(t_arr)
        tc = np.clip(t_arr, 0.0, self.t_max)
        c1 = np.exp(-self._c1_interp(tc))
        c2 = np.exp(-self._c2_interp(tc))
        if np.isscalar(t):
            return float(c1[0]), float(c2[0])
        return c1, c2

    def exposures(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``lambda0*I``, ``mu*J`` and ``q`` at ``t`` (see the class docstring)."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        self._check_range(t_arr)
        tc = np.clip(t_arr, 0.0, self.t_max)
        return self._c1_interp(tc), self._c2_interp(tc), self._q_interp(tc)

    def hazard(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, float))
        self._check_range(t_arr)
        q = self._q_interp(np.clip(t_arr, 0.0, self.t_max))
        out = self.arrivals.lambda0 * self.law.cdf(t_arr) - self.arrivals.mu * np.expm1(-q)
        return float(out[0]) if np.isscalar(t) else out

    def hazard_derivative(self, t) -> np.ndarray:
        """Closed-form hazard slope; non-negative for every parameter set."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        self._check_range(t_arr)
        t_pos = np.maximum(t_arr, 1e-12)
        q = self._q_interp(np.clip(t_arr, 0.0, self.t_max))
        F = self.law.cdf(t_arr)
        f = self.law.pdf(t_pos)
        # d/dt of the decayed convolution collapses to F - delta*q.
        out = self.arrivals.lambda0 * f + self.arrivals.mu * np.exp(-q) * (
            F - self.arrivals.delta * q
        )
        return float(out[0]) if np.isscalar(t) else out

    def pdf(self, t) -> np.ndarray:
        """Density of the first exceedance: hazard times survival."""
        return self.hazard(t) * self.survival(t)

    def curve(self, times) -> LifetimeCurve:
        times = np.asarray(times, float)
        return LifetimeCurve(
            times=times, survival=self.survival(times), hazard=self.hazard(times)
        )


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral from 0 along the last axis."""
    from scipy.integrate import cumulative_simpson

    return cumulative_simpson(y, dx=h, initial=0.0)


def _decayed_convolution(f: np.ndarray, h: float, delta: float) -> np.ndarray:
    """``int_0^t exp(-delta*(t-v)) f(v) dv`` on a uniform grid (the last axis).

    Advanced exactly per step for piecewise-linear ``f``; the recursion is a
    first-order IIR filter.
    """
    from scipy.signal import lfilter

    decay = np.exp(-delta * h)
    w0 = (1.0 - decay) / delta
    w1 = h / delta - w0 / delta
    slopes = np.diff(f) / h
    drive = f[..., :-1] * w0 + slopes * w1
    out = np.empty_like(f)
    out[..., 0] = 0.0
    out[..., 1:] = lfilter([1.0], [1.0, -decay], drive)
    return out


@functools.lru_cache(maxsize=64)
def _cached_first_passage(
    arrivals: ShotNoiseParams, growth: GammaModel, threshold: float, t_max: float
) -> FirstPassageLaw:
    return FirstPassageLaw(arrivals, HittingLaw(growth, threshold), t_max)


def first_passage_law(spec: SystemSpec, threshold: float, t_max: float) -> FirstPassageLaw:
    """Cached law of the first time any process exceeds ``threshold``."""
    return _cached_first_passage(spec.arrivals, spec.growth, float(threshold), float(t_max))


def _law_call(method: str, spec: SystemSpec, threshold: float, t, t_max: float | None):
    # The law's grid reaches t_max, by default a quarter past the latest time.
    t_arr = np.atleast_1d(np.asarray(t, float))
    cap = float(t_max) if t_max is not None else max(1.0, 1.25 * float(t_arr.max()))
    out = getattr(first_passage_law(spec, threshold, cap), method)(t_arr)
    return float(out[0]) if np.isscalar(t) else out


def first_passage_survival(spec: SystemSpec, threshold: float, t, t_max: float | None = None):
    """Survival of the first exceedance of ``threshold``; 1 at t = 0."""
    return _law_call("survival", spec, threshold, t, t_max)


def first_passage_hazard(spec: SystemSpec, threshold: float, t, t_max: float | None = None):
    return _law_call("hazard", spec, threshold, t, t_max)


def hazard_derivative(spec: SystemSpec, threshold: float, t, t_max: float | None = None):
    return _law_call("hazard_derivative", spec, threshold, t, t_max)


def hazard_limit(params: ShotNoiseParams) -> float:
    """Large-time hazard of the first exceedance: ``lambda0 + mu*(1 - exp(-1/delta))``."""
    return params.lambda0 + params.mu * (1.0 - np.exp(-1.0 / params.delta))


def displaced_expected_intensity(spec: SystemSpec, threshold: float, t) -> float:
    """Mean intensity of the exceedance process at time ``t``.

    ``lambda0 * F(t) + mu * int_0^t H(u) f(t-u) du`` with ``H`` the
    integrated shock kernel; tends to the stationary arrival intensity.
    """
    if t < 0:
        raise ValidationError("time must be non-negative")
    law = HittingLaw(spec.growth, threshold)
    lam0_part = spec.arrivals.lambda0 * float(law.cdf(t))
    if t == 0 or spec.arrivals.mu == 0:
        return lam0_part
    delta = spec.arrivals.delta
    nodes, weights = leggauss(64)
    u = 0.5 * t * (nodes + 1.0)
    w = 0.5 * t * weights
    H = (1.0 - np.exp(-delta * u)) / delta
    f_vals = law.pdf(np.maximum(t - u, 1e-12))
    return lam0_part + spec.arrivals.mu * float(np.sum(w * H * f_vals))


def expected_exceedances(spec: SystemSpec, threshold: float, t) -> float:
    """Expected number of processes beyond ``threshold`` by time ``t``.

    The mean arrival intensity convolved with the hitting CDF.
    """
    if t < 0:
        raise ValidationError("time must be non-negative")
    if t == 0:
        return 0.0
    law = HittingLaw(spec.growth, threshold)
    nodes, weights = leggauss(64)
    u = 0.5 * t * (nodes + 1.0)
    w = 0.5 * t * weights
    vals = expected_intensity(spec.arrivals, u) * law.cdf(t - u)
    return float(np.sum(w * vals))


class HittingTimeSampler:
    """Inverse-transform sampler of hitting times from the exact CDF.

    Bracketed vectorized bisection tightened by secant steps, to 1e-10 in
    probability; path discretization never enters lifetime studies.

    With a ``limit`` (scalar or one per draw) only the times that can be at
    most their limit are inverted; a time that provably exceeds it reads
    ``+inf``. The draws are the same with or without a limit, and every
    inverted time is bit-identical to the unscreened one.
    """

    def __init__(self, growth: GammaModel, threshold: float):
        self.growth = growth
        self.threshold = threshold

    def sample(self, rng: np.random.Generator, size: int, limit=None) -> np.ndarray:
        rates = self.growth.draw_rates(rng, size)
        u = rng.uniform(size=size)
        return self.invert(u, rates, limit)

    def invert(self, u: np.ndarray, rates: np.ndarray, limit=None) -> np.ndarray:
        x = rates * self.threshold
        if np.ptp(x) == 0.0:
            return self._invert_common(u, float(x.flat[0]), limit)
        return self._invert_bisect(u, x, limit)

    def _invert_common(self, u: np.ndarray, x: float, limit) -> np.ndarray:
        # Shared CDF: bracket on a fine precomputed grid, one full regula
        # falsi sweep, then masked sweeps for whatever points remain.
        alpha = self.growth.shape_rate
        s_hi = x + 50.0 * np.sqrt(x) + 60.0
        s_grid = np.concatenate(
            [np.geomspace(max(x, 1.0) * 1e-3, max(x / 3.0, 1e-2), 512),
             np.linspace(max(x / 3.0, 1e-2) + 1e-9, s_hi, 16384)]
        )
        f_grid = sp.gammaincc(s_grid, x)
        rising = np.concatenate(([True], np.diff(f_grid) > 0))
        s_grid, f_grid = s_grid[rising], f_grid[rising]
        out = np.full(u.shape, np.inf)
        rows = slice(None)
        if limit is not None:
            # Regula falsi never leaves its bracket's lower end (0 below the
            # grid), so a lower end past alpha*limit proves the time exceeds
            # it. Uniforms above f_grid[j], s_grid[j] being the first grid
            # point past the largest alpha*limit, have their lower end at or
            # past it and need no search (unless j is the clipped last bracket).
            s_limit = alpha * np.broadcast_to(np.asarray(limit, float), u.shape)
            j = np.searchsorted(s_grid, s_limit.max(), side="right")
            rows = np.flatnonzero(u <= f_grid[j]) if j < len(f_grid) - 1 else np.arange(u.size)
            found = np.searchsorted(f_grid, u[rows])
            idx = np.clip(found, 1, len(f_grid) - 1)
            lower = np.where(found > 0, s_grid[idx - 1], 0.0)
            reach = lower <= s_limit[rows]
            rows, u, idx = rows[reach], u[rows[reach]], idx[reach]
        else:
            idx = np.clip(np.searchsorted(f_grid, u), 1, len(f_grid) - 1)
        lo, hi = s_grid[idx - 1], s_grid[idx]
        f_lo, f_hi = f_grid[idx - 1], f_grid[idx]
        s = lo + (u - f_lo) / np.maximum(f_hi - f_lo, 1e-300) * (hi - lo)
        f_s = sp.gammaincc(s, x)
        pending = np.flatnonzero(np.abs(f_s - u) >= 1e-10)
        for _ in range(30):
            if pending.size == 0:
                break
            err = f_s[pending] - u[pending]
            below = err < 0
            lo[pending] = np.where(below, s[pending], lo[pending])
            f_lo[pending] = np.where(below, f_s[pending], f_lo[pending])
            hi[pending] = np.where(below, hi[pending], s[pending])
            f_hi[pending] = np.where(below, f_hi[pending], f_s[pending])
            s[pending] = lo[pending] + (u[pending] - f_lo[pending]) / np.maximum(
                f_hi[pending] - f_lo[pending], 1e-300
            ) * (hi[pending] - lo[pending])
            f_s[pending] = sp.gammaincc(s[pending], x)
            pending = pending[np.abs(f_s[pending] - u[pending]) >= 1e-10]
        out[rows] = s / alpha
        return out

    def _invert_bisect(self, u: np.ndarray, x: np.ndarray, limit) -> np.ndarray:
        alpha = self.growth.shape_rate

        def cdf_at(t, x):
            return sp.gammaincc(alpha * np.maximum(t, 1e-300), x)

        out = np.full(u.shape, np.inf)
        rows = slice(None)
        if limit is not None:
            # A uniform above F(limit), less the inversion's tolerance in
            # probability, has its time beyond the limit; F is largest at the
            # largest limit and the smallest x.
            limit = np.broadcast_to(np.asarray(limit, float), u.shape)
            rows = np.flatnonzero(u <= cdf_at(limit.max(), x.min()) + 1e-10)
            rows = rows[u[rows] <= cdf_at(limit[rows], x[rows]) + 1e-10]
            u, x = u[rows], x[rows]
        hi = (x + 50.0 * np.sqrt(x) + 60.0) / alpha
        lo = np.zeros_like(u)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            below = cdf_at(mid, x) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[rows] = 0.5 * (lo + hi)
        return out


def simulate_first_passage_batch(
    spec: SystemSpec, threshold: float, horizon: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """First exceedance times for ``n`` independent systems; NaN when censored.

    Arrivals beyond the horizon cannot produce an exceedance inside it, so
    simulating arrivals on ``[0, horizon]`` is exact. Only the hitting times
    that can end inside the horizon are inverted; the screen's limit carries
    a slack of 1e-12 horizons so that rounding ``arrival + time`` cannot bring
    a screened time back inside.
    """
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    sampler = HittingTimeSampler(spec.growth, threshold)
    run_ids, arrivals_t = simulate_arrival_batch(spec.arrivals, horizon, n, rng)
    out = np.full(n, np.nan)
    if arrivals_t.size:
        limit = (horizon - arrivals_t) + 1e-12 * horizon
        sigma = sampler.sample(rng, arrivals_t.size, limit=limit)
        hit = np.flatnonzero(np.isfinite(sigma))
        first = np.full(n, np.inf)
        np.minimum.at(first, run_ids[hit], arrivals_t[hit] + sigma[hit])
        inside = first <= horizon
        out[inside] = first[inside]
    return out


def simulate_first_passage(
    spec: SystemSpec, threshold: float, horizon: float, rng: np.random.Generator
) -> float | None:
    """One first-exceedance time, or ``None`` if censored at the horizon."""
    t = simulate_first_passage_batch(spec, threshold, horizon, 1, rng)[0]
    return None if np.isnan(t) else float(t)
