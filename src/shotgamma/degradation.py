"""Gamma-process growth: increments, hitting-time laws and random effects.

A degradation path grows with independent ``Gamma(shape_rate * dt, rate)``
increments. The module provides the per-process rate draw, the first
hitting-time law of a level, the survival law of the gap between the
crossings of two levels (via the overshoot distribution at the lower
level), and the uniform-inverse-scale random-effects model with its
moments, density and likelihood.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import special as sp

from .errors import NumericalError, ValidationError
from .special import gamma_pdf, leggauss, log_gamma_diff


# ---------------------------------------------------------------------------
# Model types


@dataclass(frozen=True)
class DeterministicScale:
    """A single known rate parameter shared by every degradation process."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")


@dataclass(frozen=True)
class UniformInverseScale:
    """Process-specific heterogeneity: the inverse rate is uniform on (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < self.b < np.inf):
            raise ValidationError("uniform inverse scale requires 0 < a < b < inf")


ScaleSpec = DeterministicScale | UniformInverseScale


@dataclass(frozen=True)
class GammaModel:
    """Shape rate plus a scale specification (deterministic or random)."""

    shape_rate: float
    scale_spec: ScaleSpec

    def __post_init__(self):
        if self.shape_rate <= 0:
            raise ValidationError("shape_rate must be positive")
        if not isinstance(self.scale_spec, (DeterministicScale, UniformInverseScale)):
            raise ValidationError("scale_spec must be DeterministicScale or UniformInverseScale")

    @classmethod
    def deterministic(cls, shape_rate: float, beta: float) -> "GammaModel":
        return cls(shape_rate, DeterministicScale(beta))

    @classmethod
    def uniform_inverse_scale(cls, shape_rate: float, a: float, b: float) -> "GammaModel":
        return cls(shape_rate, UniformInverseScale(a, b))

    @property
    def has_random_effects(self) -> bool:
        return isinstance(self.scale_spec, UniformInverseScale)

    def draw_rates(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Process-specific rates, drawn once per process and held fixed.

        A deterministic scale draws nothing; a uniform inverse scale draws
        the inverse rate.
        """
        spec = self.scale_spec
        if isinstance(spec, DeterministicScale):
            return np.full(size, spec.beta)
        return 1.0 / rng.uniform(spec.a, spec.b, size)


# ---------------------------------------------------------------------------
# Hitting-time laws (deterministic scale)


def hitting_cdf(shape_rate: float, rate: float, threshold: float, t) -> np.ndarray:
    """Distribution function of the first time a path reaches ``threshold``.

    Identical to the probability that the level at ``t`` already exceeds the
    threshold, which is the regularized upper gamma ratio evaluated at
    ``(shape_rate * t, rate * threshold)``.
    """
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    if rate <= 0 or shape_rate <= 0:
        raise ValidationError("gamma parameters must be positive")
    t_arr = np.asarray(t, float)
    if np.any(t_arr < 0):
        raise ValidationError("time must be non-negative")
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    out[pos] = sp.gammaincc(shape_rate * t_arr[pos], rate * threshold)
    return float(out) if np.isscalar(t) else out


def difference_pdf(cdf, t) -> np.ndarray:
    """Density by an adaptive-step central difference of a hitting CDF.

    The shape-parameter derivative of the regularized incomplete gamma has
    no elementary form, so a difference quotient is used; a step that loses
    every significant digit raises ``NumericalError``. Within 1e-12 of 1 the
    CDF moves by less than its rounding over a step while the density (the
    hazard times ``1 - F``) is negligible, so a zero quotient there is kept.
    """
    t_arr = np.atleast_1d(np.asarray(t, float))
    if np.any(t_arr <= 0):
        raise ValidationError("density requires t > 0")
    h = np.maximum(1e-5, 1e-4 * t_arr)
    lo = np.maximum(t_arr - h, 0.0)
    hi = t_arr + h
    f_hi = cdf(hi)
    f_lo = cdf(lo)
    out = (f_hi - f_lo) / (hi - lo)
    interior = (f_lo > 1e-14) & (f_lo < 1.0 - 1e-12)
    if np.any(interior & (f_hi == f_lo)):
        raise NumericalError("hitting density difference quotient lost all significant digits")
    out = np.maximum(out, 0.0)
    return float(out[0]) if np.isscalar(t) else out


def hitting_pdf(shape_rate: float, rate: float, threshold: float, t) -> np.ndarray:
    """Density of the first hitting time, by :func:`difference_pdf` of :func:`hitting_cdf`."""
    return difference_pdf(lambda x: hitting_cdf(shape_rate, rate, threshold, x), t)


# ---------------------------------------------------------------------------
# Gap between the crossings of two levels


def _volterra_nu_log(log_c: np.ndarray) -> np.ndarray:
    """``integral of exp(w*log_c) / Gamma(w) over w in (0, inf)``, vectorized."""
    log_c = np.atleast_1d(np.asarray(log_c, float))
    nodes, weights = leggauss(64)
    w_max = max(60.0, float(np.exp(min(log_c.max(), 50.0))) * 1.6 + 40.0)
    edges = np.array([0.0, 1e-3, 1e-2, 1e-1, 1.0, 4.0, 16.0])
    edges = np.append(edges[edges < w_max], w_max)
    w = 0.5 * (edges[:-1, None] * (1 - nodes) + edges[1:, None] * (1 + nodes))
    half = 0.5 * (edges[1:] - edges[:-1])
    w_flat = w.ravel()
    wt_flat = (half[:, None] * weights).ravel()
    expo = np.outer(log_c, w_flat) - sp.gammaln(w_flat)
    np.clip(expo, -745.0, None, out=expo)
    return np.exp(expo) @ wt_flat


def _potential_density(shape_rate: float, rate: float, z: np.ndarray) -> np.ndarray:
    """Occupation density of the subordinator: expected time per unit level."""
    z = np.asarray(z, float)
    c = rate * z
    return np.exp(-c) * _volterra_nu_log(np.log(c)) / (shape_rate * z)


def _potential_nodes(shape_rate: float, rate: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and density-times-weight products on (0, upper).

    Near 0 the occupation density decays only like ``1/(z*log(z)**2)``, so
    that stretch is integrated under the substitution ``z = exp(-1/u)/rate``
    which makes the integrand bounded; the combined weights are assembled in
    log space because ``z`` itself underflows there. Near ``upper`` geometric
    panels absorb a possible logarithmic factor from the caller's kernel.
    """
    nodes, weights = leggauss(64)
    z0 = min(0.5 * upper, 0.2 / rate)
    u0 = 1.0 / np.log(1.0 / (rate * z0))
    u = 0.5 * u0 * (nodes + 1.0)
    z_sing = np.exp(np.maximum(-1.0 / u, -700.0)) / rate
    # weight * U(z) with U(z)*dz/du = exp(-rate*z) * nu(rate*z) / (shape_rate*u^2)
    uw_sing = (
        0.5 * u0 * weights
        * np.exp(-rate * z_sing)
        * _volterra_nu_log(-1.0 / u)
        / (shape_rate * u**2)
    )
    edges = [z0]
    gap = upper - z0
    for frac in (0.5, 0.8, 0.95, 0.99, 0.999, 1.0):
        edges.append(z0 + gap * frac)
    z_mid, uw_mid = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        z_nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        z_mid.append(z_nodes)
        uw_mid.append(0.5 * (hi - lo) * weights * _potential_density(shape_rate, rate, z_nodes))
    z_nodes = np.concatenate([z_sing] + z_mid)
    uw_nodes = np.concatenate([uw_sing] + uw_mid)
    return z_nodes, uw_nodes


class DeltaHittingLaw:
    """Law of ``sigma_L - sigma_M``: the time between crossing M and L.

    The lower level is always crossed by a jump, so the gap has an atom at
    zero (the same jump may clear both levels). For positive times the
    survival is obtained by integrating the overshoot tail at M against the
    fresh hitting law of the remaining distance:

        survival(t) = F(L - M; t) - integral over y in (M, L) of
                      overshoot_tail(y) * density(L - y; t) dy

    where ``F(.; t)`` and ``density(.; t)`` are the CDF and density of a
    ``Gamma(shape_rate * t, rate)`` level increment.
    """

    def __init__(self, shape_rate: float, rate: float, lower: float, upper: float):
        if not 0 < lower < upper:
            raise ValidationError("levels must satisfy 0 < M < L")
        self.shape_rate = shape_rate
        self.rate = rate
        self.lower = lower
        self.upper = upper
        z_nodes, uw_nodes = _potential_nodes(shape_rate, rate, lower)
        self._z_nodes = z_nodes
        self._z_uw = uw_nodes
        norm = self._overshoot_tail(np.array([lower]))[0]
        if abs(norm - 1.0) > 5e-4:
            raise NumericalError(
                f"overshoot tail normalization off by {norm - 1.0:.2e} (z axis)"
            )
        self._norm = norm
        # Panels refined toward M, where the overshoot density has a
        # logarithmic singularity (the tail itself stays continuous).
        gap = upper - lower
        fracs = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0])
        gl_nodes, gl_weights = leggauss(64)
        nodes, weights = [], []
        for flo, fhi in zip(fracs[:-1], fracs[1:]):
            lo, hi = lower + gap * flo, lower + gap * fhi
            nodes.append(0.5 * (hi - lo) * gl_nodes + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * gl_weights)
        self._y_nodes = np.concatenate(nodes)
        self._y_weights = np.concatenate(weights)
        self._y_tail = self._overshoot_tail(self._y_nodes) / norm
        self._tail_at_upper = float(self._overshoot_tail(np.array([upper]))[0] / norm)
        from scipy.interpolate import PchipInterpolator  # lazy, as in lifetime

        y_interp = np.unique(np.concatenate([self._y_nodes, [lower, upper]]))
        self._tail_interp = PchipInterpolator(
            y_interp, self._overshoot_tail(y_interp) / norm
        )

    def _overshoot_tail(self, y: np.ndarray) -> np.ndarray:
        # P(level at the M-crossing > y) via the jump-measure tail E1.
        args = self.rate * (y[:, None] - self._z_nodes)
        return self.shape_rate * (sp.exp1(args) @ self._z_uw)

    def overshoot_survival(self, y) -> np.ndarray:
        """Tail of the level reached at the moment M is first exceeded."""
        y_arr = np.atleast_1d(np.asarray(y, float))
        if np.any(y_arr < self.lower):
            raise ValidationError("overshoot level below M")
        out = np.where(
            y_arr <= self.upper,
            self._tail_interp(np.minimum(y_arr, self.upper)),
            self._overshoot_tail(y_arr) / self._norm,
        )
        return float(out[0]) if np.isscalar(y) else out

    @property
    def atom_at_zero(self) -> float:
        """Probability that one jump clears both levels."""
        return self._tail_at_upper

    def survival(self, t) -> np.ndarray:
        """P(gap > t); equals 1 at t = 0 by convention for this non-negative variable."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        if np.any(t_arr < 0):
            raise ValidationError("time must be non-negative")
        out = np.ones_like(t_arr)
        pos = t_arr > 0
        if np.any(pos):
            shapes = self.shape_rate * t_arr[pos]
            head = sp.gammainc(shapes, self.rate * (self.upper - self.lower))
            # The tail value at the upper level is split off analytically so
            # the remaining integrand vanishes there; otherwise the density's
            # concentration at small times escapes any fixed node set.
            dens = gamma_pdf(
                shapes[:, None], self.rate, self.upper - self._y_nodes[None, :]
            )
            excess = dens @ (self._y_weights * (self._y_tail - self._tail_at_upper))
            out[pos] = (1.0 - self._tail_at_upper) * head - excess
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if np.isscalar(t) else out

    def cdf(self, t) -> np.ndarray:
        return 1.0 - self.survival(t)


@functools.lru_cache(maxsize=32)
def _delta_law(shape_rate: float, rate: float, lower: float, upper: float) -> DeltaHittingLaw:
    return DeltaHittingLaw(shape_rate, rate, lower, upper)


def delta_hitting_survival(
    shape_rate: float, rate: float, lower: float, upper: float, t
) -> np.ndarray:
    """Survival function of the time between first crossing M and first crossing L."""
    return _delta_law(shape_rate, rate, lower, upper).survival(t)


# ---------------------------------------------------------------------------
# Random effects


def _require_uniform(model: GammaModel) -> UniformInverseScale:
    if not isinstance(model.scale_spec, UniformInverseScale):
        raise ValidationError("operation requires a UniformInverseScale model")
    return model.scale_spec


def random_effect_pdf(model: GammaModel, t: float, u) -> np.ndarray:
    """Marginal density of the level at time ``t`` under the scale mixture."""
    spec = _require_uniform(model)
    if t <= 0:
        raise ValidationError("t must be positive")
    u_arr = np.atleast_1d(np.asarray(u, float))
    if np.any(u_arr <= 0):
        raise ValidationError("level must be positive")
    s = model.shape_rate * t
    log_norm = sp.gammaln(s) + np.log(spec.b - spec.a)
    out = np.exp(log_gamma_diff(s - 1.0, u_arr / spec.b, u_arr / spec.a) - log_norm)
    return float(out[0]) if np.isscalar(u) else out


def random_effect_hitting_cdf(model: GammaModel, threshold: float, t) -> np.ndarray:
    """Hitting-law mixture: the deterministic CDF averaged over the scale draw."""
    spec = _require_uniform(model)
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    t_arr = np.atleast_1d(np.asarray(t, float))
    if np.any(t_arr < 0):
        raise ValidationError("time must be non-negative")
    nodes, weights = leggauss(64)
    theta = 0.5 * (spec.b - spec.a) * nodes + 0.5 * (spec.a + spec.b)
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        shapes = model.shape_rate * t_arr[pos]
        vals = sp.gammaincc(shapes[:, None], threshold / theta[None, :])
        out[pos] = vals @ (0.5 * weights)
    return float(out[0]) if np.isscalar(t) else out


def random_effect_moments(model: GammaModel, t: float) -> tuple[float, float, float]:
    """Mean, variance and variance-to-mean ratio of the level at time ``t``.

    Unlike the homogeneous process, the ratio grows linearly in time, the
    signature of genuine between-process heterogeneity.
    """
    spec = _require_uniform(model)
    if t < 0:
        raise ValidationError("time must be non-negative")
    a, b = spec.a, spec.b
    at = model.shape_rate * t
    mean = at * (a + b) / 2.0
    variance = at * (b * b + a * b + a * a) / 3.0 + at * at * (a - b) ** 2 / 12.0
    ratio = (4.0 * (b * b + a * b + a * a) + at * (b - a) ** 2) / (6.0 * (a + b))
    return mean, variance, ratio


@dataclass(frozen=True)
class MatchedVarianceReport:
    """Variance comparison of scale-mixture models matched on the mean.

    ``matched_rate`` is the deterministic rate with the same mean path;
    ``gamma_crossover_k1`` is the shape parameter at which a gamma-distributed
    rate mixture would have the same variance as the uniform one (smaller
    gamma shapes give more variance than uniform, larger ones less).
    """

    a: float
    b: float
    shape_rate: float
    matched_rate: float
    gamma_crossover_k1: float

    def uniform_variance(self, t: float) -> float:
        at = self.shape_rate * t
        return at * (self.b**2 + self.a * self.b + self.a**2) / 3.0 + at**2 * (self.a - self.b) ** 2 / 12.0

    def deterministic_variance(self, t: float) -> float:
        at = self.shape_rate * t
        return at * ((self.a + self.b) / 2.0) ** 2

    def variance_excess(self, t: float) -> float:
        """Uniform-mixture variance minus matched deterministic variance (>= 0)."""
        return self.uniform_variance(t) - self.deterministic_variance(t)


def matched_variance_comparison(a: float, b: float, shape_rate: float = 1.0) -> MatchedVarianceReport:
    """Compare mixture variances at matched mean ``(a + b) / 2`` per unit shape."""
    if not 0 < a <= b:
        raise ValidationError("requires 0 < a <= b")
    s = b * b + a * b + a * a
    return MatchedVarianceReport(
        a=a,
        b=b,
        shape_rate=shape_rate,
        matched_rate=2.0 / (a + b),
        gamma_crossover_k1=2.0 * s / (3.0 * (a + b)) - 1.0,
    )


# ---------------------------------------------------------------------------
# Observation data and likelihood


@dataclass
class DegradationObservations:
    """Per-process observation times and cumulative levels.

    Times are strictly increasing and start after 0 (paths start at level 0
    at time 0); levels are non-decreasing. At construction the increments
    and time steps of all processes are also flattened into ``increments``
    and ``steps``, and each process's last time and level into
    ``end_times`` and ``end_levels``.
    """

    times: list = field(default_factory=list)
    levels: list = field(default_factory=list)
    increments: np.ndarray = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)
    end_times: np.ndarray = field(init=False, repr=False, compare=False)
    end_levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.times) != len(self.levels):
            raise ValidationError("times and levels must pair up per process")
        clean_t, clean_x = [], []
        for t, x in zip(self.times, self.levels):
            t = np.asarray(t, float)
            x = np.asarray(x, float)
            if t.size == 0:
                raise ValidationError("a process has no observations")
            if t.size != x.size:
                raise ValidationError("times and levels differ in length")
            if t[0] == 0.0:
                if x[0] != 0.0:
                    raise ValidationError("a time-0 observation must have level 0")
                t, x = t[1:], x[1:]
            if t.size == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
                raise ValidationError("observation times must be strictly increasing and positive")
            if x[0] < 0 or np.any(np.diff(x) < 0):
                raise ValidationError("levels must be non-negative and non-decreasing")
            clean_t.append(t)
            clean_x.append(x)
        self.times = clean_t
        self.levels = clean_x
        empty = [np.empty(0)]
        self.increments = np.concatenate(empty + [np.diff(x, prepend=0.0) for x in clean_x])
        self.steps = np.concatenate(empty + [np.diff(t, prepend=0.0) for t in clean_t])
        self.end_times = np.array([t[-1] for t in clean_t], float)
        self.end_levels = np.array([x[-1] for x in clean_x], float)

    @property
    def n_processes(self) -> int:
        return len(self.times)


def read_observations_csv(path) -> DegradationObservations:
    """Load ``process_id,time,level`` rows; validation is strict per process."""
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
    names = raw.dtype.names
    if names is None or set(names) != {"process_id", "time", "level"}:
        raise ValidationError("observations CSV needs exactly process_id,time,level columns")
    raw = np.atleast_1d(raw)
    if raw.size == 0:
        raise ValidationError("observations CSV is empty")
    # One stable sort by (process_id, time), then a cut where the id changes.
    order = np.lexsort((raw["time"], raw["process_id"]))
    ids = raw["process_id"][order]
    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return DegradationObservations(
        times=np.split(raw["time"][order], cuts), levels=np.split(raw["level"][order], cuts)
    )


def write_observations_csv(path, data: DegradationObservations) -> None:
    with open(path, "w") as fh:
        fh.write("process_id,time,level\n")
        for i, (t, x) in enumerate(zip(data.times, data.levels)):
            for tj, xj in zip(t, x):
                fh.write(f"{i},{tj:.12g},{xj:.12g}\n")


def simulate_observation_paths(
    model: GammaModel,
    n_processes: int,
    times: Sequence[float],
    rng: np.random.Generator,
) -> DegradationObservations:
    """Sample heterogeneous paths observed on a common time grid."""
    times = np.asarray(times, float)
    if times.size == 0 or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValidationError("observation grid must be positive and strictly increasing")
    dts = np.diff(np.concatenate(([0.0], times)))
    all_t, all_x = [], []
    for _ in range(n_processes):
        rate = model.draw_rates(rng, 1)
        increments = rng.gamma(shape=model.shape_rate * dts, scale=1.0 / rate)
        all_t.append(times.copy())
        all_x.append(np.cumsum(increments))
    return DegradationObservations(times=all_t, levels=all_x)


def log_likelihood(alpha: float, a: float, b: float, data: DegradationObservations) -> float:
    """Log-likelihood of the scale-mixture model for multi-process data.

    Independent gamma increments given the process's rate, with the inverse
    rate integrated out against its uniform law; the mixture integral reduces
    to an incomplete-gamma difference at the terminal level. Zero increments
    are rejected rather than silently mapped to ``-inf``.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if not 0 < a < b:
        raise ValidationError("requires 0 < a < b")
    if np.any(data.increments <= 0):
        raise ValidationError("zero or negative level increments are not admissible")
    shape_steps = alpha * data.steps
    shape_end = alpha * data.end_times - 1.0
    # Everything but the incomplete-gamma difference depends on alpha alone.
    total = np.sum((shape_steps - 1.0) * np.log(data.increments) - sp.gammaln(shape_steps))
    total -= np.sum(shape_end * np.log(data.end_levels))
    total += np.sum(log_gamma_diff(shape_end, data.end_levels / b, data.end_levels / a))
    return float(total - data.n_processes * np.log(b - a))


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-4) -> tuple[float, float]:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def fit_half_width(
    alpha: float,
    center: float,
    data: DegradationObservations,
    grid: Sequence[float],
    refine: bool = True,
    full_output: bool = False,
):
    """Profile the heterogeneity half-width at fixed shape rate and center.

    Scans the negative log-likelihood of ``inverse rate ~ U(center - w,
    center + w)`` over the supplied half-width grid and optionally refines
    the grid minimum by golden-section search.

    Returns the estimate and its negative log-likelihood; with
    ``full_output`` also the sorted grid and its scanned values.
    """
    grid = np.asarray(grid, float)
    if grid.size == 0 or np.any(grid <= 0) or np.any(grid >= center):
        raise ValidationError("half-width grid must lie strictly inside (0, center)")
    grid = np.sort(grid)

    def neg_ll(w: float) -> float:
        return -log_likelihood(alpha, center - w, center + w, data)

    values = np.array([neg_ll(w) for w in grid])
    if not np.any(np.isfinite(values)):
        raise NumericalError("likelihood is degenerate on the whole half-width grid")
    k = int(np.argmin(values))
    best_w, best_v = float(grid[k]), float(values[k])
    if refine and grid.size >= 2:
        lo = grid[k - 1] if k > 0 else max(grid[0] * 0.5, 1e-6)
        hi = grid[k + 1] if k + 1 < grid.size else min(center * (1 - 1e-9), grid[-1] * 1.5)
        w_ref, v_ref = _golden_section(neg_ll, float(lo), float(hi))
        if v_ref < best_v:
            best_w, best_v = w_ref, v_ref
    if full_output:
        return best_w, best_v, grid, values
    return best_w, best_v

