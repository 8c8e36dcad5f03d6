"""Gamma-process growth: increments, hitting-time laws and random effects.

A degradation path grows with independent ``Gamma(shape_rate * dt, rate)``
increments, at one known rate or at a rate drawn per process with its
inverse uniform on ``(a, b)`` (random effects); only ``GammaModel`` tells
the two apart. The module provides the hitting-time law of a level, the
survival law of the gap between the crossings of two levels (via the
overshoot distribution at the lower level), and the random-effects
moments, density and likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import special as sp

from .errors import NumericalError, ValidationError, store_checked
from .special import gauss_legendre, log_gamma_diff


# ---------------------------------------------------------------------------
# Model types


@dataclass(frozen=True)
class DeterministicScale:
    """A single known rate parameter shared by every degradation process."""

    beta: float

    def __post_init__(self):
        store_checked(self, "beta", above=0)


@dataclass(frozen=True)
class UniformInverseScale:
    """Process-specific heterogeneity: the inverse rate is uniform on (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        store_checked(self, "a", above=0)
        store_checked(self, "b", above=self.a)


ScaleSpec = DeterministicScale | UniformInverseScale
_RATE_NODES = 64  # Gauss-Legendre nodes of the average over a uniform inverse scale


@dataclass(frozen=True)
class GammaModel:
    """Shape rate plus a scale specification (deterministic or random)."""

    shape_rate: float
    scale_spec: ScaleSpec

    def __post_init__(self):
        store_checked(self, "shape_rate", above=0)
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

    @property
    def min_rate(self) -> float:
        """The smallest rate a process can have: ``beta``, or ``1/b`` under random effects."""
        spec = self.scale_spec
        return spec.beta if isinstance(spec, DeterministicScale) else 1.0 / spec.b

    def rate_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Rates and weights that average a one-rate law over the scale law:
        ``beta`` at weight 1, or Gauss-Legendre nodes in the inverse rate."""
        spec = self.scale_spec
        if isinstance(spec, DeterministicScale):
            return np.array([spec.beta]), np.ones(1)
        theta, weights = gauss_legendre([spec.a, spec.b], _RATE_NODES)
        return 1.0 / theta, weights / (spec.b - spec.a)

    def with_axes(self, shape_rate: float, scale_value: float) -> "GammaModel":
        """This model at a new shape rate and scale axis: the rate, or the
        inverse-rate center at the same half-width under random effects."""
        spec = self.scale_spec
        if isinstance(spec, DeterministicScale):
            return GammaModel(shape_rate, DeterministicScale(scale_value))
        half = 0.5 * (spec.b - spec.a)
        return GammaModel(shape_rate, UniformInverseScale(scale_value - half, scale_value + half))

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
# Hitting-time laws


class HittingLaw:
    """CDF/pdf of the first time a degradation process reaches a level.

    At one rate the CDF is the chance that the level at ``t`` exceeds the
    threshold, ``Q(shape_rate * t, rate * threshold)``, averaged over the
    growth model's ``rate_nodes``.
    """

    def __init__(self, growth: GammaModel, threshold: float):
        if threshold <= 0:
            raise ValidationError("threshold must be positive")
        self.growth = growth
        self.threshold = threshold

    def cdf(self, t) -> np.ndarray:
        t_arr = np.asarray(t, float)
        if np.any(t_arr < 0):
            raise ValidationError("time must be non-negative")
        rates, weights = self.growth.rate_nodes()
        out = np.zeros_like(t_arr)
        pos = t_arr > 0
        shapes = self.growth.shape_rate * t_arr[pos][:, None]
        out[pos] = sp.gammaincc(shapes, rates * self.threshold) @ weights
        return float(out) if np.isscalar(t) else out

    def pdf(self, t) -> np.ndarray:
        return difference_pdf(self.cdf, t)


def hitting_cdf(shape_rate: float, rate: float, threshold: float, t) -> np.ndarray:
    """The hitting CDF at one known rate."""
    return HittingLaw(GammaModel.deterministic(shape_rate, rate), threshold).cdf(t)


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
    lost = np.flatnonzero(interior & (f_hi == f_lo))
    if lost.size:
        i = lost[np.argmin(t_arr[lost])]
        raise NumericalError(
            f"hitting density difference quotient lost all significant digits at t={t_arr[i]:.10g} "
            f"(step {h[i]:.3g}, cdf {f_lo[i]:.17g})"
        )
    out = np.maximum(out, 0.0)
    return float(out[0]) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# Gap between the crossings of two levels


def _volterra_nu_log(log_c: np.ndarray) -> np.ndarray:
    """``integral of exp(w*log_c) / Gamma(w) over w in (0, inf)``, vectorized."""
    log_c = np.atleast_1d(np.asarray(log_c, float))
    w_max = max(60.0, float(np.exp(min(log_c.max(), 50.0))) * 1.6 + 40.0)
    edges = np.array([0.0, 1e-3, 1e-2, 1e-1, 1.0, 4.0, 16.0])
    w, weights = gauss_legendre(np.append(edges[edges < w_max], w_max), 64)
    expo = np.outer(log_c, w) - sp.gammaln(w)
    np.clip(expo, -745.0, None, out=expo)
    return np.exp(expo) @ weights


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
    z0 = min(0.5 * upper, 0.2 / rate)
    u, weights = gauss_legendre([0.0, 1.0 / np.log(1.0 / (rate * z0))], 64)
    z_sing = np.exp(np.maximum(-1.0 / u, -700.0)) / rate
    # weight * U(z) with U(z)*dz/du = exp(-rate*z) * nu(rate*z) / (shape_rate*u^2)
    uw_sing = weights * np.exp(-rate * z_sing) * _volterra_nu_log(-1.0 / u) / (shape_rate * u**2)
    fracs = np.array([0.0, 0.5, 0.8, 0.95, 0.99, 0.999, 1.0])
    z_mid, weights = gauss_legendre(z0 + (upper - z0) * fracs, 64)
    uw_mid = weights * _potential_density(shape_rate, rate, z_mid)
    return np.concatenate([z_sing, z_mid]), np.concatenate([uw_sing, uw_mid])


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
        fracs = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0])
        self._y_nodes, self._y_weights = gauss_legendre(lower + (upper - lower) * fracs, 64)
        self._y_tail = self._overshoot_tail(self._y_nodes) / norm
        self._tail_at_upper = float(self._overshoot_tail(np.array([upper]))[0] / norm)
        from scipy.interpolate import PchipInterpolator  # lazy: adds about 26 MB to a process

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
            # Gamma(shapes, rate) density at the gaps upper - y, all positive
            z = self.rate * (self.upper - self._y_nodes)
            dens = self.rate * np.exp(
                (shapes[:, None] - 1.0) * np.log(z) - z - sp.gammaln(shapes)[:, None]
            )
            excess = dens @ (self._y_weights * (self._y_tail - self._tail_at_upper))
            out[pos] = (1.0 - self._tail_at_upper) * head - excess
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if np.isscalar(t) else out

    def cdf(self, t) -> np.ndarray:
        return 1.0 - self.survival(t)


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
    _require_uniform(model)
    return HittingLaw(model, threshold).cdf(t)


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
        t_parts = [np.asarray(t, float) for t in self.times]
        x_parts = [np.asarray(x, float) for x in self.levels]
        sizes = np.array([t.size for t in t_parts], dtype=np.intp)
        malformed = np.flatnonzero((sizes == 0) | (sizes != [x.size for x in x_parts]))
        # All processes are checked at once, on the flat arrays, but the
        # first failing process names the error, as in a per-process loop.
        n_ok = int(malformed[0]) if malformed.size else sizes.size
        sizes = sizes[:n_ok]
        t = np.concatenate([np.empty(0), *t_parts[:n_ok]])
        x = np.concatenate([np.empty(0), *x_parts[:n_ok]])
        first = np.cumsum(sizes) - sizes
        at_zero = t[first] == 0.0
        bad_origin = at_zero & (x[first] != 0.0)
        kept = np.ones(t.size, dtype=bool)
        kept[first[at_zero]] = False  # a time-0 observation only restates the start
        t, x, sizes = t[kept], x[kept], sizes - at_zero
        owner = np.repeat(np.arange(n_ok), sizes)
        same = owner[1:] == owner[:-1]

        def flagged(flags, where=owner):
            return np.bincount(where[flags], minlength=n_ok) > 0

        bad_times = (sizes == 0) | flagged(t <= 0) | flagged(same & (t[1:] <= t[:-1]), owner[1:])
        # on a non-decreasing path no level is negative unless the first is
        bad_levels = flagged(x < 0) | flagged(same & (x[1:] < x[:-1]), owner[1:])
        failing = np.flatnonzero(bad_origin | bad_times | bad_levels)
        if failing.size:
            p = failing[0]
            if bad_origin[p]:
                raise ValidationError("a time-0 observation must have level 0")
            if bad_times[p]:
                raise ValidationError("observation times must be strictly increasing and positive")
            raise ValidationError("levels must be non-negative and non-decreasing")
        if malformed.size:
            if t_parts[n_ok].size == 0:
                raise ValidationError("a process has no observations")
            raise ValidationError("times and levels differ in length")
        first = np.cumsum(sizes) - sizes
        self.times = np.split(t, first[1:]) if n_ok else []
        self.levels = np.split(x, first[1:]) if n_ok else []
        # differences across a process boundary are replaced: each path starts at 0
        self.increments = np.diff(x, prepend=0.0)
        self.increments[first] = x[first]
        self.steps = np.diff(t, prepend=0.0)
        self.steps[first] = t[first]
        self.end_times = t[first + sizes - 1]
        self.end_levels = x[first + sizes - 1]

    @property
    def n_processes(self) -> int:
        return len(self.times)


def read_observations_csv(path) -> DegradationObservations:
    """Load ``process_id,time,level`` rows; validation is strict per process.

    The header names the columns, in any order, and may be written as a
    comment (``# process_id,time,level``); elsewhere ``#`` opens a comment.
    Process ids order as integers when they all parse as integers, else as
    floats, else as text.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().splitlines() if line.strip()]
    if lines:
        lines[0] = lines[0].lstrip("#")
    lines = [text for text in (line.split("#", 1)[0].strip() for line in lines) if text]
    if not lines:
        raise ValidationError("observations CSV is empty")
    names = [name.strip() for name in lines[0].split(",")]
    if sorted(names) != ["level", "process_id", "time"]:
        raise ValidationError("observations CSV needs exactly process_id,time,level columns")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ValidationError("observations CSV is empty")
    for i, row in enumerate(rows):
        if len(row) != 3:
            raise ValidationError(f"observations CSV data row {i + 1} has {len(row)} fields, not 3")
    cols = dict(zip(names, zip(*rows)))
    try:
        times = np.array(cols["time"], dtype=float)
        levels = np.array(cols["level"], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"observations CSV has a non-numeric time or level: {exc}") from None
    ids = [pid.strip() for pid in cols["process_id"]]
    for kind in (np.int64, float, str):
        try:
            ids = np.array(ids, dtype=kind)
        except (ValueError, OverflowError):
            continue
        break
    # One stable sort by (process_id, time), then a cut where the id changes.
    order = np.lexsort((times, ids))
    ids = ids[order]
    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return DegradationObservations(
        times=np.split(times[order], cuts), levels=np.split(levels[order], cuts)
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

