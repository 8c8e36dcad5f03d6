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

from .arrivals import ShotNoiseParams, expected_intensity
from .arrivals import simulate_arrival_batch  # noqa: F401 -- shotbench/tracing.py rebinds it
from .degradation import GammaModel, HittingLaw
from .errors import ValidationError, checked_number, store_checked
from .special import gauss_legendre


@dataclass(frozen=True)
class SystemSpec:
    """Arrival process, growth model and failure threshold of one system."""

    arrivals: ShotNoiseParams
    growth: GammaModel
    failure_threshold: float

    def __post_init__(self):
        store_checked(self, "failure_threshold", above=0)


# Step of the uniform grids that tabulate the first-passage law and the void
# table of ``analytics``: every tabulated output is within 1e-9 of the same
# tables at a quarter of this step (README, numerical notes).
LAW_STEP = 0.02
# Interval count of a first-passage grid: even, at least _MIN_INTERVALS for
# short horizons, at most _MAX_INTERVALS (the step grows past t_max 300).
_MIN_INTERVALS = 64
_MAX_INTERVALS = 15000


class FirstPassageLaw:
    """Grid-cached survival and hazard of the first exceedance.

    Both come from two cumulative integrals of the hitting CDF ``F``:
    ``I(t) = int_0^t F`` and the decayed convolution
    ``q(t) = int_0^t exp(-delta*(t-v)) F(v) dv``. Then
    ``survival = exp(-lambda0*I - mu*J)`` with ``J(t) = int_0^t (1 - exp(-q))``,
    and ``hazard = lambda0*F + mu*(1 - exp(-q))``. ``q``, ``I`` and ``J`` are
    tabulated by :func:`_decayed_convolution` (``I`` and ``J`` at zero
    decay) on a uniform grid of step ``LAW_STEP`` or less (more past
    ``t_max`` 300), fourth order in the step, and read between the nodes by
    cubic Hermite interpolation with the exact slopes ``lambda0*F``,
    ``mu*G`` and ``F - delta*q``, also fourth order; ``G = 1 - exp(-q)``.
    """

    def __init__(self, arrivals: ShotNoiseParams, law: HittingLaw, t_max: float):
        if t_max <= 0:
            raise ValidationError("t_max must be positive")
        self.arrivals = arrivals
        self.law = law
        self.t_max = float(t_max)
        half = np.ceil(0.5 * t_max / LAW_STEP)
        n_int = 2 * int(np.clip(half, _MIN_INTERVALS // 2, _MAX_INTERVALS // 2))
        ts = np.linspace(0.0, t_max, n_int + 1)
        self._h = ts[1] - ts[0]
        F = law.cdf(ts)
        q = _decayed_convolution(F, self._h, arrivals.delta)
        G = -np.expm1(-q)
        lam0, mu = arrivals.lambda0, arrivals.mu
        self._values = np.stack([
            lam0 * _decayed_convolution(F, self._h, 0.0),
            mu * _decayed_convolution(G, self._h, 0.0),
            q,
        ])
        self._slopes = np.stack([lam0 * F, mu * G, F - arrivals.delta * q])

    def _at(self, t, evaluate):
        """``evaluate(t, lambda0*I, mu*J, q)`` at ``t`` after a range check.

        A scalar ``t`` gives a float, or a tuple of floats.
        """
        t_arr = np.atleast_1d(np.asarray(t, float))
        outside = (t_arr < 0) | (t_arr > self.t_max + 1e-9)
        if np.any(outside):
            raise ValidationError(
                f"time {t_arr[outside][0]:.10g} outside cached range [0, {self.t_max}] "
                f"of the first-passage law of level {self.law.threshold:g}"
            )
        out = evaluate(t_arr, *self._hermite(np.clip(t_arr, 0.0, self.t_max)))
        if not np.isscalar(t):
            return out
        return tuple(float(v[0]) for v in out) if isinstance(out, tuple) else float(out[0])

    def _hermite(self, t: np.ndarray) -> np.ndarray:
        """The three tables at ``t`` in ``[0, t_max]``, by cubic Hermite interpolation."""
        x = t / self._h
        i = np.minimum(x.astype(np.intp), self._values.shape[1] - 2)
        s = x - i
        s2 = s * s
        y0, y1 = self._values[:, i], self._values[:, i + 1]
        d0, d1 = self._h * self._slopes[:, i], self._h * self._slopes[:, i + 1]
        return y0 + s2 * (3.0 - 2.0 * s) * (y1 - y0) + s * (1.0 - s) * ((1.0 - s) * d0 - s * d1)

    def survival(self, t) -> np.ndarray:
        return self._at(t, lambda _, c1, c2, q: np.exp(-(c1 + c2)))

    def factors(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The base-level and shock survival factors, each in (0, 1]."""
        return self._at(t, lambda _, c1, c2, q: (np.exp(-c1), np.exp(-c2)))

    def exposures(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``lambda0*I``, ``mu*J`` and ``q`` at ``t`` (see the class docstring)."""
        return self._at(t, lambda _, c1, c2, q: (c1, c2, q))

    def hazard(self, t) -> np.ndarray:
        return self._at(
            t,
            lambda t_arr, c1, c2, q: self.arrivals.lambda0 * self.law.cdf(t_arr)
            - self.arrivals.mu * np.expm1(-q),
        )

    def hazard_derivative(self, t) -> np.ndarray:
        """Closed-form hazard slope; non-negative for every parameter set."""

        def slope(t_arr, c1, c2, q):
            f = self.law.pdf(np.maximum(t_arr, 1e-12))
            # d/dt of the decayed convolution collapses to F - delta*q.
            return self.arrivals.lambda0 * f + self.arrivals.mu * np.exp(-q) * (
                self.law.cdf(t_arr) - self.arrivals.delta * q
            )

        return self._at(t, slope)


def _quadratic_basis(s: np.ndarray) -> np.ndarray:
    """The Lagrange basis through the nodes 0, 1 and 2 of a panel (rows) at ``s``, in steps."""
    return np.stack([0.5 * (s - 1.0) * (s - 2.0), s * (2.0 - s), 0.5 * s * (s - 1.0)])


def _step_kernel(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``u`` in ``[0, 1]`` and weights ``w`` with ``w @ p(u) = int_0^1 exp(-c*u) p(u) du``.

    16-node Gauss-Legendre on panels with ``c*width <= 1``, up to where the
    kernel falls below ``exp(-40)``: exact to rounding for polynomial ``p``,
    losing no digits at small ``c`` (as a closed form would) nor at large.
    """
    reach = 1.0 if c <= 40.0 else 40.0 / c
    u, w = gauss_legendre(np.linspace(0.0, reach, max(1, int(np.ceil(c * reach))) + 1), 16)
    return u, w * np.exp(-c * u)


def _first_order_filter(x: np.ndarray, a: float) -> np.ndarray:
    """``y[k] = a*y[k-1] + x[k]`` along a last axis of length ``n >= 1``, from ``y[-1] = 0``.

    ``a`` lies in ``[0, 1]``.

    Each block is one scaled cumulative sum, ``y[s+j] = a**j * (a*y[s-1] +
    sum_{i<=j} a**-i * x[s+i])``, with blocks short enough that ``a**-i``
    stays below ``exp(230)``. Numpy only: ``scipy.signal.lfilter`` would
    add about 48 MB to a process.
    """
    n = x.shape[-1]
    block = n if a >= np.exp(-230.0 / n) else max(1, int(230.0 / -np.log(max(a, 1e-300))))
    y = np.empty_like(x)
    carry = np.zeros(x.shape[:-1])
    for s in range(0, n, block):
        k = np.arange(min(block, n - s))
        y[..., s : s + k.size] = a**k * (
            a * carry[..., None] + np.cumsum(x[..., s : s + k.size] * a**-k, axis=-1)
        )
        carry = y[..., s + k.size - 1]
    return y


def _decayed_convolution(f: np.ndarray, h: float, delta: float) -> np.ndarray:
    """``int_0^t exp(-delta*(t-v)) f(v) dv`` on a uniform grid (the last axis).

    The kernel is integrated exactly against the quadratic through the three
    nodes of each two-step panel, so the result is exact for quadratic ``f``
    and fourth order in ``h`` for smooth ``f``; at ``delta = 0`` the even
    nodes are composite Simpson. The even nodes are one first-order
    recursion over the panels, each odd node is the even node before it plus
    the first step of its panel, and an even length closes with the last
    step of the last three nodes. Any leading shape, and any length of at
    least 1 (length 2 is exact for linear ``f`` only).
    """
    f = np.asarray(f, float)
    n = f.shape[-1]
    out = np.zeros_like(f)
    decay = np.exp(-delta * h)
    # u is the distance back from the right end of a step, in steps
    u, w = _step_kernel(delta * h)
    w = h * w
    if n == 2:
        out[..., 1] = f @ np.array([w @ u, w @ (1.0 - u)])
    if n < 3:
        return out
    # weights of the panel's three nodes over its first and its second step
    first = _quadratic_basis(1.0 - u) @ w
    second = _quadratic_basis(2.0 - u) @ w
    full = decay * first + second
    m = 2 * ((n - 1) // 2)
    f0, f1, f2 = f[..., 0:m:2], f[..., 1:m:2], f[..., 2 : m + 1 : 2]
    drive = full[0] * f0 + full[1] * f1 + full[2] * f2
    out[..., 2 : m + 1 : 2] = _first_order_filter(drive, decay * decay)
    out[..., 1:m:2] = decay * out[..., 0:m:2] + first[0] * f0 + first[1] * f1 + first[2] * f2
    if n % 2 == 0:
        out[..., -1] = decay * out[..., -2] + f[..., -3:] @ second
    return out


@functools.lru_cache(maxsize=64)
def _cached_first_passage(
    arrivals: ShotNoiseParams, growth: GammaModel, threshold: float, t_max: float
) -> FirstPassageLaw:
    return FirstPassageLaw(arrivals, HittingLaw(growth, threshold), t_max)


def first_passage_law(spec: SystemSpec, threshold: float, t_max: float) -> FirstPassageLaw:
    """Cached law of the first time any process exceeds ``threshold``."""
    return _cached_first_passage(spec.arrivals, spec.growth, float(threshold), float(t_max))


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
    u, w = gauss_legendre([0.0, t], 64)
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
    u, w = gauss_legendre([0.0, t], 64)
    vals = expected_intensity(spec.arrivals, u) * law.cdf(t - u)
    return float(np.sum(w * vals))


class HittingTimeSampler:
    """Inverse-transform sampler of hitting times from the exact CDF.

    ``F(t) = Q(alpha*t, rate*L)`` is inverted in its shape argument by
    ``scipy.special.gdtrib``, to about 1e-15 in probability, for a shared
    rate and per-draw rates alike; path discretization never enters
    lifetime studies. ``F`` falls in the rate, so :meth:`cdf_bound`, ``F``
    at the smallest rate the growth model allows (``GammaModel.min_rate``),
    bounds the hitting probability of every process.
    """

    def __init__(self, growth: GammaModel, threshold: float):
        if not threshold > 0:
            raise ValidationError("threshold must be positive")
        self.growth = growth
        self.threshold = threshold

    def cdf_bound(self, t) -> np.ndarray:
        """The largest hitting probability by ``t >= 0`` of any process."""
        return self.cdf(t, self.growth.min_rate)

    def cdf(self, t, rates) -> np.ndarray:
        """The hitting probability ``F(t)`` by ``t >= 0`` at the given per-draw rates."""
        return sp.gammaincc(self.growth.shape_rate * t, rates * self.threshold)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        rates = self.growth.draw_rates(rng, size)
        u = rng.uniform(size=size)
        return self.invert(u, rates)

    def invert(self, u: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """The times ``t`` with ``F(t) = u`` at the given per-draw rates."""
        return sp.gdtrib(1.0, 1.0 - u, rates * self.threshold) / self.growth.shape_rate


_BINS = 32


def _thin_falling(weight, scale: float, horizon: float, rng: np.random.Generator):
    """Poisson points on ``[0, horizon]`` at intensity ``scale * weight(t)``.

    ``weight`` must not increase. Each of 32 equal bins proposes at its
    left-edge intensity and keeps a point with probability
    ``weight(t) / weight(left edge)``; the strict comparison keeps no point
    of zero weight. Returns the kept times and their weights.
    """
    width = horizon / _BINS
    left = width * np.arange(_BINS)
    bound = weight(left)
    k = np.repeat(np.arange(_BINS), rng.poisson(scale * width * bound))
    t = np.minimum(left[k] + width * rng.uniform(size=k.size), horizon)
    w = weight(t)
    if np.count_nonzero(w > bound[k] * (1 + 1e-12)):
        raise AssertionError("thinning dominating bound violated")
    keep = rng.uniform(size=t.size) * bound[k] < w
    return t[keep], w[keep]


def simulate_first_passage_batch(
    spec: SystemSpec, threshold: float, horizon: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """First exceedance times for ``n`` independent systems; NaN when censored.

    Only arrivals that can fail inside the horizon are drawn. Given its
    shocks, the shot-noise Cox process is a Poisson cluster process: base
    arrivals at rate ``lambda0`` plus, per shock at ``s``, an independent
    cluster at rate ``exp(-delta*(t-s))`` on ``(s, h]`` (Møller 2003, "Shot
    noise Cox processes", Adv. Appl. Prob. 35). An arrival at ``t`` fails by
    ``h`` with probability at most ``Fb(h - t)``, :meth:`HittingTimeSampler.cdf_bound`,
    which does not increase in ``t``, so every part is thinned by it:

    - base arrivals of all ``n`` systems pooled, at rate ``n*lambda0*Fb(h-t)``;
    - shocks with at least one child of the dominating cluster
      ``Fb(h-s)*exp(-delta*(t-s))``, whose mean is ``m(s)``, at rate
      ``n*mu*(1 - exp(-m(s)))``; the first child by inverting its law given
      at least one, ``Lambda(T1) = -log1p(U*expm1(-m))``, the rest a
      ``Poisson(m - Lambda(T1))`` count after it, each child kept with
      probability ``Fb(h-t)/Fb(h-s)``.

    A kept arrival's hitting uniform is ``U(0, Fb(h-t))``, the law of the
    full-range uniform given the thinning; under random effects it fails by
    the horizon only if it is at most ``F(h-t)`` at its own rate. Exact:
    shocks and arrivals that cannot fail by the horizon are never drawn.
    """
    horizon = checked_number(horizon, "horizon", above=0)
    n = checked_number(n, "n", at_least=0, integer=True)
    sampler = HittingTimeSampler(spec.growth, threshold)
    delta = spec.arrivals.delta

    def fail_bound(t):
        return sampler.cdf_bound(horizon - t)

    def cluster_mean(s, top):
        """Mean child count of a shock at ``s`` whose cluster is thinned at ``top = Fb(h-s)``."""
        return top * -np.expm1(-delta * (horizon - s)) / delta

    base_t, base_f = _thin_falling(fail_bound, n * spec.arrivals.lambda0, horizon, rng)
    base_of = rng.integers(n, size=base_t.size)
    shock_t, _ = _thin_falling(
        lambda s: -np.expm1(-cluster_mean(s, fail_bound(s))), n * spec.arrivals.mu, horizon, rng
    )
    shock_of = rng.integers(n, size=shock_t.size)
    top = fail_bound(shock_t)
    m = cluster_mean(shock_t, top)
    # Integrated cluster rate at each child: the first by inversion, the rest uniform above it.
    first = -np.log1p(rng.uniform(size=shock_t.size) * np.expm1(-m))
    more = np.repeat(np.arange(shock_t.size), rng.poisson(m - first))
    cum = np.concatenate([first, first[more] + rng.uniform(size=more.size) * (m - first)[more]])
    parent = np.concatenate([np.arange(shock_t.size), more])
    child_t = np.minimum(shock_t[parent] - np.log1p(-delta * cum / top[parent]) / delta, horizon)
    child_f = fail_bound(child_t)
    if np.count_nonzero(child_f > top[parent] * (1 + 1e-12)):
        raise AssertionError("thinning dominating bound violated")
    keep = rng.uniform(size=parent.size) * top[parent] < child_f

    t = np.concatenate([base_t, child_t[keep]])
    owner = np.concatenate([base_of, shock_of[parent[keep]]])
    rates = spec.growth.draw_rates(rng, t.size)
    u = rng.uniform(size=t.size) * np.concatenate([base_f, child_f[keep]])
    if spec.growth.has_random_effects:
        fails = u <= sampler.cdf(horizon - t, rates)
        t, owner, rates, u = t[fails], owner[fails], rates[fails], u[fails]
    first_fail = np.full(n, np.inf)
    np.minimum.at(first_fail, owner, t + sampler.invert(u, rates))
    return np.where(first_fail <= horizon, first_fail, np.nan)
