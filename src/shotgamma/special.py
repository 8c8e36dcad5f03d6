"""Gamma-family special functions and quadrature primitives.

The gamma density, the generalized incomplete-gamma difference behind the
random-effects density and likelihood, the shared Gauss-Legendre tables,
and an adaptive quadrature with explicit failure reporting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special as sp

from .errors import NumericalError, ValidationError

ArrayLike = Union[float, np.ndarray]


@functools.lru_cache(maxsize=None)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order ``n`` on ``[-1, 1]``."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for adaptive quadrature.

    ``tail_epsilon`` is the integrand cutoff used to truncate semi-infinite
    ranges: integration stops once the integrand stays below it.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_depth: int = 50
    tail_epsilon: float = 1e-12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.tail_epsilon <= 0:
            raise ValidationError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def gamma_pdf(shape: ArrayLike, rate: ArrayLike, x: ArrayLike) -> ArrayLike:
    """Density of the gamma distribution in shape/rate parametrization."""
    if np.any(np.asarray(shape) <= 0):
        raise ValidationError("gamma shape must be positive")
    if np.any(np.asarray(rate) <= 0):
        raise ValidationError("gamma rate must be positive")
    if np.any(np.asarray(x) < 0):
        raise ValidationError("gamma density argument must be non-negative")
    shape_a, rate_a, x_a = np.broadcast_arrays(
        np.asarray(shape, float), np.asarray(rate, float), np.asarray(x, float)
    )
    out = np.zeros_like(x_a)
    pos = x_a > 0
    with np.errstate(divide="ignore"):
        log_pdf = (
            shape_a[pos] * np.log(rate_a[pos])
            + (shape_a[pos] - 1.0) * np.log(x_a[pos])
            - rate_a[pos] * x_a[pos]
            - sp.gammaln(shape_a[pos])
        )
    out[pos] = np.exp(log_pdf)
    at_zero = ~pos
    out[at_zero & (shape_a == 1.0)] = rate_a[at_zero & (shape_a == 1.0)]
    out[at_zero & (shape_a < 1.0)] = np.inf
    if np.isscalar(shape) and np.isscalar(rate) and np.isscalar(x):
        return float(out)
    return out


def log_gamma_diff(shape: ArrayLike, x1: ArrayLike, x2: ArrayLike) -> ArrayLike:
    """log of ``integral from x1 to x2 of z**(shape-1) * exp(-z) dz``.

    Valid for any real ``shape`` (including non-positive values, where each
    endpoint integral alone would diverge at 0) as long as
    ``0 < x1 < x2``. Used by the scale-mixture density and likelihood, where
    ``shape`` can drop below zero for short observation windows. Arguments
    broadcast; the result is a float when all three are scalars.
    """
    shape_b, x1_b, x2_b = np.broadcast_arrays(
        np.asarray(shape, float), np.asarray(x1, float), np.asarray(x2, float)
    )
    shape_a, x1_a, x2_a = shape_b.ravel(), x1_b.ravel(), x2_b.ravel()
    if not np.all((0.0 < x1_a) & (x1_a < x2_a)):
        raise ValidationError("log_gamma_diff requires 0 < x1 < x2")
    out = np.empty(shape_a.size)
    pos = shape_a > 0.0
    s, lo, hi = shape_a[pos], x1_a[pos], x2_a[pos]
    # Difference of regularized integrals unless cancellation bites.
    q1, q2 = sp.gammaincc(s, lo), sp.gammaincc(s, hi)
    p1, p2 = sp.gammainc(s, lo), sp.gammainc(s, hi)
    diff = np.where(q1 <= p2, q1 - q2, p2 - p1)
    resolved = (diff > 0.0) & (diff > 1e-7 * np.minimum(q1, p2))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[pos] = sp.gammaln(s) + np.log(diff)
    fallback = ~pos
    fallback[pos] = ~resolved
    for i in np.flatnonzero(fallback):
        out[i] = _log_gamma_diff_quad(shape_a[i], x1_a[i], x2_a[i])
    if np.isscalar(shape) and np.isscalar(x1) and np.isscalar(x2):
        return float(out[0])
    return out.reshape(shape_b.shape)


def _log_gamma_diff_quad(shape: float, x1: float, x2: float) -> float:
    # Panelled Gauss-Legendre in log space; geometric panels keep the
    # integrand resolved when x2/x1 is large.
    n_panels = max(1, int(np.ceil(np.log(x2 / x1) / np.log(4.0))), int(np.ceil((x2 - x1) / (10.0 + abs(shape)))))
    edges = np.geomspace(x1, x2, n_panels + 1)
    nodes, weights = leggauss(64)
    z = 0.5 * (edges[:-1, None] * (1 - nodes) + edges[1:, None] * (1 + nodes))
    half_widths = 0.5 * (edges[1:] - edges[:-1])
    log_f = (shape - 1.0) * np.log(z) - z
    m = log_f.max()
    total = np.sum(half_widths[:, None] * weights * np.exp(log_f - m))
    if total <= 0.0:
        raise NumericalError(
            f"log_gamma_diff lost all precision on shape={shape}, [{x1}, {x2}]"
        )
    return float(m + np.log(total))


def _adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    abs_tol: float,
    rel_tol: float,
    depth: int,
) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * max(abs_tol, rel_tol * abs(left + right)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise NumericalError(
            f"adaptive quadrature did not converge on [{a}, {b}] "
            f"(residual {abs(delta):.3e})"
        )
    half_tol = 0.5 * abs_tol
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, half_tol, rel_tol, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, half_tol, rel_tol, depth - 1)


def _integrate_finite(f, a: float, b: float, spec: QuadratureSpec) -> float:
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(
        f, a, b, fa, fm, fb, whole, spec.abs_tol, spec.rel_tol, spec.max_depth
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float = np.inf,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive quadrature of ``f`` over ``(a, b)``, ``b`` possibly infinite.

    Semi-infinite ranges are marched in geometrically growing blocks and
    truncated once the integrand stays below ``spec.tail_epsilon`` and the
    last block is negligible. Non-convergence raises
    :class:`~shotgamma.errors.NumericalError` instead of returning silently.
    """
    if not np.isinf(b):
        return _integrate_finite(f, float(a), float(b), spec)
    total = 0.0
    left = float(a)
    width = 1.0
    quiet_blocks = 0
    for _ in range(200):
        right = left + width
        block = _integrate_finite(f, left, right, spec)
        total += block
        probes = np.abs([f(right), f(left + 0.5 * width), f(right + 0.5 * width)])
        small_tail = np.all(probes < spec.tail_epsilon)
        small_block = abs(block) < max(spec.abs_tol, spec.rel_tol * abs(total))
        quiet_blocks = quiet_blocks + 1 if (small_tail and small_block) else 0
        if quiet_blocks >= 2:
            return total
        left = right
        width *= 2.0
    raise NumericalError(
        "semi-infinite quadrature did not reach the tail cutoff "
        f"(integrand still {probes.max():.3e} at x={left:.3e})"
    )
