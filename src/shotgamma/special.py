"""Gamma-family special functions and quadrature primitives.

The generalized incomplete-gamma difference behind the random-effects
density and likelihood, the one Gauss-Legendre rule every fixed quadrature
of the package is laid with (:func:`gauss_legendre`), and an adaptive
quadrature (scipy's ``quad``) whose failures raise instead of warning.
"""

from __future__ import annotations

import functools
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


def gauss_legendre(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on every panel
    between consecutive ``edges`` along the last axis, flattened along it.

    ``m + 1`` edges give ``m*n`` nodes; an ``(rows, 2)`` array gives one rule
    per row. Each panel ``[lo, hi]`` maps ``x`` in ``[-1, 1]`` to
    ``lo + half*(x + 1)`` with ``half = (hi - lo)/2``, so the rule is exact
    for polynomials of degree up to ``2n - 1`` on each panel.
    """
    x, w = leggauss(n)
    edges = np.asarray(edges, float)
    lo = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - lo)
    flat = edges.shape[:-1] + (-1,)
    return (lo + half * (x + 1.0)).reshape(flat), (half * w).reshape(flat)


# Tolerances and subdivision limit of ``integrate``.
_ABS_TOL = 1e-9
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 50


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
    z, weights = gauss_legendre(np.geomspace(x1, x2, n_panels + 1), 64)
    log_f = (shape - 1.0) * np.log(z) - z
    m = log_f.max()
    total = np.sum(weights * np.exp(log_f - m))
    if total <= 0.0:
        raise NumericalError(
            f"log_gamma_diff lost all precision on shape={shape}, [{x1}, {x2}]"
        )
    return float(m + np.log(total))


def integrate(f: Callable[[float], float], a: float, b: float = np.inf) -> float:
    """Adaptive quadrature of ``f`` over ``(a, b)``, ``b`` possibly infinite.

    One call of :func:`scipy.integrate.quad` at absolute tolerance 1e-9,
    relative tolerance 1e-8 and at most 50 subdivisions. The failure quad would report as an
    ``IntegrationWarning`` (subdivision limit, roundoff, divergence) and a
    non-finite result raise :class:`~shotgamma.errors.NumericalError`
    instead of returning silently.
    """
    # lazy: keeps scipy.integrate out of the package import
    from scipy.integrate import quad

    # full_output returns quad's failure message in place of the warning
    value, _, _, *failure = quad(
        f, a, b, epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS, full_output=1
    )
    if failure:
        raise NumericalError(f"quadrature failed on [{a}, {b}]: {failure[0]}")
    if not np.isfinite(value):
        raise NumericalError(f"quadrature on [{a}, {b}] is not finite ({value})")
    return float(value)
