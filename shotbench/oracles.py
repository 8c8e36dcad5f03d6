"""Reference values computed apart from the program under test.

Nothing here imports ``shotgamma``. The first-exceedance survival of a
threshold ``m`` is

    S(t) = exp(-lambda0 * I(t) - mu * J(t)),
    I(t) = int_0^t F,   q(t) = int_0^t exp(-delta*(t-v)) F(v) dv,
    J(t) = int_0^t (1 - exp(-q)),

with ``F`` the hitting-time distribution of ``m`` by one gamma path. The
nested integrals are integrated together as the system
``(I, q, J, K)' = (F, F - delta*q, 1 - exp(-q), S)`` by an adaptive
eighth-order Runge-Kutta method at relative tolerance 1e-12, so ``K``
gives ``E[W] = int_0^inf S``. Under random effects ``F`` is itself an
adaptive quadrature over the uniform inverse scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special


@dataclass(frozen=True)
class System:
    """Parameters of one system, as the benchmark writes them to its configs."""

    lambda0: float
    mu: float
    delta: float
    shape_rate: float
    failure_threshold: float
    beta: float | None = None          # deterministic rate
    inv_scale: tuple | None = None     # (a, b) of the uniform inverse rate

    def hitting_cdf(self, m: float):
        """``F(v)``: probability that one path has reached level ``m`` by ``v``."""
        alpha = self.shape_rate
        if self.beta is not None:
            x = self.beta * m

            def cdf(v: float) -> float:
                return float(special.gammaincc(alpha * v, x)) if v > 0 else 0.0

            return cdf
        a, b = self.inv_scale

        def mixed(v: float) -> float:
            if v <= 0:
                return 0.0
            val, _ = integrate.quad(
                lambda th: special.gammaincc(alpha * v, m / th), a, b,
                epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            return val / (b - a)

        return mixed


@dataclass(frozen=True)
class SurvivalTable:
    """``S`` at requested times, and ``int_0^inf S`` (the mean first-exceedance time)."""

    times: np.ndarray
    survival: np.ndarray
    mean_time: float

    def at(self, t: float) -> float:
        k = int(np.searchsorted(self.times, t))
        if k >= self.times.size or abs(self.times[k] - t) > 1e-9:
            raise KeyError(f"survival not tabulated at t={t}")
        return float(self.survival[k])


# Past this time every threshold the benchmark uses has S below 1e-30, so
# the renewal series and int S are complete to double precision.
T_END = 80.0


def survival_table(system: System, m: float, times) -> SurvivalTable:
    F = system.hitting_cdf(m)
    lam0, mu, delta = system.lambda0, system.mu, system.delta

    def rhs(t, y):
        f = F(t)
        return [f, f - delta * y[1], -math.expm1(-y[1]), math.exp(-lam0 * y[0] - mu * y[2])]

    times = np.unique(np.asarray(times, float))
    if times[0] < 0 or times[-1] > T_END:
        raise ValueError(f"times must lie in [0, {T_END}]")
    sol = integrate.solve_ivp(
        rhs, (0.0, T_END), [0.0, 0.0, 0.0, 0.0], method="DOP853",
        rtol=1e-12, atol=1e-16, dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"survival integration failed: {sol.message}")
    y = sol.sol(times)
    surv = np.exp(-lam0 * y[0] - mu * y[2])
    surv[times == 0.0] = 1.0
    return SurvivalTable(times=times, survival=surv, mean_time=float(sol.y[3, -1]))


def inspection_times(T: float) -> np.ndarray:
    return T * np.arange(0, int(T_END // T) + 1)


@dataclass(frozen=True)
class RenewalMoments:
    """Moments of the number of inspections ``N`` in one cycle of period ``T``.

    ``P(N > i) = S_M(iT)``, so ``E[N] = sum_i S_M(iT)`` and
    ``E[N^2] = sum_i (2i + 1) S_M(iT)``.
    """

    T: float
    mean_n: float
    mean_n2: float

    @property
    def mean_length(self) -> float:
        return self.T * self.mean_n

    @property
    def var_n(self) -> float:
        return self.mean_n2 - self.mean_n**2


def renewal_moments(table: SurvivalTable, T: float) -> RenewalMoments:
    s = np.array([table.at(t) for t in inspection_times(T)])
    i = np.arange(s.size)
    return RenewalMoments(T=T, mean_n=float(s.sum()), mean_n2=float(((2 * i + 1) * s).sum()))


def pure_corrective_rate(moments: RenewalMoments, mean_failure_time: float, costs: dict) -> float:
    """Exact cost rate of the policy that never replaces preventively.

    Every cycle ends correctively at the first inspection after the failure
    time ``W``; the downtime is ``R - W``.
    """
    e_r = moments.mean_length
    return (
        costs["inspection"] * moments.mean_n
        + costs["corrective"]
        + costs["downtime_rate"] * (e_r - mean_failure_time)
    ) / e_r


def hazard_limit(system: System) -> float:
    return system.lambda0 + system.mu * (1.0 - math.exp(-1.0 / system.delta))


def mixture_neg_log_likelihood(alpha: float, a: float, b: float, times, levels) -> float:
    """Negative log-likelihood of gamma paths whose inverse rate is U(a, b).

    Given the inverse rate ``theta`` a path's increments are independent
    ``Gamma(alpha * dt, scale=theta)``; the product of their densities is
    ``prod_j dx_j^(alpha*dt_j - 1) / Gamma(alpha*dt_j)`` times
    ``theta^(-alpha*t_n) * exp(-x_n/theta)``, and only the second factor is
    integrated over ``theta`` -- here by one adaptive quadrature of the
    vector of all paths' kernels.
    """
    total = 0.0
    t_n = np.empty(len(times))
    x_n = np.empty(len(times))
    for k, (t, x) in enumerate(zip(times, levels)):
        dt = np.diff(np.concatenate(([0.0], t)))
        dx = np.diff(np.concatenate(([0.0], x)))
        shapes = alpha * dt
        total += float(np.sum((shapes - 1.0) * np.log(dx) - special.gammaln(shapes)))
        t_n[k], x_n[k] = t[-1], x[-1]

    def log_kernel(th):
        return -alpha * t_n * np.log(th) - x_n / th

    # Each kernel peaks at theta = x_n / (alpha * t_n); dividing by its
    # maximum on [a, b] keeps every component O(1).
    top = log_kernel(np.clip(x_n / (alpha * t_n), a, b))
    vals, _ = integrate.quad_vec(
        lambda th: np.exp(log_kernel(th) - top), a, b, epsabs=0.0, epsrel=1e-12, norm="max",
    )
    total += float(np.sum(top + np.log(vals))) - len(times) * math.log(b - a)
    return -total
