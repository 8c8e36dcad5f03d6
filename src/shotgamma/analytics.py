"""Closed-form cycle quantities for the periodic-inspection policy.

The cycle length and the inspection count follow from the renewal series
of the first-exceedance law of the preventive threshold M. The split of
each inspection window into preventive and corrective endings, and its
expected downtime, are exact as well. Given the shocks, the degradation
processes form a Poisson process marked by (arrival time, path), so the
probability ``V_k(d)`` that no process is at or above M at the inspection
``a = kT`` and none is at or above the failure level L at ``a + d`` is the
void probability of a marked Cox process (Daley & Vere-Jones, *An
Introduction to the Theory of Point Processes*, Laplace functional),
averaged over the shocks as the first-exceedance law is. Window ``k``'s
corrective probability is ``S_M(a) - V_k(T)``, its downtime
``int_0^T (S_M(a) - V_k(d)) dd``, and its preventive probability the rest
of the survival drop ``S_M(a) - S_M(a+T)``.

Every quantity holds under both scale models. Under random effects each
process's rate is one more independent mark of the Cox process, so the
probability that an arrival is bad is the one-rate probability averaged
over ``GammaModel.rate_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import degradation
from .errors import NumericalError, ValidationError, checked_number
from . import lifetime
from .lifetime import SystemSpec, _decayed_convolution, first_passage_law
from .maintenance import CostRates, PolicyParams
from .special import gauss_legendre

# Void table resolution: Gauss-Legendre nodes in the downtime d and on each
# half of the level range. The uniform age grid takes ``lifetime.LAW_STEP``.
_D_NODES = 32
_X_NODES = 24
# Where the horizon search gives up, so that it ends when S_M never falls below tol.
_MAX_HORIZON = 2048.0


@dataclass(frozen=True)
class CycleAnalytics:
    """Per-window policy quantities and their series aggregates.

    ``preventive_probs[k]`` / ``corrective_probs[k]`` / ``downtimes[k]``
    refer to the cycle ending at inspection ``(k+1)T``. The partition
    identity ``sum(P_p + P_c) = 1 - truncation_deficit`` holds by
    construction up to rounding.
    """

    expected_cycle_length: float
    expected_inspections: float
    preventive_probs: np.ndarray
    corrective_probs: np.ndarray
    downtimes: np.ndarray
    truncation_deficit: float

    @property
    def total_preventive(self) -> float:
        return float(self.preventive_probs.sum())

    @property
    def total_corrective(self) -> float:
        return float(self.corrective_probs.sum())

    @property
    def total_downtime(self) -> float:
        return float(self.downtimes.sum())


class PolicyAnalytics:
    """Evaluator of the per-window maintenance formulas of one policy.

    Every series stops at the first ``n`` with ``S_M(nT) < tol``, or at an
    optional cap ``k_max``. The laws come from the shared law cache at the
    horizons of :func:`_law_past`; the table of ``log V_k`` over the ``n``
    windows is built on the first ``window_split`` call and serves the others.
    """

    def __init__(self, spec: SystemSpec, policy: PolicyParams, k_max: int | None = None, tol: float = 1e-9):
        if k_max is not None:
            k_max = checked_number(k_max, "k_max", at_least=1, integer=True)
        tol = checked_number(tol, "tol", above=0)
        if tol >= 1.0:
            raise ValidationError(f"tol must lie in (0, 1), got {tol}")
        policy.validate_against(spec)
        self.spec = spec
        self.policy = policy
        self.tol = tol
        T = policy.inspection_period
        self._passage = _law_past(spec, policy.preventive_threshold, T, tol)
        s = self._passage.survival(T * np.arange(int(self._passage.t_max // T) + 1))
        n = int(np.argmax(s < tol)) or s.size - 1  # S_M(0) = 1, so 0 means none is below tol
        self._n = min(n, k_max or n)
        # S_M(kT) for k = 0 .. n
        self._survival = s[: self._n + 1]
        self._log_voids = None
        self._gap = None

    # -- exact cycle-length series ------------------------------------

    def cycle_length_series(self) -> tuple[float, float, float]:
        """(E[R], E[N_I], deficit ``S_M(nT)``) from the renewal series over ``k < n``."""
        total = float(self._survival[:-1].sum())
        return self.policy.inspection_period * total, total, float(self._survival[-1])

    def n_windows(self) -> int:
        """The ``n`` priced windows: those starting with ``S_M(kT) >= tol``, at most ``k_max``."""
        return self._n

    # -- window quantities ----------------------------------------------

    def secondary_void(self, u: float, v: float) -> float:
        """P(no other process crosses the failure level in (u, v]), approximately.

        The older independence approximation, which ``window_split`` no
        longer uses: it averages the displaced thinned intensity over the
        shock process, ``exp(-lambda0*A - mu*J)`` with ``A`` the base-level
        exposure and ``J`` the shock-kernel exposure, taking the gap from
        the preventive to the failure level by its unconditional law and
        the secondary crossings as independent of the first one.
        """
        if self.spec.growth.has_random_effects:
            raise ValidationError("secondary_void's gap law requires a deterministic scale model")
        if v <= u:
            return 1.0
        gap_surv, shock_conv = self._gap_law()
        gap_cdf = lambda t: 1.0 - gap_surv(t)
        w, ww = gauss_legendre([u, v], 32)
        area = float(np.sum(ww * self._passage.law.cdf(w) * gap_cdf(v - w)))
        s, ws = gauss_legendre([0.0, v], 32)
        # one rule on (max(s, u), v) per shock time s
        mid, wts = gauss_legendre(np.stack([np.maximum(s, u), np.full_like(s, v)], axis=-1), 32)
        q = np.sum(wts * shock_conv(np.maximum(mid - s[:, None], 0.0)) * gap_cdf(v - mid), axis=1)
        j = float(np.sum(ws * (-np.expm1(-q))))
        arr = self.spec.arrivals
        return float(np.exp(-arr.lambda0 * area - arr.mu * j))

    def _gap_law(self):
        # Unconditional gap survival from M to L, and the decayed convolution
        # of the M-hitting density with the shock kernel.
        if self._gap is None:
            # lazy: scipy.interpolate adds about 26 MB to a process
            from scipy.interpolate import PchipInterpolator

            spec, M = self.spec, self.policy.preventive_threshold
            horizon = self._n * self.policy.inspection_period
            ts = np.linspace(0.0, horizon, int(np.clip(horizon / 0.01, 2048, 20000)))
            # looked up on the module at call time, where a tracer may rebind it
            gap = degradation.DeltaHittingLaw(
                spec.growth.shape_rate, spec.growth.scale_spec.beta, M, spec.failure_threshold
            )
            f_m = self._passage.law.pdf(np.maximum(ts, 1e-9))
            conv = _decayed_convolution(f_m, ts[1] - ts[0], spec.arrivals.delta)
            self._gap = PchipInterpolator(ts, gap.survival(ts)), PchipInterpolator(ts, conv)
        return self._gap

    def _void_table(self) -> np.ndarray:
        """``log V_k(d)`` for the windows ``k < n`` (columns) at the downtime nodes and ``d = T`` (rows).

        ``V_k(d)`` is the probability that no process is at or above M at
        ``a = kT`` and none at or above L at ``a + d``: the void probability
        of the marked Cox process of (arrival time, path), averaged over the
        shocks as in ``FirstPassageLaw``. An arrival of age ``r`` at ``a`` is
        bad with probability ``g(r; d) = F_M(r) + J(r, d)``, where
        ``J(r, d) = P(X(r) < M, X(r+d) >= L)``; one arriving in ``(a, a+d]``
        is bad if it reaches L by ``a + d``, which the L-level law carries.
        With ``C(rho; d)`` the decayed convolution of ``g`` in the age,

        ``log V_k(d) = -lambda0*(int_0^a g dr + I_L(d))
        - mu*(int_0^a (1 - exp(-C(rho; d) - exp(-delta*rho)*q_L(d))) drho + J_L(d))``.

        One uniform age grid through every ``kT``, with an even number of
        steps of at most ``lifetime.LAW_STEP`` per window, serves all windows:
        ``C`` comes from the fourth-order ``_decayed_convolution``, and both
        age integrals are composite Simpson, summed only at the ``n``
        inspection ages. ``V`` is within 1e-9 of the same table at a quarter
        of the step, as the first-exceedance law is.
        """
        spec, arr, n = self.spec, self.spec.arrivals, self._n
        T = self.policy.inspection_period
        M, L = self.policy.preventive_threshold, spec.failure_threshold
        alpha = spec.growth.shape_rate
        d = np.append(gauss_legendre([0.0, T], _D_NODES)[0], T)
        per = 2 * int(np.ceil(0.5 * T / lifetime.LAW_STEP))
        h = T / per
        r = np.linspace(0.0, (n - 1) * T, (n - 1) * per + 1)
        # J = int_0^M p_r(x) Q(alpha*d, beta*(L-x)) dx, with p_r and P_r the
        # Gamma(alpha*r, beta) density and cdf. Below c = M/2 it is taken by
        # parts, P_r(c)*Q(alpha*d, beta*(L-c)) - int_0^c P_r(x) f_d(L-x) dx
        # with f_d the density of the increment over d, since p_r is singular
        # at 0; above c directly, since f_d is near-singular at L-M -> 0.
        # Cubic maps cluster each panel's nodes at its outer end.
        t, w = gauss_legendre([0.0, 1.0], _X_NODES)
        c = 0.5 * M
        x_lo, x_hi, w = c * t**3, M - c * t**3, 3.0 * c * t**2 * w
        shape = alpha * d
        a = alpha * r[:, None]
        # Each arrival draws its own rate, one more independent mark of the
        # Cox process, so g is the one-rate g averaged over the rate nodes.
        g = 0.0
        for beta, weight in zip(*spec.growth.rate_nodes()):
            z = beta * (L - x_lo)[:, None]
            f_d = beta * np.exp((shape - 1.0) * np.log(z) - z - sp.gammaln(shape))
            p_r = beta * np.exp((a - 1.0) * np.log(beta * x_hi) - beta * x_hi - sp.gammaln(a))
            g = g + weight * (
                sp.gammaincc(alpha * r, beta * M)[:, None]
                + sp.gammainc(alpha * r, beta * c)[:, None] * sp.gammaincc(shape, beta * (L - c))
                - sp.gammainc(a, beta * x_lo) @ (w[:, None] * f_d)
                + p_r @ (w[:, None] * sp.gammaincc(shape, beta * (L - x_hi)[:, None]))
            )
        g = np.ascontiguousarray(g.T)
        base_l, shock_l, q_l = _law_past(spec, L, T, self.tol).exposures(d)
        conv = _decayed_convolution(g, h, arr.delta)
        shock = -np.expm1(-(conv + np.exp(-arr.delta * r) * q_l[:, None]))
        base = _simpson_at_windows(g, h, per)
        shock = _simpson_at_windows(shock, h, per)
        return -(arr.lambda0 * base + base_l[:, None]) - (arr.mu * shock + shock_l[:, None])

    def window_split(self, k: int) -> tuple[float, float, float]:
        """(P_p, P_c, E_d) for the cycle ending at inspection ``(k+1)T``.

        With ``a = kT`` and ``V_k`` the void probability of ``_void_table``,
        ``P_c = S_M(a) - V_k(T)``, ``E_d = int_0^T (S_M(a) - V_k(d)) dd`` by
        Gauss-Legendre in ``d``, and ``P_p = S_M(a) - S_M(a+T) - P_c``. At
        ``M = L`` the first crossing is the failure, so ``V_k(d) = S_L(a+d)``
        and ``P_p = 0``. ``k`` must be one of the ``n`` priced windows.
        """
        if not 0 <= k < self._n:
            raise ValidationError(f"window {k} outside the {self._n} priced windows 0..{self._n - 1}")
        T = self.policy.inspection_period
        s_a, s_tau = self._survival[k : k + 2]
        d, wd = gauss_legendre([0.0, T], _D_NODES)
        if self.policy.preventive_threshold >= self.spec.failure_threshold:
            voids = np.append(self._passage.survival(k * T + d), s_tau)
        else:
            if self._log_voids is None:
                self._log_voids = self._void_table()
            voids = np.exp(self._log_voids[:, k])
        p_c = s_a - float(voids[-1])
        downtime = float(np.sum(wd * (s_a - voids[:-1])))
        p_p = s_a - s_tau - p_c
        return p_p, p_c, downtime


def _simpson_at_windows(y: np.ndarray, h: float, per: int) -> np.ndarray:
    """Composite Simpson integrals from 0 to every ``per``-th node of the last axis.

    ``per`` is even, so each window is whole two-step panels.
    """
    panels = (h / 3.0) * (y[..., :-1:2] + 4.0 * y[..., 1::2] + y[..., 2::2])
    windows = panels.reshape(*y.shape[:-1], -1, per // 2).sum(axis=-1)
    out = np.zeros(y.shape[:-1] + (windows.shape[-1] + 1,))
    np.cumsum(windows, axis=-1, out=out[..., 1:])
    return out


def _law_past(spec: SystemSpec, level: float, T: float, tol: float) -> lifetime.FirstPassageLaw:
    """The cached law of ``level`` on the shortest ``t = 32*2**j > T`` with ``S(t - T) < tol``,
    the search stopping once ``t`` reaches ``_MAX_HORIZON``. The cells of a
    grid share it per level, and every priced window, ``nT < t``, lies in its range.
    """
    t = 32.0
    while t <= T:
        t *= 2.0
    law = first_passage_law(spec, level, t)
    while t < _MAX_HORIZON and law.survival(t - T) >= tol:
        t *= 2.0
        law = first_passage_law(spec, level, t)
    return law


def analytic_cycle_quantities(
    spec: SystemSpec, policy: PolicyParams, k_max: int | None = None, tol: float = 1e-9
) -> CycleAnalytics:
    """Expected cycle length, inspections, and per-window action split.

    Every sum runs over the ``n`` windows of :class:`PolicyAnalytics`; a
    deficit of at least ``tol`` (``k_max`` or ``_MAX_HORIZON`` came first) raises.
    """
    eng = PolicyAnalytics(spec, policy, k_max, tol)
    e_r, e_ni, deficit = eng.cycle_length_series()
    if deficit >= tol:
        raise NumericalError(
            f"window series truncated at k_max={k_max} (T={policy.inspection_period:g}, M="
            f"{policy.preventive_threshold:g}) with deficit {deficit:.3e} >= tol at t_max={eng._passage.t_max:g}"
        )
    p_p, p_c, e_d = np.array([eng.window_split(k) for k in range(eng.n_windows())]).reshape(-1, 3).T
    return CycleAnalytics(e_r, e_ni, p_p, p_c, e_d, deficit)


def cost_rate_analytic(
    spec: SystemSpec, policy: PolicyParams, costs: CostRates, k_max: int | None = None, tol: float = 1e-9
) -> float:
    """Expected cost per unit time from the analytic cycle quantities."""
    q = analytic_cycle_quantities(spec, policy, k_max, tol)
    numerator = (
        costs.corrective * q.total_corrective
        + costs.preventive * q.total_preventive
        + costs.inspection * q.expected_inspections
        + costs.downtime_rate * q.total_downtime
    )
    return numerator / q.expected_cycle_length
