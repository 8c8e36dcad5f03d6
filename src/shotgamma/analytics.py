"""Closed-form cycle quantities for the periodic-inspection policy.

Everything reduces to three exact ingredients: the first-exceedance law of
the preventive threshold (giving the cycle-length series and the density of
the first crossing), the gap law between crossing the preventive and the
failure threshold, and the void probability of secondary failures over a
window, obtained by averaging the thinned shot-noise intensity over the
shock process. Probabilities per inspection window and the expected
downtime follow by one or two outer quadratures.

Preventive/corrective splits and downtimes are supported for the
deterministic-scale model only: under random effects the first process to
cross the preventive threshold is selection-biased toward fast scales,
which the marginal gap law cannot represent. Cycle length and inspection
counts are exact under both scale specifications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .degradation import DeterministicScale, delta_hitting_survival
from .errors import NumericalError, ValidationError
from .lifetime import HittingLaw, SystemSpec, _decayed_convolution, first_passage_law
from .maintenance import CostRates, PolicyParams
from .special import leggauss


def _gl(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(32)
    return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights


@dataclass(frozen=True)
class CycleAnalytics:
    """Per-window policy quantities and their series aggregates.

    ``preventive_probs[k]`` / ``corrective_probs[k]`` / ``downtimes[k]``
    refer to the cycle ending at inspection ``(k+1)T``. The partition
    identity ``sum(P_p + P_c) = 1 - truncation_deficit`` holds by
    construction up to quadrature error.
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
    """Grid-cached evaluator of the per-window maintenance formulas."""

    def __init__(self, spec: SystemSpec, policy: PolicyParams, k_max: int = 8, tol: float = 1e-6):
        if k_max < 1:
            raise ValidationError("k_max must be at least 1")
        policy.validate_against(spec)
        self.spec = spec
        self.policy = policy
        self.k_max = k_max
        self.tol = tol
        T = policy.inspection_period
        M = policy.preventive_threshold
        L = spec.failure_threshold
        horizon = (k_max + 1) * T
        self._law_m = HittingLaw(spec.growth, M)
        self._passage = first_passage_law(spec, M, horizon + T)
        self._deterministic = isinstance(spec.growth.scale_spec, DeterministicScale)
        if self._deterministic and M < L:
            rate = spec.growth.scale_spec.beta
            ts = np.linspace(0.0, horizon, int(np.clip(horizon / 0.01, 2048, 20000)))
            gap_surv = delta_hitting_survival(spec.growth.shape_rate, rate, M, L, ts)
            self._gap_surv = PchipInterpolator(ts, gap_surv)
            # decayed convolution of the hitting density with the shock kernel
            f_m = self._law_m.pdf(np.maximum(ts, 1e-9))
            conv = _decayed_convolution(f_m, ts[1] - ts[0], spec.arrivals.delta)
            self._shock_conv = PchipInterpolator(ts, conv)

    # -- exact cycle-length series ------------------------------------

    def cycle_length_series(self) -> tuple[float, float, float]:
        """(E[R], E[N_I], deficit at the analysis cap) from the renewal series."""
        T = self.policy.inspection_period
        total = 1.0
        i = 1
        while True:
            s = float(self._passage.survival(min(i * T, self._passage.t_max)))
            total += s
            if s < 1e-12 or i * T >= self._passage.t_max:
                break
            i += 1
        deficit = float(self._passage.survival(min(self.k_max * T, self._passage.t_max)))
        return T * total, total, deficit

    # -- window quantities ----------------------------------------------

    def _require_deterministic(self):
        if not self._deterministic:
            raise ValidationError(
                "preventive/corrective split requires a deterministic scale model"
            )

    def secondary_void(self, u: float, v: float) -> float:
        """P(no other process crosses the failure level in (u, v]).

        Averages the displaced thinned intensity over the shock process:
        ``exp(-lambda0*A - mu*J)`` with ``A`` the base-level exposure and
        ``J`` the shock-kernel exposure.
        """
        self._require_deterministic()
        if v <= u:
            return 1.0
        gap_cdf = lambda t: 1.0 - self._gap_surv(t)
        w, ww = _gl(u, v)
        area = float(np.sum(ww * self._law_m.cdf(w) * gap_cdf(v - w)))
        s, ws = _gl(0.0, v)
        nodes, weights = leggauss(32)
        lo = np.maximum(s, u)
        mid = 0.5 * (v - lo)[:, None] * (nodes + 1.0) + lo[:, None]
        wts = 0.5 * (v - lo)[:, None] * weights
        q = np.sum(wts * self._shock_conv(np.maximum(mid - s[:, None], 0.0)) * gap_cdf(v - mid), axis=1)
        j = float(np.sum(ws * (-np.expm1(-q))))
        arr = self.spec.arrivals
        return float(np.exp(-arr.lambda0 * area - arr.mu * j))

    def window_split(self, k: int, n_inner: int = 20) -> tuple[float, float, float]:
        """(P_p, P_c, E_d) for the cycle ending at inspection ``(k+1)T``."""
        self._require_deterministic()
        T = self.policy.inspection_period
        tau = (k + 1) * T
        u, wu = _gl(k * T, tau)
        f_v = self._passage.pdf(u)
        if self.policy.preventive_threshold >= self.spec.failure_threshold:
            # pure corrective policy: the first crossing is the failure
            mass = float(np.sum(wu * f_v))
            downtime = float(np.sum(wu * f_v * (tau - u)))
            return 0.0, mass, downtime
        voids_tau = np.array([self.secondary_void(ui, tau) for ui in u])
        keep = self._gap_surv(tau - u) * voids_tau
        p_p = float(np.sum(wu * f_v * keep))
        p_c = float(np.sum(wu * f_v * (1.0 - keep)))
        downtime = 0.0
        inner_nodes, inner_w = leggauss(n_inner)
        for ui, wui, fvi in zip(u, wu, f_v):
            v = 0.5 * (tau - ui) * (inner_nodes + 1.0) + ui
            wv = 0.5 * (tau - ui) * inner_w
            alive = np.array(
                [self._gap_surv(vi - ui) * self.secondary_void(ui, vi) for vi in v]
            )
            downtime += wui * fvi * float(np.sum(wv * (1.0 - alive)))
        return p_p, p_c, downtime


def analytic_cycle_quantities(
    spec: SystemSpec, policy: PolicyParams, k_max: int = 8, tol: float = 1e-6
) -> CycleAnalytics:
    """Expected cycle length, inspections, and per-window action split.

    Windows are evaluated up to ``k_max`` or until the preventive-threshold
    survival drops below ``tol``, whichever comes first; a truncation
    deficit above ``10 * tol`` raises.
    """
    eng = PolicyAnalytics(spec, policy, k_max, tol)
    e_r, e_ni, _ = eng.cycle_length_series()
    T = policy.inspection_period
    p_p, p_c, e_d = [], [], []
    for k in range(k_max):
        if float(eng._passage.survival(k * T)) < tol:
            break
        pp, pc, ed = eng.window_split(k)
        p_p.append(pp)
        p_c.append(pc)
        e_d.append(ed)
    n_windows = len(p_p)
    deficit = float(eng._passage.survival(min(n_windows * T, eng._passage.t_max)))
    if deficit > 10 * tol:
        raise NumericalError(
            f"window series truncated with deficit {deficit:.3e} > 10*tol; raise k_max"
        )
    return CycleAnalytics(
        expected_cycle_length=e_r,
        expected_inspections=e_ni,
        preventive_probs=np.array(p_p),
        corrective_probs=np.array(p_c),
        downtimes=np.array(e_d),
        truncation_deficit=deficit,
    )


def cost_rate_analytic(
    spec: SystemSpec,
    policy: PolicyParams,
    costs: CostRates,
    k_max: int = 8,
    tol: float = 1e-6,
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
