import functools

import numpy as np
import pytest

from shotgamma import lifetime
from shotgamma.analytics import (
    PolicyAnalytics,
    _simpson_at_windows,
    analytic_cycle_quantities,
    cost_rate_analytic,
)
from shotgamma.arrivals import ShotNoiseParams
from shotgamma.degradation import GammaModel
from shotgamma.errors import NumericalError, ValidationError
from shotgamma.lifetime import SystemSpec, first_passage_law
from shotgamma.maintenance import (
    CORRECTIVE,
    PREVENTIVE,
    CostRates,
    PolicyParams,
    SimControl,
    cycle_rng,
    estimate_cost_rate,
    simulate_cycle,
)
from shotgamma.special import integrate

PARAMS = ShotNoiseParams(1.0, 2.0, 0.5)
SPEC = SystemSpec(PARAMS, GammaModel.deterministic(1.1, 1.4), 10.0)
SPEC_RE = SystemSpec(
    PARAMS, GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1), 10.0
)
POLICY = PolicyParams(19.0 / 3.0, 43.0 / 7.0)
COSTS = CostRates(100.0, 200.0, 50.0, 60.0)


@pytest.fixture(scope="module")
def quantities():
    return analytic_cycle_quantities(SPEC, POLICY, k_max=5)


class TestSeries:
    def test_inspection_count_identity(self, quantities):
        assert quantities.expected_inspections == pytest.approx(
            quantities.expected_cycle_length / POLICY.inspection_period, rel=1e-12
        )

    def test_cycle_length_matches_survival_series(self, quantities):
        law = first_passage_law(SPEC, POLICY.preventive_threshold, 40 * POLICY.inspection_period)
        T = POLICY.inspection_period
        series = T * sum(float(law.survival(i * T)) for i in range(40))
        assert quantities.expected_cycle_length == pytest.approx(series, rel=1e-8)

    def test_truncation_deficit_small(self, quantities):
        assert quantities.truncation_deficit < 1e-5

    def test_truncation_error_names_policy_and_cap(self):
        with pytest.raises(NumericalError, match=r"k_max=8 \(T=1, M=5\) with deficit 1\.\d+e-02"):
            analytic_cycle_quantities(SPEC, PolicyParams(1.0, 5.0), k_max=8)

    def test_window_sums_share_one_truncation(self):
        # E[N_I], the split and the deficit all stop at the first window
        # whose start survival is below tol
        policy = PolicyParams(8.0, 7.0)
        eng = PolicyAnalytics(SPEC, policy)
        q = analytic_cycle_quantities(SPEC, policy)
        n = eng.n_windows()
        series = float(eng._passage.survival(8.0 * np.arange(n)).sum())
        assert q.expected_inspections == pytest.approx(series, rel=1e-14)
        assert q.preventive_probs.size == n
        total = q.total_preventive + q.total_corrective
        assert total == pytest.approx(1.0 - q.truncation_deficit, abs=1e-12)
        assert q.truncation_deficit < eng.tol

    @pytest.mark.parametrize("policy", [PolicyParams(25.0, 10.0), PolicyParams(6.0, 5.0)])
    def test_window_cap_changes_no_value(self, policy):
        rates = [cost_rate_analytic(SPEC, policy, COSTS, k_max=k) for k in (None, 8, 80)]
        assert rates[0] == rates[1] == rates[2]

    def test_window_beyond_the_priced_ones_rejected(self):
        eng = PolicyAnalytics(SPEC, PolicyParams(8.0, 7.0))
        with pytest.raises(ValidationError, match="window"):
            eng.window_split(eng.n_windows())

    def test_survival_that_never_falls_raises(self):
        # without arrivals S_M = 1 everywhere: the horizon search stops at
        # its cap and the deficit check fires
        spec = SystemSpec(ShotNoiseParams(0.0, 0.0, 0.5), SPEC.growth, 10.0)
        with pytest.raises(NumericalError, match="deficit 1.000e\\+00"):
            cost_rate_analytic(spec, PolicyParams(6.0, 5.0), COSTS)


class TestPresetGrid:
    @pytest.fixture(scope="class")
    def preset(self):
        from shotgamma.config import load_config

        return load_config("benchmark_deterministic")

    def test_first_row_evaluates_at_defaults(self, preset):
        for M in preset.m_grid:
            rate = cost_rate_analytic(preset.system, PolicyParams(1.0, float(M)), preset.costs)
            assert np.isfinite(rate) and rate > 0

    def test_laws_shared_across_the_grid(self, preset):
        lifetime._cached_first_passage.cache_clear()
        try:
            for T in preset.t_grid:
                for M in preset.m_grid:
                    cost_rate_analytic(preset.system, PolicyParams(float(T), float(M)), preset.costs)
            info = lifetime._cached_first_passage.cache_info()
        finally:
            lifetime._cached_first_passage.cache_clear()
        assert info.misses <= 2 * len(preset.m_grid)
        assert info.currsize < info.maxsize


class TestWindowPartition:
    def test_window_mass_is_first_crossing_mass(self, quantities):
        # P_p + P_c per window equals the survival drop across the window,
        # also at M = L, where the first crossing is the failure
        T = POLICY.inspection_period
        pure = analytic_cycle_quantities(SPEC, PolicyParams(T, SPEC.failure_threshold), k_max=6)
        for q, M in [(quantities, POLICY.preventive_threshold), (pure, SPEC.failure_threshold)]:
            law = first_passage_law(SPEC, M, 40 * T)
            for k in range(len(q.preventive_probs)):
                drop = float(law.survival(k * T)) - float(law.survival((k + 1) * T))
                got = q.preventive_probs[k] + q.corrective_probs[k]
                assert got == pytest.approx(drop, abs=1e-7)

    def test_total_mass_below_one(self, quantities):
        total = quantities.total_preventive + quantities.total_corrective
        assert total <= 1.0 + 1e-9
        assert total == pytest.approx(1.0 - quantities.truncation_deficit, abs=1e-6)

    def test_small_preventive_threshold_partition(self):
        policy = PolicyParams(4.0, 1.0)
        q = analytic_cycle_quantities(SPEC, policy, k_max=4)
        law = first_passage_law(SPEC, 1.0, 40.0)
        drop = 1.0 - float(law.survival(4.0))
        assert q.preventive_probs[0] + q.corrective_probs[0] == pytest.approx(drop, abs=1e-6)

    def test_downtime_nonnegative_and_bounded(self, quantities):
        assert np.all(quantities.downtimes >= 0.0)
        assert np.all(quantities.downtimes <= POLICY.inspection_period)


class TestFirstWindow:
    # No process can be at M before the first inspection, so the first
    # window ends corrective exactly when the failure level is reached by T,
    # and its downtime is the time spent failed before T. At M = L every
    # window is split this way. Both scale models obey it.
    CELLS = [POLICY, PolicyParams(9.0, 1.0), PolicyParams(19.0 / 3.0, 10.0)]

    @pytest.fixture(scope="class", params=[SPEC, SPEC_RE], ids=["deterministic", "random_effects"])
    def spec(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def failure_law(self, spec):
        return first_passage_law(spec, spec.failure_threshold, 40.0)

    @staticmethod
    @functools.cache
    def first_split(spec, policy):
        return PolicyAnalytics(spec, policy, k_max=2).window_split(0)

    @pytest.mark.parametrize("policy", CELLS)
    def test_corrective_probability_is_failure_by_T(self, spec, policy, failure_law):
        _, p_c, _ = self.first_split(spec, policy)
        want = 1.0 - failure_law.survival(policy.inspection_period)
        assert p_c == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("policy", CELLS)
    def test_downtime_is_integrated_failure_cdf(self, spec, policy, failure_law):
        _, _, e_d = self.first_split(spec, policy)
        want = integrate(lambda s: 1.0 - failure_law.survival(s), 0.0, policy.inspection_period)
        assert e_d == pytest.approx(want, abs=1e-6)


class TestVoid:
    def test_void_is_one_on_empty_window(self):
        eng = PolicyAnalytics(SPEC, POLICY, k_max=3)
        assert eng.secondary_void(5.0, 5.0) == 1.0

    def test_void_decreasing_in_window_length(self):
        eng = PolicyAnalytics(SPEC, POLICY, k_max=3)
        vals = [eng.secondary_void(2.0, v) for v in [3.0, 5.0, 8.0, 12.0]]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize(
        "policy", [PolicyParams(19.0 / 3.0, 34.0 / 7.0), PolicyParams(11.0 / 3.0, 43.0 / 7.0)]
    )
    def test_random_effects_split_matches_simulation(self, policy):
        # each arrival's rate is one more mark of the Cox process, so the
        # rate-averaged void table is exact; the finely dated simulated
        # crossings leave no downtime bias to speak of
        q = analytic_cycle_quantities(SPEC_RE, policy)
        n = 40_960
        est = estimate_cost_rate(
            SPEC_RE, policy, CostRates(0, 0, 0, 1), n, SimControl(crossing_refinement=14), 16, 0
        )
        p_c = q.total_corrective
        z_c = (est.corrective_fraction - p_c) / np.sqrt(p_c * (1 - p_c) / n)
        z_d = (est.point - q.total_downtime / q.expected_cycle_length) / est.std_error
        assert abs(z_c) <= 4 and abs(z_d) <= 4

    def test_random_effects_series_supported(self):
        eng = PolicyAnalytics(SPEC_RE, POLICY, k_max=3)
        e_r, e_ni, _ = eng.cycle_length_series()
        assert e_r > POLICY.inspection_period
        assert e_ni == pytest.approx(e_r / POLICY.inspection_period)


class TestCostRate:
    def test_zero_costs(self):
        assert cost_rate_analytic(SPEC, POLICY, CostRates(0, 0, 0, 0), k_max=4) == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, np.nan, True])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # tol >= 1 leaves no window to price; no k_max meets a deficit bound of tol <= 0
        with pytest.raises(ValidationError, match="tol"):
            cost_rate_analytic(SPEC, PolicyParams(6.0, 5.0), COSTS, tol=tol)

    @pytest.mark.parametrize("k_max", [0, 2.5, True, "4"])
    def test_k_max_must_be_a_positive_integer(self, k_max):
        policy = PolicyParams(6.0, 5.0)
        for evaluate in (lambda **kw: PolicyAnalytics(SPEC, policy, **kw),
                         lambda **kw: analytic_cycle_quantities(SPEC, policy, **kw),
                         lambda **kw: cost_rate_analytic(SPEC, policy, COSTS, **kw)):
            with pytest.raises(ValidationError, match="k_max"):
                evaluate(k_max=k_max)

    def test_pure_corrective_policy(self):
        # preventive threshold at the failure level: every replacement is
        # corrective and the first crossing is the failure itself
        policy = PolicyParams(19.0 / 3.0, 10.0)
        q = analytic_cycle_quantities(SPEC, policy, k_max=6)
        assert q.total_preventive == 0.0
        assert q.total_corrective == pytest.approx(1.0 - q.truncation_deficit, abs=1e-6)
        assert np.all(q.downtimes >= 0.0)

    def test_matches_simulation_estimate(self):
        # the analytic rate is exact up to quadrature; the tolerance covers
        # the Monte Carlo error of 6000 cycles and the simulator's path
        # discretization
        ana = cost_rate_analytic(SPEC, POLICY, COSTS, k_max=5)
        est = estimate_cost_rate(SPEC, POLICY, COSTS, 6000, SimControl(crossing_refinement=10), 77, 0)
        assert ana == pytest.approx(est.point, rel=0.025)

    def test_equal_replacement_cost_identity(self, quantities):
        # with C_p = C_c = c and no downtime cost the rate collapses to
        # c/E[R] + C_I/T (up to the truncated tail)
        c, ci = 120.0, 50.0
        got = cost_rate_analytic(SPEC, POLICY, CostRates(c, c, ci, 0.0), k_max=5)
        want = c / quantities.expected_cycle_length + ci / POLICY.inspection_period
        assert got == pytest.approx(want, rel=1e-4)


class TestTableStep:
    """The tables at ``lifetime.LAW_STEP`` against the same code at a quarter of it."""

    @staticmethod
    def _splits(policy, k_max):
        lifetime._cached_first_passage.cache_clear()
        eng = PolicyAnalytics(SPEC, policy, k_max, 1e-9)
        return np.array([eng.window_split(k) for k in range(eng.n_windows())])

    @pytest.mark.parametrize(
        "policy, k_max",
        [
            (PolicyParams(19.0 / 3.0, 34.0 / 7.0), 13),
            (PolicyParams(1.0, 4.0), 20),
            (PolicyParams(9.0, 10.0), 9),
            (PolicyParams(4.0, 0.05), 20),
        ],
        ids=["preset_optimum", "T1", "M_eq_L", "M_small"],
    )
    def test_window_split_matches_quarter_step(self, monkeypatch, policy, k_max):
        try:
            coarse = self._splits(policy, k_max)
            monkeypatch.setattr(lifetime, "LAW_STEP", lifetime.LAW_STEP / 4)
            fine = self._splits(policy, k_max)
        finally:
            lifetime._cached_first_passage.cache_clear()
        assert coarse.shape == fine.shape
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, per", [(1, 2), (2, 2), (4, 6), (3, 50)])
    def test_window_sums_are_simpson(self, n, per):
        from scipy.integrate import simpson

        h = 0.3
        y = np.random.default_rng(5).normal(size=(3, (n - 1) * per + 1))
        got = _simpson_at_windows(y, h, per)
        assert got.shape == (3, n)
        want = [[simpson(row[: k * per + 1], dx=h) if k else 0.0 for k in range(n)] for row in y]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


class TestAgainstSimulation:
    def test_window_quantities_match_simulation(self, quantities):
        # moderate replication here; the acceptance suite runs the full
        # 1e5-cycle comparison of every window quantity
        sim = SimControl(crossing_refinement=12)
        n = 15_000
        k_range = len(quantities.preventive_probs)
        pp = np.zeros(k_range)
        pc = np.zeros(k_range)
        ed = np.zeros(k_range)
        lens = np.empty(n)
        for i in range(n):
            out = simulate_cycle(SPEC, POLICY, COSTS, sim, cycle_rng(404, 0, i))
            lens[i] = out.length
            k = out.inspections - 1
            if k < k_range:
                if out.action == PREVENTIVE:
                    pp[k] += 1
                elif out.action == CORRECTIVE:
                    pc[k] += 1
                    ed[k] += out.downtime
        assert abs(lens.mean() - quantities.expected_cycle_length) <= 3 * lens.std() / np.sqrt(n)
        for k in range(2):
            se_p = np.sqrt(max(pp[k] / n * (1 - pp[k] / n), 1e-9) / n)
            se_c = np.sqrt(max(pc[k] / n * (1 - pc[k] / n), 1e-9) / n)
            assert abs(pp[k] / n - quantities.preventive_probs[k]) <= 3 * se_p + 2e-3
            assert abs(pc[k] / n - quantities.corrective_probs[k]) <= 3 * se_c + 2e-3
            assert abs(ed[k] / n - quantities.downtimes[k]) <= 0.03
