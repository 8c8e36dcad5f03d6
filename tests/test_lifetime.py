import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp
from scipy.stats import kstest

from shotgamma import lifetime
from shotgamma.arrivals import ShotNoiseParams, simulate_arrival_batch
from shotgamma.degradation import GammaModel, HittingLaw, hitting_cdf
from shotgamma.errors import ValidationError
from shotgamma.lifetime import (
    HittingTimeSampler,
    SystemSpec,
    displaced_expected_intensity,
    expected_exceedances,
    first_passage_law,
    hazard_limit,
    simulate_first_passage_batch,
)
from shotgamma.special import integrate

PARAMS = ShotNoiseParams(1.0, 2.0, 0.5)
GROWTH = GammaModel.deterministic(1.1, 1.4)
RE_GROWTH = GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1)
SPEC = SystemSpec(PARAMS, GROWTH, 10.0)


class TestTypes:
    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            SystemSpec(PARAMS, GROWTH, 0.0)


class TestDisplacedIntensity:
    def test_zero_at_origin(self):
        assert displaced_expected_intensity(SPEC, 10.0, 0.0) == 0.0

    def test_poisson_degenerate(self):
        spec = SystemSpec(ShotNoiseParams(1.0, 0.0, 0.5), GROWTH, 10.0)
        for t in [5.0, 12.0]:
            want = 1.0 * hitting_cdf(1.1, 1.4, 10.0, t)
            assert displaced_expected_intensity(spec, 10.0, t) == pytest.approx(want, rel=1e-8)

    def test_limit_is_stationary_rate(self):
        assert displaced_expected_intensity(SPEC, 10.0, 120.0) == pytest.approx(5.0, abs=1e-3)

    def test_matches_exceedance_rate_monte_carlo(self):
        # empirical exceedance intensity: exceedances per unit time in a
        # short window around t, over many independent systems
        rng = np.random.default_rng(0)
        n = 60_000
        t, w = 10.0, 0.5
        run_ids, arrivals = simulate_arrival_batch(PARAMS, t + w, n, rng)
        sampler = HittingTimeSampler(GROWTH, 10.0)
        cross = arrivals + sampler.sample(rng, arrivals.size)
        in_window = (cross > t - w) & (cross <= t + w)
        per_run = np.bincount(run_ids[in_window], minlength=n) / (2 * w)
        se = per_run.std(ddof=1) / np.sqrt(n)
        ana = displaced_expected_intensity(SPEC, 10.0, t)
        assert abs(per_run.mean() - ana) <= 3 * se + 1e-3


class TestExpectedExceedances:
    def test_zero_at_origin(self):
        assert expected_exceedances(SPEC, 10.0, 0.0) == 0.0

    def test_tiny_threshold_gives_arrival_count(self):
        # the instant-exceedance limit is approached like 1/log(1/L)
        from shotgamma.arrivals import expected_num_arrivals

        spec = SystemSpec(PARAMS, GROWTH, 1e-40)
        got = expected_exceedances(spec, 1e-40, 5.0)
        want = expected_num_arrivals(PARAMS, 5.0)
        assert got < want
        assert got == pytest.approx(want, rel=5e-3)

    def test_monte_carlo(self):
        rng = np.random.default_rng(1)
        n = 100_000
        t = 10.0
        run_ids, arrivals = simulate_arrival_batch(PARAMS, t, n, rng)
        sampler = HittingTimeSampler(GROWTH, 10.0)
        cross = arrivals + sampler.sample(rng, arrivals.size)
        counts = np.bincount(run_ids[cross <= t], minlength=n)
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - expected_exceedances(SPEC, 10.0, t)) <= 3 * se

    def test_is_integral_of_displaced_intensity(self):
        t = 12.0
        numeric = integrate(lambda u: displaced_expected_intensity(SPEC, 10.0, u), 0.0, t)
        assert numeric == pytest.approx(expected_exceedances(SPEC, 10.0, t), rel=1e-4)


class TestFirstPassageSurvival:
    def test_one_at_zero(self):
        assert first_passage_law(SPEC, 10.0, 25.0).survival(0.0) == 1.0

    def test_time_outside_range_names_time_range_and_level(self):
        law = first_passage_law(SPEC, 7.5, 5.0)
        with pytest.raises(ValidationError, match=r"time 6\.5 outside .*\[0, 5\.0\] .* level 7\.5"):
            law.survival(np.array([1.0, 6.5, 8.0]))

    def test_poisson_closed_form(self):
        spec = SystemSpec(ShotNoiseParams(1.0, 0.0, 0.5), GROWTH, 10.0)
        for t in [5.0, 12.0, 18.0]:
            closed = np.exp(-integrate(lambda u: hitting_cdf(1.1, 1.4, 10.0, u), 0.0, t))
            assert first_passage_law(spec, 10.0, 20.0).survival(t) == pytest.approx(
                closed, abs=1e-8
            )

    def test_factorization(self):
        law = first_passage_law(SPEC, 10.0, 25.0)
        ts = np.linspace(0.5, 24.0, 60)
        c1, c2 = law.factors(ts)
        assert np.all((c1 > 0) & (c1 <= 1.0))
        assert np.all((c2 > 0) & (c2 <= 1.0))
        np.testing.assert_allclose(c1 * c2, law.survival(ts), rtol=1e-10)
        # C1 alone is the shock-free survival
        spec0 = SystemSpec(ShotNoiseParams(1.0, 0.0, 0.5), GROWTH, 10.0)
        law0 = first_passage_law(spec0, 10.0, 25.0)
        np.testing.assert_allclose(c1, law0.survival(ts), rtol=1e-6)

    def test_threshold_monotonicity(self):
        ts = np.linspace(0.5, 20.0, 30)
        s_low = first_passage_law(SPEC, 6.0, 25.0).survival(ts)
        s_high = first_passage_law(SPEC, 10.0, 25.0).survival(ts)
        assert np.all(s_low <= s_high + 1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(2)
        n = 30_000
        w = simulate_first_passage_batch(SPEC, 10.0, 20.0, n, rng)
        law = first_passage_law(SPEC, 10.0, 25.0)
        for t in np.linspace(1.0, 20.0, 20):
            emp = 1.0 - np.mean(w <= t)
            assert abs(emp - float(law.survival(t))) <= 0.013


class TestHazard:
    def test_zero_at_origin(self):
        assert first_passage_law(SPEC, 10.0, 25.0).hazard(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_ifr_benchmark_scenario(self):
        hd = first_passage_law(SPEC, 10.0, 40.0).hazard_derivative(np.linspace(0.1, 30.0, 300))
        assert np.min(hd) >= -1e-10

    def test_ifr_randomized_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            params = ShotNoiseParams(rng.uniform(0.1, 2), rng.uniform(0, 3), rng.uniform(0.2, 2))
            growth = GammaModel.deterministic(rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            L = rng.uniform(3, 12)
            spec = SystemSpec(params, growth, L)
            hd = first_passage_law(spec, L, 40.0).hazard_derivative(np.linspace(0.1, 30.0, 120))
            assert np.min(hd) >= -1e-10

    def test_consistency_with_log_survival_slope(self):
        law = first_passage_law(SPEC, 10.0, 30.0)
        eps = 1e-4
        for t in [4.0, 9.0, 14.0, 20.0]:
            num = -(np.log(law.survival(t + eps)) - np.log(law.survival(t - eps))) / (2 * eps)
            assert num == pytest.approx(float(law.hazard(t)), abs=1e-4)

    def test_limit_closed_form(self):
        assert hazard_limit(PARAMS) == pytest.approx(2.7293294335267746, rel=1e-12)
        assert hazard_limit(ShotNoiseParams(1.3, 0.0, 0.5)) == pytest.approx(1.3)
        # fast decay kills the shock contribution
        assert hazard_limit(ShotNoiseParams(1.0, 2.0, 1e9)) == pytest.approx(1.0, abs=1e-6)

    @given(
        st.booleans(),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_source_edges_stay_in_range(self, shocks_only, rate, delta):
        # lambda0 = 0 or mu = 0, with delta from very slow to very fast decay
        params = ShotNoiseParams(0.0, rate, delta) if shocks_only else ShotNoiseParams(rate, 0.0, delta)
        law = first_passage_law(SystemSpec(params, GROWTH, 10.0), 10.0, 40.0)
        ts = np.linspace(0.0, 40.0, 400)
        s, h = law.survival(ts), law.hazard(ts)
        assert np.all((0.0 <= s) & (s <= 1.0))
        assert np.all(np.diff(s) <= 0.0)
        assert np.all((0.0 <= h) & (h <= hazard_limit(params)))

    def test_hazard_approaches_limit(self):
        # evaluate where the hitting CDF is within 1e-6 of one
        law = first_passage_law(SPEC, 10.0, 60.0)
        t_big = 45.0
        assert hitting_cdf(1.1, 1.4, 10.0, t_big) > 1 - 1e-6
        assert abs(float(law.hazard(t_big)) - hazard_limit(PARAMS)) <= 1e-3


class TestSampling:
    def test_censored_when_no_arrivals(self):
        spec = SystemSpec(ShotNoiseParams(0.0, 0.0, 0.5), GROWTH, 10.0)
        assert np.isnan(simulate_first_passage_batch(spec, 10.0, 5.0, 1, np.random.default_rng(4))[0])

    def test_probability_integral_transform(self):
        sampler = HittingTimeSampler(GROWTH, 10.0)
        rng = np.random.default_rng(5)
        draws = sampler.sample(rng, 50_000)
        pit = sp.gammaincc(1.1 * draws, 1.4 * 10.0)
        assert kstest(pit, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("rate_threshold", [1e-12, 14.0, 1e7])
    def test_random_effects_sampler_inverts(self, growth, rate_threshold):
        sampler = HittingTimeSampler(growth, 10.0)
        rng = np.random.default_rng(6)
        u = rng.uniform(size=4000)
        rates = growth.draw_rates(rng, u.size) * (rate_threshold / 14.0)
        t = sampler.invert(u, rates)
        assert np.all(np.isfinite(t))
        err = np.abs(sp.gammaincc(1.1 * t, rates * 10.0) - u)
        assert err.max() <= 1e-12


def _survival_deviation(spec, horizon, n, seeds):
    """Pooled failure-count deviation from the law and its bound, at ten times up to ``horizon``.

    The bound is 4 binomial SDs of the count plus a slack of 3 events, which
    covers times where the law expects almost no failures or no survivors.
    """
    ts = np.linspace(horizon / 10, horizon, 10)
    surv = first_passage_law(spec, spec.failure_threshold, horizon).survival(ts)
    failed = np.zeros(ts.size)
    for seed in seeds:
        w = simulate_first_passage_batch(spec, spec.failure_threshold, horizon, n,
                                         np.random.default_rng(seed))
        failed += np.searchsorted(np.sort(w[np.isfinite(w)]), ts, side="right")
    total = n * len(seeds)
    dev = np.abs(failed - total * (1.0 - surv))
    return dev, 4.0 * np.sqrt(total * surv * (1.0 - surv)) + 3.0


def _unscreened_batch(spec, threshold, horizon, n, rng):
    """First exceedance times with every arrival drawn and every hitting time inverted."""
    run_ids, arrivals = simulate_arrival_batch(spec.arrivals, horizon, n, rng)
    sigma = HittingTimeSampler(spec.growth, threshold).sample(rng, arrivals.size)
    first = np.full(n, np.inf)
    np.minimum.at(first, run_ids, arrivals + sigma)
    return np.where(first <= horizon, first, np.nan)


class TestScreenedSampler:
    """The batch's shortcuts against drawing and inverting every arrival."""

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("horizon", [10.0, 0.5])
    def test_equals_unscreened_element_by_element(self, growth, horizon):
        # the random-effects screen u <= F(limit) keeps exactly the draws whose
        # inverted time is within the limit; also one scalar limit for 6000
        # draws, all-zero limits, limits down to -10 horizons and a draw of size 0
        sampler = HittingTimeSampler(growth, 10.0)
        drawn = horizon - np.random.default_rng(20).uniform(0.0, horizon, 6000)
        below_zero = horizon * np.linspace(-10.0, 1.0, 500)
        for given, size in [(drawn, 6000), (horizon, 6000), (np.zeros(500), 500),
                            (below_zero, 500), (np.empty(0), 0)]:
            rng = np.random.default_rng(21)
            rates = growth.draw_rates(rng, size)
            u = rng.uniform(size=size)
            full = sampler.invert(u, rates)
            limit = np.broadcast_to(given, full.shape)
            kept = u <= sampler.cdf(limit, rates)
            np.testing.assert_array_equal(kept, full <= limit)
            if horizon < 1.0 and given is drawn:
                assert kept.mean() < 0.01

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    def test_extreme_uniforms(self, growth):
        sampler = HittingTimeSampler(growth, 10.0)
        u = np.array([1e-300, 1e-12, 0.5, 1.0 - 1e-12, 0.5])
        rates = growth.draw_rates(np.random.default_rng(22), u.size)
        limit = np.array([0.1, 0.1, 100.0, 100.0, 0.1])
        full = sampler.invert(u, rates)
        kept = u <= sampler.cdf(limit, rates)
        np.testing.assert_array_equal(kept, full <= limit)
        assert kept[:4].all() and not kept[4]

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("horizon,n", [(10.0, 3000), (0.3, 3000), (10.0, 1), (20.0, 1)])
    def test_batch_equals_unscreened(self, growth, horizon, n):
        # equal in law: failure counts at ten times, pooled over at least 3 seeds
        # and 3000 systems a side, within 4 two-sample binomial SDs plus 3 events
        spec = SystemSpec(PARAMS, growth, 10.0)
        ts = np.linspace(horizon / 10, horizon, 10)
        seeds = range(max(3, 3000 // n))
        counts = []
        for draw in (simulate_first_passage_batch, _unscreened_batch):
            failed = np.zeros(ts.size)
            for seed in seeds:
                w = draw(spec, 10.0, horizon, n, np.random.default_rng(seed))
                failed += np.searchsorted(np.sort(w[np.isfinite(w)]), ts, side="right")
            counts.append(failed)
        total = n * len(seeds)
        p = (counts[0] + counts[1]) / (2 * total)
        assert np.all(np.abs(counts[0] - counts[1]) <= 4.0 * np.sqrt(2 * total * p * (1 - p)) + 3.0)


class TestClusterSampler:
    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("horizon,n", [(0.3, 20_000), (10.0, 20_000), (20.0, 5_000)])
    def test_survival_matches_law(self, growth, horizon, n):
        dev, bound = _survival_deviation(SystemSpec(PARAMS, growth, 10.0), horizon, n, [30, 31])
        assert np.all(dev <= bound)

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize(
        "params,threshold,horizon",
        [(ShotNoiseParams(0.0, 2.0, 0.5), 10.0, 12.0), (ShotNoiseParams(1.0, 0.0, 0.5), 10.0, 12.0),
         (PARAMS, 2.0, 5.0)],
        ids=["no_base", "no_shocks", "most_fail"],
    )
    def test_single_source_and_low_threshold(self, growth, params, threshold, horizon):
        dev, bound = _survival_deviation(SystemSpec(params, growth, threshold), horizon, 5_000, [32, 33])
        assert np.all(dev <= bound)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: simulate_first_passage_batch(SPEC, -1.0, 10.0, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 0.0, 10.0, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, np.nan, 10.0, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, np.inf, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, np.nan, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, 0.0, 10, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, 10.0, -1, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, 10.0, 2.5, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, 10.0, True, rng),
            lambda rng: simulate_first_passage_batch(SPEC, 10.0, "10", 10, rng),
            lambda rng: HittingTimeSampler(GROWTH, -3.0).sample(rng, 10),
        ],
        ids=["threshold_negative", "threshold_zero", "threshold_nan", "horizon_inf",
             "horizon_nan", "horizon_zero", "n_negative", "n_float", "n_bool", "horizon_str",
             "sampler_threshold_negative"],
    )
    def test_rejects_invalid_input(self, draw):
        with pytest.raises(ValidationError):
            draw(np.random.default_rng(0))

    def test_no_systems(self):
        assert simulate_first_passage_batch(SPEC, 10.0, 10.0, 0, np.random.default_rng(0)).size == 0


def _decayed_reference(p, t, delta):
    """``int_0^t exp(-delta*(t-v)) p(v) dv`` by adaptive quadrature."""
    from scipy.integrate import quad

    if t == 0:
        return 0.0
    return quad(lambda v: np.exp(-delta * (t - v)) * p(v), 0.0, t, epsabs=1e-15, epsrel=1e-13)[0]


class TestDecayedConvolution:
    # two nodes determine a line only, so length 2 is exact up to degree 1
    @pytest.mark.parametrize("delta", [1e-3, 0.5, 50.0])
    @pytest.mark.parametrize(
        "n, power", [(n, p) for n in (1, 2, 3, 4, 5, 10, 11) for p in (0, 1, 2) if n != 2 or p < 2]
    )
    def test_exact_for_quadratics(self, delta, n, power):
        h = 0.1
        t = h * np.arange(n)
        got = lifetime._decayed_convolution(t**power, h, delta)
        want = [_decayed_reference(lambda v: v**power, x, delta) for x in t]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_rows_of_two_dimensional_input(self, n):
        h, delta = 0.25, 0.7
        t = h * np.arange(n)
        coeffs = [(1.0, 0.0, 0.0), (3.0, -1.0, 0.0), (0.0, 2.0, 1.0)][: 2 if n == 2 else 3]
        rows = np.stack([c0 + c1 * t + c2 * t * t for c0, c1, c2 in coeffs])
        got = lifetime._decayed_convolution(rows, h, delta)
        assert got.shape == rows.shape
        for (c0, c1, c2), row, out in zip(coeffs, rows, got):
            np.testing.assert_array_equal(out, lifetime._decayed_convolution(row, h, delta))
            want = [_decayed_reference(lambda v: c0 + c1 * v + c2 * v * v, x, delta) for x in t]
            np.testing.assert_allclose(out, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e-3, 0.5, 50.0])
    def test_fourth_order(self, delta):
        def exact(t):
            # f = sin(3t) + exp(-t), convolved in closed form
            sine = (delta * np.sin(3 * t) - 3 * np.cos(3 * t) + 3 * np.exp(-delta * t)) / (delta**2 + 9)
            return sine + (np.exp(-t) - np.exp(-delta * t)) / (delta - 1.0)

        errors = []
        for n in (401, 801):
            t = np.linspace(0.0, 4.0, n)
            got = lifetime._decayed_convolution(np.sin(3 * t) + np.exp(-t), t[1], delta)
            errors.append(np.max(np.abs(got - exact(t))))
        assert errors[0] / errors[1] >= 12.0

    def test_zero_decay_is_the_running_integral(self):
        t = np.linspace(0.0, 3.0, 301)
        got = lifetime._decayed_convolution(np.cos(t), t[1], 0.0)
        # composite Simpson's error bound, 3 * h**4 / 180, is about 1.7e-10
        np.testing.assert_allclose(got, np.sin(t), rtol=0, atol=1e-9)


class TestLawAccuracy:
    """The tabulated law against independent references, within 1e-9 on and off the grid."""

    T_MAX = 13.5
    TIMES = np.array([0.0, 0.0137, 0.5, 1.2345, np.pi, 5.0, 7.777, 10.0, 12.9, 13.5])

    @staticmethod
    def _reference(spec, threshold, times):
        """(survival, hazard) from an ODE for ``I``, ``q`` and ``J`` and quadrature for ``q``."""
        from scipy.integrate import quad, solve_ivp

        law = HittingLaw(spec.growth, threshold)
        arr = spec.arrivals

        def rhs(t, y):
            f = float(law.cdf(t))
            return [f, f - arr.delta * y[1], -np.expm1(-y[1])]

        sol = solve_ivp(rhs, (0.0, times[-1]), [0.0, 0.0, 0.0], method="DOP853",
                        t_eval=times, rtol=1e-13, atol=1e-15)
        survival = np.exp(-arr.lambda0 * sol.y[0] - arr.mu * sol.y[2])
        q = [_decayed_reference(lambda v: float(law.cdf(v)), t, arr.delta) for t in times]
        hazard = arr.lambda0 * law.cdf(times) - arr.mu * np.expm1(-np.array(q))
        return survival, hazard

    @pytest.mark.parametrize("spec", [SPEC, SystemSpec(ShotNoiseParams(1.3, 0.0, 0.5), GROWTH, 10.0)],
                             ids=["preset", "shock_free"])
    def test_survival_and_hazard(self, spec):
        law = lifetime.FirstPassageLaw(spec.arrivals, HittingLaw(spec.growth, 10.0), self.T_MAX)
        survival, hazard = self._reference(spec, 10.0, self.TIMES)
        np.testing.assert_allclose(law.survival(self.TIMES), survival, rtol=0, atol=1e-9)
        np.testing.assert_allclose(law.hazard(self.TIMES), hazard, rtol=0, atol=1e-9)

    def test_shock_free_closed_form(self):
        spec = SystemSpec(ShotNoiseParams(1.3, 0.0, 0.5), GROWTH, 10.0)
        law = lifetime.FirstPassageLaw(spec.arrivals, HittingLaw(GROWTH, 10.0), self.T_MAX)
        integral = [_decayed_reference(lambda v: hitting_cdf(1.1, 1.4, 10.0, v), t, 0.0)
                    for t in self.TIMES]
        np.testing.assert_allclose(law.survival(self.TIMES), np.exp(-1.3 * np.array(integral)),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(law.hazard(self.TIMES),
                                   1.3 * hitting_cdf(1.1, 1.4, 10.0, self.TIMES), rtol=0, atol=1e-15)
