import numpy as np
import pytest
from scipy import special as sp
from scipy.stats import kstest

from shotgamma.arrivals import ShotNoiseParams, simulate_arrival_batch
from shotgamma.degradation import GammaModel, hitting_cdf
from shotgamma.errors import ValidationError
from shotgamma.lifetime import (
    HittingTimeSampler,
    SystemSpec,
    displaced_expected_intensity,
    expected_exceedances,
    first_passage_hazard,
    first_passage_law,
    first_passage_survival,
    hazard_derivative,
    hazard_limit,
    simulate_first_passage,
    simulate_first_passage_batch,
)
from shotgamma.special import integrate

PARAMS = ShotNoiseParams(1.0, 2.0, 0.5)
GROWTH = GammaModel.deterministic(1.1, 1.4)
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
        assert first_passage_survival(SPEC, 10.0, 0.0, t_max=25.0) == 1.0

    def test_poisson_closed_form(self):
        spec = SystemSpec(ShotNoiseParams(1.0, 0.0, 0.5), GROWTH, 10.0)
        for t in [5.0, 12.0, 18.0]:
            closed = np.exp(-integrate(lambda u: hitting_cdf(1.1, 1.4, 10.0, u), 0.0, t))
            assert first_passage_survival(spec, 10.0, t, t_max=20.0) == pytest.approx(
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
        s_low = first_passage_survival(SPEC, 6.0, ts, t_max=25.0)
        s_high = first_passage_survival(SPEC, 10.0, ts, t_max=25.0)
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
        assert first_passage_hazard(SPEC, 10.0, 0.0, t_max=25.0) == pytest.approx(0.0, abs=1e-12)

    def test_ifr_benchmark_scenario(self):
        hd = hazard_derivative(SPEC, 10.0, np.linspace(0.1, 30.0, 300), t_max=40.0)
        assert np.min(hd) >= -1e-10

    def test_ifr_randomized_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            params = ShotNoiseParams(rng.uniform(0.1, 2), rng.uniform(0, 3), rng.uniform(0.2, 2))
            growth = GammaModel.deterministic(rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            L = rng.uniform(3, 12)
            spec = SystemSpec(params, growth, L)
            hd = hazard_derivative(spec, L, np.linspace(0.1, 30.0, 120), t_max=40.0)
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

    def test_hazard_approaches_limit(self):
        # evaluate where the hitting CDF is within 1e-6 of one
        law = first_passage_law(SPEC, 10.0, 60.0)
        t_big = 45.0
        assert hitting_cdf(1.1, 1.4, 10.0, t_big) > 1 - 1e-6
        assert abs(float(law.hazard(t_big)) - hazard_limit(PARAMS)) <= 1e-3


class TestSampling:
    def test_censored_when_no_arrivals(self):
        spec = SystemSpec(ShotNoiseParams(0.0, 0.0, 0.5), GROWTH, 10.0)
        assert simulate_first_passage(spec, 10.0, 5.0, np.random.default_rng(4)) is None

    def test_probability_integral_transform(self):
        sampler = HittingTimeSampler(GROWTH, 10.0)
        rng = np.random.default_rng(5)
        draws = sampler.sample(rng, 50_000)
        pit = sp.gammaincc(1.1 * draws, 1.4 * 10.0)
        assert kstest(pit, "uniform").pvalue > 0.01

    def test_random_effects_sampler_inverts(self):
        growth = GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1)
        sampler = HittingTimeSampler(growth, 10.0)
        rng = np.random.default_rng(6)
        u = rng.uniform(size=4000)
        rates = 1.0 / rng.uniform(1 / 1.4 - 0.1, 1 / 1.4 + 0.1, size=4000)
        t = sampler.invert(u, rates)
        err = np.abs(sp.gammaincc(1.1 * t, rates * 10.0) - u)
        assert err.max() < 1e-9


class TestCurveOutput:
    def test_csv(self, tmp_path):
        law = first_passage_law(SPEC, 10.0, 20.0)
        curve = law.curve(np.linspace(0.0, 20.0, 11))
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,survival,hazard"
        assert len(rows) == 12


def _unscreened_batch(spec, threshold, horizon, n, rng):
    """First exceedance times with every hitting time inverted."""
    run_ids, arrivals = simulate_arrival_batch(spec.arrivals, horizon, n, rng)
    sigma = HittingTimeSampler(spec.growth, threshold).sample(rng, arrivals.size)
    first = np.full(n, np.inf)
    np.minimum.at(first, run_ids, arrivals + sigma)
    return np.where(first <= horizon, first, np.nan)


RE_GROWTH = GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1)


class TestScreenedSampler:
    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("horizon", [10.0, 0.5])
    def test_equals_unscreened_element_by_element(self, growth, horizon):
        sampler = HittingTimeSampler(growth, 10.0)
        limit = horizon - np.random.default_rng(20).uniform(0.0, horizon, 6000)
        full = sampler.sample(np.random.default_rng(21), limit.size)
        screened = sampler.sample(np.random.default_rng(21), limit.size, limit=limit)
        kept = np.isfinite(screened)
        np.testing.assert_array_equal(screened[kept], full[kept])
        assert np.all(full[~kept] > limit[~kept])
        assert np.all(kept[full <= limit])
        if horizon < 1.0:
            assert kept.mean() < 0.01

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    def test_extreme_uniforms(self, growth):
        sampler = HittingTimeSampler(growth, 10.0)
        u = np.array([1e-300, 1e-12, 0.5, 1.0 - 1e-12, 0.5])
        rates = growth.draw_rates(np.random.default_rng(22), u.size)
        limit = np.array([0.1, 0.1, 100.0, 100.0, 0.1])
        full = sampler.invert(u, rates)
        screened = sampler.invert(u, rates, limit=limit)
        kept = np.isfinite(screened)
        np.testing.assert_array_equal(screened[kept], full[kept])
        assert np.all(full[~kept] > limit[~kept])
        assert kept[:4].all() and not kept[4]

    @pytest.mark.parametrize("growth", [GROWTH, RE_GROWTH], ids=["deterministic", "random_effects"])
    @pytest.mark.parametrize("horizon,n", [(10.0, 3000), (0.3, 3000), (10.0, 1), (20.0, 1)])
    def test_batch_equals_unscreened(self, growth, horizon, n):
        spec = SystemSpec(PARAMS, growth, 10.0)
        for seed in range(3):
            got = simulate_first_passage_batch(spec, 10.0, horizon, n, np.random.default_rng(seed))
            want = _unscreened_batch(spec, 10.0, horizon, n, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)
