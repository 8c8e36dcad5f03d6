import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from shotgamma.arrivals import (
    ArrivalTrajectory,
    ShockTrajectory,
    ShotNoiseParams,
    expected_intensity,
    expected_num_arrivals,
    intensity_at,
    simulate_arrival_batch,
    simulate_arrivals,
    simulate_carried_batch,
    simulate_shocks,
)
from shotgamma.arrivals import _cluster_arrivals
from shotgamma.errors import ValidationError
from shotgamma.special import integrate

BENCH_SCENARIO = ShotNoiseParams(lambda0=1.0, mu=2.0, delta=0.5)


class TestTypes:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ShotNoiseParams(-0.1, 2.0, 0.5)
        with pytest.raises(ValidationError):
            ShotNoiseParams(1.0, -1.0, 0.5)
        with pytest.raises(ValidationError):
            ShotNoiseParams(1.0, 2.0, 0.0)

    def test_trajectory_validation(self):
        with pytest.raises(ValidationError):
            ShockTrajectory(horizon=1.0, shock_times=np.array([0.5, 0.4]))
        with pytest.raises(ValidationError):
            ShockTrajectory(horizon=1.0, shock_times=np.array([0.5, 1.5]))
        with pytest.raises(ValidationError):
            ArrivalTrajectory(horizon=0.0, arrival_times=np.array([]))

    def test_stationary_intensity(self):
        assert BENCH_SCENARIO.stationary_intensity == pytest.approx(5.0)


class TestIntensity:
    def test_no_shocks_gives_base_level(self):
        shocks = ShockTrajectory(horizon=10.0, shock_times=np.array([]))
        assert intensity_at(BENCH_SCENARIO, shocks, 3.0) == pytest.approx(1.0)

    def test_unit_jump_at_shock(self):
        shocks = ShockTrajectory(horizon=10.0, shock_times=np.array([2.0]))
        assert intensity_at(BENCH_SCENARIO, shocks, 2.0) == pytest.approx(2.0)
        assert intensity_at(BENCH_SCENARIO, shocks, 1.999) == pytest.approx(1.0)

    def test_two_shock_example(self):
        shocks = ShockTrajectory(horizon=5.0, shock_times=np.array([1.0, 2.0]))
        # 1 + e^{-1} + e^{-0.5}, direct evaluation
        assert intensity_at(BENCH_SCENARIO, shocks, 3.0) == pytest.approx(
            1.9744101008840757, rel=1e-12
        )

    def test_outside_horizon(self):
        shocks = ShockTrajectory(horizon=5.0, shock_times=np.array([1.0]))
        with pytest.raises(ValidationError):
            intensity_at(BENCH_SCENARIO, shocks, 6.0)


class TestExpectedValues:
    def test_expected_intensity_endpoints(self):
        assert expected_intensity(BENCH_SCENARIO, 0.0) == pytest.approx(1.0)
        assert expected_intensity(BENCH_SCENARIO, 1e9) == pytest.approx(5.0)

    def test_expected_intensity_closed_form(self):
        assert expected_intensity(BENCH_SCENARIO, 2.0) == pytest.approx(
            3.5284822353142307, rel=1e-12
        )

    def test_expected_intensity_monotone(self):
        s = np.linspace(0.0, 30.0, 500)
        assert np.all(np.diff(expected_intensity(BENCH_SCENARIO, s)) > 0)

    def test_expected_num_arrivals_at_zero(self):
        assert expected_num_arrivals(BENCH_SCENARIO, 0.0) == 0.0

    def test_expected_num_arrivals_poisson_degenerate(self):
        params = ShotNoiseParams(1.3, 0.0, 0.5)
        assert expected_num_arrivals(params, 7.0) == pytest.approx(1.3 * 7.0, rel=1e-12)

    def test_expected_num_arrivals_closed_form(self):
        assert expected_num_arrivals(BENCH_SCENARIO, 5.0) == pytest.approx(
            17.65667998899119, rel=1e-12
        )

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.2, max_value=12.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_count_is_integral_of_intensity(self, lambda0, mu, delta, s):
        params = ShotNoiseParams(lambda0, mu, delta)
        numeric = integrate(lambda u: float(expected_intensity(params, u)), 0.0, s)
        assert numeric == pytest.approx(expected_num_arrivals(params, s), abs=1e-7, rel=1e-7)


class TestSimulateShocks:
    def test_zero_rate_gives_empty(self):
        params = ShotNoiseParams(1.0, 0.0, 0.5)
        rng = np.random.default_rng(0)
        assert simulate_shocks(params, 10.0, rng).shock_times.size == 0

    def test_poisson_count_mean(self):
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.array(
            [simulate_shocks(BENCH_SCENARIO, 10.0, rng).shock_times.size for _ in range(n)]
        )
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - 20.0) <= 3 * se

    def test_interarrival_distribution(self):
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(40):
            t = simulate_shocks(BENCH_SCENARIO, 200.0, rng).shock_times
            gaps.append(np.diff(t))
        gaps = np.concatenate(gaps)
        assert kstest(gaps, "expon", args=(0, 1.0 / BENCH_SCENARIO.mu)).pvalue > 0.01


class TestSimulateArrivals:
    def test_degenerate_homogeneous(self):
        params = ShotNoiseParams(2.0, 0.0, 0.5)
        rng = np.random.default_rng(3)
        counts = []
        for _ in range(20_000):
            shocks = simulate_shocks(params, 5.0, rng)
            counts.append(simulate_arrivals(params, shocks, 5.0, rng).arrival_times.size)
        counts = np.array(counts)
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) <= 3 * se

    def test_mean_count_matches_closed_form(self):
        rng = np.random.default_rng(4)
        n = 20_000
        counts = np.empty(n)
        for i in range(n):
            shocks = simulate_shocks(BENCH_SCENARIO, 5.0, rng)
            counts[i] = simulate_arrivals(BENCH_SCENARIO, shocks, 5.0, rng).arrival_times.size
        se = counts.std(ddof=1) / np.sqrt(n)
        expected = expected_num_arrivals(BENCH_SCENARIO, 5.0)
        assert abs(counts.mean() - expected) <= 3 * se

    @pytest.mark.parametrize("carry", [0.0, 2.5])
    def test_time_rescaling_on_a_fixed_history(self, carry):
        # Given the shocks, the compensator Lambda(t) = lambda0*t +
        # sum (c_j/delta)*(1 - exp(-delta*(t - s_j))) over the opening carry
        # (s = 0) and the shocks maps each run's arrivals to a unit-rate
        # Poisson process: Lambda(t)/Lambda(H) is uniform given the count,
        # and the count is Poisson(Lambda(H)).
        horizon, d = 6.0, BENCH_SCENARIO.delta
        shocks = np.array([0.4, 1.1, 1.15, 3.0, 5.2, 5.9])
        starts = np.concatenate(([0.0], shocks))
        weights = np.concatenate(([carry], np.ones(shocks.size)))

        def compensator(t):
            lag = np.maximum(t[:, None] - starts, 0.0)
            return BENCH_SCENARIO.lambda0 * t + (weights * -np.expm1(-d * lag) / d).sum(axis=1)

        rng = np.random.default_rng(15)
        n = 4000
        if carry == 0.0:
            history = ShockTrajectory(horizon=horizon, shock_times=shocks)
            runs = [simulate_arrivals(BENCH_SCENARIO, history, horizon, rng).arrival_times
                    for _ in range(n)]
            counts = np.array([r.size for r in runs])
            times = np.concatenate(runs)
        else:
            sh_run = np.repeat(np.arange(n), shocks.size)
            run_ids, times, _ = _cluster_arrivals(BENCH_SCENARIO, horizon, np.full(n, carry),
                                                  sh_run, np.tile(shocks, n), rng)
            counts = np.bincount(run_ids, minlength=n)
        total = float(compensator(np.array([horizon]))[0])
        assert kstest(compensator(times) / total, "uniform").pvalue > 1e-3
        assert abs(counts.mean() - total) <= 4 * np.sqrt(total / n)

    def test_horizon_validation(self):
        rng = np.random.default_rng(0)
        shocks = simulate_shocks(BENCH_SCENARIO, 2.0, rng)
        with pytest.raises(ValidationError):
            simulate_arrivals(BENCH_SCENARIO, shocks, 3.0, rng)

    def test_conditional_uniform_representation(self):
        # given the shock count, shock times are distributed as uniform
        # order statistics, so the conditional intensity mean has the
        # closed form lambda0 + n*(1 - exp(-delta*s))/(s*delta)
        rng = np.random.default_rng(42)
        s, n_shocks = 4.0, 6
        vals = np.empty(20_000)
        for i in range(vals.size):
            shocks = ShockTrajectory(horizon=s, shock_times=np.sort(rng.uniform(0, s, n_shocks)))
            vals[i] = intensity_at(BENCH_SCENARIO, shocks, s)
        want = BENCH_SCENARIO.lambda0 + n_shocks * (1 - np.exp(-0.5 * s)) / (s * 0.5)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - want) <= 3 * se

    def test_intensity_mc_mean_converges(self):
        # average of the stochastic intensity over shock histories
        rng = np.random.default_rng(5)
        n = 100_000
        s = 4.0
        vals = np.empty(n)
        for i in range(n):
            shocks = simulate_shocks(BENCH_SCENARIO, s, rng)
            vals[i] = intensity_at(BENCH_SCENARIO, shocks, s)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected_intensity(BENCH_SCENARIO, s)) <= 3 * se


class TestBatchSampler:
    def test_matches_closed_form_counts(self):
        rng = np.random.default_rng(6)
        n = 50_000
        run_ids, times = simulate_arrival_batch(BENCH_SCENARIO, 10.0, n, rng)
        for t in [1.0, 2.0, 5.0, 10.0]:
            counts = np.bincount(run_ids[times <= t], minlength=n)
            se = counts.std(ddof=1) / np.sqrt(n)
            assert abs(counts.mean() - expected_num_arrivals(BENCH_SCENARIO, t)) <= 3 * se

    def test_everything_inside_horizon(self):
        rng = np.random.default_rng(7)
        _, times = simulate_arrival_batch(BENCH_SCENARIO, 3.0, 500, rng)
        assert np.all((times >= 0) & (times <= 3.0))

    @pytest.mark.parametrize(
        "params, horizon",
        [(BENCH_SCENARIO, 20.0), (BENCH_SCENARIO, 60.0), (BENCH_SCENARIO, 100.0),
         (ShotNoiseParams(1.0, 2.0, 50.0), 12.0)],
    )
    def test_counts_at_long_horizons(self, params, horizon):
        # delta * horizon up to 600: the shock carries must not lose precision
        # as exp(delta * t) grows
        rng = np.random.default_rng(9)
        n = 4000
        run_ids, times = simulate_arrival_batch(params, horizon, n, rng)
        for t in np.linspace(horizon / 10.0, horizon, 10):
            counts = np.bincount(run_ids[times <= t], minlength=n)
            se = counts.std(ddof=1) / np.sqrt(n)
            assert abs(counts.mean() - expected_num_arrivals(params, t)) <= 4 * se


class TestCarriedBatch:
    def test_mean_end_carry_matches_closed_form(self):
        # E[end carry] = c*exp(-delta*H) + mu*(1 - exp(-delta*H))/delta
        rng = np.random.default_rng(13)
        n, horizon, c = 40_000, 3.0, 1.7
        _, _, end = simulate_carried_batch(BENCH_SCENARIO, horizon, np.full(n, c), rng)
        d, mu = BENCH_SCENARIO.delta, BENCH_SCENARIO.mu
        want = c * np.exp(-d * horizon) + mu * -np.expm1(-d * horizon) / d
        se = end.std(ddof=1) / np.sqrt(n)
        assert abs(end.mean() - want) <= 4 * se

    def test_times_inside_horizon_at_steep_decay(self):
        # delta * horizon = 600 with an opening carry: a child's truncated
        # exponential age must not round past the horizon
        params = ShotNoiseParams(1.0, 2.0, 50.0)
        rng = np.random.default_rng(14)
        run_ids, times, end = simulate_carried_batch(params, 12.0, np.full(5000, 3.0), rng)
        assert times.size > 0 and np.all((times > 0.0) & (times <= 12.0))
        assert np.all((run_ids >= 0) & (run_ids < 5000)) and np.all(end >= 0.0)

    def test_zero_carry_is_the_plain_batch(self):
        a = simulate_arrival_batch(BENCH_SCENARIO, 5.0, 300, np.random.default_rng(3))
        b = simulate_carried_batch(BENCH_SCENARIO, 5.0, np.zeros(300), np.random.default_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_chained_windows_match_one_long_run(self):
        # four windows of 2.5 carried forward have the arrival law of one run
        # of 10: compare mean counts by each window end with the closed form
        rng = np.random.default_rng(12)
        n = 20_000
        carry = np.zeros(n)
        counts = np.zeros(n)
        for k in range(4):
            run_ids, _, carry = simulate_carried_batch(BENCH_SCENARIO, 2.5, carry, rng)
            counts += np.bincount(run_ids, minlength=n)
            se = counts.std(ddof=1) / np.sqrt(n)
            assert abs(counts.mean() - expected_num_arrivals(BENCH_SCENARIO, 2.5 * (k + 1))) <= 4 * se
