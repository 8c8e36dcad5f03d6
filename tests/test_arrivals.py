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
    sort_within_runs,
    thin_history,
)
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

    def test_single_run_matches_single_history_sampler(self):
        # one batch run draws the same stream as simulate_shocks followed by
        # thin_history, so the rank-wise carries must reproduce the scalar
        # recursion and give the same arrivals in the same order
        for seed in range(5):
            run_ids, times = simulate_arrival_batch(BENCH_SCENARIO, 30.0, 1, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            shocks = simulate_shocks(BENCH_SCENARIO, 30.0, rng)
            want = thin_history(BENCH_SCENARIO, shocks.shock_times, 30.0, 0.0, rng)
            assert np.all(run_ids == 0)
            assert np.array_equal(times, want)

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
    def test_single_run_matches_single_history_sampler_with_carry(self):
        # an opening carry enters the first segment and the recursion exactly
        # as in thin_history, and the end carry is the decayed shock sum
        for seed in range(5):
            carry = np.array([0.5 + seed])
            run_ids, times, end = simulate_carried_batch(BENCH_SCENARIO, 8.0, carry, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            shocks = simulate_shocks(BENCH_SCENARIO, 8.0, rng)
            want = thin_history(BENCH_SCENARIO, shocks.shock_times, 8.0, float(carry[0]), rng)
            assert np.all(run_ids == 0)
            assert np.array_equal(times, want)
            d = BENCH_SCENARIO.delta
            want_end = carry[0] * np.exp(-d * 8.0) + np.exp(-d * (8.0 - shocks.shock_times)).sum()
            assert end[0] == pytest.approx(want_end, rel=1e-12)

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


class TestSortWithinRuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_lexsort_on_random_and_tied_input(self, seed):
        rng = np.random.default_rng(seed)
        runs = np.repeat(np.arange(300), rng.poisson(4.0, 300))
        times = rng.uniform(0.0, 7.0, runs.size)
        tied = np.round(times, 1)  # many exact ties inside runs
        for t in (times, tied):
            assert np.array_equal(sort_within_runs(runs, t, 7.0), t[np.lexsort((t, runs))])
        shuffled = rng.permutation(runs)
        assert np.array_equal(sort_within_runs(shuffled, times, 7.0), times[np.lexsort((times, shuffled))])

    def test_falls_back_where_the_key_merges_times(self):
        # at run 2**53 the key's spacing is 4, so 0.7 and 0.3 share one key
        runs = np.full(2, 2**53)
        times = np.array([0.7, 0.3])
        assert np.array_equal(sort_within_runs(runs, times, 1.0), [0.3, 0.7])
