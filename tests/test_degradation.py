import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp
from scipy import stats
from scipy.integrate import quad

from shotgamma.degradation import (
    DegradationObservations,
    DeltaHittingLaw,
    DeterministicScale,
    GammaModel,
    difference_pdf,
    UniformInverseScale,
    fit_half_width,
    hitting_cdf,
    log_likelihood,
    matched_variance_comparison,
    random_effect_hitting_cdf,
    random_effect_moments,
    random_effect_pdf,
    read_observations_csv,
    simulate_observation_paths,
    write_observations_csv,
)
from shotgamma import special
from shotgamma.errors import NumericalError, ValidationError
from shotgamma.lifetime import HittingLaw

RE_MODEL = GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1)
DET_MODEL = GammaModel.deterministic(1.1, 1.4)


class TestScale:
    def test_deterministic_passthrough(self):
        model = GammaModel.deterministic(1.1, 1.4)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(model.draw_rates(rng, 3), np.full(3, 1.4))
        assert rng.bit_generator.state == state

    def test_uniform_mean_and_support(self):
        model = GammaModel.uniform_inverse_scale(1.0, 0.7, 1.3)
        rates = model.draw_rates(np.random.default_rng(1), 100_000)
        inv = 1.0 / rates
        se = inv.std(ddof=1) / np.sqrt(inv.size)
        assert abs(inv.mean() - 1.0) <= 3 * se
        assert np.all((rates >= 1 / 1.3) & (rates <= 1 / 0.7))

    def test_rate_nodes_and_min_rate(self):
        rates, weights = DET_MODEL.rate_nodes()
        assert rates.tolist() == [1.4] and weights.tolist() == [1.0]
        assert DET_MODEL.min_rate == 1.4
        rates, weights = RE_MODEL.rate_nodes()
        a, b = RE_MODEL.scale_spec.a, RE_MODEL.scale_spec.b
        assert rates.size == 64 and weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all((rates > 1 / b) & (rates < 1 / a))
        assert RE_MODEL.min_rate == 1.0 / b

    def test_with_axes(self):
        assert DET_MODEL.with_axes(1.3, 2.0) == GammaModel.deterministic(1.3, 2.0)
        moved = RE_MODEL.with_axes(1.3, 1.0).scale_spec
        assert moved.a == pytest.approx(0.9) and moved.b == pytest.approx(1.1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            UniformInverseScale(1.3, 0.7)
        with pytest.raises(ValidationError):
            DeterministicScale(0.0)
        with pytest.raises(ValidationError):
            GammaModel(0.0, DeterministicScale(1.0))


class TestHittingLaw:
    def test_limit_zero_at_origin(self):
        assert hitting_cdf(1.1, 1.4, 10.0, 0.0) == 0.0
        assert hitting_cdf(1.1, 1.4, 10.0, 1e-9) < 1e-6

    def test_equals_regularized_gamma(self):
        assert hitting_cdf(1.0, 1.0, 10.0, 10.0) == pytest.approx(
            sp.gammaincc(10.0, 10.0), rel=1e-14
        )

    def test_deterministic_cdf_is_one_rate_formula(self):
        # one node of weight 1 leaves the one-rate gamma ratio bit for bit
        ts = np.linspace(0.0, 60.0, 6001)
        got = HittingLaw(DET_MODEL, 10.0).cdf(ts)
        assert np.array_equal(got, hitting_cdf(1.1, 1.4, 10.0, ts))
        assert np.array_equal(got[1:], sp.gammaincc(1.1 * ts[1:], 1.4 * 10.0)) and got[0] == 0.0

    def test_monotone(self):
        ts = np.arange(1.0, 51.0)
        assert np.all(np.diff(hitting_cdf(1.1, 1.4, 10.0, ts)) > 0)

    def test_pdf_integrates_to_one(self):
        total, _ = quad(lambda t: HittingLaw(DET_MODEL, 10.0).pdf(t), 1e-6, 80.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_pdf_nonnegative(self):
        ts = np.random.default_rng(4).uniform(0.5, 40.0, size=200)
        assert np.all(HittingLaw(DET_MODEL, 10.0).pdf(ts) >= 0)

    def test_cdf_reconstructed_from_pdf(self):
        for t in [8.0, 13.0, 20.0]:
            val, _ = quad(lambda u: HittingLaw(DET_MODEL, 10.0).pdf(u), 1e-6, t, limit=200)
            assert val == pytest.approx(hitting_cdf(1.1, 1.4, 10.0, t), abs=1e-4)

    def test_grid_crossing_converges_to_law(self):
        # empirical CDF of the first fine-grid crossing vs the analytic law:
        # the same paths subsampled at a 4x coarser step must show at least
        # twice the discretization error
        rng = np.random.default_rng(5)
        alpha, rate, L = 1.1, 1.4, 10.0
        h64 = 6.3333 / 64.0
        n_steps = int(40.0 / h64)
        n = 40_000
        err16 = err64 = 0.0
        probe = np.linspace(6.0, 25.0, 24)
        cross64 = np.empty(0)
        cross16 = np.empty(0)
        for _ in range(4):
            levels = np.cumsum(rng.gamma(alpha * h64, 1 / rate, size=(n // 4, n_steps)), axis=1)
            c64 = (np.argmax(levels >= L, axis=1) + 1) * h64
            c16 = (np.argmax(levels[:, 3::4] >= L, axis=1) + 1) * (4 * h64)
            keep = levels[:, -1] >= L
            cross64 = np.concatenate([cross64, c64[keep]])
            cross16 = np.concatenate([cross16, c16[keep]])
        for t in probe:
            ana = hitting_cdf(alpha, rate, L, t)
            err64 = max(err64, abs(np.mean(cross64 <= t) - ana))
            err16 = max(err16, abs(np.mean(cross16 <= t) - ana))
        assert err64 <= 0.62 * err16

    def test_validation(self):
        with pytest.raises(ValidationError):
            hitting_cdf(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValidationError):
            HittingLaw(GammaModel.deterministic(1.0, 1.0), 1.0).pdf(0.0)


class TestDeltaHittingLaw:
    def test_one_at_zero(self):
        assert DeltaHittingLaw(1.1, 1.4, 6.0, 10.0).survival(0.0) == 1.0

    def test_tight_gap_collapses(self):
        law = DeltaHittingLaw(1.0, 1.0, 6.0, 6.05)
        assert law.survival(1.0) < 0.01
        assert law.atom_at_zero > 0.5

    def test_monotone_non_increasing(self):
        ts = np.linspace(0.0, 40.0, 300)
        s = DeltaHittingLaw(1.1, 1.4, 6.0, 10.0).survival(ts)
        assert np.all(np.diff(s) <= 1e-12)

    def test_overshoot_tail_is_normalized(self):
        law = DeltaHittingLaw(1.1, 1.4, 6.0, 10.0)
        assert law.overshoot_survival(6.0) == pytest.approx(1.0, abs=5e-4)

    def test_matches_path_simulation(self):
        # independent oracle: 1e5 fine-grid paths, gap between the first
        # crossings of M and L
        rng = np.random.default_rng(6)
        alpha, rate, M, L = 1.1, 1.4, 6.0, 10.0
        h = 0.02
        n_steps = int(60.0 / h)
        gaps = []
        for _ in range(20):
            levels = np.cumsum(rng.gamma(alpha * h, 1 / rate, size=(5000, n_steps)), axis=1)
            i_m = np.argmax(levels >= M, axis=1)
            i_l = np.argmax(levels >= L, axis=1)
            keep = levels[:, -1] >= L
            gaps.append(((i_l - i_m) * h)[keep])
        gaps = np.concatenate(gaps)
        assert gaps.size > 99_000
        law = DeltaHittingLaw(alpha, rate, M, L)
        for t in [0.5, 1.0, 3.0, 5.0, 8.0]:
            emp = np.mean(gaps > t)
            se = max(np.sqrt(emp * (1 - emp) / gaps.size), 1e-4)
            ana = law.survival(t)
            assert abs(ana - emp) <= 3 * se + h, (t, ana, emp)

    def test_level_order_validation(self):
        with pytest.raises(ValidationError):
            DeltaHittingLaw(1.0, 1.0, 10.0, 6.0)


class TestRandomEffects:
    def test_pdf_integrates_to_one(self):
        total, _ = quad(lambda u: random_effect_pdf(RE_MODEL, 5.0, u), 1e-9, 60.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_degenerates_to_gamma(self):
        narrow = GammaModel.uniform_inverse_scale(1.0, 1.0 - 1e-7, 1.0 + 1e-7)
        for u in [0.5, 2.0, 7.0]:
            assert random_effect_pdf(narrow, 5.0, u) == pytest.approx(
                stats.gamma.pdf(u, 5.0, scale=1.0), rel=1e-5
            )

    def test_pdf_matches_mixture_quadrature(self):
        model = GammaModel.uniform_inverse_scale(1.0, 1.0, 2.0)
        t = 5.0
        for u in [1.0, 4.0, 9.0, 15.0]:
            oracle, _ = quad(
                lambda theta: stats.gamma.pdf(u, t, scale=theta), 1.0, 2.0, epsabs=1e-12
            )
            assert random_effect_pdf(model, t, u) == pytest.approx(oracle, abs=1e-8)

    @given(st.floats(min_value=0.5, max_value=20.0), st.floats(min_value=0.5, max_value=15.0))
    @settings(max_examples=25, deadline=None)
    def test_pdf_mixture_identity_randomized(self, t, u):
        model = GammaModel.uniform_inverse_scale(1.3, 0.6, 1.9)
        oracle, _ = quad(
            lambda theta: stats.gamma.pdf(u, 1.3 * t, scale=theta), 0.6, 1.9, epsabs=1e-13
        )
        assert random_effect_pdf(model, t, u) == pytest.approx(oracle / (1.9 - 0.6), abs=1e-8)

    def test_hitting_cdf_zero_at_origin(self):
        assert random_effect_hitting_cdf(RE_MODEL, 10.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "model", [RE_MODEL, GammaModel.uniform_inverse_scale(1.1, 0.6, 1.9)], ids=["preset", "wide"]
    )
    def test_hitting_cdf_matches_64_node_reference(self, model):
        # the mixture rule before the rate nodes moved onto GammaModel: 64
        # Gauss-Legendre nodes in the inverse rate, threshold divided by each
        ts = np.linspace(0.0, 60.0, 601)
        a, b = model.scale_spec.a, model.scale_spec.b
        nodes, weights = np.polynomial.legendre.leggauss(64)
        theta = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        want = sp.gammaincc(1.1 * ts[:, None], 10.0 / theta) @ (0.5 * weights)
        want[0] = 0.0
        assert np.max(np.abs(random_effect_hitting_cdf(model, 10.0, ts) - want)) <= 1e-12
        assert np.max(np.abs(HittingLaw(model, 10.0).cdf(ts) - want)) <= 1e-12

    def test_hitting_cdf_narrow_limit(self):
        narrow = GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 1e-8, 1 / 1.4 + 1e-8)
        for t in [5.0, 10.0, 20.0]:
            assert random_effect_hitting_cdf(narrow, 10.0, t) == pytest.approx(
                hitting_cdf(1.1, 1.4, 10.0, t), abs=1e-7
            )

    def test_hitting_cdf_matches_crossing_fraction(self):
        rng = np.random.default_rng(7)
        n = 100_000
        t, L = 10.0, 10.0
        theta = rng.uniform(1 / 1.4 - 0.1, 1 / 1.4 + 0.1, size=n)
        levels = rng.gamma(1.1 * t, theta)
        emp = np.mean(levels >= L)
        se = np.sqrt(emp * (1 - emp) / n)
        assert abs(random_effect_hitting_cdf(RE_MODEL, L, t) - emp) <= 3 * se

    def test_moments_degenerate(self):
        c = 0.9
        model = GammaModel.uniform_inverse_scale(2.0, c - 1e-12, c + 1e-12)
        mean, var, ratio = random_effect_moments(model, 3.0)
        assert mean == pytest.approx(2.0 * 3.0 * c)
        assert var == pytest.approx(2.0 * 3.0 * c * c, rel=1e-6)
        assert ratio == pytest.approx(c, rel=1e-6)

    def test_moments_closed_form(self):
        model = GammaModel.uniform_inverse_scale(1.0, 0.7, 1.3)
        mean, var, _ = random_effect_moments(model, 10.0)
        assert mean == pytest.approx(10.0)
        assert var == pytest.approx(13.3)

    def test_moments_monte_carlo(self):
        model = GammaModel.uniform_inverse_scale(1.0, 0.7, 1.3)
        rng = np.random.default_rng(8)
        n = 1_000_000
        t = 10.0
        draws = rng.gamma(t, rng.uniform(0.7, 1.3, size=n))
        mean, var, _ = random_effect_moments(model, t)
        assert abs(draws.mean() - mean) <= 3 * draws.std(ddof=1) / np.sqrt(n)
        centered = draws - draws.mean()
        s2 = centered @ centered / (n - 1)
        var_se = np.sqrt((np.mean(centered**4) - s2**2) / n)
        assert abs(s2 - var) <= 3 * var_se

    def test_ratio_increasing_in_time(self):
        model = GammaModel.uniform_inverse_scale(1.0, 0.7, 1.3)
        ratios = [random_effect_moments(model, t)[2] for t in np.linspace(0.5, 50, 60)]
        assert np.all(np.diff(ratios) > 0)

    def test_requires_uniform_model(self):
        with pytest.raises(ValidationError):
            random_effect_pdf(GammaModel.deterministic(1.0, 1.0), 1.0, 1.0)


class TestMatchedVariance:
    def test_equal_bounds_equalize(self):
        rep = matched_variance_comparison(0.8, 0.8)
        assert rep.variance_excess(5.0) == pytest.approx(0.0, abs=1e-12)

    def test_strict_excess(self):
        rep = matched_variance_comparison(0.7, 1.3)
        for t in [1.0, 10.0, 100.0]:
            assert rep.variance_excess(t) > 0

    def test_gamma_crossover(self):
        rep = matched_variance_comparison(1.0, 2.0)
        assert rep.gamma_crossover_k1 == pytest.approx(5.0 / 9.0, rel=1e-12)

    def test_matched_rate(self):
        assert matched_variance_comparison(0.7, 1.3).matched_rate == pytest.approx(1.0)


class TestObservationsAndLikelihood:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        data = simulate_observation_paths(RE_MODEL, 4, np.arange(1.0, 11.0), rng)
        path = tmp_path / "obs.csv"
        write_observations_csv(path, data)
        back = read_observations_csv(path)
        assert back.n_processes == 4
        for a, b in zip(data.levels, back.levels):
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_validation_rejects_decreasing_levels(self):
        with pytest.raises(ValidationError):
            DegradationObservations(times=[[1.0, 2.0]], levels=[[1.0, 0.5]])

    def test_flat_validation_matches_per_process_loop(self):
        # random valid and broken processes: the flat checks must raise the
        # loop's message for its first failing process, or give its arrays
        rng = np.random.default_rng(11)
        for _ in range(3000):
            times, levels = [], []
            for _ in range(rng.integers(0, 5)):
                k = rng.integers(0, 5)
                t = np.cumsum(rng.uniform(0.1, 1.0, k))
                x = np.cumsum(rng.uniform(0.0, 1.0, k))
                if k and rng.uniform() < 0.15:
                    t, x = np.r_[0.0, t], np.r_[rng.choice([0.0, 0.3]), x]
                if k > 1 and rng.uniform() < 0.1:
                    t[rng.integers(k)] = t[0]
                if k > 1 and rng.uniform() < 0.1:
                    x[rng.integers(k)] = -0.5
                if k and rng.uniform() < 0.05:
                    x = x[:-1]
                if k and rng.uniform() < 0.05:
                    t[0] = -1.0
                times.append(t)
                levels.append(x)
            want = _reference_observations(times, levels)
            if isinstance(want, str):
                with pytest.raises(ValidationError, match=want):
                    DegradationObservations(times=times, levels=levels)
                continue
            data = DegradationObservations(times=times, levels=levels)
            assert data.n_processes == len(want[0])
            for got, ref in zip((data.times, data.levels), want):
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            flat = [np.concatenate([np.empty(0)] + [np.diff(v, prepend=0.0) for v in parts])
                    for parts in want]
            assert np.array_equal(data.steps, flat[0]) and np.array_equal(data.increments, flat[1])
            assert np.array_equal(data.end_times, [t[-1] for t in want[0]])
            assert np.array_equal(data.end_levels, [x[-1] for x in want[1]])

    def test_zero_increment_rejected_by_likelihood(self):
        data = DegradationObservations(times=[[1.0, 2.0]], levels=[[1.0, 1.0]])
        with pytest.raises(ValidationError):
            log_likelihood(1.0, 0.5, 1.5, data)

    def test_collapses_to_gamma_density(self):
        data = DegradationObservations(times=[[2.0]], levels=[[1.7]])
        c, eps = 0.9, 1e-7
        got = log_likelihood(1.2, c - eps, c + eps, data)
        want = stats.gamma.logpdf(1.7, 1.2 * 2.0, scale=c)
        assert got == pytest.approx(want, abs=1e-5)

    def test_interior_minimum_on_simulated_data(self):
        rng = np.random.default_rng(10)
        model = GammaModel.uniform_inverse_scale(1.5, 0.7, 1.3)
        data = simulate_observation_paths(model, 6, np.arange(1.0, 31.0), rng)
        grid = np.linspace(0.05, 0.9, 25)
        values = [-log_likelihood(1.5, 1 - w, 1 + w, data) for w in grid]
        k = int(np.argmin(values))
        assert 0 < k < len(grid) - 1

    def test_likelihood_prefers_data_supported_scales(self):
        rng = np.random.default_rng(11)
        model = GammaModel.uniform_inverse_scale(1.5, 0.7, 1.3)
        data = simulate_observation_paths(model, 8, np.arange(1.0, 31.0), rng)
        good = log_likelihood(1.5, 0.7, 1.3, data)
        bad = log_likelihood(1.5, 4.0, 6.0, data)
        assert good > bad

    def test_fit_half_width_near_zero_heterogeneity(self):
        # the half-width is weakly identified, so a minority of seeds wander
        # up to the per-process noise scale (~0.15); this one is typical
        rng = np.random.default_rng(100)
        model = GammaModel.uniform_inverse_scale(1.5, 1.0 - 1e-9, 1.0 + 1e-9)
        data = simulate_observation_paths(model, 10, np.arange(1.0, 31.0), rng)
        grid = np.linspace(0.02, 0.6, 15)
        est, _ = fit_half_width(1.5, 1.0, data, grid)
        assert est <= grid[1] + 1e-9

    def test_fit_half_width_returns_grid_member_or_refinement(self):
        rng = np.random.default_rng(13)
        model = GammaModel.uniform_inverse_scale(1.5, 0.7, 1.3)
        data = simulate_observation_paths(model, 6, np.arange(1.0, 31.0), rng)
        grid = np.linspace(0.05, 0.8, 12)
        est_raw, val_raw = fit_half_width(1.5, 1.0, data, grid, refine=False)
        assert est_raw in grid
        est_ref, val_ref = fit_half_width(1.5, 1.0, data, grid, refine=True)
        assert val_ref <= val_raw
        k = int(np.argmin(np.abs(grid - est_raw)))
        lo = grid[max(k - 1, 0)] * 0.5
        hi = min(grid[min(k + 1, len(grid) - 1)] * 1.5, 1.0)
        assert lo <= est_ref <= hi

    def test_grid_validation(self):
        data = DegradationObservations(times=[[1.0]], levels=[[0.5]])
        with pytest.raises(ValidationError):
            fit_half_width(1.0, 1.0, data, [1.5])


class TestPathMonotonicity:
    def test_simulated_paths_non_decreasing(self):
        rng = np.random.default_rng(14)
        data = simulate_observation_paths(RE_MODEL, 10, np.linspace(0.5, 20, 40), rng)
        for x in data.levels:
            assert np.all(np.diff(x) >= 0)


def _scalar_log_gamma_diff(shape, x1, x2):
    """One row of the incomplete-gamma difference, by the scalar rule."""
    if shape > 0.0:
        q1, q2 = sp.gammaincc(shape, x1), sp.gammaincc(shape, x2)
        p1, p2 = sp.gammainc(shape, x1), sp.gammainc(shape, x2)
        diff = q1 - q2 if q1 <= p2 else p2 - p1
        if diff > 0.0 and diff > 1e-7 * min(q1, p2):
            return float(sp.gammaln(shape) + np.log(diff))
    return special._log_gamma_diff_quad(shape, x1, x2)


def _reference_log_likelihood(alpha, a, b, data):
    """The mixture log-likelihood summed process by process."""
    total = -data.n_processes * np.log(b - a)
    for t, x in zip(data.times, data.levels):
        dx = np.diff(np.concatenate(([0.0], x)))
        steps = alpha * np.diff(np.concatenate(([0.0], t)))
        total += float(np.sum((steps - 1.0) * np.log(dx) - sp.gammaln(steps)))
        s_n = alpha * t[-1] - 1.0
        total += _scalar_log_gamma_diff(s_n, x[-1] / b, x[-1] / a) - s_n * np.log(x[-1])
    return total


def _reference_observations(times, levels):
    """The per-process validation loop: the message of the first failing check, or the cleaned arrays."""
    clean_t, clean_x = [], []
    for t, x in zip(times, levels):
        t, x = np.asarray(t, float), np.asarray(x, float)
        if t.size == 0:
            return "a process has no observations"
        if t.size != x.size:
            return "times and levels differ in length"
        if t[0] == 0.0:
            if x[0] != 0.0:
                return "a time-0 observation must have level 0"
            t, x = t[1:], x[1:]
        if t.size == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
            return "observation times must be strictly increasing and positive"
        if x[0] < 0 or np.any(np.diff(x) < 0):
            return "levels must be non-negative and non-decreasing"
        clean_t.append(t)
        clean_x.append(x)
    return clean_t, clean_x


class TestVectorisedLikelihood:
    @pytest.fixture()
    def count_quadrature(self, monkeypatch):
        calls = []
        quad_fn = special._log_gamma_diff_quad

        def counted(*args):
            calls.append(args)
            return quad_fn(*args)

        monkeypatch.setattr(special, "_log_gamma_diff_quad", counted)
        return calls

    def test_random_effects_data(self):
        rng = np.random.default_rng(30)
        data = simulate_observation_paths(RE_MODEL, 60, np.arange(2.0, 21.0, 2.0), rng)
        for w in np.linspace(0.02, 0.6, 7):
            a, b = 1 / 1.4 - w, 1 / 1.4 + w
            want = _reference_log_likelihood(1.1, a, b, data)
            assert log_likelihood(1.1, a, b, data) == pytest.approx(want, rel=1e-12)

    def test_quadrature_fallback(self, count_quadrature):
        rng = np.random.default_rng(31)
        data = simulate_observation_paths(RE_MODEL, 20, np.arange(1.0, 11.0), rng)
        # at this half-width most, not all, terminal differences cancel
        a, b = 0.9 - 1e-8, 0.9 + 1e-8
        got = log_likelihood(1.1, a, b, data)
        assert 0 < len(count_quadrature) < data.n_processes
        assert got == pytest.approx(_reference_log_likelihood(1.1, a, b, data), rel=1e-12)

    def test_non_positive_terminal_shape(self, count_quadrature):
        # alpha*t_n - 1 <= 0 for single short observations
        rng = np.random.default_rng(32)
        ends = rng.uniform(0.1, 0.9, 15)
        data = DegradationObservations(times=[[t] for t in ends],
                                       levels=[[x] for x in rng.uniform(0.05, 1.0, 15)])
        got = log_likelihood(1.1, 0.6, 0.9, data)
        assert len(count_quadrature) == data.n_processes
        assert got == pytest.approx(_reference_log_likelihood(1.1, 0.6, 0.9, data), rel=1e-12)

    def test_flattened_once(self):
        data = DegradationObservations(times=[[0.0, 1.0, 3.0], [2.0]], levels=[[0.0, 0.5, 0.75], [1.5]])
        np.testing.assert_array_equal(data.increments, [0.5, 0.25, 1.5])
        np.testing.assert_array_equal(data.steps, [1.0, 2.0, 2.0])
        np.testing.assert_array_equal(data.end_times, [3.0, 2.0])
        np.testing.assert_array_equal(data.end_levels, [0.75, 1.5])

    def test_fit_scan_is_the_likelihood(self):
        rng = np.random.default_rng(33)
        data = simulate_observation_paths(RE_MODEL, 10, np.arange(1.0, 11.0), rng)
        grid = np.linspace(0.6, 0.05, 9)
        est, nll, scanned, values = fit_half_width(1.0, 1.0, data, grid, full_output=True)
        np.testing.assert_array_equal(scanned, np.sort(grid))
        np.testing.assert_array_equal(values, [-log_likelihood(1.0, 1 - w, 1 + w, data) for w in scanned])
        assert (est, nll) == fit_half_width(1.0, 1.0, data, grid)


class TestReadObservationsShuffled:
    def test_shuffled_rows_read_as_sorted(self, tmp_path):
        rng = np.random.default_rng(34)
        data = simulate_observation_paths(RE_MODEL, 12, np.arange(1.0, 8.0), rng)
        path = tmp_path / "obs.csv"
        write_observations_csv(path, data)
        header, *rows = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n")
        ordered, back = read_observations_csv(path), read_observations_csv(shuffled)
        assert back.n_processes == 12
        for name in ("times", "levels"):
            for x, y in zip(getattr(ordered, name), getattr(back, name)):
                np.testing.assert_array_equal(x, y)
        for name in ("increments", "steps", "end_times", "end_levels"):
            np.testing.assert_array_equal(getattr(ordered, name), getattr(back, name))


    def test_columns_in_any_order_and_ids_ordered_by_value(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("level,process_id,time\n0.5,10,1\n0.7,2,1\n0.9,2,2\n")
        np.testing.assert_array_equal(read_observations_csv(path).end_levels, [0.9, 0.5])
        path.write_text("process_id,time,level\nb,1,0.2\na,1,0.5\na,2,0.7\n")
        np.testing.assert_array_equal(read_observations_csv(path).end_levels, [0.7, 0.2])
        path.write_text("# process_id,time,level\n# a comment\n0,1,0.5  # inline\n\n0,2,0.8\n")
        np.testing.assert_array_equal(read_observations_csv(path).end_levels, [0.8])

    @pytest.mark.parametrize(
        "text",
        ["", "process_id,time,level\n", "process_id,time\n0,1\n", "process_id,time,level\n0,1\n",
         "process_id,time,level\n0,1,0.5,9\n", "process_id,time,level\n0,1,x\n",
         "process_id,time,level\n0,1,\n"],
        ids=["empty", "header_only", "two_columns", "short_row", "long_row", "non_numeric", "missing"],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(ValidationError):
            read_observations_csv(path)


class TestDifferencePdfSaturation:
    def test_saturated_tail_returns_quotient(self):
        t = np.arange(0.01, 20.0, 0.01)
        law = HittingLaw(GammaModel.deterministic(1.1, 1.4), 1.0)
        pdf = law.pdf(t)
        assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
        assert pdf[t > 16.0].max() < 1e-12

    def test_interior_loss_still_raises(self):
        with pytest.raises(NumericalError, match="significant digits"):
            difference_pdf(lambda x: np.full(np.shape(x), 0.5), np.array([1.0, 2.0]))

    def test_loss_names_first_time_step_and_cdf(self):
        flat = lambda x: np.where(np.asarray(x) > 1.5, 0.25, 0.5 * np.asarray(x))
        with pytest.raises(NumericalError, match=r"at t=2 \(step 0\.0002, cdf 0\.25\)"):
            difference_pdf(flat, np.array([3.0, 1.0, 2.0]))
