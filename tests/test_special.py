import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp
from scipy.integrate import quad

from shotgamma.errors import NumericalError, ValidationError
from shotgamma.special import (
    QuadratureSpec,
    gamma_cdf,
    gamma_pdf,
    integrate,
    leggauss,
    log_gamma_diff,
    log_upper_incomplete_gamma,
    regularized_lower_gamma,
    regularized_upper_gamma,
    upper_incomplete_gamma,
)

# goldens computed with mpmath (30 digits) / scipy.quad, independent of the
# implementation paths under test
Q_10_10 = 0.45792971447185221
G_2_1 = 0.73575888234288464
CDF_2_14_3 = 0.9220230005335159
LOG_GAMMA_DIFF_GOLDENS = [
    (2.5, 0.5, 3.0, -0.13638301717496521),
    (-0.7, 0.2, 1.1, 0.69908867379508782),
    (0.0, 0.3, 2.0, -0.15457860691257787),
    (44.0, 20.0, 35.0, 118.99625902988825),
    (-3.2, 0.05, 0.4, 8.3502810261685973),
]


class TestUpperIncompleteGamma:
    def test_at_zero_is_complete_gamma(self):
        assert upper_incomplete_gamma(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_shape_one_is_exponential_tail(self):
        for x in [0.0, 0.3, 2.5, 10.0]:
            assert upper_incomplete_gamma(1.0, x) == pytest.approx(np.exp(-x), rel=1e-12)

    def test_closed_form_shape_two(self):
        assert upper_incomplete_gamma(2.0, 1.0) == pytest.approx(G_2_1, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValidationError):
            upper_incomplete_gamma(1.0, -0.1)

    @given(st.floats(min_value=0.1, max_value=170.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_log_gamma_reference_at_zero(self, shape):
        # 170 keeps the reference inside the double range
        ref = np.exp(sp.gammaln(shape))
        assert upper_incomplete_gamma(shape, 0.0) == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = upper_incomplete_gamma(3.7, xs)
        assert np.all(np.diff(vals) <= 0)


def test_log_upper_incomplete_gamma_matches_scipy_stats():
    from scipy.stats import gamma as gamma_dist

    rng = np.random.default_rng(17)
    shape = np.exp(rng.uniform(-4.0, 6.0, 5000))
    x = np.concatenate([[0.0], shape[1:] * np.exp(rng.uniform(-6.0, 3.0, 4999))])
    want = sp.gammaln(shape) + gamma_dist.logsf(x, a=shape)
    assert np.array_equal(log_upper_incomplete_gamma(shape, x), want)
    assert log_upper_incomplete_gamma(2.5, 0.7) == sp.gammaln(2.5) + gamma_dist.logsf(0.7, a=2.5)


def test_leggauss_is_shared_and_read_only():
    nodes, weights = leggauss(16)
    assert leggauss(16)[0] is nodes
    assert weights.sum() == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        nodes[0] = 0.0


class TestRegularized:
    def test_at_zero(self):
        assert regularized_upper_gamma(4.2, 0.0) == 1.0

    def test_log_two(self):
        assert regularized_upper_gamma(1.0, np.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_golden_10_10(self):
        assert regularized_upper_gamma(10.0, 10.0) == pytest.approx(Q_10_10, rel=1e-12)
        assert 0.45 < regularized_upper_gamma(10.0, 10.0) < 0.60

    @given(
        st.floats(min_value=0.05, max_value=120.0),
        st.floats(min_value=0.0, max_value=150.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_complementarity(self, shape, x):
        total = regularized_upper_gamma(shape, x) + regularized_lower_gamma(shape, x)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_increasing_in_shape(self):
        shapes = np.linspace(0.5, 30.0, 100)
        vals = regularized_upper_gamma(shapes, 5.0)
        assert np.all(np.diff(vals) > 0)


class TestGammaDensities:
    def test_cdf_exponential(self):
        assert gamma_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

    def test_pdf_exponential_at_origin(self):
        assert gamma_pdf(1.0, 2.7, 0.0) == pytest.approx(2.7)

    def test_cdf_matches_pdf_quadrature(self):
        assert gamma_cdf(2.0, 1.4, 3.0) == pytest.approx(CDF_2_14_3, rel=1e-10)

    def test_pdf_integrates_to_one(self):
        val, _ = quad(lambda x: gamma_pdf(3.3, 0.8, x), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_cdf_non_decreasing(self, shape, rate):
        xs = np.sort(np.random.default_rng(0).uniform(0.0, 30.0, size=50))
        vals = gamma_cdf(shape, rate, xs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gamma_pdf(-1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            gamma_cdf(1.0, 0.0, 1.0)


class TestIntegrate:
    def test_exponential_tail(self):
        assert integrate(lambda x: np.exp(-x), 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_x_exp_tail(self):
        assert integrate(lambda x: x * np.exp(-x), 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_polynomial_times_exponential(self):
        # integral of (x^2 + 2x) e^{-2x} over (0, 4)
        exact, _ = quad(lambda x: (x**2 + 2 * x) * np.exp(-2 * x), 0.0, 4.0)
        assert integrate(lambda x: (x**2 + 2 * x) * np.exp(-2 * x), 0.0, 4.0) == pytest.approx(
            exact, abs=1e-9
        )

    def test_non_convergence_is_reported(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
        with pytest.raises(NumericalError):
            integrate(lambda x: np.sin(50.0 / (x + 0.01)), 0.0, 1.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureSpec(max_depth=0)


class TestLogGammaDiff:
    @pytest.mark.parametrize("shape,x1,x2,golden", LOG_GAMMA_DIFF_GOLDENS)
    def test_goldens(self, shape, x1, x2, golden):
        assert log_gamma_diff(shape, x1, x2) == pytest.approx(golden, abs=1e-9)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            log_gamma_diff(1.0, 2.0, 1.0)
        with pytest.raises(ValidationError):
            log_gamma_diff(np.array([1.0, 1.0]), np.array([0.5, 2.0]), 1.5)

    def test_array_form_equals_scalar_calls(self):
        # regular rows, non-positive shapes and cancelling rows (quadrature)
        shape = np.array([2.5, -0.7, 0.0, 44.0, 21.0, 21.0, 3.0])
        x1 = np.array([0.5, 0.2, 0.3, 20.0, 10.0, 10.0, 40.0])
        x2 = np.array([3.0, 1.1, 2.0, 35.0, 10.0 + 1e-6, 30.0, 41.0])
        got = log_gamma_diff(shape, x1, x2)
        assert isinstance(got, np.ndarray) and got.shape == shape.shape
        want = [log_gamma_diff(float(s), float(a), float(b)) for s, a, b in zip(shape, x1, x2)]
        np.testing.assert_array_equal(got, want)
        assert isinstance(log_gamma_diff(2.5, 0.5, 3.0), float)

    @given(
        st.floats(min_value=-2.0, max_value=30.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=1.1, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_quadrature(self, shape, x1, ratio):
        x2 = x1 * ratio
        exact, _ = quad(lambda z: z ** (shape - 1.0) * np.exp(-z), x1, x2)
        assert log_gamma_diff(shape, x1, x2) == pytest.approx(np.log(exact), abs=1e-7)
