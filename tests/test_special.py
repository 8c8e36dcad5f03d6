import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from shotgamma.errors import NumericalError, ValidationError
from shotgamma.special import (
    gauss_legendre,
    integrate,
    leggauss,
    log_gamma_diff,
)

# goldens computed with mpmath (30 digits) / scipy.quad, independent of the
# implementation paths under test
LOG_GAMMA_DIFF_GOLDENS = [
    (2.5, 0.5, 3.0, -0.13638301717496521),
    (-0.7, 0.2, 1.1, 0.69908867379508782),
    (0.0, 0.3, 2.0, -0.15457860691257787),
    (44.0, 20.0, 35.0, 118.99625902988825),
    (-3.2, 0.05, 0.4, 8.3502810261685973),
]


def test_leggauss_is_shared_and_read_only():
    nodes, weights = leggauss(16)
    assert leggauss(16)[0] is nodes
    assert weights.sum() == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_gauss_legendre_panels_and_rows():
    n = 5
    edges = np.array([-1.0, 0.25, 2.0, 3.5])
    nodes, weights = gauss_legendre(edges, n)
    assert nodes.shape == weights.shape == (3 * n,)
    # exact for every degree up to 2n - 1 on each panel, so on the union too
    for degree in range(2 * n):
        exact = (edges[-1] ** (degree + 1) - edges[0] ** (degree + 1)) / (degree + 1)
        assert np.sum(weights * nodes**degree) == pytest.approx(exact, rel=1e-13, abs=1e-13)
    # one rule per row, as the rows' own calls give it, weights summing to each width
    rows = np.array([[0.0, 1.0], [2.0, 2.5], [-3.0, 4.0]])
    row_nodes, row_weights = gauss_legendre(rows, n)
    assert row_nodes.shape == row_weights.shape == (3, n)
    for row, x, w in zip(rows, row_nodes, row_weights):
        single = gauss_legendre(row, n)
        np.testing.assert_array_equal(x, single[0])
        np.testing.assert_array_equal(w, single[1])
    np.testing.assert_allclose(row_weights.sum(axis=1), rows[:, 1] - rows[:, 0], rtol=1e-14)


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
        cases = [
            (lambda x: np.sin(50.0 / (x + 0.01)), 0.0, 1.0),
            (lambda x: 1.0 / (1.0 + x), 0.0, np.inf),
            (lambda x: np.nan, 0.0, 1.0),
            (lambda x: np.inf, 0.0, 1.0),
        ]
        for f, a, b in cases:
            with pytest.raises(NumericalError, match=rf"\[{a}, {b}\]"):
                integrate(f, a, b)


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
