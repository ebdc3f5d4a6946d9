import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahaclass.betadist import BetaParams, beta_quantile, reg_inc_beta
from mahaclass.errors import NumericalError

shapes = st.floats(min_value=0.3, max_value=60.0, allow_nan=False)
probs = st.floats(min_value=1e-4, max_value=1.0 - 1e-4, allow_nan=False)
xs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


class TestRegIncBeta:
    def test_endpoints(self):
        p = BetaParams(2.0, 3.0)
        assert reg_inc_beta(p, 0.0) == 0.0
        assert reg_inc_beta(p, 1.0) == 1.0

    def test_uniform_case(self):
        # Beta(1, 1) is uniform, so the CDF is the identity
        p = BetaParams(1.0, 1.0)
        for x in (0.1, 0.37, 0.5, 0.99):
            assert reg_inc_beta(p, x) == pytest.approx(x, abs=1e-14)

    def test_closed_form_b_one(self):
        # I_x(a, 1) = x^a
        p = BetaParams(3.0, 1.0)
        assert reg_inc_beta(p, 0.4) == pytest.approx(0.4**3, rel=1e-13)

    def test_closed_form_a_one(self):
        # I_x(1, b) = 1 - (1-x)^b
        p = BetaParams(1.0, 5.0)
        assert reg_inc_beta(p, 0.2) == pytest.approx(1.0 - 0.8**5, rel=1e-13)

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 4.0, 25.0):
            assert reg_inc_beta(BetaParams(a, a), 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_arcsine_quartile(self):
        # Beta(1/2, 1/2) CDF is (2/pi) arcsin(sqrt(x))
        p = BetaParams(0.5, 0.5)
        assert reg_inc_beta(p, 0.25) == pytest.approx(2.0 / math.pi * math.asin(0.5),
                                                      rel=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(NumericalError, match=r"x must lie in \[0, 1\]"):
            reg_inc_beta(BetaParams(1.0, 1.0), 1.5)

    def test_invalid_shapes(self):
        with pytest.raises(NumericalError, match="shapes must be positive"):
            BetaParams(0.0, 1.0)
        with pytest.raises(NumericalError, match="shapes must be positive"):
            BetaParams(2.0, -3.0)

    @settings(max_examples=200, deadline=None)
    @given(shapes, shapes, xs)
    def test_reflection_symmetry(self, a, b, x):
        lhs = reg_inc_beta(BetaParams(a, b), x)
        rhs = 1.0 - reg_inc_beta(BetaParams(b, a), 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    @settings(max_examples=100, deadline=None)
    @given(shapes, shapes, xs, xs)
    def test_monotone_in_x(self, a, b, x1, x2):
        lo, hi = sorted((x1, x2))
        p = BetaParams(a, b)
        assert reg_inc_beta(p, lo) <= reg_inc_beta(p, hi) + 1e-13


class TestBetaQuantile:
    def test_uniform_case(self):
        p = BetaParams(1.0, 1.0)
        for prob in (0.05, 0.5, 0.93):
            assert beta_quantile(p, prob) == pytest.approx(prob, abs=1e-12)

    def test_symmetric_median(self):
        assert beta_quantile(BetaParams(7.0, 7.0), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form(self):
        # Beta(2, 1) has CDF x^2, so the quantile is sqrt(prob)
        assert beta_quantile(BetaParams(2.0, 1.0), 0.49) == pytest.approx(0.7, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(NumericalError, match=r"prob must lie in \(0, 1\)"):
            beta_quantile(BetaParams(1.0, 1.0), 0.0)
        with pytest.raises(NumericalError, match=r"prob must lie in \(0, 1\)"):
            beta_quantile(BetaParams(1.0, 1.0), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(shapes, shapes, probs)
    def test_round_trip(self, a, b, prob):
        from scipy.stats import beta as beta_ref
        import numpy as np

        p = BetaParams(a, b)
        x = beta_quantile(p, prob)
        assert 0.0 <= x <= 1.0
        # one ulp of x moves the CDF by about pdf(x) * spacing(x), which
        # bounds the achievable accuracy deep in the tails
        quantization = float(beta_ref.pdf(x, a, b)) * float(np.spacing(max(x, 1e-300)))
        tol = max(1e-10, 8.0 * quantization)
        assert reg_inc_beta(p, x) == pytest.approx(prob, abs=tol)

    @settings(max_examples=100, deadline=None)
    @given(shapes, shapes, probs, probs)
    def test_monotone_in_prob(self, a, b, p1, p2):
        lo, hi = sorted((p1, p2))
        p = BetaParams(a, b)
        assert beta_quantile(p, lo) <= beta_quantile(p, hi) + 1e-12
