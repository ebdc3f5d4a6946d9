import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahaclass import _scipy
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


# Run in a fresh interpreter, since this suite itself imports scipy.special.
# argv: the path to take, an empty directory.  Loads the ufuncs the way the
# path says, checks that no stand-in scipy.special is left in sys.modules,
# then compares every ufunc's values with the public scipy.special's, bit
# for bit, and prints the loaded module's name.
_SPECIAL_LOADING = """if True:
    import importlib.util, sys, types
    import numpy as np
    from mahaclass import _scipy
    path, empty = sys.argv[1:]
    if path == "scipy-special-imported":
        import scipy.special
    find_spec = importlib.util.find_spec
    if path == "no-extension-file":
        importlib.util.find_spec = lambda name, *args: types.SimpleNamespace(
            submodule_search_locations=[empty])
    try:
        module = _scipy._load_special()
    finally:
        importlib.util.find_spec = find_spec
    left = sys.modules.get("scipy.special")
    if path == "stand-in":
        assert left is None, left
    else:
        assert left is module and hasattr(left, "__file__"), left
    import scipy.special as public
    assert hasattr(sys.modules["scipy.special"], "__file__")
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.3, 60.0, size=(2, 200))
    u = np.concatenate([[0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0], rng.uniform(size=195)])
    z = np.concatenate([[-np.inf, -40.0, 0.0, 8.5, np.inf, np.nan], rng.normal(size=194) * 5])
    for name, args in (("betainc", (a, b, u)), ("betaincinv", (a, b, u)),
                       ("ndtr", (z,)), ("ndtri", (u,))):
        got, want = getattr(module, name)(*args), getattr(public, name)(*args)
        assert got.tobytes() == want.tobytes(), name
    print(module.__name__)
"""


class TestSpecialLoading:
    """Each way ``_scipy`` can load scipy.special's ufuncs gives the public
    functions' values bit for bit and leaves no stand-in package behind."""

    @pytest.mark.parametrize("path, loaded", [
        ("stand-in", "scipy.special._ufuncs"),
        ("scipy-special-imported", "scipy.special"),
        ("no-extension-file", "scipy.special"),  # the stand-in's directory is empty
    ])
    def test_ufuncs_match_scipy_special(self, tmp_path, path, loaded):
        src = str(Path(_scipy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run([sys.executable, "-c", _SPECIAL_LOADING, path, str(tmp_path)],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [loaded]
