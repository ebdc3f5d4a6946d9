import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from mahaclass import _scipy, linalg
from mahaclass.diagnostics import henze_zirkler
from mahaclass.errors import NotPositiveDefinite, NumericalError
from mahaclass.linalg import (
    SlidingWindow,
    append_point,
    cholesky,
    fit_gaussian,
    spd_solve,
    whitened_sq_norm,
    whitened_sq_norms,
)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_reconstructs_input(self):
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        l = cholesky(m)
        np.testing.assert_allclose(l, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(l @ l.T, m, rtol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_raises(self, bad):
        # LAPACK factors an infinite diagonal without complaint
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            cholesky(m)

    def test_non_square_raises(self):
        with pytest.raises(NumericalError, match=r"expected a square matrix, got shape \(2, 3\)"):
            cholesky(np.ones((2, 3)))


class TestWhitenedSqNorms:
    @staticmethod
    def reference(chol, deltas):
        """scipy's solve on the C-ordered factor, the order np.linalg.cholesky
        returns; for a Fortran-ordered factor scipy solves another, equivalent
        system, whose one-row result can differ in the last bits."""
        z = solve_triangular(np.ascontiguousarray(chol), deltas.T, lower=True,
                             check_finite=False)
        return np.einsum("ij,ij->j", z, z)

    @pytest.mark.parametrize("d", [1, 3, 32, 64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_equal_to_solve_triangular(self, d, order):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(3 * d + 5, d))
        chol = np.asarray(cholesky(a.T @ a / (3 * d + 4)), order=order)
        for n_rows in (1, 7, 500):
            deltas = 3.0 * rng.normal(size=(n_rows, d))
            got = whitened_sq_norms(chol, deltas)
            np.testing.assert_array_equal(got, self.reference(chol, deltas))
            z = solve_triangular(chol, deltas.T, lower=True, check_finite=False)
            np.testing.assert_allclose(got, np.einsum("ij,ij->j", z, z), rtol=1e-13)

    @pytest.mark.parametrize("d", [1, 3, 32, 64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_row_kernel_is_a_one_row_batch(self, d, order):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(3 * d + 5, d))
        chol = np.asarray(cholesky(a.T @ a / (3 * d + 4)), order=order)
        for delta in 3.0 * rng.normal(size=(200, d)):
            got = whitened_sq_norm(chol, delta)
            assert type(got) is float
            assert got == whitened_sq_norms(chol, delta[None])[0]

    def test_zero_pivot_raises(self):
        chol = np.tril(np.ones((4, 4)))
        chol[2, 2] = 0.0
        with pytest.raises(NotPositiveDefinite, match="zero pivot"):
            whitened_sq_norms(chol, np.ones((3, 4)))
        with pytest.raises(NotPositiveDefinite, match="zero pivot"):
            whitened_sq_norm(chol, np.ones(4))


class TestFitGaussian:
    def test_one_dim(self):
        m = fit_gaussian([[0.0], [2.0]], ridge=0.0)
        assert m.mean[0] == 1.0
        assert m.cov[0, 0] == 2.0

    def test_zero_scatter_needs_ridge(self):
        m = fit_gaussian([[3.0], [3.0]], ridge=1e-6)
        assert m.mean[0] == 3.0
        assert m.cov[0, 0] == 0.0
        np.testing.assert_allclose(m.chol[0, 0], np.sqrt(1e-6))

    def test_hand_expansion_2d(self):
        m = fit_gaussian([[0, 0], [1, 0], [0, 1]], ridge=0.0)
        np.testing.assert_allclose(m.mean, [1 / 3, 1 / 3])
        np.testing.assert_allclose(m.cov, [[1 / 3, -1 / 6], [-1 / 6, 1 / 3]], rtol=1e-12)

    def test_too_few(self):
        for points in ([[1.0, 2.0]], [1.0, 2.0]):  # a 1-D array is one point
            with pytest.raises(NumericalError, match="need at least 2 points, got 1"):
                fit_gaussian(points)

    def test_three_dim_array_names_its_shape(self):
        with pytest.raises(NumericalError, match=r"expected an \(n, d\) array of points, "
                                                 r"got shape \(3, 2, 2\)"):
            fit_gaussian(np.zeros((3, 2, 2)))

    def test_chol_reconstructs(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 4))
        m = fit_gaussian(pts, ridge=1e-6)
        target = m.cov + 1e-6 * np.eye(4)
        err = np.linalg.norm(m.chol @ m.chol.T - target) / np.linalg.norm(target)
        assert err < 1e-10


class TestSpdSolve:
    def test_identity(self):
        m = fit_gaussian(np.vstack([np.eye(3), -np.eye(3)]) * np.sqrt(5 / 2), ridge=0.0)
        np.testing.assert_allclose(m.cov, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(spd_solve(m, np.array([1.0, 2.0, 3.0])),
                                   [1.0, 2.0, 3.0], rtol=1e-10)

    def test_scalar(self):
        m = fit_gaussian([[0.0], [4.0]], ridge=0.0)  # cov [[8]]
        np.testing.assert_allclose(spd_solve(m, np.array([2.0])), [0.25])

    def test_residual(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 5))
        m = fit_gaussian(pts, ridge=1e-6)
        v = rng.normal(size=5)
        w = spd_solve(m, v)
        resid = np.linalg.norm((m.cov + 1e-6 * np.eye(5)) @ w - v)
        assert resid <= 1e-9 * np.linalg.norm(v)

    def test_dimension_mismatch(self):
        m = fit_gaussian([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="expected rows of length 2"):
            spd_solve(m, np.zeros(3))


class TestAppendPoint:
    def test_append_mean_shrinks_cov(self):
        m = fit_gaussian([[0.0], [2.0]], ridge=0.0)
        m2 = append_point(m, m.mean)
        assert m2.mean[0] == m.mean[0]
        np.testing.assert_allclose(m2.cov[0, 0], m.cov[0, 0] * (m.n - 1) / m.n)

    def test_wrong_length(self):
        m = fit_gaussian([[0.0], [2.0]], ridge=0.0)
        with pytest.raises(NumericalError, match=r"expected vector of length 1, got shape \(2,\)"):
            append_point(m, np.zeros(2))

    def test_hand_expansion(self):
        m = fit_gaussian([[0.0], [2.0]], ridge=0.0)
        m2 = append_point(m, np.array([4.0]))
        assert m2.mean[0] == 2.0
        assert m2.cov[0, 0] == 4.0
        assert m2.n == 3

    def test_matches_refit(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3))
        x = rng.normal(size=3)
        inc = append_point(fit_gaussian(pts, ridge=1e-6), x)
        ref = fit_gaussian(np.vstack([pts, x]), ridge=1e-6)
        np.testing.assert_allclose(inc.mean, ref.mean, rtol=1e-10)
        np.testing.assert_allclose(inc.cov, ref.cov, rtol=1e-10, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 100), st.integers(1, 16), st.integers(0, 2**31))
    def test_matches_refit_property(self, n, d, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, d))
        x = rng.normal(size=d)
        inc = append_point(fit_gaussian(pts, ridge=1e-6), x)
        ref = fit_gaussian(np.vstack([pts, x]), ridge=1e-6)
        np.testing.assert_allclose(inc.mean, ref.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(inc.cov, ref.cov, rtol=1e-10, atol=1e-12)


class TestSlidingWindow:
    def test_under_capacity(self):
        rng = np.random.default_rng(3)
        w = SlidingWindow(capacity=10, dim=2, update_frequency=4)
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        w.push(a)
        w.push(b)
        assert len(w) == 8
        ref = fit_gaussian(np.vstack([a, b]), ridge=1e-6)
        np.testing.assert_allclose(w.model.mean, ref.mean)
        np.testing.assert_allclose(w.model.cov, ref.cov)

    def test_eviction(self):
        rng = np.random.default_rng(4)
        batches = [rng.normal(size=(4, 2)) for _ in range(3)]
        w = SlidingWindow(capacity=8, dim=2, update_frequency=4)
        for b in batches:
            w.push(b)
        ref = fit_gaussian(np.vstack(batches[-2:]), ridge=1e-6)
        np.testing.assert_allclose(w.model.mean, ref.mean)
        np.testing.assert_allclose(w.model.cov, ref.cov)

    def test_empty_batch_noop(self):
        w = SlidingWindow(capacity=8, dim=2, update_frequency=1)
        w.push(np.random.default_rng(5).normal(size=(4, 2)))
        model = w.model
        w.push(np.empty((0, 2)))
        assert w.model is model

    @pytest.mark.parametrize("sizes", [{"capacity": 0}, {"capacity": 8, "update_frequency": 0}])
    def test_non_positive_sizes(self, sizes):
        with pytest.raises(ValueError, match="capacity and update_frequency must be positive"):
            SlidingWindow(dim=2, **sizes)

    def test_wrong_dimension(self):
        w = SlidingWindow(capacity=8, dim=2)
        with pytest.raises(NumericalError, match="window dimension is 2, batch has 4"):
            w.push(np.zeros((3, 4)))

    def test_refresh_frequency(self):
        w = SlidingWindow(capacity=100, dim=1, update_frequency=4)
        w.push([[1.0], [2.0]])
        assert w.model is None  # only 2 pushed, refresh at 4
        w.push([[3.0], [4.0]])
        assert w.model is not None


def test_einsum_falls_back_to_np_einsum(monkeypatch):
    # numpy's private C einsum under neither module name: the public one stands in
    monkeypatch.setitem(sys.modules, "numpy._core.multiarray", None)
    monkeypatch.setitem(sys.modules, "numpy.core.multiarray", None)
    assert linalg._c_einsum() is np.einsum


class TestLapackLoading:
    """The dtrtrs and dpotrs ``_scipy`` loads give the answers of scipy's
    public solvers, bit for bit (tests/test_scipy.py checks each way of
    loading them)."""

    def test_whitened_sq_norms(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 6))
        chol = cholesky(a.T @ a / 39)
        deltas = rng.normal(size=(25, 6))
        np.testing.assert_array_equal(whitened_sq_norms(chol, deltas),
                                      TestWhitenedSqNorms.reference(chol, deltas))

    @pytest.mark.parametrize("shape", [(5,), (9, 5), (2, 3, 5), (0, 5), (2, 0, 5)])
    def test_spd_solve(self, shape):
        rng = np.random.default_rng(8)
        m = fit_gaussian(rng.normal(size=(30, 5)), ridge=1e-6)
        v = rng.normal(size=shape)
        want = cho_solve((m.chol, True), v.reshape(-1, 5).T, check_finite=False).T
        got = spd_solve(m, v)
        assert got.shape == shape
        np.testing.assert_array_equal(got, want.reshape(shape))

    def test_henze_zirkler(self, monkeypatch):
        x = np.random.default_rng(9).normal(size=(700, 3))
        got = henze_zirkler(x)
        monkeypatch.setattr(_scipy, "dpotrs", lambda c, b, lower: (
            cho_solve((c, bool(lower)), b, check_finite=False), 0))
        assert got == henze_zirkler(x)
