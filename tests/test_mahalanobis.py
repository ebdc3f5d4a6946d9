import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, run_fresh
from mahaclass import linalg
from mahaclass.betadist import BetaParams, beta_quantile, reg_inc_beta
from mahaclass.diagnostics import emit_distance_report
from mahaclass.errors import NotPositiveDefinite, NumericalError
from mahaclass.linalg import GaussianModel, append_point, fit_gaussian, whitened_sq_norms
from mahaclass.mahalanobis import (
    NON_TARGET,
    TARGET,
    DecisionThreshold,
    beta_decide,
    calibrate,
    calibrate_scores,
    decision_statistic,
    null_beta_params,
    scores,
)


def naive_t(points: np.ndarray, x: np.ndarray) -> float:
    """Decision statistic by brute force: refit with the query included."""
    n = points.shape[0]
    everything = np.vstack([points, x])
    mean = everything.mean(axis=0)
    centered = everything - mean
    cov = centered.T @ centered / n  # n+1 samples, ddof 1
    delta = x - mean
    d2 = float(delta @ np.linalg.solve(cov, delta))
    return (n + 1) / n**2 * d2


def brute_force_calibrate(t_values, truth, params, objective, fpr_cap):
    """The per-candidate scan: F1 and FPR recounted at every candidate."""
    candidates = [(float(reg_inc_beta(params, t)), t) for t in sorted(set(t_values.tolist()))]
    for g in np.linspace(0.01, 0.99, 99):
        candidates.append((float(g), float(beta_quantile(params, float(g)))))
    candidates = sorted((b, v) for b, v in candidates if 0.0 < b < 1.0)

    def f1_fpr(v):
        preds = t_values < v
        tp = int(np.sum(preds & (truth == 1)))
        fp = int(np.sum(preds & (truth == 0)))
        fn = int(np.sum(~preds & (truth == 1)))
        tn = int(np.sum(~preds & (truth == 0)))
        return 2 * tp / (2 * tp + fp + fn), fp / (fp + tn)

    best = None
    for b, v in candidates:
        f1, fpr = f1_fpr(v)
        if objective == "f1-fpr-cap" and fpr > fpr_cap:
            continue
        if best is None or f1 > best[0]:
            best = (f1, b, v)
    if best is None:
        return min((f1_fpr(v)[1], b, v) for b, v in candidates)[1:]
    return best[1:]


class TestDecisionStatistic:
    def test_matches_brute_force(self):
        # the closed form, one batched call over all queries, against
        # appending each query and taking its distance under the refactored
        # statistics; without a ridge, also against a full refit
        rng = np.random.default_rng(9)
        for ridge in (0.0, 1e-6, 0.3, 5.0):
            for _ in range(20):
                d = int(rng.integers(1, 6))
                n = int(rng.integers(d + 2, 60))
                pts = rng.normal(size=(n, d))
                queries = 3.0 * rng.normal(size=(10, d))
                model = fit_gaussian(pts, ridge=ridge)
                grown = [append_point(model, x) for x in queries]
                want = [(n + 1) / n**2 * whitened_sq_norms(g.chol, (x - g.mean)[None])[0]
                        for g, x in zip(grown, queries)]
                np.testing.assert_allclose(scores(model, queries), want, rtol=1e-10)
                np.testing.assert_allclose(
                    [decision_statistic(model, x).T for x in queries], want, rtol=1e-10)
                if ridge == 0.0:
                    np.testing.assert_allclose(
                        want, [naive_t(pts, x) for x in queries], rtol=1e-9)

    def test_wrong_dimension(self):
        model = fit_gaussian(np.random.default_rng(0).normal(size=(10, 2)), ridge=0.0)
        with pytest.raises(NumericalError, match="expected rows of length 2"):
            scores(model, np.zeros((4, 3)))

    def test_query_at_mean(self):
        pts = np.random.default_rng(10).normal(size=(30, 3))
        model = fit_gaussian(pts, ridge=0.0)
        assert decision_statistic(model, model.mean).T == pytest.approx(0.0, abs=1e-20)

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(10, 2))
        model = fit_gaussian(pts, ridge=0.0)
        for scale in (0.1, 1.0, 100.0, 1e6):
            t = decision_statistic(model, scale * np.ones(2)).T
            assert 0.0 <= t <= 1.0

    def test_model_not_mutated(self):
        pts = np.random.default_rng(12).normal(size=(20, 2))
        model = fit_gaussian(pts, ridge=0.0)
        before = (model.mean.copy(), model.cov.copy(), model.n)
        decision_statistic(model, np.array([5.0, 5.0]))
        assert model.n == before[2]
        np.testing.assert_array_equal(model.mean, before[0])
        np.testing.assert_array_equal(model.cov, before[1])

    def test_too_few_samples(self):
        model = fit_gaussian(np.random.default_rng(0).normal(size=(3, 2)), ridge=1e-6)
        with pytest.raises(NumericalError, match=r"need n > d\+1"):
            decision_statistic(model, np.zeros(2))

    def test_overflowing_distance_scores_one(self):
        # against this factor the solve for a 1e300 row overflows to inf in
        # the first coordinate, then to inf - inf = NaN in the third
        n = 50
        cov = np.array([[1e-20, 1e-10, 1e-10], [1e-10, 2.0, 2.0], [1e-10, 2.0, 3.0]])
        model = make_model(np.zeros(3), cov * n / (n - 1), n)
        rows = np.array([[1e300, 0.0, 0.0], [1e200, 1e200, 1e200], [1e-11, 0.5, -0.2]])
        q = whitened_sq_norms(model.appended_chol, rows)
        assert np.isnan(q[0]) and np.isinf(q[1]) and np.isfinite(q[2])
        t = scores(model, rows)
        assert t[:2].tolist() == [1.0, 1.0]
        assert t[2] == q[2] / (n + 1 + q[2])  # a finite q is scored bit for bit as before
        assert decision_statistic(model, rows[0]).T == 1.0


class TestBetaDecide:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.pts = rng.normal(size=(50, 3))
        self.model = fit_gaussian(self.pts, ridge=0.0)
        self.thr = DecisionThreshold.for_model(self.model, 0.9)

    def test_mean_is_target(self):
        assert beta_decide(self.model, self.model.mean, self.thr) == TARGET

    def test_far_point_is_non_target(self):
        assert beta_decide(self.model, self.model.mean + 100.0, self.thr) == NON_TARGET

    def test_decision_boundary(self):
        # walk outward until the statistic straddles v_beta
        u = np.array([1.0, 0.0, 0.0])
        lo, hi = 0.0, 200.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if decision_statistic(self.model, self.model.mean + mid * u).T < self.thr.v_beta:
                lo = mid
            else:
                hi = mid
        assert beta_decide(self.model, self.model.mean + (lo - 1e-6) * u, self.thr) == TARGET
        assert beta_decide(self.model, self.model.mean + (hi + 1e-6) * u, self.thr) == NON_TARGET

    def test_tie_is_non_target(self):
        # a statistic exactly at the critical value fails the strict test
        x = self.model.mean + np.array([1.0, 1.0, 0.0])
        t = decision_statistic(self.model, x).T
        params = null_beta_params(self.model)
        thr = DecisionThreshold(beta_level=reg_inc_beta(params, t), params=params, v_beta=t)
        assert beta_decide(self.model, x, thr) == NON_TARGET

    def test_threshold_model_mismatch(self):
        other = fit_gaussian(np.random.default_rng(1).normal(size=(80, 3)), ridge=0.0)
        with pytest.raises(NumericalError, match="do not match model"):
            beta_decide(other, np.zeros(3), self.thr)

    def test_null_params(self):
        p = null_beta_params(self.model)
        assert p == BetaParams(1.5, 23.5)

    @staticmethod
    def near_edge(b, steps):
        """b plus and minus np.isclose's tolerance, nudged by a few ulps."""
        tol = 1e-8 + 1e-5 * abs(b)
        out = [b, np.inf, -np.inf]
        for edge in (b + tol, b - tol):
            out.append(edge)
            lo = hi = edge
            for _ in range(steps):
                lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                out += [lo, hi]
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 * 10**9))
    def test_shape_test_agrees_with_isclose(self, d, extra):
        # any model's shapes a = d/2, b = (n-d)/2, each threshold shape
        # nudged across np.isclose's tolerance while the other one matches
        model = GaussianModel(mean=np.zeros(d), cov=np.eye(d), chol=np.eye(d),
                              n=d + 2 + extra, ridge=0.0)
        expected = null_beta_params(model)
        shapes = [(a, expected.b) for a in self.near_edge(expected.a, steps=3)]
        shapes += [(expected.a, b) for b in self.near_edge(expected.b, steps=3)]
        for a, b in shapes:
            if not (a > 0 and b > 0):
                continue
            thr = DecisionThreshold(0.5, BetaParams(a, b), 0.5)
            if np.isclose(a, expected.a) and np.isclose(b, expected.b):
                assert beta_decide(model, model.mean, thr) == TARGET, (a, b)
            else:
                with pytest.raises(NumericalError, match="do not match model"):
                    beta_decide(model, model.mean, thr)

    def test_threshold_shapes_at_tolerance_edge(self):
        # accepted exactly when np.isclose accepts both shapes
        x = self.model.mean + 0.1
        expected = null_beta_params(self.model)
        for a in self.near_edge(expected.a, steps=2):
            for b in self.near_edge(expected.b, steps=2):
                if not (a > 0 and b > 0):
                    continue
                thr = DecisionThreshold(0.9, BetaParams(a, b), self.thr.v_beta)
                if np.isclose(a, expected.a) and np.isclose(b, expected.b):
                    assert beta_decide(self.model, x, thr) == TARGET
                else:
                    with pytest.raises(NumericalError, match="do not match model"):
                        beta_decide(self.model, x, thr)

    def test_equals_batched_scores_row_by_row(self):
        rng = np.random.default_rng(14)
        model = fit_gaussian(rng.normal(size=(400, 32)), ridge=1e-6)
        x = model.mean + 1.05 * rng.normal(size=(2500, 32))
        t = scores(model, x)
        for level in (0.2, 0.5, 0.9):
            thr = DecisionThreshold.for_model(model, level)
            expected = np.where(t < thr.v_beta, TARGET, NON_TARGET)
            got = [beta_decide(model, row, thr) for row in x]
            np.testing.assert_array_equal(got, expected)
            assert 0 < np.count_nonzero(expected == TARGET) < len(x)


class TestOneRowScorers:
    """``decision_statistic`` is a one-row ``scores`` call; ``beta_decide``
    scores a row with its own one-row kernel, which must give exactly the T
    of a one-row ``scores`` call."""

    ONE_ROW = (decision_statistic,
               lambda model, x: beta_decide(model, x, DecisionThreshold.for_model(model, 0.5)))

    @staticmethod
    def rows(model, rng):
        """The mean, rows near and far at several scales, a row whose q
        overflows and a NaN row."""
        d = model.d
        scaled = rng.normal(size=(300, d)) * rng.choice([1e-3, 0.3, 1.0, 3.0, 1e4], size=(300, 1))
        special = np.array([np.zeros(d), np.full(d, 1e200), np.full(d, np.nan)])
        return model.mean + np.vstack([special, scaled])

    @pytest.mark.parametrize("d", [1, 2, 8, 32, 64])
    def test_bit_identical_to_one_row_batch(self, d):
        rng = np.random.default_rng(100 + d)
        n = 4 * d + 10
        model = fit_gaussian(rng.normal(size=(n, d)) @ rng.normal(size=(d, d)), ridge=1e-6)
        thresholds = [DecisionThreshold.for_model(model, level) for level in (0.1, 0.5, 0.9)]
        for x in self.rows(model, rng):
            t = scores(model, x[None])[0]
            assert decision_statistic(model, x).T == t
            for thr in thresholds:
                assert beta_decide(model, x, thr) == (TARGET if t < thr.v_beta else NON_TARGET)
            if 0 < t < 1:  # thresholds at t and one ulp above pin the kernel's T to the bit
                params = thresholds[0].params
                assert beta_decide(model, x, DecisionThreshold(0.5, params, t)) == NON_TARGET
                assert beta_decide(model, x, DecisionThreshold(
                    0.5, params, np.nextafter(t, 1))) == TARGET
        at_mean, overflowing, nan_row = self.rows(model, rng)[:3]
        assert decision_statistic(model, at_mean).T == 0.0
        assert decision_statistic(model, overflowing).T == 1.0
        assert decision_statistic(model, nan_row).T == 1.0
        assert beta_decide(model, nan_row, thresholds[-1]) == NON_TARGET

    @pytest.mark.skipif(linalg._einsum is np.einsum, reason="numpy's C einsum is not importable")
    def test_one_row_scorers_skip_np_einsum(self, monkeypatch):
        model = fit_gaussian(np.random.default_rng(3).normal(size=(40, 4)), ridge=1e-6)
        thr = DecisionThreshold.for_model(model, 0.5)

        def fail(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", fail)
        assert beta_decide(model, model.mean + 0.5, thr) in (TARGET, NON_TARGET)

    @pytest.mark.parametrize("d", [1, 2, 8, 32, 64])
    def test_np_einsum_fallback_gives_the_same_bits(self, d, monkeypatch):
        rng = np.random.default_rng(200 + d)
        model = fit_gaussian(rng.normal(size=(4 * d + 10, d)) @ rng.normal(size=(d, d)),
                             ridge=1e-6)
        rows = self.rows(model, rng)
        # critical values at rows' own T, where a last-bit change flips the decision
        thresholds = [DecisionThreshold(0.5, null_beta_params(model), v)
                      for v in [scores(model, x[None])[0] for x in rows[3:8]] + [0.5]]

        def kernel_outputs():
            q = [linalg.whitened_sq_norm(model.appended_chol, x - model.mean) for x in rows]
            decisions = [beta_decide(model, x, thr) for thr in thresholds for x in rows]
            return np.array(q).tobytes(), decisions

        fast = kernel_outputs()
        monkeypatch.setattr(linalg, "_einsum", np.einsum)
        assert kernel_outputs() == fast

    def test_package_scores_without_c_einsum(self):
        # the private import fails in a fresh interpreter: np.einsum stands in
        code = """if True:
            import sys
            import numpy as np
            sys.modules["numpy._core.multiarray"] = None
            sys.modules["numpy.core.multiarray"] = None
            from mahaclass import cli, linalg, mahalanobis
            assert linalg._einsum is np.einsum
            model = linalg.fit_gaussian(np.random.default_rng(0).normal(size=(30, 3)), 1e-6)
            print(repr(linalg.whitened_sq_norm(model.appended_chol, np.ones(3))))
        """
        model = fit_gaussian(np.random.default_rng(0).normal(size=(30, 3)), 1e-6)
        assert float(run_fresh(code)) == linalg.whitened_sq_norm(model.appended_chol, np.ones(3))

    @pytest.mark.parametrize("shape", [(4,), (1, 3), ()])
    def test_wrong_shape_message(self, shape):
        model = fit_gaussian(np.random.default_rng(0).normal(size=(20, 3)), ridge=1e-6)
        for score in self.ONE_ROW:
            with pytest.raises(NumericalError, match=re.escape(
                    f"expected rows of length 3, got shape {(1, *shape)}")):
                score(model, np.zeros(shape))

    def test_list_row(self):
        model = fit_gaussian(np.random.default_rng(0).normal(size=(20, 3)), ridge=1e-6)
        x = [0.5, -1.0, 2.0]
        assert decision_statistic(model, x) == decision_statistic(model, np.array(x))
        assert self.ONE_ROW[1](model, x) == self.ONE_ROW[1](model, np.array(x))

    def test_too_few_samples(self):
        # n = d+1: no null law, so no T
        pts = np.random.default_rng(1).normal(size=(4, 3))
        model = fit_gaussian(pts, ridge=1e-6)
        thr = DecisionThreshold.for_model(fit_gaussian(np.vstack([pts, pts]), ridge=1e-6), 0.5)
        for score in (decision_statistic, lambda m, x: beta_decide(m, x, thr)):
            with pytest.raises(NumericalError, match=r"need n > d\+1, got n=4, d=3"):
                score(model, np.zeros(3))
            with pytest.raises(NumericalError, match=r"need n > d\+1"):
                score(model, np.zeros(5))  # checked before the row's shape

    def test_singular_factor(self):
        # a zero pivot in the cached factor fails the distance report's
        # solve; the appended factor of the same singular covariance fails
        # to factor
        cov = np.diag([1.0, 0.0, 1.0])
        model = GaussianModel(mean=np.zeros(3), cov=cov, chol=np.sqrt(cov), n=20, ridge=0.0)
        thr = DecisionThreshold.for_model(model, 0.5)
        with pytest.raises(NotPositiveDefinite, match="zero pivot"):
            emit_distance_report(io.StringIO(), ["x"], np.array([1]), np.ones((1, 3)), model)
        for score in (decision_statistic, lambda m, x: beta_decide(m, x, thr)):
            with pytest.raises(NotPositiveDefinite):
                score(model, np.ones(3))


class TestDecisionThreshold:
    @pytest.mark.parametrize("v_beta", [np.nan, 0.0, -1.0, 1.0, 2.0, np.inf])
    def test_critical_value_outside_unit_interval(self, v_beta):
        with pytest.raises(NumericalError, match="must lie in \\(0, 1\\)"):
            DecisionThreshold(beta_level=0.5, params=BetaParams(1.5, 23.5), v_beta=v_beta)

    @pytest.mark.parametrize("level", [np.nan, 0.0, -1.0, 1.0, 2.0])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(NumericalError, match="must lie in \\(0, 1\\)"):
            DecisionThreshold(beta_level=level, params=BetaParams(1.5, 23.5), v_beta=0.1)

    def test_far_row_stays_non_target(self):
        # v_beta = 2 once decided a row 100 units from the mean a target
        model = fit_gaussian(np.random.default_rng(13).normal(size=(50, 3)), ridge=0.0)
        with pytest.raises(NumericalError):
            DecisionThreshold(beta_level=0.9, params=null_beta_params(model), v_beta=2.0)
        thr = DecisionThreshold.for_model(model, 0.999999)
        assert beta_decide(model, model.mean + 100.0, thr) == NON_TARGET


class TestCalibrate:
    def _dev(self, seed, n_t=40, n_n=40, shift=6.0):
        rng = np.random.default_rng(seed)
        model = fit_gaussian(rng.normal(size=(100, 2)), ridge=0.0)
        dev_t = rng.normal(size=(n_t, 2))
        dev_n = rng.normal(size=(n_n, 2)) + shift
        vectors = np.vstack([dev_t, dev_n])
        labels = np.array([1] * n_t + [0] * n_n)
        return model, vectors, labels

    def test_separable_dev_gets_perfect_f1(self):
        model, vectors, labels = self._dev(14, shift=10.0)
        thr = calibrate(model, vectors, labels)
        preds = np.array([beta_decide(model, v, thr) for v in vectors])
        assert np.array_equal(preds, labels)

    def test_picks_best_candidate(self):
        # the chosen threshold must do at least as well on the dev split as
        # every grid level it competed against
        from mahaclass.betadist import beta_quantile

        model, vectors, labels = self._dev(15, shift=1.5)
        thr = calibrate(model, vectors, labels)
        t_values = np.array([decision_statistic(model, v).T for v in vectors])

        def f1_at(v):
            preds = (t_values < v).astype(int)
            tp = np.sum((preds == 1) & (labels == 1))
            fp = np.sum((preds == 1) & (labels == 0))
            fn = np.sum((preds == 0) & (labels == 1))
            return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0

        best_grid = max(f1_at(beta_quantile(thr.params, g))
                        for g in np.linspace(0.01, 0.99, 99))
        assert f1_at(thr.v_beta) >= best_grid - 1e-12

    def test_fpr_cap_respected(self):
        model, vectors, labels = self._dev(16, shift=1.0)
        thr = calibrate(model, vectors, labels, fpr_cap=0.05)
        t_values = np.array([decision_statistic(model, v).T for v in vectors])
        preds = (t_values < thr.v_beta).astype(int)
        fp = np.sum((preds == 1) & (labels == 0))
        tn = np.sum((preds == 0) & (labels == 0))
        assert fp / (fp + tn) <= 0.05

    @pytest.mark.parametrize("objective,fpr_cap", [
        ("f1", 0.05), ("f1-fpr-cap", 0.05), ("f1-fpr-cap", 0.0), ("f1-fpr-cap", -1.0)])
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_per_candidate_scan(self, seed, objective, fpr_cap):
        # dev statistics denser than the grid, so some choices fall on them
        model, vectors, labels = self._dev(seed, n_t=150, n_n=150, shift=1.0)
        # duplicated rows tie their statistics, within and across classes
        dup = np.random.default_rng(seed).integers(0, labels.size, size=30)
        vectors = np.vstack([vectors, vectors[dup], vectors[dup[:10]]])
        labels = np.concatenate([labels, labels[dup], 1 - labels[dup[:10]]])
        t_values = scores(model, vectors)
        assert np.unique(t_values).size <= t_values.size - 30
        thr = calibrate(model, vectors, labels,
                        fpr_cap=fpr_cap if objective == "f1-fpr-cap" else math.inf)
        want = brute_force_calibrate(t_values, labels, thr.params, objective, fpr_cap)
        assert (thr.beta_level, thr.v_beta) == want

    @pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
    def test_cap_of_one_caps_nothing(self, seed):
        # a dev false positive rate never exceeds 1, so the default cap of 1
        # picks what no cap picks
        model, vectors, labels = self._dev(seed, n_t=150, n_n=150, shift=1.0)
        uncapped = calibrate(model, vectors, labels, fpr_cap=np.inf)
        for thr in (calibrate(model, vectors, labels, fpr_cap=1.0),
                    calibrate(model, vectors, labels)):
            assert (thr.beta_level, thr.v_beta) == (uncapped.beta_level, uncapped.v_beta)

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_scores_in_any_row_order_calibrate_alike(self, seed):
        # train hands calibrate_scores the T values of its own blocked
        # projection; only the (T, label) pairs may matter, not their order
        model, vectors, labels = self._dev(seed, n_t=150, n_n=150, shift=1.0)
        t_values, params = scores(model, vectors), null_beta_params(model)
        want = calibrate(model, vectors, labels, fpr_cap=0.1)
        order = np.random.default_rng(seed).permutation(labels.size)
        got = calibrate_scores(params, t_values[order], labels[order], fpr_cap=0.1)
        assert (got.beta_level, got.v_beta) == (want.beta_level, want.v_beta)

    def test_single_class_dev_raises(self):
        model, vectors, labels = self._dev(17)
        with pytest.raises(NumericalError, match="dev split must contain both classes"):
            calibrate(model, vectors, np.ones_like(labels))
