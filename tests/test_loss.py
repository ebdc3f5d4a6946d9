import numpy as np
import pytest

from conftest import make_model
from mahaclass.errors import DimensionMismatch, EmptyBatch, NonFiniteLoss, ZeroVector
from mahaclass.linalg import fit_gaussian
from mahaclass.loss import ContrastTriple, cosine_loss, mah_loss, mah_mean_loss


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def random_case(seed, d=4, n=30):
    rng = np.random.default_rng(seed)
    model = fit_gaussian(rng.normal(size=(n, d)), ridge=1e-6)
    a = rng.normal(size=d)
    p = rng.normal(size=d)
    neg = rng.normal(size=d) + 2.0
    return model, a, p, neg


class TestMahLoss:
    def test_known_value(self):
        # anchor == positive gives sim 1; negative at q = d gives exp(-1)
        model = make_model(np.zeros(2), np.eye(2), n=10)
        t = ContrastTriple(anchor=np.zeros(2), positive=np.zeros(2),
                           negative=np.ones(2))
        e = np.exp(-1.0)
        assert mah_loss([t], model).value == pytest.approx(e / (1.0 + e), rel=1e-12)

    def test_batch_mean(self):
        model, a, p, n = random_case(20)
        single = mah_loss([ContrastTriple(a, p, n)], model).value
        double = mah_loss([ContrastTriple(a, p, n)] * 2, model).value
        assert double == pytest.approx(single, rel=1e-12)

    def test_permutation_invariant(self):
        model, *_ = random_case(21)
        rng = np.random.default_rng(21)
        batch = [ContrastTriple(rng.normal(size=4), rng.normal(size=4),
                                rng.normal(size=4)) for _ in range(6)]
        v1 = mah_loss(batch, model).value
        v2 = mah_loss(batch[::-1], model).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_bounded(self):
        for seed in range(5):
            model, a, p, n = random_case(30 + seed)
            v = mah_loss([ContrastTriple(a, p, n)], model).value
            assert 0.0 < v < 1.0

    def test_gradients_match_finite_differences(self):
        model, a, p, n = random_case(22)
        lv = mah_loss([ContrastTriple(a, p, n)], model)
        ga, gp, gn = lv.grads[0]
        np.testing.assert_allclose(
            fd_grad(lambda v: mah_loss([ContrastTriple(v, p, n)], model).value, a),
            ga, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(
            fd_grad(lambda v: mah_loss([ContrastTriple(a, v, n)], model).value, p),
            gp, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(
            fd_grad(lambda v: mah_loss([ContrastTriple(a, p, v)], model).value, n),
            gn, rtol=1e-5, atol=1e-9)

    def test_empty_batch(self):
        model, *_ = random_case(23)
        with pytest.raises(EmptyBatch):
            mah_loss([], model)

    def test_underflowing_similarities(self):
        # both similarities exp(-q/d) underflow: the ratio is 0/0
        model = make_model(np.zeros(2), np.eye(2), n=10)
        t = ContrastTriple(anchor=np.full(2, 1e3), positive=np.zeros(2),
                           negative=np.zeros(2))
        with pytest.raises(NonFiniteLoss):
            mah_loss([t], model)

    def test_ragged_batch(self):
        model, a, p, n = random_case(31)
        with pytest.raises(DimensionMismatch):
            mah_loss([ContrastTriple(a, p, n[:2])], model)
        with pytest.raises(DimensionMismatch):
            mah_loss([ContrastTriple(a[:2], p[:2], n[:2])], model)


@pytest.mark.parametrize("kind", ["mah", "mah_mean", "cosine"])
def test_batch_is_the_mean_of_its_rows(kind):
    # distinct random triples: a batch of 7 is the mean of its 7 singleton
    # calls, row by row, and each gradient row is the singleton's over 7
    model, *_ = random_case(32)
    batch = np.random.default_rng(32).normal(size=(7, 3, 4))

    def loss(rows):
        if kind == "mah":
            return mah_loss(rows, model)
        if kind == "cosine":
            return cosine_loss(rows)
        return mah_mean_loss(rows[:, 0], rows[:, 2], model)

    whole = loss(batch)
    singles = [loss(batch[b:b + 1]) for b in range(7)]
    assert whole.value == pytest.approx(np.mean([s.value for s in singles]), rel=1e-12)
    assert whole.grads.shape == (7, 2 if kind == "mah_mean" else 3, 4)
    for b, s in enumerate(singles):
        np.testing.assert_allclose(whole.grads[b], s.grads[0] / 7, rtol=1e-12, atol=1e-15)


class TestMahMeanLoss:
    def test_known_value(self):
        # x at the mean and y- at similarity exp(-1): -log(1 - 1/e)
        model = make_model(np.zeros(1), np.eye(1), n=10)
        lv = mah_mean_loss([np.zeros(1)], [np.ones(1)], model)
        assert lv.value == pytest.approx(0.45867514538708193, rel=1e-10)

    def test_clamped_negative_at_mean(self):
        # y- == mu hits the upper clamp: value finite, gradient zeroed
        model = make_model(np.zeros(2), np.eye(2), n=10)
        lv = mah_mean_loss([np.array([0.5, 0.0])], [np.zeros(2)], model)
        assert np.isfinite(lv.value)
        np.testing.assert_array_equal(lv.grads[0][1], np.zeros(2))

    def test_gradients_match_finite_differences(self):
        model, x, _, y = random_case(24)
        lv = mah_mean_loss([x], [y], model)
        gx, gy = lv.grads[0]
        np.testing.assert_allclose(
            fd_grad(lambda v: mah_mean_loss([v], [y], model).value, x),
            gx, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(
            fd_grad(lambda v: mah_mean_loss([x], [v], model).value, y),
            gy, rtol=1e-5, atol=1e-9)

    def test_descent_direction(self):
        # a small step against the gradient must not increase the loss
        model, x, _, y = random_case(25)
        lv = mah_mean_loss([x], [y], model)
        gx, gy = lv.grads[0]
        step = 1e-4
        after = mah_mean_loss([x - step * gx], [y - step * gy], model)
        assert after.value <= lv.value

    def test_unpaired_lengths(self):
        model, x, _, y = random_case(26)
        with pytest.raises(DimensionMismatch):
            mah_mean_loss([x, x], [y], model)

    def test_empty_batch(self):
        model, *_ = random_case(27)
        with pytest.raises(EmptyBatch):
            mah_mean_loss([], [], model)


class TestCosineLoss:
    def test_orthogonal_negative(self):
        t = ContrastTriple(anchor=np.array([1.0, 0.0]),
                           positive=np.array([2.0, 0.0]),
                           negative=np.array([0.0, 3.0]))
        # sim(x, x+) = 1, sim(x, y-) = 1/2: loss (1/2) / (3/2)
        assert cosine_loss([t]).value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_antipodal_negative(self):
        t = ContrastTriple(anchor=np.array([1.0, 0.0]),
                           positive=np.array([1.0, 0.0]),
                           negative=np.array([-1.0, 0.0]))
        assert cosine_loss([t]).value == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(28)
        a, p, n = rng.normal(size=(3, 5))
        v1 = cosine_loss([ContrastTriple(a, p, n)]).value
        v2 = cosine_loss([ContrastTriple(3.0 * a, 0.5 * p, 10.0 * n)]).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        a, p, n = rng.normal(size=(3, 4))
        lv = cosine_loss([ContrastTriple(a, p, n)])
        ga, gp, gn = lv.grads[0]
        np.testing.assert_allclose(
            fd_grad(lambda v: cosine_loss([ContrastTriple(v, p, n)]).value, a),
            ga, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(
            fd_grad(lambda v: cosine_loss([ContrastTriple(a, v, n)]).value, p),
            gp, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(
            fd_grad(lambda v: cosine_loss([ContrastTriple(a, p, v)]).value, n),
            gn, rtol=1e-5, atol=1e-9)

    def test_zero_vector(self):
        t = ContrastTriple(anchor=np.zeros(2), positive=np.ones(2), negative=np.ones(2))
        with pytest.raises(ZeroVector):
            cosine_loss([t])
