import numpy as np
import pytest

from mahaclass import linalg, trainer
from mahaclass.data import EmbeddingDataset
from mahaclass.errors import ConfigError, NonFiniteLoss, NumericalError
from mahaclass.linalg import fit_gaussian
from mahaclass.loss import mah_mean_loss
from mahaclass.seeds import rng_for
from mahaclass.trainer import (
    Adam,
    MlpHead,
    ProjectionHead,
    TrainConfig,
    epoch_triples,
    refit_model,
    train,
    train_mlp,
    write_training_log,
)


def make_dataset(x_target, x_non_target):
    n, m = len(x_target), len(x_non_target)
    return EmbeddingDataset([f"t{i}" for i in range(n)] + [f"n{i}" for i in range(m)],
                            np.repeat([1, 0], [n, m]), np.vstack([x_target, x_non_target]))


def toy_data(seed=0, n=48, m=48, d=6, shift=4.0):
    rng = np.random.default_rng(seed)
    return make_dataset(rng.normal(size=(n, d)),
                        rng.normal(size=(m, d)) + shift)


class TestTrainConfig:
    def test_window_capacity(self):
        cfg = TrainConfig(batch_size=8, window_multiplier=5)
        assert cfg.window_capacity == 40

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError, match="loss_kind must be one of"):
            TrainConfig(loss_kind="hinge")
        with pytest.raises(ConfigError, match="batch_size, window_multiplier and proj_dim must be positive"):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="invalid epochs, learning_rate or ridge"):
            TrainConfig(learning_rate=0.0)

    def test_rejects_a_one_row_window(self):
        # the loss reads the statistics of the window, which a single row
        # cannot fit; both flags that size the window are named
        with pytest.raises(ConfigError, match="--batch-size 1 x --window-mult 1 gives a 1-row"):
            TrainConfig(batch_size=1, window_multiplier=1)
        assert TrainConfig(batch_size=1, window_multiplier=2).window_capacity == 2

    @pytest.mark.parametrize("field", ["learning_rate", "ridge"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match="invalid epochs, learning_rate or ridge"):
            TrainConfig(**{field: value})


def reference_adam(params, lr, steps_grads):
    """The per-array Adam update, building a new list of arrays each step;
    yields the parameters after every step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(steps_grads, start=1):
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1**t)
            v_hat = v[i] / (1 - beta2**t)
            out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        params = out
        yield params


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # bias correction makes the first update lr * sign(grad)
        opt = Adam([np.zeros(2)], lr=0.1)
        opt.grads[0][:] = [1.0, -3.0]
        opt.step()
        np.testing.assert_allclose(opt.params[0], [-0.1, 0.1], rtol=1e-6)

    def test_converges_on_quadratic(self):
        opt = Adam([np.array([3.0, -2.0])], lr=0.05)
        (p,), (g,) = opt.params, opt.grads
        for _ in range(600):
            np.multiply(2.0, p, out=g)
            opt.step()
        assert np.linalg.norm(p) < 1e-3

    def test_matches_per_array_update(self):
        rng = np.random.default_rng(71)
        shapes = [(4, 3), (5,), (2, 3, 2)]
        # parameters of the step's size, so a last-bit change in an update shows
        init = [rng.normal(scale=0.01, size=s) for s in shapes]
        steps_grads = [[rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in shapes]
                       for _ in range(25)]
        opt = Adam(init, lr=0.01)
        assert [p.shape for p in opt.params] == shapes
        for grads, expected in zip(steps_grads, reference_adam(init, 0.01, steps_grads)):
            for view, g in zip(opt.grads, grads):
                view[...] = g
            opt.step()
            for got, want in zip(opt.params, expected):
                np.testing.assert_array_equal(got, want)


class TestEpochTriples:
    def test_anchor_pass_without_replacement(self):
        # each epoch's anchors are one permutation, in batches of batch_size
        # with a shorter last batch
        rng = rng_for(0, "triples")
        for _ in range(3):
            batches = list(epoch_triples(20, 10, 8, rng))
            assert [b.shape for b in batches] == [(3, 8), (3, 8), (3, 4)]
            assert sorted(np.concatenate([b[0] for b in batches])) == list(range(20))

    def test_positive_never_the_anchor(self):
        rng = rng_for(1, "triples")
        i, j, k = np.hstack([b for _ in range(20) for b in epoch_triples(10, 7, 4, rng)])
        assert np.all(j != i)
        assert np.all((0 <= j) & (j < 10))
        assert np.all((0 <= k) & (k < 7))
        assert set(k) == set(range(7))

    def test_positive_marginal_is_uniform(self):
        from scipy.stats import chi2
        rng = rng_for(2, "triples")
        j = np.concatenate([b[1] for _ in range(1000) for b in epoch_triples(20, 5, 8, rng)])
        counts = np.bincount(j, minlength=20)
        expected = j.size / 20
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.999, 19)


class TestTrain:
    def test_deterministic(self):
        data = toy_data(4)
        cfg = TrainConfig(proj_dim=3, window_multiplier=4, epochs=2, seed=5)
        h1, m1, l1 = train(data, cfg)
        h2, m2, l2 = train(data, cfg)
        np.testing.assert_array_equal(h1.weights, h2.weights)
        np.testing.assert_array_equal(h1.bias, h2.bias)
        np.testing.assert_array_equal(m1.cov, m2.cov)
        assert [e.loss for e in l1] == [e.loss for e in l2]

    def test_seed_matters(self):
        data = toy_data(4)
        h1, _, _ = train(data, TrainConfig(proj_dim=3, window_multiplier=4, seed=5))
        h2, _, _ = train(data, TrainConfig(proj_dim=3, window_multiplier=4, seed=6))
        assert not np.array_equal(h1.weights, h2.weights)

    def test_zero_epochs_returns_initial_head(self):
        data = toy_data(5)
        cfg = TrainConfig(proj_dim=3, window_multiplier=100, epochs=0, seed=7)
        head, model, log = train(data, cfg)
        ref = ProjectionHead.init(data.d_in, 3, rng_for(7, "head-init"))
        np.testing.assert_array_equal(head.weights, ref.weights)
        np.testing.assert_array_equal(head.bias, ref.bias)
        assert log == []
        # the model is fitted to every target row projected by the initial head
        expected = fit_gaussian(ref.project(data.target_vectors()), ridge=cfg.ridge)
        np.testing.assert_allclose(model.mean, expected.mean, rtol=1e-12)
        np.testing.assert_allclose(model.cov, expected.cov, rtol=1e-12)

    @pytest.mark.parametrize("n", [48, 10])  # at least / fewer than batch_size rows
    def test_zero_epochs_fit_the_warm_start_window_once(self, monkeypatch, n):
        # one fit of the warm-start window, which push refits, and the refit
        calls = []

        def counting_fit(points, ridge=1e-6):
            calls.append(len(points))
            return fit_gaussian(points, ridge)
        monkeypatch.setattr(linalg, "fit_gaussian", counting_fit)
        monkeypatch.setattr(trainer, "fit_gaussian", counting_fit)
        train(toy_data(5, n=n), TrainConfig(proj_dim=3, epochs=0))
        assert calls == [n, n]

    def test_needs_a_non_target_row(self):
        data = make_dataset(np.random.default_rng(14).normal(size=(10, 6)), np.empty((0, 6)))
        with pytest.raises(NumericalError, match="training needs a non-target row; the train "
                           "split has 10 target and 0 non-target rows"):
            train(data, TrainConfig(proj_dim=3))

    def test_window_refits_every_step(self, monkeypatch):
        # each loss call, the partial last batch of an epoch included, reads
        # a fit of the window made after that step's anchors were pushed
        seen = []

        def recording_loss(anchors, negatives, model):
            seen.append(model)
            return mah_mean_loss(anchors, negatives, model)
        monkeypatch.setattr(trainer, "mah_mean_loss", recording_loss)
        cfg = TrainConfig(batch_size=8, proj_dim=3, window_multiplier=4, epochs=2)
        train(toy_data(7, n=20), cfg)
        assert len(seen) == 2 * 3
        assert len({id(m) for m in seen}) == len(seen)

    def test_overflowing_window_diverges(self):
        # the head stays finite, but the covariance of its projections overflows
        data = toy_data(6, n=64)
        cfg = TrainConfig(proj_dim=3, window_multiplier=4, learning_rate=1e200)
        with pytest.raises(NonFiniteLoss, match="epoch 0, batch 1: matrix has non-finite"):
            train(data, cfg)

    def test_proj_dim_clamped_to_input(self):
        data = toy_data(6, d=4)
        head, model, _ = train(data, TrainConfig(proj_dim=64, window_multiplier=10,
                                                 epochs=0))
        assert head.d_out == 4
        assert model.d == 4

    @pytest.mark.parametrize("proj_dim", [6, 64])
    def test_square_head_is_the_identity(self, monkeypatch, proj_dim):
        # no sampler, optimizer or window: the model is the raw target fit
        def fail(*args, **kwargs):
            raise AssertionError("built for a square head")
        for name in ("epoch_triples", "Adam", "SlidingWindow"):
            monkeypatch.setattr(trainer, name, fail)
        data = toy_data(12)
        cfg = TrainConfig(proj_dim=proj_dim, epochs=3)
        head, model, log = train(data, cfg)
        np.testing.assert_array_equal(head.weights, np.eye(6))
        np.testing.assert_array_equal(head.bias, np.zeros(6))
        assert log == []
        expected = fit_gaussian(data.target_vectors(), ridge=cfg.ridge)
        np.testing.assert_array_equal(model.mean, expected.mean)
        np.testing.assert_array_equal(model.cov, expected.cov)
        assert model.n == expected.n

    @pytest.mark.parametrize("proj_dim, n", [(3, 4), (64, 7)])  # reduced and square heads
    def test_too_few_target_rows_fail_before_training(self, monkeypatch, proj_dim, n):
        # n <= d_out + 1 target rows cannot fit the decision statistic
        monkeypatch.setattr(trainer, "epoch_triples", None)
        d_out = min(proj_dim, 6)
        with pytest.raises(ConfigError, match=f"--proj-dim {proj_dim} gives d_out {d_out}, "
                           f"which needs more than {d_out + 1} target training rows; "
                           f"the train split has {n}"):
            train(toy_data(13, n=n), TrainConfig(proj_dim=proj_dim))

    def test_loss_log_shape(self):
        data = toy_data(7, n=20)
        cfg = TrainConfig(batch_size=8, proj_dim=3, window_multiplier=4, epochs=2)
        _, _, log = train(data, cfg)
        assert len(log) == 2 * 3  # ceil(20 / 8) batches per epoch
        assert all(np.isfinite(e.loss) for e in log)

    def test_all_loss_kinds_run(self):
        data = toy_data(8, n=24, m=24)
        for kind in ("mah", "mah_mean", "cosine"):
            head, model, log = train(data, TrainConfig(loss_kind=kind, proj_dim=3,
                                                       window_multiplier=4))
            assert head.d_out == 3
            assert model is not None and log

    def test_training_reduces_mah_mean_loss(self):
        data = toy_data(9, n=60, m=60, shift=3.0)
        cfg0 = TrainConfig(proj_dim=3, window_multiplier=20, epochs=0, seed=1)
        cfg = TrainConfig(proj_dim=3, window_multiplier=20, epochs=12,
                          learning_rate=3e-3, seed=1)
        h0, _, _ = train(data, cfg0)
        h1, _, _ = train(data, cfg)

        def loss_under(head):
            model = refit_model(data, head, ridge=1e-6)
            x = head.project(data.target_vectors())[:40]
            y = head.project(data.non_target_vectors())[:40]
            return mah_mean_loss(list(x), list(y), model).value

        assert loss_under(h1) < loss_under(h0)

    def test_refit_model_matches_direct_fit(self):
        data = toy_data(10)
        head, _, _ = train(data, TrainConfig(proj_dim=3, window_multiplier=4))
        m = refit_model(data, head, ridge=1e-5)
        ref = fit_gaussian(head.project(data.target_vectors()), ridge=1e-5)
        np.testing.assert_array_equal(m.mean, ref.mean)
        np.testing.assert_array_equal(m.cov, ref.cov)

    def test_write_training_log(self, tmp_path):
        data = toy_data(11, n=16)
        _, _, log = train(data, TrainConfig(batch_size=8, proj_dim=2,
                                            window_multiplier=4))
        path = tmp_path / "log.tsv"
        write_training_log(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(log)
        epoch, batch, loss = lines[0].split("\t")
        assert (int(epoch), int(batch)) == (0, 0)
        assert float(loss) == log[0].loss


class TestMlp:
    def test_forward_shapes(self):
        rng = np.random.default_rng(70)
        mlp = MlpHead.init(4, (5, 3), rng)
        acts = mlp.forward(rng.normal(size=(7, 4)))
        assert [a.shape for a in acts] == [(7, 4), (7, 5), (7, 3), (7, 1)]
        p = mlp.predict_proba(rng.normal(size=(7, 4)))
        assert np.all((p > 0) & (p < 1))

    def test_learns_separable_classes(self):
        data = toy_data(12, n=80, m=80, d=4, shift=5.0)
        mlp = train_mlp(data.vectors, data.labels, epochs=150, seed=3)
        preds = mlp.predict(data.vectors)
        assert np.mean(preds == data.labels) > 0.95

    def test_negative_epochs_rejected(self):
        data = toy_data(13, n=30, m=30, d=3)
        with pytest.raises(ConfigError, match="epochs must be non-negative, got -1"):
            train_mlp(data.vectors, data.labels, epochs=-1)

    def test_deterministic(self):
        data = toy_data(13, n=30, m=30, d=3)
        m1 = train_mlp(data.vectors, data.labels, epochs=5, seed=4)
        m2 = train_mlp(data.vectors, data.labels, epochs=5, seed=4)
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
