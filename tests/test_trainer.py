import numpy as np
import pytest

from mahaclass.data import EmbeddingDataset, EmbeddingRecord
from mahaclass.errors import InsufficientClassData, InvalidConfig
from mahaclass.linalg import fit_gaussian
from mahaclass.seeds import rng_for
from mahaclass.trainer import (
    Adam,
    MlpHead,
    ProjectionHead,
    TrainConfig,
    TripleSampler,
    refit_model,
    train,
    train_mlp,
    write_training_log,
)


def make_dataset(x_target, x_non_target):
    recs = [EmbeddingRecord(id=f"t{i}", label=1, vector=np.asarray(v, float))
            for i, v in enumerate(x_target)]
    recs += [EmbeddingRecord(id=f"n{i}", label=0, vector=np.asarray(v, float))
             for i, v in enumerate(x_non_target)]
    return EmbeddingDataset(recs)


def toy_data(seed=0, n=48, m=48, d=6, shift=4.0):
    rng = np.random.default_rng(seed)
    return make_dataset(rng.normal(size=(n, d)),
                        rng.normal(size=(m, d)) + shift)


class TestTrainConfig:
    def test_window_capacity(self):
        cfg = TrainConfig(batch_size=8, window_multiplier=5)
        assert cfg.window_capacity == 40

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(loss_kind="hinge")
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=0.0)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # bias correction makes the first update lr * sign(grad)
        opt = Adam([(2,)], lr=0.1)
        (p,) = opt.step([np.zeros(2)], [np.array([1.0, -3.0])])
        np.testing.assert_allclose(p, [-0.1, 0.1], rtol=1e-6)

    def test_converges_on_quadratic(self):
        opt = Adam([(2,)], lr=0.05)
        p = np.array([3.0, -2.0])
        for _ in range(600):
            (p,) = opt.step([p], [2.0 * p])
        assert np.linalg.norm(p) < 1e-3


class TestTripleSampler:
    def test_anchor_pass_without_replacement(self):
        data = toy_data(1, n=20, m=10)
        s = TripleSampler(data.target_vectors(), data.non_target_vectors(),
                          rng_for(0, "triples"))
        i, _, _ = s.next_batch(20)
        assert sorted(i) == list(range(20))

    def test_positive_never_the_anchor(self):
        data = toy_data(2, n=10, m=10)
        s = TripleSampler(data.target_vectors(), data.non_target_vectors(),
                          rng_for(1, "triples"))
        i, j, k = s.next_batch(200)
        assert np.all(j != i)
        assert np.all((0 <= j) & (j < 10))
        assert np.all((0 <= k) & (k < 10))

    def test_positive_marginal_is_uniform(self):
        from scipy.stats import chi2
        data = toy_data(3, n=20, m=5)
        s = TripleSampler(data.target_vectors(), data.non_target_vectors(),
                          rng_for(2, "triples"))
        draws = 20000
        _, j, _ = s.next_batch(draws)
        counts = np.bincount(j, minlength=20)
        expected = draws / 20
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.999, 19)

    def test_needs_both_classes(self):
        with pytest.raises(InsufficientClassData):
            TripleSampler(np.ones((1, 2)), np.ones((3, 2)), rng_for(0, "triples"))
        with pytest.raises(InsufficientClassData):
            TripleSampler(np.ones((5, 2)), np.ones((0, 2)), rng_for(0, "triples"))


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
        # the window holds exactly the warm-start projections
        expected = fit_gaussian(ref.project(data.target_vectors()), ridge=cfg.ridge)
        np.testing.assert_allclose(model.mean, expected.mean, rtol=1e-12)
        np.testing.assert_allclose(model.cov, expected.cov, rtol=1e-12)

    def test_proj_dim_clamped_to_input(self):
        data = toy_data(6, d=4)
        head, model, _ = train(data, TrainConfig(proj_dim=64, window_multiplier=10,
                                                 epochs=0))
        assert head.d_out == 4
        assert model.d == 4

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
        from mahaclass.loss import mah_mean_loss
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
        head = ProjectionHead(weights=np.eye(4), bias=np.zeros(4))
        mlp = train_mlp(data, head, epochs=60, learning_rate=1e-2, seed=3)
        preds = mlp.predict(data.vectors)
        assert np.mean(preds == data.labels) > 0.95

    def test_deterministic(self):
        data = toy_data(13, n=30, m=30, d=3)
        head = ProjectionHead(weights=np.eye(3), bias=np.zeros(3))
        m1 = train_mlp(data, head, epochs=5, seed=4)
        m2 = train_mlp(data, head, epochs=5, seed=4)
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
