import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahaclass.errors import NumericalError
from mahaclass.metrics import roc_auc, score


class TestScore:
    def test_hand_counts(self):
        preds = [1, 1, 0, 0, 1, 0]
        truth = [1, 0, 1, 0, 1, 0]
        r = score(preds, truth)
        assert (r.tp, r.fp, r.tn, r.fn) == (2, 1, 2, 1)
        assert r.accuracy == pytest.approx(4 / 6)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)
        assert r.fpr == pytest.approx(1 / 3)
        assert r.degenerate == []

    def test_perfect(self):
        r = score([1, 0, 1], [1, 0, 1])
        assert r.f1 == 1.0 and r.fpr == 0.0 and r.accuracy == 1.0

    def test_degenerate_precision(self):
        # no positive predictions: precision and f1 come back 0, flagged
        r = score([0, 0, 0], [1, 0, 1])
        assert r.precision == 0.0
        assert "precision" in r.degenerate
        assert r.f1 == 0.0

    def test_degenerate_fpr(self):
        r = score([1, 1], [1, 1])
        assert r.fpr == 0.0
        assert "fpr" in r.degenerate

    def test_length_mismatch(self):
        with pytest.raises(NumericalError, match="2 predictions vs 1 labels"):
            score([1, 0], [1])

    def test_scores_give_the_auc_of_roc_auc(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 2, size=200)
        s = rng.normal(size=200) + truth
        r = score(s > 0.5, truth, s)
        assert r.auc == roc_auc(s, truth)
        assert r.degenerate == []
        assert score(s > 0.5, truth).auc is None

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_auc_is_degenerate(self, label):
        # no (target, non-target) pair to rank: the AUC reads 0, named last
        r = score([1, 0, 1], [label] * 3, [0.3, 0.1, 0.2])
        assert r.auc == 0.0
        assert r.degenerate[-1] == "auc"
        assert r.degenerate == (["fpr", "auc"] if label else ["recall", "f1", "auc"])
        assert r.to_text().endswith("auc\t0.000000\ndegenerate\t" + ",".join(r.degenerate) + "\n")

    def test_to_text_fields(self):
        text = score([1, 0], [1, 0]).to_text()
        assert "tp\t1" in text
        assert "f1\t1.000000" in text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rnd):
        preds = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        r1 = score(preds, truth)
        r2 = score([preds[i] for i in order], [truth[i] for i in order])
        assert (r1.tp, r1.fp, r1.tn, r1.fn) == (r2.tp, r2.fp, r2.tn, r2.fn)


def pairwise_auc(scores, truth):
    """Exhaustive Mann-Whitney count, the quadratic reference."""
    s = np.asarray(scores, float)
    y = np.asarray(truth, int)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def rank_sum_auc(scores, truth):
    """The Mann-Whitney U from scipy's average ranks over the pooled sample."""
    from scipy.stats import rankdata

    s = np.asarray(scores, float)
    y = np.asarray(truth, int)
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    u = float(np.sum(rankdata(s)[y == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5

    def test_hand_example_with_tie(self):
        # pairs: (0.7,0.3)=1, (0.7,0.5)=1, (0.5,0.3)=1, (0.5,0.5)=0.5
        assert roc_auc([0.7, 0.5, 0.5, 0.3], [1, 1, 0, 0]) == pytest.approx(3.5 / 4)

    def test_single_class(self):
        with pytest.raises(NumericalError, match="both classes must be present"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(NumericalError, match="2 scores vs 1 labels"):
            roc_auc([0.1, 0.2], [1])

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(40)
        s = rng.normal(size=30)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        assert roc_auc(s, y) == pytest.approx(1.0 - roc_auc(s, 1 - y), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 15), st.integers(0, 2**31))
    def test_matches_exhaustive_pairs(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        # quantized scores force ties
        s = np.round(rng.normal(size=n_pos + n_neg), 1)
        y = np.array([1] * n_pos + [0] * n_neg)
        assert roc_auc(s, y) == pytest.approx(pairwise_auc(s, y), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_rank_sum(self, seed):
        # both numerators are exact half-integers, so the two forms agree to
        # the last bit, not just approximately, however many ties there are
        rng = np.random.default_rng(seed)
        for n in (2, 41, 3_000, 100_000):
            y = rng.integers(0, 2, size=n)
            y[:2] = (0, 1)
            quantized = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            half_tied = quantized.copy()
            half_tied[: n // 2] = 0.0
            cases = [
                quantized,
                half_tied,
                np.full(n, 0.25),  # every pair tied
                np.where(y == 1, 2.0, 1.0),  # targets all above, each class one tie block
                np.where(y == 1, -10.0, quantized),  # targets all below
            ]
            for s in cases:
                assert roc_auc(s, y) == rank_sum_auc(s, y)
