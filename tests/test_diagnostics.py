import io
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import make_model
from mahaclass import diagnostics
from mahaclass.data import CHUNK_ROWS, EmbeddingDataset
from mahaclass.diagnostics import (
    NormalityReport,
    ad_statistic_from_probs,
    anderson_darling,
    emit_distance_report,
    emit_qq,
    henze_zirkler,
    normality_report,
    pca_reduce,
)
from mahaclass.errors import NumericalError
from mahaclass.linalg import fit_gaussian, whitened_sq_norms
from mahaclass.trainer import ProjectionHead


def dense_pca(x, k):
    """Reference: the centered rows on the top-k right singular vectors of
    one dense SVD of the whole centered matrix, in LAPACK's signs."""
    xc = x - x.mean(axis=0)
    return xc @ np.linalg.svd(xc, full_matrices=False)[2][:k].T


class TestPcaReduce:
    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(500, 3)) * np.array([10.0, 1.0, 0.1])
        res = pca_reduce(x, 2)
        assert res.shape == (500, 2)
        # the top direction is the widest axis itself, not its mirror: its
        # largest loading, the one on that axis, is positive
        corr = np.corrcoef(res[:, 0], x[:, 0])[0, 1]
        assert corr > 0.99

    @pytest.mark.parametrize("n", ["k+2", 255, 256, 257, 1000])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_a_dense_svd_up_to_sign(self, n, k):
        # distinct column scales keep every direction well separated; 255,
        # 256 and 257 rows put the last block short, exact and one row long
        d = 5
        n = k + 2 if n == "k+2" else n
        x = np.random.default_rng(57).normal(size=(n, d)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        res, ref = pca_reduce(x, k), dense_pca(x, k)
        sign = np.sign(np.sum(res * ref, axis=0))
        np.testing.assert_allclose(res, ref * sign, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    def test_variance_preserved_at_full_rank(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(40, 4))
        res = pca_reduce(x, 4)
        total_in = np.var(x - x.mean(0), axis=0, ddof=1).sum()
        total_out = np.var(res, axis=0, ddof=1).sum()
        assert total_out == pytest.approx(total_in, rel=1e-10)

    @pytest.mark.parametrize("x, rank", [
        # points on a line in 3-space have rank 1
        (np.linspace(0, 1, 20)[:, None] @ np.array([[1.0, 2.0, 3.0]]), 1),
        # 700 points on a plane in 5-space, three blocks of the QR
        (np.random.default_rng(58).normal(size=(700, 2))
         @ np.random.default_rng(59).normal(size=(2, 5)) + 1.0, 2),
    ], ids=["line", "plane"])
    def test_rank_deficient_flag(self, x, rank):
        n, d = x.shape
        res = pca_reduce(x, d)
        np.testing.assert_array_equal(res[:, rank:], np.zeros((n, d - rank)))
        ref = dense_pca(x, rank)  # the coordinates within the rank are kept
        np.testing.assert_allclose(np.abs(res[:, :rank]), np.abs(ref), rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())

    def test_signs_do_not_depend_on_row_order(self):
        # reversed rows build another R, whose SVD LAPACK may sign either
        # way; the sign rule gives the reversed coordinates, signs included
        x = np.random.default_rng(59).normal(size=(600, 4)) * np.array([4.0, 3.0, 2.0, 1.0])
        res = pca_reduce(x, 4)
        np.testing.assert_allclose(pca_reduce(x[::-1], 4), res[::-1], rtol=1e-10,
                                   atol=1e-10 * np.abs(res).max())

    def test_memory_is_the_output_plus_a_block(self):
        # no centered copy of the rows and no (n, d) U: 80,000 x 32 rows
        # (20.5 MB) peaked 40.9 MB above their input with a dense SVD
        x = np.random.default_rng(60).normal(size=(80_000, 32))
        tracemalloc.start()
        try:
            res = pca_reduce(x, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < res.nbytes + 2**20

    def test_k_out_of_range(self):
        x = np.random.default_rng(52).normal(size=(5, 3))
        with pytest.raises(NumericalError, match="need 1 <= k <= min"):
            pca_reduce(x, 5)


def naive_hz(x):
    """Double-loop reference implementation of the statistic."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s_inv = np.linalg.inv(xc.T @ xc / n)
    beta2 = (((n * (2 * d + 1) / 4.0) ** (1.0 / (d + 4))) / np.sqrt(2.0)) ** 2
    t1 = 0.0
    for i in range(n):
        for j in range(n):
            diff = xc[i] - xc[j]
            t1 += np.exp(-0.5 * beta2 * diff @ s_inv @ diff)
    t1 /= n * n
    t2 = np.mean([np.exp(-beta2 * (xc[i] @ s_inv @ xc[i]) / (2 * (1 + beta2)))
                  for i in range(n)])
    return n * (t1 - 2 * (1 + beta2) ** (-d / 2) * t2 + (1 + 2 * beta2) ** (-d / 2))


def dense_hz(x):
    """Vectorized reference: the whole n x n kernel, summed at once."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    s_inv = np.linalg.inv(xc.T @ xc / n)
    beta2 = (((n * (2 * d + 1) / 4.0) ** (1.0 / (d + 4))) / np.sqrt(2.0)) ** 2
    diff = xc[:, None, :] - xc[None, :, :]
    t1 = np.exp(-0.5 * beta2 * np.einsum("ijk,kl,ijl->ij", diff, s_inv, diff)).mean()
    t2 = np.mean(np.exp(-beta2 * np.einsum("ik,kl,il->i", xc, s_inv, xc) / (2 * (1 + beta2))))
    return n * (t1 - 2 * (1 + beta2) ** (-d / 2) * t2 + (1 + 2 * beta2) ** (-d / 2))


class TestHenzeZirkler:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(40, 3))
        assert henze_zirkler(x) == pytest.approx(naive_hz(x), rel=1e-10)

    # one partial tile, one exact tile, a ragged last tile, several
    # off-diagonal tiles (the kernel is summed over 256 x 256 tiles)
    @pytest.mark.parametrize("n", [255, 256, 257, 513, 700])
    @pytest.mark.parametrize("d", [1, 3])
    def test_tiles_match_dense_reference(self, n, d):
        assert diagnostics._HZ_TILE == 256  # the sizes above straddle its edges
        rng = np.random.default_rng(1000 * d + n)
        x = np.vstack([rng.normal(size=(n // 2, d)),
                       rng.standard_exponential(size=(n - n // 2, d)) + 1.0])
        assert henze_zirkler(x) == pytest.approx(dense_hz(x), rel=1e-12)

    # rows repeated exactly (zero distances, where the clamp binds) and one
    # row far out, which holds most of the covariance
    @pytest.mark.parametrize("n", [300, 700])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("sample", ["duplicates", "far-outlier"])
    def test_edge_samples_match_dense_reference(self, n, d, sample):
        rng = np.random.default_rng(2000 * d + n)
        if sample == "duplicates":
            x = rng.normal(size=(n // 3 + 1, d))[np.arange(n) % (n // 3 + 1)]
        else:
            x = rng.normal(size=(n, d))
            x[n // 2] = 1e3
        assert henze_zirkler(x) == pytest.approx(dense_hz(x), rel=1e-12)

    def test_memory_stays_bounded(self):
        # the kernel is never held whole, nor one n-wide block of it:
        # an 8000 x 8000 kernel is 512 MB, and 512 of its rows are 33 MB
        x = np.random.default_rng(65).normal(size=(8000, 3))
        tracemalloc.start()
        try:
            henze_zirkler(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_affine_invariance(self):
        rng = np.random.default_rng(54)
        x = rng.normal(size=(60, 3))
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        b = rng.normal(size=3)
        assert henze_zirkler(x @ a.T + b) == pytest.approx(henze_zirkler(x), rel=1e-8)

    def test_directionality(self):
        # clearly non-normal data scores higher than a Gaussian sample
        rng = np.random.default_rng(55)
        gauss = rng.normal(size=(200, 2))
        bimodal = np.vstack([rng.normal(size=(100, 2)) - 4,
                             rng.normal(size=(100, 2)) + 4])
        assert henze_zirkler(bimodal) > henze_zirkler(gauss)

    def test_singular(self):
        x = np.random.default_rng(56).normal(size=(3, 5))
        with pytest.raises(NumericalError, match="need n > d, got n=3, d=5"):
            henze_zirkler(x)


class TestAndersonDarling:
    def test_two_point_closed_form(self):
        # p = (1/4, 3/4): A^2 = -2 + mean of 2 ln 4 and 6 ln(4/3)
        assert ad_statistic_from_probs([0.25, 0.75]) == pytest.approx(0.249341, abs=1e-6)

    def test_uniform_probs_are_calm(self):
        n = 100
        p = (np.arange(1, n + 1) - 0.5) / n
        assert ad_statistic_from_probs(p) < 0.5

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(57)
        x = rng.normal(size=80)
        assert anderson_darling(5.0 + 3.0 * x) == pytest.approx(anderson_darling(x),
                                                                rel=1e-10)

    def test_directionality(self):
        rng = np.random.default_rng(58)
        gauss = rng.normal(size=300)
        heavy = rng.standard_cauchy(size=300)
        assert anderson_darling(heavy) > anderson_darling(gauss)

    def test_matches_standardized_formula(self):
        rng = np.random.default_rng(59)
        x = rng.normal(size=50)
        z = np.sort((x - x.mean()) / x.std(ddof=1))
        assert anderson_darling(x) == pytest.approx(ad_statistic_from_probs(ndtr(z)),
                                                    rel=1e-12)

    def test_constant_sample(self):
        with pytest.raises(NumericalError, match="sample is constant"):
            anderson_darling(np.full(10, 2.0))

    def test_one_sample(self):
        with pytest.raises(NumericalError, match="need at least 2 samples"):
            anderson_darling([1.0])


class TestNormalityReport:
    def test_per_class_reports(self):
        rng = np.random.default_rng(60)
        x = np.vstack([rng.normal(size=(50, 4)),
                       rng.uniform(-3, 3, size=(70, 4))])
        y = np.array([1] * 50 + [0] * 70)
        reports = normality_report(x, y, k=2)
        assert [r.class_label for r in reports] == [0, 1]
        by_label = {r.class_label: r for r in reports}
        assert by_label[1].n == 50 and by_label[0].n == 70
        assert all(len(r.ad_per_dim) == 2 for r in reports)

    def test_head_projection_applied(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(60, 6))
        y = np.array([1] * 30 + [0] * 30)
        head = ProjectionHead(weights=rng.normal(size=(3, 6)), bias=np.zeros(3))
        raw = normality_report(x, y, k=2)
        proj = normality_report(head.project(x), y, k=2)
        assert raw[0].hz != proj[0].hz

    def test_class_too_small(self):
        x = np.random.default_rng(62).normal(size=(10, 3))
        y = np.array([1] * 2 + [0] * 8)
        with pytest.raises(NumericalError, match="class 1 has 2 samples"):
            normality_report(x, y, k=2)


def qq_report(label, points) -> NormalityReport:
    """A class report whose PCA-reduced rows are points, (n, k)."""
    points = np.asarray(points, dtype=float)
    return NormalityReport(class_label=label, hz=0.0, ad_per_dim=[], n=len(points),
                           points=points)


def qq_text(reports) -> str:
    """The text ``emit_qq`` writes."""
    fh = io.StringIO()
    emit_qq(fh, reports)
    return fh.getvalue()


def qq_pairs(samples) -> list[tuple[float, float]]:
    """The (theoretical, sample) pairs of the Q-Q report of one class whose
    first reduced dimension is samples, after checking its header and labels."""
    header, *lines = qq_text([qq_report(1, np.asarray(samples)[:, None])]).splitlines()
    assert header == "label\ttheoretical\tsample"
    fields = [line.split("\t") for line in lines]
    assert all(label == "1" for label, _, _ in fields)
    return [(float(t), float(s)) for _, t, s in fields]


class TestEmitters:
    def test_qq_structure(self):
        from scipy.special import ndtri
        rng = np.random.default_rng(63)
        x = rng.normal(size=25)
        pairs = qq_pairs(x)
        theo = np.array([t for t, _ in pairs])
        samp = np.array([s for _, s in pairs])
        np.testing.assert_allclose(theo, ndtri((np.arange(1, 26) - 0.5) / 25))
        np.testing.assert_array_equal(samp, np.sort(samp))
        assert samp.mean() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [255, 257, 513])
    def test_qq_blocks_give_the_per_pair_lines(self, n):
        # blocks straddle CHUNK_ROWS; only each class's first column is read
        from scipy.special import ndtri
        rng = np.random.default_rng(n)
        classes = [(0, rng.uniform(-2, 2, size=(n, 2))), (1, rng.normal(size=(n, 2)))]
        expected = "label\ttheoretical\tsample\n"
        for label, points in classes:
            x = points[:, 0]
            z = np.sort((x - x.mean()) / x.std(ddof=1))
            theo = ndtri((np.arange(1, len(x) + 1) - 0.5) / len(x))
            expected += "".join(f"{label}\t{t:.17g}\t{s:.17g}\n"
                                for t, s in zip(theo.tolist(), z.tolist()))
        assert qq_text([qq_report(label, points) for label, points in classes]) == expected

    def test_qq_memory_stays_bounded(self, tmp_path):
        # no list of the class's pairs: the standardized order statistics and
        # the theoretical quantiles, 8 bytes a row each, and one block's text
        n = 40_000
        reports = [qq_report(0, np.random.default_rng(67).normal(size=(n, 3)))]
        qq_text([qq_report(0, reports[0].points[:3])])  # loads ndtri's extension untraced
        with open(tmp_path / "qq.tsv", "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                emit_qq(fh, reports)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20 + 16 * n
        assert len((tmp_path / "qq.tsv").read_text().splitlines()) == n + 1

    def test_distance_report_sorted_and_projected(self):
        rng = np.random.default_rng(64)
        order = [3, 1, 2, 0, 5, 4]
        data = EmbeddingDataset([f"x{i}" for i in order], np.array(order) % 2,
                                rng.normal(size=(6, 4)))
        head = ProjectionHead(weights=rng.normal(size=(2, 4)), bias=np.zeros(2))
        model = fit_gaussian(head.project(data.vectors), ridge=1e-6)
        rows = distance_rows(data.ids, data.labels, head.project(data.vectors), model)
        assert [r[0] for r in rows] == sorted(data.ids)
        a = model.cov + model.ridge * np.eye(model.d)
        for rid, label, d2 in rows:
            i = data.ids.index(rid)
            delta = head.project(data.vectors[i]) - model.mean
            assert d2 == pytest.approx(delta @ np.linalg.solve(a, delta))
            assert label == data.labels[i]


def report_text(ids, labels, vectors, model) -> str:
    """The text ``emit_distance_report`` writes."""
    fh = io.StringIO()
    emit_distance_report(fh, ids, labels, vectors, model)
    return fh.getvalue()


def distance_rows(ids, labels, vectors, model) -> list[tuple[str, int, float]]:
    """The (id, label, squared distance) of each line of the distance report,
    after checking its header."""
    header, *lines = report_text(ids, labels, vectors, model).splitlines()
    assert header == "id\tlabel\td2"
    return [(rid, int(label), float(d2))
            for rid, label, d2 in (line.split("\t") for line in lines)]


def report_d2(model, rows) -> list[float]:
    """The squared distances the distance report gives rows, in row order."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    ids = [f"r{i:03d}" for i in range(len(rows))]
    return [d2 for _, _, d2 in distance_rows(ids, np.ones(len(rows), int), rows, model)]


class TestDistanceReport:
    def test_rows_of_another_dimension(self):
        model = fit_gaussian(np.random.default_rng(65).normal(size=(10, 2)), ridge=1e-6)
        with pytest.raises(NumericalError, match="projected dimension 3 vs model 2"):
            report_text(["a"], [1], np.zeros((1, 3)), model)

    @pytest.mark.parametrize("n", [255, 257, 513])
    def test_blocks_give_the_whole_array_bits(self, n):
        # ids in reverse file order, so each block gathers rows from across
        # the array, and the last block is short, so zero-padded
        rng = np.random.default_rng(n)
        vectors = rng.normal(size=(n, 8)) * 3.0 + 1.0
        ids = [f"r{n - 1 - i:04d}" for i in range(n)]
        labels = rng.integers(0, 2, size=n)
        model = fit_gaussian(vectors[: n // 2], ridge=1e-6)
        text = report_text(ids, labels, vectors, model)
        rows = distance_rows(ids, labels, vectors, model)
        by_id = slice(None, None, -1)
        assert [(rid, label) for rid, label, _ in rows] == list(
            zip(ids[by_id], labels[by_id].tolist()))
        d2 = [v for *_, v in rows]
        deltas = vectors[by_id] - model.mean
        a = model.cov + model.ridge * np.eye(model.d)
        assert d2 == pytest.approx(np.einsum("ij,ji->i", deltas, np.linalg.solve(a, deltas.T)),
                                   rel=1e-10)
        # the same bits as one solve of all n rows ...
        assert d2 == whitened_sq_norms(model.chol, deltas).tolist()
        # ... and as each block's rows in a report of their own
        one_at_a_time = "".join(
            report_text(ids[by_id][s:s + CHUNK_ROWS], labels[by_id][s:s + CHUNK_ROWS],
                        vectors[by_id][s:s + CHUNK_ROWS], model).split("\n", 1)[1]
            for s in range(0, n, CHUNK_ROWS))
        assert text == "id\tlabel\td2\n" + one_at_a_time

    def test_memory_stays_bounded(self, tmp_path):
        # one block of rows is held at a time: no n-row copy of the rows and
        # no list of n records, only the id sort order, 8 bytes a row
        n = 40_000
        rng = np.random.default_rng(66)
        vectors = rng.normal(size=(n, 8))
        ids = [f"r{i:06d}" for i in range(n)][::-1]
        labels = rng.integers(0, 2, size=n)
        model = fit_gaussian(vectors[:1000], ridge=1e-6)
        with open(tmp_path / "dist.tsv", "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                emit_distance_report(fh, ids, labels, vectors, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20 + 16 * n
        assert len((tmp_path / "dist.tsv").read_text().splitlines()) == n + 1

    def test_identity_cov_is_euclidean(self):
        m = make_model(np.zeros(3), np.eye(3), n=10)
        assert report_d2(m, [[1.0, 2.0, 2.0], [0.0, 3.0, 4.0]]) == pytest.approx([9.0, 25.0])

    def test_zero_at_mean(self):
        m = make_model([2.0, -1.0], [[3.0, 1.0], [1.0, 2.0]], n=10)
        assert report_d2(m, [2.0, -1.0]) == [0.0]

    def test_diagonal_scaling(self):
        m = make_model([0.0, 0.0], np.diag([4.0, 0.25]), n=10)
        assert report_d2(m, [2.0, 1.0]) == pytest.approx([1.0 + 4.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 3))
        x = rng.normal(size=(5, 3))
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        b = rng.normal(size=3)
        d2 = report_d2(fit_gaussian(pts, ridge=0.0), x)
        d2_t = report_d2(fit_gaussian(pts @ a.T + b, ridge=0.0), x @ a.T + b)
        assert d2_t == pytest.approx(d2, rel=1e-9)
