"""Distributional diagnostics: PCA reduction, Henze-Zirkler multivariate
normality, Anderson-Darling univariate normality, and the three report
files of ``diagnose``: normality, Q-Q and squared-distance separability.

Every function takes points in the space under test, raw or already
projected by a model; the caller projects once and passes the same rows
to each report, which an ``emit_*`` writes to an open text file.
Statistics are reported raw (no p-values); for both tests, larger values
mean greater deviation from normality.  Failures are ``NumericalError``.
``anderson_darling`` and ``emit_qq`` call the ``ndtr`` and ``ndtri``
ufuncs of ``_scipy.special()``, which loads scipy's ``_ufuncs`` extension
on its first call, so importing the CLI loads none of scipy.special.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scipy
from .data import CHUNK_ROWS, padded_blocks
from .errors import NumericalError
from .linalg import GaussianModel, cholesky, whitened_sq_norms

_HZ_TILE = 256  # side of the square kernel tiles summed by henze_zirkler


@dataclass(frozen=True)
class NormalityReport:
    class_label: int
    hz: float
    ad_per_dim: list[float]
    n: int
    points: np.ndarray  # the class's PCA-reduced rows, (n, k)


def pca_reduce(points, k: int) -> np.ndarray:
    """The (n, k) coordinates of the centered data on its top-k principal
    directions, each direction signed so that its largest-magnitude loading
    is positive; the coordinates past the data rank are zero.

    The centered rows' triangular factor R is built one ``CHUNK_ROWS``
    block at a time (a tall-skinny QR), and the directions are the right
    singular vectors of R, which has the centered rows' singular values to
    working precision (the scatter matrix XcᵀXc would square their
    condition number).  Besides its output, the reduction holds one block
    and a d × d factor, never a centered copy of the rows."""
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    if k < 1 or k > min(d, n - 1):
        raise NumericalError(f"need 1 <= k <= min(d, n-1), got k={k}, n={n}, d={d}")
    mean = x.mean(axis=0)
    r = np.empty((0, d))
    for start in range(0, n, CHUNK_ROWS):
        r = np.linalg.qr(np.vstack([r, x[start:start + CHUNK_ROWS] - mean]), mode="r")
    _, s, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    directions = vt[:k].T
    directions *= np.sign(directions[np.abs(directions).argmax(axis=0), np.arange(k)])
    reduced = np.empty((n, k))
    for start in range(0, n, CHUNK_ROWS):
        reduced[start:start + CHUNK_ROWS] = (x[start:start + CHUNK_ROWS] - mean) @ directions
    reduced[:, rank:] = 0.0
    return reduced


def henze_zirkler(points) -> float:
    """HZ statistic on the standardized sample (MLE covariance), with the
    canonical smoothing bandwidth."""
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    if n <= d:
        raise NumericalError(f"need n > d, got n={n}, d={d}")
    xc = x - x.mean(axis=0)
    chol = cholesky(xc.T @ xc / n)
    beta = ((n * (2 * d + 1) / 4.0) ** (1.0 / (d + 4))) / np.sqrt(2.0)
    b2 = beta**2
    # G[i, j] = xc_i^T cov^{-1} xc_j; the kernel's exponent is
    # -b2/2 * (G[i, i] + G[j, j] - 2 G[i, j]), the product of row i of
    # left = [b2 * xc, -b2/2 * diag, 1] and column j of
    # right = [cov^{-1} xc^T; 1; -b2/2 * diag], so one BLAS call makes a
    # whole tile of it.  The symmetric n x n kernel is summed over square
    # tiles of its upper triangle, off-diagonal tiles twice, so memory is
    # O(tile^2); each tile's buffer stays in cache and is clamped (a
    # distance below zero is rounding) and exponentiated in place, avoiding
    # fresh page faults per temporary (out of place ran 2.3x slower at
    # n=8000, k=3).
    b, _ = _scipy.dpotrs(chol, xc.T, lower=1)
    diag = np.einsum("ij,ji->i", xc, b)
    half = -0.5 * b2 * diag
    left = np.column_stack([b2 * xc, half, np.ones(n)])
    right = np.vstack([b, np.ones(n), half])
    kernel_sum = 0.0
    for i in range(0, n, _HZ_TILE):
        rows = slice(i, i + _HZ_TILE)
        for j in range(i, n, _HZ_TILE):
            e = left[rows] @ right[:, j:j + _HZ_TILE]
            np.minimum(e, 0.0, out=e)
            kernel_sum += (1.0 if j == i else 2.0) * np.exp(e, out=e).sum()
    term1 = kernel_sum / (n * n)
    term2 = 2.0 * (1.0 + b2) ** (-d / 2.0) * np.mean(np.exp(-b2 * diag / (2.0 * (1.0 + b2))))
    term3 = (1.0 + 2.0 * b2) ** (-d / 2.0)
    return float(n * (term1 - term2 + term3))


def ad_statistic_from_probs(probs) -> float:
    """A^2 from sorted probability values: the closed formula
    -n - (1/n) sum (2i-1) [ln p_(i) + ln(1 - p_(n+1-i))]."""
    p = np.sort(np.asarray(probs, dtype=float))
    n = p.shape[0]
    p = np.clip(p, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(p) + np.log1p(-p[::-1]))))


def _standardized_order_statistics(samples) -> np.ndarray:
    """Sorted (x - mean) / sd with ddof=1, for a non-constant sample of n >= 2."""
    x = np.asarray(samples, dtype=float)
    if x.shape[0] < 2:
        raise NumericalError("need at least 2 samples")
    s = x.std(ddof=1)
    if s == 0.0:
        raise NumericalError("sample is constant")
    return np.sort((x - x.mean()) / s)


def anderson_darling(samples) -> float:
    """A^2 against the normal with estimated mean and standard deviation."""
    z = _standardized_order_statistics(samples)
    return ad_statistic_from_probs(_scipy.special().ndtr(z))


def normality_report(vectors, labels, k: int) -> list[NormalityReport]:
    """Per-class HZ and per-dimension AD statistics in PCA-reduced space."""
    x = np.asarray(vectors, dtype=float)
    y = np.asarray(labels, dtype=int)
    reports = []
    for label in sorted(set(y.tolist())):
        members = y == label
        n = int(np.count_nonzero(members))
        if n <= k:
            raise NumericalError(f"class {label} has {n} samples, need more than k={k}")
        # rows whose covariance overflows fail HZ's Cholesky factorization,
        # so the overflow is not reported a second time as a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            red = pca_reduce(x[members], k)  # the class copy lives for this call only
            try:
                hz = henze_zirkler(red)
            except NumericalError as exc:
                raise NumericalError(f"class {label}: Henze-Zirkler test failed: {exc}") from exc
        ad = [anderson_darling(red[:, j]) for j in range(k)]
        reports.append(NormalityReport(class_label=label, hz=hz, ad_per_dim=ad, n=n, points=red))
    return reports


def emit_normality_report(fh, reports, k: int) -> None:
    """Write the normality report to the open text file fh: a header, then
    one ``label, n, k, HZ, AD per reduced dimension`` line per class."""
    fh.write("label\tn\tk\thz\t" + "\t".join(f"ad_{j + 1}" for j in range(k)) + "\n")
    for r in reports:
        fh.write(f"{r.class_label}\t{r.n}\t{k}\t{r.hz:.17g}\t"
                 + "\t".join(f"{a:.17g}" for a in r.ad_per_dim) + "\n")


def emit_qq(fh, reports) -> None:
    """Write the Q-Q report to the open text file fh: a header, then each
    class's normal Q-Q pairs on its first reduced dimension (theoretical
    quantile at (i-0.5)/n, standardized order statistic), ``CHUNK_ROWS`` pairs a write."""
    fh.write("label\ttheoretical\tsample\n")
    for r in reports:
        z = _standardized_order_statistics(r.points[:, 0])
        theo = _scipy.special().ndtri((np.arange(1, len(z) + 1) - 0.5) / len(z))
        for s in range(0, len(z), CHUNK_ROWS):
            fh.write("".join(f"{r.class_label}\t{t:.17g}\t{v:.17g}\n" for t, v in
                             zip(theo[s:s + CHUNK_ROWS].tolist(), z[s:s + CHUNK_ROWS].tolist())))


def emit_distance_report(fh, ids, labels, vectors, model: GaussianModel) -> None:
    """Write the distance report to the open text file fh: a header, then one
    ``id, label, squared distance`` line per row of vectors, ordered by id.
    The id-sorted rows are scored and written in ``data.padded_blocks``, so
    a row's distance does not depend on n; besides the sort order (8 bytes
    a row) the report holds one block's rows, their distances and their
    text."""
    if vectors.shape[1] != model.d:
        raise NumericalError(f"projected dimension {vectors.shape[1]} vs model {model.d}")
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    fh.write("id\tlabel\td2\n")
    for rows, block in padded_blocks(vectors, order):
        d2 = whitened_sq_norms(model.chol, block - model.mean)
        fh.write("".join(f"{ids[i]}\t{label}\t{v:.17g}\n" for i, label, v in
                         zip(rows.tolist(), labels[rows].tolist(), d2.tolist())))
