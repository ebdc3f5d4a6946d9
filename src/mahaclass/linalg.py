"""Gaussian statistics over dense symmetric matrices, and the affine
projection head whose outputs they describe.

Covariances use the unbiased (n-1) estimator throughout.  A small ridge
(lambda * I) keeps the Cholesky factor well defined when the scatter is
rank deficient; the factor is cached on the model, so a Mahalanobis
distance costs one triangular solve and ``spd_solve`` two.  Both solves
call LAPACK (``dtrtrs``, ``dpotrs``) through ``_scipy``, which loads them
from scipy's LAPACK extension file without importing scipy's linalg package.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _scipy
from .errors import NotPositiveDefinite, NumericalError


def _c_einsum():
    """numpy's C ``einsum``, which ``np.einsum`` calls and returns the
    result of when ``optimize`` is False: the same bits without the Python
    wrapper, about half of a one-row ``einsum``'s cost.  The name is
    private to numpy (``numpy._core.multiarray``, ``numpy.core.multiarray``
    on numpy 1.x), so ``np.einsum`` stands in when neither import works."""
    for module in ("numpy._core.multiarray", "numpy.core.multiarray"):
        try:
            return importlib.import_module(module).c_einsum
        except (ImportError, AttributeError):
            pass
    return np.einsum


_einsum = _c_einsum()


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == m.

    Raises NotPositiveDefinite when a pivot is not strictly positive,
    which for a covariance signals that the ridge is too small, or when an
    entry is not finite (LAPACK factors an infinite diagonal without error).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotPositiveDefinite("matrix has non-finite entries")
    # symmetrize to kill representation noise before factoring
    m = 0.5 * (m + m.T)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


@dataclass
class ProjectionHead:
    """Affine map from input embeddings to the contrast space."""

    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray     # (d_out,)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weights.T + self.bias

    @classmethod
    def init(cls, d_in: int, d_out: int, rng: np.random.Generator) -> "ProjectionHead":
        w = rng.normal(scale=1.0 / math.sqrt(d_in), size=(d_out, d_in))
        return cls(weights=w, bias=np.zeros(d_out))


@dataclass(frozen=True)
class GaussianModel:
    """Target-class statistics: mean, covariance and its cached factor."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    n: int
    ridge: float

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def appended_chol(self) -> np.ndarray:
        """Factor of (n-1)/n * cov + ridge*I: the ridged covariance after
        appending a query, less the query's own rank-one term."""
        return cholesky((self.n - 1) / self.n * self.cov + self.ridge * np.eye(self.d))


def fit_gaussian(points, ridge: float = 1e-6) -> GaussianModel:
    """Sample mean and unbiased covariance of a point cloud.

    The Cholesky factor is taken on cov + ridge*I.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.ndim != 2:
        raise NumericalError(f"expected an (n, d) array of points, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise NumericalError(f"need at least 2 points, got {n}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (n - 1)
    cov = 0.5 * (cov + cov.T)
    chol = cholesky(cov + ridge * np.eye(d))
    return GaussianModel(mean=mean, cov=cov, chol=chol, n=n, ridge=ridge)


def spd_solve(model: GaussianModel, v: np.ndarray) -> np.ndarray:
    """Solve (cov + ridge*I) w = v through the cached Cholesky factor, for
    a vector or for each row of a (..., d) array, by one solve against the
    (d, N) right-hand side."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != model.d:
        raise NumericalError(f"expected rows of length {model.d}, got shape {v.shape}")
    # dpotrs reports only illegal arguments, which the shape check rules out
    w, _ = _scipy.dpotrs(model.chol, v.reshape(-1, model.d).T, lower=1)
    return w.T.reshape(v.shape)


def _whiten(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs, for a (d,) or (d, N) right-hand side.

    LAPACK's dtrtrs is handed U = L^T and solves U^T z = rhs: the factor
    from ``np.linalg.cholesky`` is C-ordered, so U is a Fortran-ordered
    array that LAPACK reads without a copy.  lower=0 and trans=1 are passed
    by position: parsing them as keywords costs the f2py wrapper about
    0.3 us, a sixteenth of a one-row decision.
    """
    z, info = _scipy.dtrtrs(chol.T, rhs, 0, 1)
    if info != 0:
        raise NotPositiveDefinite(f"triangular solve failed (LAPACK info {info}): "
                                  "zero pivot in the factor")
    return z


def whitened_sq_norms(chol: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """delta^T (L L^T)^{-1} delta for each row of the (N, d) deltas, by one
    triangular solve against the (d, N) right-hand side."""
    z = _whiten(chol, deltas.T)
    return np.einsum("ij,ij->j", z, z)


def whitened_sq_norm(chol: np.ndarray, delta: np.ndarray) -> float:
    """``whitened_sq_norms`` of the single (d,) delta: the same one-column
    solve and the same float, bit for bit, without the batch's (d, 1)
    arrays.  The sum of squares is ``einsum("i,i")`` through ``_einsum``
    (numpy's C ``einsum``, or ``np.einsum`` with the same bits), which rounds
    as the batch's ``einsum`` does; ``np.dot`` is faster but differs in the
    last bit on about a third of rows."""
    z = _whiten(chol, delta)
    return float(_einsum("i,i", z, z))


def append_point(model: GaussianModel, x: np.ndarray) -> GaussianModel:
    """Statistics of the model's n points plus x, via rank-1 updates.

    Cost is independent of n: O(d^2) for the moments plus one O(d^3)
    refactorization.  Scoring uses the closed form in
    ``mahalanobis.scores`` instead; this is its explicit reference.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise NumericalError(f"expected vector of length {model.d}, got shape {x.shape}")
    n = model.n
    delta = x - model.mean
    mean = model.mean + delta / (n + 1)
    # Welford: M2_{n+1} = M2_n + (x - mu_n)(x - mu_{n+1})^T, S = M2 / n
    cov = ((n - 1) * model.cov + np.outer(delta, x - mean)) / n
    cov = 0.5 * (cov + cov.T)
    chol = cholesky(cov + model.ridge * np.eye(model.d))
    return replace(model, mean=mean, cov=cov, chol=chol, n=n + 1)


@dataclass
class SlidingWindow:
    """The most recent target vectors, oldest first, with batched
    statistics refresh.

    Single-writer: concurrent pushes are not supported.  The derived
    model is a fresh immutable value on every refresh.
    """

    capacity: int
    dim: int
    update_frequency: int = 1
    ridge: float = 1e-6
    _buffer: np.ndarray = field(init=False, repr=False)
    _pending: int = field(default=0, repr=False)
    _model: GaussianModel | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.capacity < 1 or self.update_frequency < 1:
            raise ValueError("capacity and update_frequency must be positive")
        self._buffer = np.empty((0, self.dim))

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def model(self) -> GaussianModel | None:
        return self._model

    def push(self, batch) -> "SlidingWindow":
        """Append a batch, dropping the oldest vectors beyond capacity.

        Statistics refresh once the vectors pushed since the last refresh
        reach update_frequency.  Empty batches are no-ops.
        """
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        if batch.size == 0:
            return self
        if batch.shape[1] != self.dim:
            raise NumericalError(
                f"window dimension is {self.dim}, batch has {batch.shape[1]}")
        self._buffer = np.concatenate([self._buffer, batch])[-self.capacity:]
        self._pending += batch.shape[0]
        if self._pending >= self.update_frequency:
            self.refresh()
        return self

    def refresh(self) -> None:
        """Recompute statistics from the buffer (full recomputation, not
        incremental downdates)."""
        self._pending = 0
        if len(self._buffer) >= 2:
            self._model = fit_gaussian(self._buffer, ridge=self.ridge)
