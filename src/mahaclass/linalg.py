"""Gaussian statistics over dense symmetric matrices.

Covariances use the unbiased (n-1) estimator throughout.  A small ridge
(lambda * I) keeps the Cholesky factor well defined when the scatter is
rank deficient; the factor is cached on the model so Mahalanobis solves
cost two triangular backsubstitutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    TooFewSamples,
)


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == m.

    Raises NotPositiveDefinite when a pivot is not strictly positive,
    which for a covariance signals that the ridge is too small.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    # symmetrize to kill representation noise before factoring
    m = 0.5 * (m + m.T)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


@dataclass(frozen=True)
class GaussianModel:
    """Target-class statistics: mean, covariance and its cached factor."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray
    n: int
    ridge: float = 0.0

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
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        x = np.atleast_2d(x)
    n, d = x.shape
    if n < 2:
        raise TooFewSamples(f"need at least 2 points, got {n}")
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
        raise DimensionMismatch(f"expected rows of length {model.d}, got shape {v.shape}")
    w = cho_solve((model.chol, True), v.reshape(-1, model.d).T, check_finite=False)
    return w.T.reshape(v.shape)


def whitened_sq_norms(chol: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """delta^T (L L^T)^{-1} delta for each row of the (N, d) deltas, by one
    triangular solve against the (d, N) right-hand side."""
    z = solve_triangular(chol, deltas.T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", z, z)


def append_point(model: GaussianModel, x: np.ndarray) -> GaussianModel:
    """Statistics of the model's n points plus x, via rank-1 updates.

    Cost is independent of n: O(d^2) for the moments plus one O(d^3)
    refactorization.  Scoring uses the closed form in
    ``mahalanobis.scores`` instead; this is its explicit reference.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"expected vector of length {model.d}, got shape {x.shape}")
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
            raise DimensionMismatch(
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
