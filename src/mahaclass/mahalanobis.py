"""The Beta-distribution decision rule on the normalized squared
Mahalanobis distance, with dev-set threshold calibration.

A query is tested by appending it to the target statistics, computing its
squared distance under the updated mean/covariance, and normalizing to
T = (n+1)/n^2 * d^2, which under the Gaussian null follows
Beta(d/2, (n-d)/2).  The query never persists into the model: each
decision scores against a frozen snapshot, in closed form (see ``scores``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .betadist import BetaParams, beta_quantile, reg_inc_beta
from .errors import NumericalError
from .linalg import GaussianModel, whitened_sq_norm, whitened_sq_norms
from .metrics import NON_TARGET, TARGET

_Q_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class DecisionScore:
    T: float


@dataclass(frozen=True)
class DecisionThreshold:
    beta_level: float
    params: BetaParams
    v_beta: float

    def __post_init__(self):
        # NaN fails both tests, like any level or critical value outside (0, 1)
        if not (0 < self.v_beta < 1 and 0 < self.beta_level < 1):
            raise NumericalError(f"v_beta {self.v_beta} and beta_level {self.beta_level} "
                                 "must lie in (0, 1)")

    @classmethod
    def for_model(cls, model: GaussianModel, beta_level: float) -> "DecisionThreshold":
        params = null_beta_params(model)
        return cls(beta_level=beta_level, params=params,
                   v_beta=float(beta_quantile(params, beta_level)))


def _null_shapes(model: GaussianModel) -> tuple[float, float]:
    """(a, b) of ``null_beta_params``, without building the BetaParams."""
    n, d = model.n, model.mean.shape[0]
    if n <= d + 1:
        raise NumericalError(f"need n > d+1, got n={n}, d={d}")
    return d / 2.0, (n - d) / 2.0


def null_beta_params(model: GaussianModel) -> BetaParams:
    """Beta shapes of the normalized statistic for an appended query."""
    return BetaParams(*_null_shapes(model))


def scores(model: GaussianModel, x) -> np.ndarray:
    """Normalized statistic T of each row of x, appended alone to the model.

    Appending a query moves the ridged covariance to A + delta delta^T/(n+1),
    with A = (n-1)/n * Sigma + ridge*I and delta = x - mu, and leaves the
    query n/(n+1) * delta from the new mean.  With q = delta^T A^{-1} delta,
    Sherman-Morrison gives d2 = (n/(n+1))^2 * q / (1 + q/(n+1)), so
    T = (n+1)/n^2 * d2 = q / (n+1+q): exact, ridge included, and one
    triangular solve against A's cached factor for the whole batch.

    A q that overflows (inf, or NaN from inf - inf inside the solve) scores
    its limit T = 1: fmin takes it to the largest double, which n+1 cannot
    move, so the quotient rounds to 1.  Every finite q passes unchanged.
    """
    _null_shapes(model)  # n > d+1
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise NumericalError(f"expected rows of length {model.d}, got shape {x.shape}")
    q = np.fmin(whitened_sq_norms(model.appended_chol, x - model.mean), _Q_MAX)
    return q / (model.n + 1 + q)


def decision_statistic(model: GaussianModel, x: np.ndarray) -> DecisionScore:
    """A one-row ``scores`` call on the single query x.  BLAS may round a
    many-column solve differently, so T can differ in the last bit from
    what ``infer`` (``data.finite_projection``'s 256-row blocks) gives the
    row."""
    return DecisionScore(T=float(scores(model, np.asarray(x, dtype=float)[None])[0]))


def beta_decide(model: GaussianModel, x: np.ndarray, thr: DecisionThreshold) -> int:
    """1 (target) iff the normalized statistic falls strictly below v_beta.

    This is the hot path of every one-row decision, so it scores x itself
    with ``linalg.whitened_sq_norm`` in place of a one-row ``scores`` call:
    the same solve, the same clamp of an overflowing q and the same
    quotient, on Python floats, so T is that call's bit for bit.  It can
    differ in the last bit from what ``infer`` gives the row, so a T within
    an ulp of v_beta may be decided the other way."""
    a, b = _null_shapes(model)
    p = thr.params
    # np.isclose(p.a, a) and np.isclose(p.b, b) (atol 1e-8, rtol 1e-5; a, b > 0)
    if not (abs(p.a - a) <= 1e-8 + 1e-5 * a and abs(p.b - b) <= 1e-8 + 1e-5 * b):
        raise NumericalError(
            f"threshold shapes {thr.params} do not match model (n={model.n}, d={model.d})")
    mean = model.mean
    x = np.asarray(x, dtype=float)
    if x.shape != mean.shape:
        raise NumericalError(
            f"expected rows of length {mean.shape[0]}, got shape {(1, *x.shape)}")
    q = whitened_sq_norm(model.appended_chol, x - mean)
    if not q <= _Q_MAX:  # inf or NaN, which np.fmin takes to _Q_MAX
        q = _Q_MAX
    return TARGET if q / (model.n + 1 + q) < thr.v_beta else NON_TARGET


def calibrate(model: GaussianModel, dev_vectors, dev_labels,
              fpr_cap: float = 1.0) -> DecisionThreshold:
    """``calibrate_scores`` of the dev rows' ``scores``, all in one batch."""
    return calibrate_scores(null_beta_params(model), scores(model, dev_vectors),
                            dev_labels, fpr_cap)


def calibrate_scores(params: BetaParams, t_values, dev_labels,
                     fpr_cap: float = 1.0) -> DecisionThreshold:
    """Pick the quantile level of Beta ``params`` with the best F1 on the
    dev rows with statistics t_values among those whose false positive
    rate is at most fpr_cap (every level by default); the lowest-FPR level
    when none is.

    Candidates are the dev statistics' own quantile levels plus a grid of
    99 evenly spaced levels; ties break toward the smaller level (lower
    false positive rate).
    """
    truth = np.asarray(dev_labels, dtype=int)
    if len(set(truth.tolist())) < 2:
        raise NumericalError("dev split must contain both classes")
    t_values = np.asarray(t_values, dtype=float)

    # (beta_level, critical value) candidates, sorted; a dev statistic t
    # maps back to the level I_t(a, b), whose quantile is t itself.
    grid = np.linspace(0.01, 0.99, 99)
    # np.unique's values; np.unique itself imports numpy.ma on its first call
    sorted_t = np.sort(t_values)
    unique_t = sorted_t[np.concatenate(([True], sorted_t[1:] != sorted_t[:-1]))]
    levels = np.concatenate([reg_inc_beta(params, unique_t), grid])
    crit = np.concatenate([unique_t, beta_quantile(params, grid)])
    keep = (levels > 0.0) & (levels < 1.0)
    order = np.lexsort((crit[keep], levels[keep]))
    levels, crit = levels[keep][order], crit[keep][order]

    # the strict test T < v counts the sorted statistics left of v
    pos, neg = np.sort(t_values[truth == TARGET]), np.sort(t_values[truth == NON_TARGET])
    tp = np.searchsorted(pos, crit, side="left")
    fp = np.searchsorted(neg, crit, side="left")
    f1 = 2 * tp / (tp + fp + pos.size)  # 2tp + fp + fn, never zero
    fpr = fp / neg.size
    allowed = fpr <= fpr_cap
    if allowed.any():
        # argmax returns the first maximum: the smallest level among ties
        best = np.flatnonzero(allowed)[np.argmax(f1[allowed])]
    else:
        # nothing satisfied the cap; fall back to the lowest-FPR candidate
        best = np.argmin(fpr)
    return DecisionThreshold(beta_level=float(levels[best]), params=params,
                             v_beta=float(crit[best]))
