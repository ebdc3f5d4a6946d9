"""mahaclass: minority-class detection with Mahalanobis contrastive
training and a Beta-distribution decision rule."""

from .betadist import BetaParams, beta_quantile, reg_inc_beta
from .linalg import GaussianModel, SlidingWindow, append_point, cholesky, fit_gaussian, spd_solve
from .mahalanobis import (
    DecisionScore,
    DecisionThreshold,
    beta_decide,
    calibrate,
    decision_statistic,
    scores,
    sq_mahalanobis,
)

__all__ = [
    "BetaParams", "beta_quantile", "reg_inc_beta",
    "GaussianModel", "SlidingWindow", "append_point", "cholesky",
    "fit_gaussian", "spd_solve",
    "DecisionScore", "DecisionThreshold", "beta_decide", "calibrate",
    "decision_statistic", "scores", "sq_mahalanobis",
]
