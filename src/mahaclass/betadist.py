"""Regularized incomplete Beta function and its inverse.

Thin wrappers over scipy's ``betainc`` and ``betaincinv`` ufuncs that add
the package's domain errors.  Both work elementwise on arrays.  The
ufuncs come from ``_scipy.special()``, which loads scipy's ``_ufuncs``
extension on its first call, so importing the CLI loads none of
scipy.special: ``infer`` and ``evaluate`` never call either function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import NumericalError


@dataclass(frozen=True)
class BetaParams:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise NumericalError(f"shapes must be positive, got a={self.a}, b={self.b}")


def reg_inc_beta(p: BetaParams, x):
    """I_x(a, b), the Beta(a, b) CDF at x."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise NumericalError(f"x must lie in [0, 1], got {x}")
    return _scipy.special().betainc(p.a, p.b, x)


def beta_quantile(p: BetaParams, prob):
    """x with I_x(a, b) = prob."""
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise NumericalError(f"prob must lie in (0, 1), got {prob}")
    return _scipy.special().betaincinv(p.a, p.b, prob)
