"""Contrastive losses over projected embeddings and their analytic
gradients.

A batch is an array-like of shape (B, 3, d): one (anchor, positive,
negative) row per triple, so a list of ``ContrastTriple`` is one too.
Each loss returns its value and the (B, k, d) gradient with respect to
every input row.

Gradients are taken with respect to the projected coordinates only; the
Gaussian statistics supplied by the sliding window are treated as
constants within a step (stop-gradient through mean and covariance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, NonFiniteLoss, ZeroVector
from .linalg import GaussianModel, spd_solve

LOG_CLAMP = 1e-12


class ContrastTriple(NamedTuple):
    """Anchor (target), positive (target, distinct item), negative."""

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray


@dataclass(frozen=True)
class LossValue:
    value: float
    grads: np.ndarray  # (B, k, d): d(value)/d(row) for each input row


def _stack(batch, k: int) -> np.ndarray:
    """The batch as a float (B, k, d) array."""
    try:
        x = np.asarray(batch, dtype=float)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatch(f"batch rows differ in shape ({exc})") from exc
    if x.size == 0:
        raise EmptyBatch("batch must be nonempty")
    if x.ndim != 3 or x.shape[1] != k:
        raise DimensionMismatch(f"expected a (B, {k}, d) batch, got shape {x.shape}")
    return x


def _mah_sims(model: GaussianModel, delta: np.ndarray):
    """sim_mah = exp(-q/d) for each row of delta = u - v, with
    q = delta^T (Sigma + ridge*I)^{-1} delta, and w = (Sigma + ridge*I)^{-1}
    delta, so that d(sim)/du = -(2/d) sim w = -d(sim)/dv."""
    w = spd_solve(model, delta)
    q = np.maximum(np.einsum("...i,...i->...", delta, w), 0.0)
    return np.exp(-q / model.d), w


def _ratio_loss(s: np.ndarray, ds_da: np.ndarray, ds_dv: np.ndarray) -> LossValue:
    """Mean over rows of sn / (sp + sn), from the (B, 2) similarities
    (sp, sn) of each anchor to its positive and negative and their (B, 2, d)
    gradients in the anchor and in the positive/negative."""
    sp, sn = s[:, 0], s[:, 1]
    denom = sp + sn
    if not np.all(denom > 0):
        raise NonFiniteLoss(f"similarity ratio undefined: both similarities are zero "
                            f"in {np.sum(~(denom > 0))} of {len(denom)} triples")
    # d(sn/(sp+sn)) = (sp*dsn - sn*dsp) / denom^2
    c = np.stack([-sn, sp], axis=1)[..., None] / (len(denom) * denom[:, None, None] ** 2)
    anchor = np.sum(c * ds_da, axis=1, keepdims=True)
    return LossValue(value=float(np.mean(sn / denom)),
                     grads=np.concatenate([anchor, c * ds_dv], axis=1))


def mah_loss(batch, model: GaussianModel) -> LossValue:
    """Mean over triples of sim(x, y-) / (sim(x, x+) + sim(x, y-))."""
    x = _stack(batch, 3)
    s, w = _mah_sims(model, x[:, :1] - x[:, 1:])
    ds_da = (-2.0 / model.d) * s[..., None] * w
    return _ratio_loss(s, ds_da, -ds_da)


def mah_mean_loss(targets, negatives, model: GaussianModel) -> LossValue:
    """-mean over pairs of [log sim(mu, x) + log(1 - sim(mu, y-))].

    Similarities are clamped to [eps, 1-eps]; clamped terms contribute
    zero gradient.  The gradient rows are (x, y-).
    """
    if len(targets) != len(negatives):
        raise DimensionMismatch("targets and negatives must be paired")
    z = _stack(list(zip(targets, negatives)), 2)
    s, w = _mah_sims(model, z - model.mean)
    s_c = np.clip(s, LOG_CLAMP, 1.0 - LOG_CLAMP)
    sx, sy = s_c[:, 0], s_c[:, 1]
    # d(-log sx)/dx = (2/d) w_x;  d(-log(1 - sy))/dy = -(2/d) sy/(1-sy) w_y
    coef = (2.0 / model.d) * np.stack([np.ones_like(sy), -sy / (1.0 - sy)], axis=1)
    coef[s_c != s] = 0.0
    return LossValue(value=float(-np.mean(np.log(sx) + np.log1p(-sy))),
                     grads=coef[..., None] * w / len(z))


def _cos_sims(u: np.ndarray, v: np.ndarray):
    """(1 + cos(u, v)) / 2 over the last axis (mapped to [0, 1]) and its
    u- and v-gradients."""
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    if not (np.all(nu > 0) and np.all(nv > 0)):
        raise ZeroVector("cosine similarity is undefined for zero vectors")
    c = np.sum(u * v, axis=-1, keepdims=True) / (nu * nv)
    grad_u = 0.5 * (v / (nu * nv) - c * u / nu**2)
    grad_v = 0.5 * (u / (nu * nv) - c * v / nv**2)
    return 0.5 * (1.0 + c[..., 0]), grad_u, grad_v


def cosine_loss(batch) -> LossValue:
    """Ablation: the same contrastive ratio with cosine similarity
    rescaled from [-1, 1] to [0, 1]."""
    x = _stack(batch, 3)
    return _ratio_loss(*_cos_sims(x[:, :1], x[:, 1:]))
