"""Training of the affine projection head under the contrastive losses,
with target-class statistics maintained by a sliding window, plus the
feed-forward ablation head.

The window is warm-started with one full pass of projected target
vectors before the first optimizer step so the covariance is
well-conditioned from step one.  Within a step the Gaussian statistics
are constants; gradients flow only through the projected coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteLoss, NotPositiveDefinite, NumericalError
from .linalg import GaussianModel, SlidingWindow, fit_gaussian
from .loss import cosine_loss, mah_loss, mah_mean_loss
from .seeds import rng_for

LOSS_KINDS = ("mah", "mah_mean", "cosine")
MLP_BATCH_SIZE = 32
MLP_LEARNING_RATE = 1e-3


@dataclass
class ProjectionHead:
    """Affine map from input embeddings to the contrast space."""

    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray     # (d_out,)

    @property
    def d_out(self) -> int:
        return self.weights.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weights.T + self.bias

    @classmethod
    def init(cls, d_in: int, d_out: int, rng: np.random.Generator) -> "ProjectionHead":
        w = rng.normal(scale=1.0 / math.sqrt(d_in), size=(d_out, d_in))
        return cls(weights=w, bias=np.zeros(d_out))


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "mah_mean"
    batch_size: int = 16       # 40 suits larger corpora
    window_multiplier: int = 100  # 500 for large datasets
    learning_rate: float = 1e-3
    epochs: int = 1
    ridge: float = 1e-6
    proj_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}")
        if min(self.batch_size, self.window_multiplier, self.proj_dim) < 1:
            raise ConfigError("batch_size, window_multiplier and proj_dim must be positive")
        if self.window_capacity < 2:  # the loss needs a window fit to 2 rows or more
            raise ConfigError(f"--batch-size {self.batch_size} x --window-mult "
                              f"{self.window_multiplier} gives a {self.window_capacity}-row "
                              "window; it needs at least 2 rows")
        if not (self.epochs >= 0 and self.learning_rate > 0 and self.ridge >= 0
                and math.isfinite(self.learning_rate) and math.isfinite(self.ridge)):
            raise ConfigError("invalid epochs, learning_rate or ridge")

    @property
    def window_capacity(self) -> int:
        return self.window_multiplier * self.batch_size


@dataclass
class LogEntry:
    epoch: int
    batch: int
    loss: float


class Adam:
    """Adaptive moment estimation over one flat parameter buffer.  ``params``
    and ``grads`` are views of it and of the gradient buffer, shaped like the
    initial arrays; callers fill ``grads``, then ``step()`` updates in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, arrays, lr: float):
        self.lr = lr
        self.t = 0
        self.p = np.concatenate([a.ravel() for a in arrays])
        self.g = np.zeros_like(self.p)
        self.m = np.zeros_like(self.p)
        self.v = np.zeros_like(self.p)
        ends = np.cumsum([a.size for a in arrays])
        self.params = [self.p[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]
        self.grads = [self.g[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]

    def step(self) -> None:
        self.t += 1
        self.m *= self.BETA1
        self.m += (1 - self.BETA1) * self.g
        self.v *= self.BETA2
        self.v += (1 - self.BETA2) * self.g * self.g
        m_hat = self.m / (1 - self.BETA1**self.t)
        v_hat = self.v / (1 - self.BETA2**self.t)
        self.p -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def epoch_triples(n: int, m: int, batch_size: int, rng: np.random.Generator):
    """One epoch of contrastive triples, as (3, B) index arrays that unpack
    as i, j, k.  Anchors i are consecutive slices of one permutation of the
    n target rows, so the last batch may be shorter; positives j are
    uniform over the other targets; negatives k uniform over the m
    non-target rows."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        i = order[start:start + batch_size]
        j = rng.integers(n - 1, size=i.size)
        j += j >= i  # uniform over the targets minus the anchor
        yield np.stack([i, j, rng.integers(m, size=i.size)])


# A diverging run is caught by the explicit checks on the loss, the head
# parameters and the window factor (exit 4), so the overflow on the way
# there is not reported a second time as a RuntimeWarning.
@np.errstate(over="ignore", invalid="ignore")
def train(data, cfg: TrainConfig):
    """The projection head for the train split: the identity when square
    (``proj_dim`` >= d_in), since a Mahalanobis distance does not change
    under an invertible affine map, so no SGD runs and the log is empty.

    Returns (head, ``refit_model`` under the final head, per-batch loss log).
    """
    n_t, d_in = data.n_target, data.d_in
    d_out = min(cfg.proj_dim, d_in)
    if n_t <= d_out + 1:  # the decision statistic needs n > d + 1
        raise ConfigError(f"--proj-dim {cfg.proj_dim} gives d_out {d_out}, which needs more "
                          f"than {d_out + 1} target training rows; the train split has {n_t}")
    if d_out == d_in:
        head, log = ProjectionHead(np.eye(d_in), np.zeros(d_in)), []
    else:
        head, log = _descend(data, cfg, d_out)
    try:
        model = refit_model(data, head, cfg.ridge)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"refit under the final head ({n_t} rows, dimension "
                                  f"{d_out}, ridge {cfg.ridge}) does not factor: {exc}") from exc
    return head, model, log


def _descend(data, cfg: TrainConfig, d_out: int):
    """One or more epochs of contrastive training of a (d_out, d_in) head.

    Each step stacks the batch's raw rows into a (B, k, d_in) array, with
    k = 3 (anchor, positive, negative) or k = 2 for mah_mean (anchor,
    negative), projects it once, and takes the head gradient as one
    product of the (B, k, d_out) loss gradient with the raw rows.

    Returns (final head, per-batch loss log).
    """
    x_t, x_n = data.target_vectors(), data.non_target_vectors()
    if len(x_n) == 0:
        raise NumericalError("training needs a non-target row; the train split has "
                             f"{len(x_t)} target and 0 non-target rows")
    d_in = data.d_in
    init = ProjectionHead.init(d_in, d_out, rng_for(cfg.seed, "head-init"))
    opt = Adam([init.weights, init.bias], lr=cfg.learning_rate)
    head = ProjectionHead(*opt.params)
    dw, db = opt.grads
    window = SlidingWindow(capacity=cfg.window_capacity, dim=d_out, ridge=cfg.ridge)

    # warm start: statistics must exist before the first loss evaluation
    try:
        window.push(head.project(x_t[-cfg.window_capacity:]))
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"warm-start window ({len(window)} rows, dimension {d_out}, ridge {cfg.ridge}) "
            f"does not factor: {exc}") from exc

    log: list[LogEntry] = []
    rng = rng_for(cfg.seed, "triples")
    for epoch in range(cfg.epochs):
        for batch_i, (i, j, k) in enumerate(epoch_triples(len(x_t), len(x_n),
                                                           cfg.batch_size, rng)):
            rows = [x_t[i], x_n[k]] if cfg.loss_kind == "mah_mean" else [x_t[i], x_t[j], x_n[k]]
            raw = np.stack(rows, axis=1)
            z = head.project(raw)
            try:
                window.push(z[:, 0])
                if cfg.loss_kind == "mah":
                    lv = mah_loss(z, window.model)
                elif cfg.loss_kind == "cosine":
                    lv = cosine_loss(z)
                else:
                    lv = mah_mean_loss(z[:, 0], z[:, 1], window.model)
                if not math.isfinite(lv.value):
                    if epoch == batch_i == 0:  # no update yet: the input is at fault
                        raise NumericalError(f"the first loss, before any update, is "
                                             f"{lv.value}: the input rows overflow")
                    raise NonFiniteLoss(f"loss is {lv.value}")
            except (NotPositiveDefinite, NonFiniteLoss) as exc:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch}, batch {batch_i}: {exc}") from exc
            g = lv.grads
            np.matmul(g.reshape(-1, d_out).T, raw.reshape(-1, d_in), out=dw)
            np.sum(g, axis=(0, 1), out=db)
            opt.step()
            if not np.isfinite(opt.p).all():
                raise NonFiniteLoss(f"training diverged at epoch {epoch}, batch {batch_i}: "
                                    "head parameters are not finite")
            log.append(LogEntry(epoch=epoch, batch=batch_i, loss=lv.value))
    return head, log


def refit_model(data, head: ProjectionHead, ridge: float) -> GaussianModel:
    """Gaussian statistics over all target training points projected by
    ``head``."""
    return fit_gaussian(head.project(data.target_vectors()), ridge=ridge)


def write_training_log(log, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in log:
            fh.write(f"{e.epoch}\t{e.batch}\t{e.loss:.17g}\n")


# -- feed-forward ablation head ---------------------------------------------

@dataclass
class MlpHead:
    """Three affine layers with tanh activations; scalar logit output."""

    layers: list = field(default_factory=list)  # [(W, b), ...]

    def forward(self, x: np.ndarray):
        acts = [np.atleast_2d(np.asarray(x, dtype=float))]
        for i, (w, b) in enumerate(self.layers):
            z = acts[-1] @ w.T + b
            acts.append(np.tanh(z) if i < len(self.layers) - 1 else z)
        return acts

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logit = self.forward(x)[-1][:, 0]
        return 1.0 / (1.0 + np.exp(-logit))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(int)

    @classmethod
    def init(cls, d_in: int, hidden: tuple[int, int], rng: np.random.Generator) -> "MlpHead":
        sizes = [d_in, hidden[0], hidden[1], 1]
        layers = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            layers.append((rng.normal(scale=1.0 / math.sqrt(a), size=(b, a)), np.zeros(b)))
        return cls(layers=layers)


def train_mlp(x, labels, epochs: int = 50, seed: int = 0) -> MlpHead:
    """Binary log-loss training of the ablation classifier on the (N, d)
    projected rows x with 0/1 labels; the hidden layers have d and d // 2 units."""
    if epochs < 0:
        raise ConfigError(f"epochs must be non-negative, got {epochs}")
    y = np.asarray(labels, dtype=float)
    if not 0 < np.count_nonzero(y) < y.size:
        raise NumericalError("both classes required")
    d = x.shape[1]
    init = MlpHead.init(d, (d, max(d // 2, 1)), rng_for(seed, "mlp-init"))
    opt = Adam([a for w_b in init.layers for a in w_b], lr=MLP_LEARNING_RATE)
    mlp = MlpHead(layers=list(zip(opt.params[0::2], opt.params[1::2])))
    grads = list(zip(opt.grads[0::2], opt.grads[1::2]))
    order_rng = rng_for(seed, "mlp-batches")
    n = x.shape[0]
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, MLP_BATCH_SIZE):
            idx = order[start: start + MLP_BATCH_SIZE]
            xb, yb = x[idx], y[idx]
            acts = mlp.forward(xb)
            logits = acts[-1][:, 0]
            p = 1.0 / (1.0 + np.exp(-logits))
            if not np.all(np.isfinite(p)):
                raise NonFiniteLoss("MLP training diverged")
            # d(BCE)/d(logit) = p - y
            delta = ((p - yb) / xb.shape[0])[:, None]
            for i in range(len(mlp.layers) - 1, -1, -1):
                w, _ = mlp.layers[i]
                dw, db = grads[i]
                np.sum(delta, axis=0, out=db)
                np.matmul(delta.T, acts[i], out=dw)
                if i > 0:
                    delta = (delta @ w) * (1.0 - acts[i] ** 2)
            opt.step()
    return mlp
