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

from .errors import InsufficientClassData, InvalidConfig, NonFiniteLoss, NotPositiveDefinite
from .linalg import GaussianModel, SlidingWindow
from .loss import cosine_loss, mah_loss, mah_mean_loss
from .seeds import rng_for

LOSS_KINDS = ("mah", "mah_mean", "cosine")


@dataclass
class ProjectionHead:
    """Affine map from input embeddings to the contrast space."""

    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray     # (d_out,)

    @property
    def d_in(self) -> int:
        return self.weights.shape[1]

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
            raise InvalidConfig(f"loss_kind must be one of {LOSS_KINDS}")
        if min(self.batch_size, self.window_multiplier, self.proj_dim) < 1:
            raise InvalidConfig("batch_size, window_multiplier and proj_dim must be positive")
        if self.epochs < 0 or self.learning_rate <= 0 or self.ridge < 0:
            raise InvalidConfig("invalid epochs, learning_rate or ridge")

    @property
    def window_capacity(self) -> int:
        return self.window_multiplier * self.batch_size


@dataclass
class LogEntry:
    epoch: int
    batch: int
    loss: float


class Adam:
    """Adaptive moment estimation over a list of parameter arrays."""

    def __init__(self, shapes, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


class TripleSampler:
    """Draws contrastive triples: anchors pass over the target set without
    replacement per epoch; positives uniform over the other targets;
    negatives uniform over the non-target set."""

    def __init__(self, target_vectors, non_target_vectors, rng: np.random.Generator):
        self.x = np.asarray(target_vectors, dtype=float)
        self.y = np.asarray(non_target_vectors, dtype=float)
        if self.x.shape[0] < 2 or self.y.shape[0] < 1:
            raise InsufficientClassData(
                "need at least 2 target and 1 non-target instances")
        self.rng = rng
        self._order: list[int] = []

    def next_batch(self, batch_size: int) -> np.ndarray:
        """(3, batch_size) indices: anchor and positive rows of the target
        set and negative rows of the non-target set; unpacks as i, j, k."""
        n, m = self.x.shape[0], self.y.shape[0]
        idx = np.empty((3, batch_size), dtype=np.intp)
        for b in range(batch_size):
            if not self._order:
                self._order = list(self.rng.permutation(n))
            i = int(self._order.pop())
            j = int(self.rng.integers(n - 1))
            if j >= i:
                j += 1  # uniform over X minus the anchor
            idx[:, b] = i, j, int(self.rng.integers(m))
        return idx


def train(data, cfg: TrainConfig):
    """One or more epochs of contrastive training over the train split.

    Each step stacks the batch's raw rows into a (B, k, d_in) array, with
    k = 3 (anchor, positive, negative) or k = 2 for mah_mean (anchor,
    negative), projects it once, and takes the head gradient as one
    product of the (B, k, d_out) loss gradient with the raw rows.

    Returns (head, final window model, per-batch loss log).
    """
    x_t = data.target_vectors()
    if data.n_target < 2 or data.m_non_target < 1:
        raise InsufficientClassData(
            f"need >= 2 target and >= 1 non-target, got {data.n_target}/{data.m_non_target}")
    d_in = data.d_in
    d_out = min(cfg.proj_dim, d_in)
    head = ProjectionHead.init(d_in, d_out, rng_for(cfg.seed, "head-init"))
    sampler = TripleSampler(x_t, data.non_target_vectors(), rng_for(cfg.seed, "triples"))
    window = SlidingWindow(capacity=cfg.window_capacity, dim=d_out,
                           update_frequency=cfg.batch_size, ridge=cfg.ridge)

    # warm start: statistics must exist before the first loss evaluation
    window.push(head.project(x_t[-cfg.window_capacity:]))
    window.refresh()

    opt = Adam([head.weights.shape, head.bias.shape], lr=cfg.learning_rate)
    log: list[LogEntry] = []
    n_batches = math.ceil(x_t.shape[0] / cfg.batch_size)
    for epoch in range(cfg.epochs):
        for batch_i in range(n_batches):
            size = min(cfg.batch_size, x_t.shape[0] - batch_i * cfg.batch_size)
            i, j, k = sampler.next_batch(size)
            rows = ([sampler.x[i], sampler.y[k]] if cfg.loss_kind == "mah_mean"
                    else [sampler.x[i], sampler.x[j], sampler.y[k]])
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
                    raise NonFiniteLoss(f"loss is {lv.value}")
            except (NotPositiveDefinite, NonFiniteLoss) as exc:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch}, batch {batch_i}: {exc}") from exc
            g = lv.grads
            dw = g.reshape(-1, d_out).T @ raw.reshape(-1, d_in)
            head.weights, head.bias = opt.step([head.weights, head.bias], [dw, g.sum((0, 1))])
            log.append(LogEntry(epoch=epoch, batch=batch_i, loss=lv.value))
    window.refresh()
    return head, window.model, log


def refit_model(data, head: ProjectionHead, ridge: float) -> GaussianModel:
    """Gaussian statistics over all projected target training points
    (alternative to the final sliding-window model)."""
    from .linalg import fit_gaussian

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


def train_mlp(data, head: ProjectionHead, epochs: int = 50, batch_size: int = 32,
              learning_rate: float = 1e-3, hidden: tuple[int, int] | None = None,
              seed: int = 0) -> MlpHead:
    """Binary log-loss training of the ablation classifier on frozen
    projected embeddings."""
    if data.n_target < 1 or data.m_non_target < 1:
        raise InsufficientClassData("both classes required")
    x = head.project(data.vectors)
    y = data.labels.astype(float)
    d = x.shape[1]
    if hidden is None:
        hidden = (d, max(d // 2, 1))
    rng = rng_for(seed, "mlp-init")
    mlp = MlpHead.init(d, hidden, rng)
    shapes = [a.shape for w_b in mlp.layers for a in w_b]
    opt = Adam(shapes, lr=learning_rate)
    order_rng = rng_for(seed, "mlp-batches")
    n = x.shape[0]
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start: start + batch_size]
            xb, yb = x[idx], y[idx]
            acts = mlp.forward(xb)
            logits = acts[-1][:, 0]
            p = 1.0 / (1.0 + np.exp(-logits))
            if not np.all(np.isfinite(p)):
                raise NonFiniteLoss("MLP training diverged")
            # d(BCE)/d(logit) = p - y
            delta = ((p - yb) / xb.shape[0])[:, None]
            grads = []
            for i in range(len(mlp.layers) - 1, -1, -1):
                w, _ = mlp.layers[i]
                grads.append(np.sum(delta, axis=0))          # bias
                grads.append(delta.T @ acts[i])              # weights
                if i > 0:
                    delta = (delta @ w) * (1.0 - acts[i] ** 2)
            grads = grads[::-1]
            params = [a for w_b in mlp.layers for a in w_b]
            new = opt.step(params, grads)
            mlp.layers = [(new[2 * i], new[2 * i + 1]) for i in range(len(mlp.layers))]
    return mlp
