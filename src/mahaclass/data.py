"""Dataset ingestion, deterministic stratified splitting, model artifact
serialization, and the synthetic benchmark generator.

File formats (normative, bit-exact round trip):

* Dataset: one record per line, three tab-separated fields:
  ``id<TAB>label<TAB>v1 v2 ... vd`` with label 0 (non-target) or
  1 (target) and space-separated float components.
* Model artifact: versioned line-oriented text, floats rendered with 17
  significant digits; see ``save_model``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidConfig,
    ParseError,
    TooSmallForSplit,
    VersionMismatch,
)
from .seeds import rng_for

ARTIFACT_MAGIC = "mahaclass-model"
ARTIFACT_VERSION = 1


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class EmbeddingRecord:
    id: str
    label: int
    vector: np.ndarray


@dataclass
class EmbeddingDataset:
    records: list[EmbeddingRecord]
    d_in: int = field(init=False)
    n_target: int = field(init=False)
    m_non_target: int = field(init=False)

    def __post_init__(self):
        if not self.records:
            raise InvalidConfig("dataset must contain at least one record")
        d = self.records[0].vector.shape[0]
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise DuplicateId(f"duplicate id {r.id!r}")
            seen.add(r.id)
            if r.vector.shape != (d,):
                raise DimensionMismatch(
                    f"record {r.id!r} has dimension {r.vector.shape[0]}, expected {d}")
            if not np.all(np.isfinite(r.vector)):
                raise ParseError(f"record {r.id!r} contains non-finite values")
            if r.label not in (0, 1):
                raise ParseError(f"record {r.id!r} has label {r.label}, expected 0 or 1")
        self.d_in = d
        self.n_target = sum(1 for r in self.records if r.label == 1)
        self.m_non_target = len(self.records) - self.n_target

    def __len__(self) -> int:
        return len(self.records)

    @property
    def vectors(self) -> np.ndarray:
        return np.stack([r.vector for r in self.records])

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=int)

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.records]

    def target_vectors(self) -> np.ndarray:
        return np.stack([r.vector for r in self.records if r.label == 1])

    def non_target_vectors(self) -> np.ndarray:
        return np.stack([r.vector for r in self.records if r.label == 0])

    def subset(self, indices) -> "EmbeddingDataset":
        return EmbeddingDataset([self.records[i] for i in indices])


def load_dataset(path) -> EmbeddingDataset:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 3 tab-separated fields")
            rid, label_s, vec_s = parts
            if label_s not in ("0", "1"):
                raise ParseError(f"line {lineno}: label must be 0 or 1, got {label_s!r}")
            try:
                vec = np.array([float(t) for t in vec_s.split()], dtype=float)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            records.append(EmbeddingRecord(id=rid, label=int(label_s), vector=vec))
    if not records:
        raise ParseError(f"{path}: no records")
    return EmbeddingDataset(records)


def save_dataset(data: EmbeddingDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in data.records:
            fh.write(f"{r.id}\t{r.label}\t{' '.join(_fmt(v) for v in r.vector)}\n")


def split(data: EmbeddingDataset, ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Stratified train/dev/test split, deterministic under seed."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidConfig(f"ratios must sum to 1, got {ratios}")
    rng = rng_for(seed, "split")
    parts = ([], [], [])
    for label in (1, 0):
        idx = [i for i, r in enumerate(data.records) if r.label == label]
        rng.shuffle(idx)
        c = len(idx)
        b1 = int(round(ratios[0] * c))
        b2 = int(round((ratios[0] + ratios[1]) * c))
        parts[0].extend(idx[:b1])
        parts[1].extend(idx[b1:b2])
        parts[2].extend(idx[b2:])
    if any(len(p) == 0 for p in parts):
        raise TooSmallForSplit(f"{len(data)} records cannot fill all three splits")
    return tuple(data.subset(sorted(p)) for p in parts)


# -- synthetic benchmark -----------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale benchmark: one Gaussian target class on a low-dimensional
    manifold against a heterogeneous non-target mixture.

    The mixture's first component is concentric with the target at
    ``separation`` times its scale (angularly indistinguishable); the
    remaining components are displaced Gaussians, plus a uniform
    background slab.
    """

    d_in: int = 32
    n_target: int = 2000
    m_non_target: int = 8000
    manifold_dim: int = 8
    components: int = 3
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.d_in < 1 or self.n_target < 1 or self.m_non_target < 1:
            raise InvalidConfig("sizes must be positive")
        if self.components < 2:
            raise InvalidConfig("non-target mixture needs at least 2 components")
        if not (1 <= self.manifold_dim <= self.d_in):
            raise InvalidConfig("manifold_dim must lie in [1, d_in]")
        if self.separation <= 0:
            raise InvalidConfig("separation must be positive")


_AMBIENT_NOISE = 0.1


def _synth_geometry(cfg: SynthConfig):
    rng = rng_for(cfg.seed, "synth-geometry")
    mu = rng.normal(size=cfg.d_in)
    mu *= 5.0 / np.linalg.norm(mu)  # far from the origin: norms carry signal
    # manifold contains the radial direction (largest scale), so the
    # radial offsets of the mixture overlap the target spread
    raw = rng.normal(size=(cfg.d_in, cfg.manifold_dim))
    raw[:, 0] = mu / np.linalg.norm(mu)
    basis, _ = np.linalg.qr(raw)
    basis[:, 0] *= np.sign(basis[:, 0] @ mu)
    scales = np.linspace(2.0, 0.8, cfg.manifold_dim)
    return mu, basis, scales


def synth_target_moments(cfg: SynthConfig):
    """Configured population mean and covariance of the target class."""
    mu, basis, scales = _synth_geometry(cfg)
    cov = basis @ np.diag(scales**2) @ basis.T + _AMBIENT_NOISE**2 * np.eye(cfg.d_in)
    return mu, cov

def synth_benchmark(cfg: SynthConfig) -> EmbeddingDataset:
    mu, basis, scales = _synth_geometry(cfg)
    rng = rng_for(cfg.seed, "synth-sample")
    records = []

    z = rng.normal(size=(cfg.n_target, cfg.manifold_dim)) * scales
    targets = mu + z @ basis.T + _AMBIENT_NOISE * rng.normal(size=(cfg.n_target, cfg.d_in))
    for i, v in enumerate(targets):
        records.append(EmbeddingRecord(id=f"t{i:06d}", label=1, vector=v))

    # component weights: 10% uniform background, rest split evenly
    m = cfg.m_non_target
    n_bg = max(1, int(round(0.1 * m)))
    per_comp = (m - n_bg) // cfg.components
    counts = [per_comp] * cfg.components
    counts[-1] += (m - n_bg) - per_comp * cfg.components
    spread = cfg.separation * float(np.mean(scales))

    neg = []
    # concentric component: same manifold, separation-times the scale --
    # angularly indistinguishable from the target class
    z = rng.normal(size=(counts[0], cfg.manifold_dim)) * (cfg.separation * scales)
    neg.append(mu + z @ basis.T
               + cfg.separation * _AMBIENT_NOISE * rng.normal(size=(counts[0], cfg.d_in)))
    # displaced components: radial offsets (along the class-mean ray,
    # invisible to angular similarity) with target-like covariance
    for k in range(1, cfg.components):
        sign = 1.0 if k % 2 else -0.7
        center = mu + sign * spread * basis[:, 0]
        comp_scale = float(rng.uniform(0.6, 1.2))
        z = rng.normal(size=(counts[k], cfg.manifold_dim)) * (comp_scale * scales)
        neg.append(center + z @ basis.T
                   + 2.0 * _AMBIENT_NOISE * rng.normal(size=(counts[k], cfg.d_in)))
    neg.append(rng.uniform(-1.5 * spread, 1.5 * spread, size=(n_bg, cfg.d_in)) + mu)

    for i, v in enumerate(np.vstack(neg)):
        records.append(EmbeddingRecord(id=f"n{i:06d}", label=0, vector=v))
    return EmbeddingDataset(records)


# -- model artifact ----------------------------------------------------------

@dataclass
class ModelArtifact:
    d_in: int
    d_out: int
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    n: int
    ridge: float
    beta_level: float
    beta_a: float
    beta_b: float
    v_beta: float
    seed: int
    config_hash: str
    version: int = ARTIFACT_VERSION


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def save_model(artifact: ModelArtifact, path) -> None:
    a = artifact
    lines = [f"{ARTIFACT_MAGIC} {a.version}"]
    lines.append(f"d_in {a.d_in}")
    lines.append(f"d_out {a.d_out}")
    lines.append(f"seed {a.seed}")
    lines.append(f"config_hash {a.config_hash}")
    lines.append(f"gauss_n {a.n}")
    lines.append(f"ridge {_fmt(a.ridge)}")
    lines.append(f"beta_level {_fmt(a.beta_level)}")
    lines.append(f"beta_a {_fmt(a.beta_a)}")
    lines.append(f"beta_b {_fmt(a.beta_b)}")
    lines.append(f"v_beta {_fmt(a.v_beta)}")
    lines.append("bias " + " ".join(_fmt(v) for v in a.bias))
    for row in a.weights:
        lines.append("w " + " ".join(_fmt(v) for v in row))
    lines.append("mean " + " ".join(_fmt(v) for v in a.mean))
    for i in range(a.mean.shape[0]):
        lines.append("cov " + " ".join(_fmt(v) for v in a.cov[i, : i + 1]))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ModelArtifact:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != ARTIFACT_MAGIC:
        raise ParseError(f"{path}: not a model artifact")
    if int(head[1]) != ARTIFACT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {head[1]}, this build reads version {ARTIFACT_VERSION}")
    if lines[-1].strip() != "end":
        raise ParseError(f"{path}: truncated artifact (missing end marker)")

    scalars: dict[str, str] = {}
    w_rows, cov_rows = [], []
    bias = mean = None
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        if key == "w":
            w_rows.append([float(t) for t in rest.split()])
        elif key == "cov":
            cov_rows.append([float(t) for t in rest.split()])
        elif key == "bias":
            bias = np.array([float(t) for t in rest.split()])
        elif key == "mean":
            mean = np.array([float(t) for t in rest.split()])
        else:
            scalars[key] = rest
    try:
        d_in = int(scalars["d_in"])
        d_out = int(scalars["d_out"])
        n = int(scalars["gauss_n"])
        weights = np.array(w_rows, dtype=float).reshape(d_out, d_in)
        d = mean.shape[0]
        cov = np.zeros((d, d))
        for i, row in enumerate(cov_rows):
            cov[i, : i + 1] = row
        cov = cov + np.tril(cov, -1).T
        if bias.shape != (d_out,) or d != d_out or len(cov_rows) != d:
            raise ValueError("inconsistent dimensions")
        art = ModelArtifact(
            d_in=d_in, d_out=d_out, weights=weights, bias=bias, mean=mean,
            cov=cov, n=n, ridge=float(scalars["ridge"]),
            beta_level=float(scalars["beta_level"]), beta_a=float(scalars["beta_a"]),
            beta_b=float(scalars["beta_b"]), v_beta=float(scalars["v_beta"]),
            seed=int(scalars["seed"]), config_hash=scalars["config_hash"])
        if not all(np.all(np.isfinite(v)) for v in (weights, bias, mean, cov, art.ridge)):
            raise ValueError("non-finite values")
        if art.ridge < 0:
            raise ValueError(f"ridge {art.ridge} must be non-negative")
        if n <= d + 1:
            raise ValueError(f"gauss_n {n} must exceed d+1 = {d + 1}")
        if (art.beta_a, art.beta_b) != (d / 2, (n - d) / 2):
            raise ValueError(f"Beta shapes must be d/2 = {d / 2} and (n-d)/2 = {(n - d) / 2}")
        if not (0 < art.v_beta < 1 and 0 < art.beta_level < 1):
            raise ValueError("v_beta and beta_level must lie in (0, 1)")
        return art
    except (KeyError, ValueError, AttributeError) as exc:
        raise ParseError(f"{path}: malformed artifact ({exc})") from exc
