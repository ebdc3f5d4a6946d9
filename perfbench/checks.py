"""Output checks against references computed here, independently of the
package: own parsers for the dataset, artifact and report formats, and
the closed-form decision statistic in numpy/scipy.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betaincinv, log_ndtr, ndtri
from scipy.stats import mannwhitneyu

# Relative tolerance of a recomputed statistic.  Reordered arithmetic may
# move the last bits of T, never more than this.
RTOL = 1e-7
ATOL = 1e-12
# Quality floors on the held-out set; a query set drawn with the wrong
# class geometry scores recall near 0 and fails them.
F1_FLOOR = 0.8
RECALL_FLOOR = 0.8
NULL_LEVEL = 0.95
# Every DIAG_SAMPLE_EVERY-th distance row (in id order) is recomputed.
DIAG_SAMPLE_EVERY = 10
# Relative tolerance of the recomputed normality statistics.  HZ and AD do
# not depend on the rotation or sign the PCA picks, so only summation order
# separates the package from the reference.
NORMALITY_RTOL = 1e-9
HZ_BLOCK_ROWS = 512  # rows of the n x n kernel sum evaluated at once


def read_dataset(path):
    """(ids, labels, vectors) of a dataset TSV."""
    ids, labels, rows = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rid, label, vec = line.rstrip("\n").split("\t")
            ids.append(rid)
            labels.append(int(label))
            rows.append(np.array(vec.split(), dtype=float))
    return ids, np.array(labels, dtype=int), np.vstack(rows)


def read_model(path) -> dict:
    """The artifact's fields: W, b, mean, full cov and the scalars."""
    m = {"w": [], "cov": []}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("mahaclass-model ") or lines[-1] != "end":
        raise ValueError(f"{path}: not a complete model artifact")
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        if key in ("w", "cov"):
            m[key].append([float(t) for t in rest.split()])
        elif key in ("bias", "mean"):
            m[key] = np.array(rest.split(), dtype=float)
        else:
            m[key] = rest
    d = len(m["mean"])
    cov = np.zeros((d, d))
    for i, row in enumerate(m["cov"]):
        cov[i, : i + 1] = row
    m["cov"] = cov + np.tril(cov, -1).T
    m["w"] = np.array(m["w"], dtype=float)
    for key in ("ridge", "beta_level", "beta_a", "beta_b", "v_beta"):
        m[key] = float(m[key])
    m["n"] = int(m["gauss_n"])
    return m


def project(model: dict, x: np.ndarray) -> np.ndarray:
    return x @ model["w"].T + model["bias"]


def _whitened_sq_norms(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(a)
    z = solve_triangular(chol, delta.T, lower=True, check_finite=False)
    return np.sum(z * z, axis=0)


def reference_T(model: dict, x: np.ndarray) -> np.ndarray:
    """Normalized statistic of each row appended to the class statistics.

    With A = (n-1)/n * Sigma + ridge*I and q = delta^T A^-1 delta,
    Sherman-Morrison gives d2 = (n/(n+1))^2 * q / (1 + q/(n+1)) and
    T = (n+1)/n^2 * d2, clipped to [0, 1].
    """
    n, d = model["n"], len(model["mean"])
    a = (n - 1) / n * model["cov"] + model["ridge"] * np.eye(d)
    q = _whitened_sq_norms(a, project(model, x) - model["mean"])
    d2 = (n / (n + 1)) ** 2 * q / (1.0 + q / (n + 1))
    return np.clip((n + 1) / n**2 * d2, 0.0, 1.0)


def reference_sq_mahalanobis(model: dict, x: np.ndarray) -> np.ndarray:
    """delta^T (Sigma + ridge*I)^-1 delta of each projected row, no append."""
    d = len(model["mean"])
    a = model["cov"] + model["ridge"] * np.eye(d)
    return np.maximum(_whitened_sq_norms(a, project(model, x) - model["mean"]), 0.0)


def near(a, b) -> np.ndarray:
    return np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * np.abs(b) + ATOL


def read_infer(path):
    """(ids, decisions, T) of an infer output file."""
    ids, preds, ts = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rid, pred, t = line.rstrip("\n").split("\t")
            ids.append(rid)
            preds.append(int(pred))
            ts.append(float(t))
    return ids, np.array(preds, dtype=int), np.array(ts)


def read_report(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("\t")
            out[key] = value
    return out


def check_model(model: dict, d_in: int) -> list[str]:
    """Artifact shapes, finiteness and the Beta threshold it carries."""
    errs = []
    d = len(model["mean"])
    n = model["n"]
    if model["w"].shape != (min(64, d_in), d_in) or model["bias"].shape != (d,):
        errs.append(f"model: projection shape {model['w'].shape}, bias {model['bias'].shape}")
    arrays = (model["w"], model["bias"], model["mean"], model["cov"])
    if not all(np.all(np.isfinite(v)) for v in arrays):
        errs.append("model: non-finite values")
    if not (math.isclose(model["beta_a"], d / 2) and math.isclose(model["beta_b"], (n - d) / 2)):
        errs.append(f"model: Beta shapes ({model['beta_a']}, {model['beta_b']}) "
                    f"do not match n={n}, d={d}")
    elif not 0.0 < model["v_beta"] < 1.0:
        errs.append(f"model: v_beta {model['v_beta']} outside (0, 1)")
    else:
        v_ref = betaincinv(d / 2, (n - d) / 2, model["beta_level"])
        if not abs(model["v_beta"] - v_ref) <= 1e-9:
            errs.append(f"model: v_beta {model['v_beta']!r} is not the "
                        f"{model['beta_level']} quantile {float(v_ref)!r}")
    return errs


def check_infer(path, model: dict, ids, t_ref: np.ndarray) -> list[str]:
    """Every row's T against the reference; each decision equals
    T < v_beta except within the tolerance of v_beta."""
    out_ids, preds, ts = read_infer(path)
    if out_ids != ids:
        return [f"{path}: {len(out_ids)} rows whose ids differ from the {len(ids)} queries"]
    errs = []
    bad = ~near(ts, t_ref)
    if bad.any():
        i = int(np.argmax(bad))
        errs.append(f"{path}: {int(bad.sum())} T values off the reference, "
                    f"first {out_ids[i]}: {float(ts[i])!r} vs {float(t_ref[i])!r}")
    return errs + [f"{path}: {e}" for e in check_decisions(preds, model, t_ref)]


def check_decisions(decisions, model: dict, t_ref: np.ndarray) -> list[str]:
    """Decisions (in query order) equal T < v_beta, except within the
    tolerance of v_beta."""
    d = np.asarray(decisions, dtype=int)
    t = t_ref[: len(d)]
    v = model["v_beta"]
    flipped = (d != (t < v)) & ~near(t, v)
    if flipped.any():
        return [f"{int(flipped.sum())} of {len(d)} decisions disagree with T < v_beta, "
                f"first at row {int(np.argmax(flipped))}"]
    return []


def reference_report(preds: np.ndarray, labels: np.ndarray, t_ref: np.ndarray) -> dict:
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    ratio = (lambda a, b: a / b if b else 0.0)
    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    auc = mannwhitneyu(-t_ref[labels == 1], -t_ref[labels == 0]).statistic / (
        int(np.sum(labels == 1)) * int(np.sum(labels == 0)))
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "accuracy": ratio(tp + tn, len(labels)), "precision": precision,
            "recall": recall, "f1": ratio(2 * precision * recall, precision + recall),
            "fpr": ratio(fp, fp + tn), "auc": float(auc)}


def check_evaluate(path, ref: dict) -> list[str]:
    """Confusion counts exactly, ratios to their printed 6 decimals."""
    got = read_report(path)
    errs = [f"{path}: {k} = {got[k]}, expected {ref[k]}"
            for k in ("tp", "fp", "tn", "fn") if int(got[k]) != ref[k]]
    return errs + [f"{path}: {k} = {got[k]}, expected {ref[k]:.6f}"
                   for k in ("accuracy", "precision", "recall", "f1", "fpr", "auc")
                   if not abs(float(got[k]) - ref[k]) <= 1e-6]


def check_quality(ref: dict) -> list[str]:
    errs = []
    if not ref["f1"] >= F1_FLOOR:
        errs.append(f"held-out f1 {ref['f1']:.4f} below the floor {F1_FLOOR}")
    if not ref["recall"] >= RECALL_FLOOR:
        errs.append(f"held-out target recall {ref['recall']:.4f} below the floor {RECALL_FLOOR}")
    return errs


def null_reject_err(model: dict, labels: np.ndarray, t_ref: np.ndarray) -> float:
    """|share of target queries with T at or above the Beta(d/2, (n-d)/2)
    0.95 quantile - 0.05|: the distance from the nominal false-negative
    rate that the closed-form threshold promises."""
    n, d = model["n"], len(model["mean"])
    v = betaincinv(d / 2, (n - d) / 2, NULL_LEVEL)
    return abs(float(np.mean(t_ref[labels == 1] >= v)) - (1.0 - NULL_LEVEL))


def pca_points(x: np.ndarray, k: int) -> np.ndarray:
    """Centered rows in the top-k principal basis, from their own SVD."""
    xc = x - x.mean(axis=0)
    return xc @ np.linalg.svd(xc, full_matrices=False)[2][:k].T


def reference_hz(points: np.ndarray) -> float:
    """Henze-Zirkler statistic with the MLE covariance and the canonical
    bandwidth, from whitened rows; the n x n kernel sum is taken in row
    blocks, so the full matrix is never held."""
    n, d = points.shape
    xc = points - points.mean(axis=0)
    chol = np.linalg.cholesky(xc.T @ xc / n)
    z = solve_triangular(chol, xc.T, lower=True, check_finite=False).T
    sq = np.sum(z * z, axis=1)
    b2 = ((n * (2 * d + 1) / 4.0) ** (1.0 / (d + 4))) ** 2 / 2.0
    kernel = 0.0
    for i in range(0, n, HZ_BLOCK_ROWS):
        zb = z[i: i + HZ_BLOCK_ROWS]
        pair = np.maximum(sq[i: i + HZ_BLOCK_ROWS, None] + sq[None, :] - 2.0 * zb @ z.T, 0.0)
        kernel += float(np.exp(-0.5 * b2 * pair).sum())
    term2 = 2.0 * (1.0 + b2) ** (-d / 2.0) * np.mean(np.exp(-b2 * sq / (2.0 * (1.0 + b2))))
    return n * (kernel / n**2 - term2 + (1.0 + 2.0 * b2) ** (-d / 2.0))


def reference_ad(samples: np.ndarray) -> float:
    """Anderson-Darling A^2 against the normal with the sample mean and
    standard deviation (ddof=1), in log space."""
    n = len(samples)
    w = np.sort((samples - samples.mean()) / samples.std(ddof=1))
    i = np.arange(1, n + 1)
    return float(-n - np.sum((2 * i - 1) * (log_ndtr(w) + log_ndtr(-w[::-1]))) / n)


def reference_qq(samples: np.ndarray) -> np.ndarray:
    """(theoretical, sample) normal Q-Q pairs of one component; the
    component's sign is arbitrary, so the caller also tries its mirror."""
    n = len(samples)
    z = np.sort((samples - samples.mean()) / samples.std(ddof=1))
    return np.column_stack([ndtri((np.arange(1, n + 1) - 0.5) / n), z])


def check_diagnose(prefix, model: dict, ids, labels, x: np.ndarray) -> list[str]:
    """Distance rows on a fixed sample, and every class's HZ, AD and Q-Q
    rows, against the references."""
    errs = []
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    with open(f"{prefix}.dist.tsv", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    if [r[0] for r in rows] != [ids[i] for i in order]:
        errs.append(f"{prefix}.dist.tsv: ids are not the input ids in sorted order")
    else:
        sample = range(0, len(rows), DIAG_SAMPLE_EVERY)
        pick = order[::DIAG_SAMPLE_EVERY]
        got = np.array([float(rows[j][2]) for j in sample])
        lab = np.array([int(rows[j][1]) for j in sample])
        ref = reference_sq_mahalanobis(model, x[pick])
        if not np.array_equal(lab, labels[pick]):
            errs.append(f"{prefix}.dist.tsv: labels differ from the input")
        bad = ~near(got, ref)
        if bad.any():
            i = int(np.argmax(bad))
            errs.append(f"{prefix}.dist.tsv: {int(bad.sum())} of {len(got)} sampled d2 "
                        f"off the reference, first {float(got[i])!r} vs {float(ref[i])!r}")
    projected = project(model, x)
    classes = sorted(set(labels.tolist()))
    with open(f"{prefix}.normality.tsv", encoding="utf-8") as fh:
        norm = [line.rstrip("\n").split("\t") for line in fh][1:]
    counts = [(str(c), int(np.sum(labels == c))) for c in classes]
    if [(r[0], int(r[1])) for r in norm] != counts:
        errs.append(f"{prefix}.normality.tsv: class rows {[(r[0], r[1]) for r in norm]}, "
                    f"expected {counts}")
    else:
        for row, c in zip(norm, classes):
            k = int(row[2])
            got = np.array([float(v) for v in row[3:]])
            red = pca_points(projected[labels == c], k)
            ref = np.array([reference_hz(red)] + [reference_ad(red[:, j]) for j in range(k)])
            if got.shape != ref.shape or not np.all(
                    np.abs(got - ref) <= NORMALITY_RTOL * np.abs(ref)):
                errs.append(f"{prefix}.normality.tsv: class {c} HZ, AD {got.tolist()} "
                            f"vs reference {ref.tolist()}")
    with open(f"{prefix}.qq.tsv", encoding="utf-8") as fh:
        qq = [line.rstrip("\n").split("\t") for line in fh][1:]
    for c in classes:
        got = np.array([[float(v) for v in r[1:]] for r in qq if r[0] == str(c)])
        ref = reference_qq(pca_points(projected[labels == c], 1)[:, 0])
        mirror = np.column_stack([ref[:, 0], -ref[::-1, 1]])
        if got.shape != ref.shape or not (np.all(near(got, ref)) or np.all(near(got, mirror))):
            errs.append(f"{prefix}.qq.tsv: class {c} Q-Q rows off the reference")
    return errs


def check_identical(paths) -> list[str]:
    """Repeated invocations with the same seed must write the same bytes."""
    paths = [Path(p) for p in paths]
    if not paths:
        return []
    first = paths[0].read_bytes()
    return [f"{p} differs from {paths[0]}" for p in paths[1:] if p.read_bytes() != first]
