"""Command-line front-end: synth, train, infer, evaluate, diagnose, ablate.

Exit codes: 0 success, 2 usage/config, 3 data errors, 4 numerical
failures.  All randomness flows from --seed; rerunning any subcommand
with the same flags reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data as data_mod
from . import diagnostics, metrics, trainer
from .betadist import BetaParams
from .errors import ConfigError, DataError, NotPositiveDefinite, NumericalError, ParseError
from .linalg import GaussianModel, cholesky, fit_gaussian
from .mahalanobis import DecisionThreshold, calibrate, scores
from .trainer import ProjectionHead, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_LOSS_FLAGS = {"mah": "mah", "mah-mean": "mah_mean", "cosine": "cosine"}


def _read_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mahaclass")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value file; flags override its values")

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(p)
    p.add_argument("--output", required=True)
    p.add_argument("--d-in", type=int, default=32)
    p.add_argument("--n-target", type=int, default=2000)
    p.add_argument("--m-non-target", type=int, default=8000)
    p.add_argument("--manifold-dim", type=int, default=8)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--separation", type=float, default=3.0)

    def train_flags(p):
        p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="mah-mean")
        p.add_argument("--batch-size", type=int, default=16)
        p.add_argument("--window-mult", type=int, default=100)
        p.add_argument("--epochs", type=int, default=1)
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--ridge", type=float, default=1e-6)
        p.add_argument("--proj-dim", type=int, default=64)
        p.add_argument("--calibrate", choices=["f1", "f1-fpr-cap"], default="f1")
        p.add_argument("--fpr-cap", type=float, default=0.05)
        p.add_argument("--beta-level", type=float, default=None,
                       help="fixed quantile level; skips dev-set calibration")

    p = sub.add_parser("train", help="train, calibrate on dev, save the model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model artifact path")
    p.add_argument("--log", help="optional training-log path")
    p.add_argument("--refit-full", action="store_true",
                   help="refit covariance on all target training points "
                        "instead of the final sliding-window model")
    train_flags(p)

    p = sub.add_parser("infer", help="per-instance decisions and statistics")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("evaluate", help="metrics report on a labeled set")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("diagnose", help="normality, Q-Q and distance reports")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="prefix for report files")
    p.add_argument("--model", help="optional model artifact; raw vectors otherwise")
    p.add_argument("--k", type=int, default=3)

    p = sub.add_parser("ablate", help="loss x decision-head comparison grid")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    train_flags(p)
    p.add_argument("--mlp-epochs", type=int, default=50)
    return parser


def _apply_config_file(parser, args, argv):
    if getattr(args, "config", None):
        values = _read_config_file(args.config)
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        flag_map = {a.dest: a for a in sub.choices[args.command]._actions}
        for key, raw in values.items():
            dest = key.replace("-", "_")
            if dest not in flag_map or dest in ("config", "command"):
                raise ConfigError(f"unknown config key {key!r}")
        # flags explicitly present on the command line win
        explicit = {t.split("=")[0].lstrip("-").replace("-", "_")
                    for t in argv if t.startswith("--")}
        for key, raw in values.items():
            dest = key.replace("-", "_")
            if dest in explicit:
                continue
            action = flag_map[dest]
            value = action.type(raw) if action.type else raw
            if action.choices and value not in action.choices:
                raise ConfigError(f"config key {key!r}: invalid value {raw!r}")
            setattr(args, dest, value)
    return args


def _train_config(args, d_in: int) -> TrainConfig:
    return TrainConfig(loss_kind=_LOSS_FLAGS[args.loss], batch_size=args.batch_size,
                       window_multiplier=args.window_mult, learning_rate=args.lr,
                       epochs=args.epochs, ridge=args.ridge,
                       proj_dim=min(args.proj_dim, d_in), seed=args.seed)


def _config_hash(args) -> str:
    keys = sorted(k for k in vars(args)
                  if k not in ("command", "config", "input", "output", "log"))
    text = ";".join(f"{k}={getattr(args, k)}" for k in keys)
    return data_mod.config_hash(text)


def _artifact_from(head, model, thr, args) -> data_mod.ModelArtifact:
    return data_mod.ModelArtifact(
        d_in=head.d_in, d_out=head.d_out, weights=head.weights, bias=head.bias,
        mean=model.mean, cov=model.cov, n=model.n, ridge=model.ridge,
        beta_level=thr.beta_level, beta_a=thr.params.a, beta_b=thr.params.b,
        v_beta=thr.v_beta, seed=args.seed, config_hash=_config_hash(args))


def _unpack_artifact(path, dataset: data_mod.EmbeddingDataset):
    """(head, model, threshold) of a model file that can score dataset."""
    artifact = data_mod.load_model(path)
    if artifact.d_in != dataset.d_in:
        raise DataError(f"{path} takes {artifact.d_in}-dim input, "
                        f"the dataset is {dataset.d_in}-dim")
    head = ProjectionHead(weights=artifact.weights, bias=artifact.bias)
    d = artifact.mean.shape[0]
    try:
        chol = cholesky(artifact.cov + artifact.ridge * np.eye(d))
    except NotPositiveDefinite as exc:
        raise ParseError(f"{path}: malformed artifact (cov + ridge*I is not "
                         f"positive definite)") from exc
    model = GaussianModel(mean=artifact.mean, cov=artifact.cov, chol=chol,
                          n=artifact.n, ridge=artifact.ridge)
    thr = DecisionThreshold(beta_level=artifact.beta_level,
                            params=BetaParams(artifact.beta_a, artifact.beta_b),
                            v_beta=artifact.v_beta)
    return head, model, thr


def cmd_synth(args) -> int:
    cfg = data_mod.SynthConfig(d_in=args.d_in, n_target=args.n_target,
                               m_non_target=args.m_non_target,
                               manifold_dim=args.manifold_dim,
                               components=args.components,
                               separation=args.separation, seed=args.seed)
    ds = data_mod.synth_benchmark(cfg)
    data_mod.save_dataset(ds, args.output)
    print(f"wrote {len(ds)} records (dim {ds.d_in}, "
          f"{ds.n_target} target / {ds.m_non_target} non-target) to {args.output}")
    return EXIT_OK


def _train_and_calibrate(dataset, args):
    train_ds, dev_ds, test_ds = data_mod.split(dataset, seed=args.seed)
    cfg = _train_config(args, dataset.d_in)
    head, model, log = trainer.train(train_ds, cfg)
    if getattr(args, "refit_full", False):
        model = trainer.refit_model(train_ds, head, cfg.ridge)
    if args.beta_level is not None:
        thr = DecisionThreshold.for_model(model, args.beta_level)
    else:
        thr = calibrate(model, head.project(dev_ds.vectors), dev_ds.labels,
                        objective=args.calibrate, fpr_cap=args.fpr_cap)
    return train_ds, dev_ds, test_ds, head, model, thr, log


def _evaluate(head, model, thr, dataset) -> metrics.MetricsReport:
    t_values = scores(model, head.project(dataset.vectors))
    report = metrics.score((t_values < thr.v_beta).astype(int), dataset.labels)
    report.auc = metrics.roc_auc(-t_values, dataset.labels)
    return report


def cmd_train(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    _, dev_ds, _, head, model, thr, log = _train_and_calibrate(dataset, args)
    data_mod.save_model(_artifact_from(head, model, thr, args), args.output)
    if args.log:
        trainer.write_training_log(log, args.log)
    report = _evaluate(head, model, thr, dev_ds)
    print(f"model written to {args.output} (beta={thr.beta_level:.6g}, "
          f"v_beta={thr.v_beta:.6g})")
    print("dev metrics:")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_infer(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    head, model, thr = _unpack_artifact(args.model, dataset)
    t_values = scores(model, head.project(dataset.vectors)).tolist()
    with open(args.output, "w", encoding="utf-8") as fh:
        for rid, t in zip(dataset.ids, t_values):
            fh.write(f"{rid}\t{int(t < thr.v_beta)}\t{t:.17g}\n")
    print(f"wrote {len(dataset)} decisions to {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    head, model, thr = _unpack_artifact(args.model, dataset)
    report = _evaluate(head, model, thr, dataset)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    head = model = None
    if args.model:
        head, model, _ = _unpack_artifact(args.model, dataset)
    reports = diagnostics.normality_report(dataset.vectors, dataset.labels,
                                           head=head, k=args.k)
    with open(args.output + ".normality.tsv", "w", encoding="utf-8") as fh:
        fh.write("label\tn\tk\thz\t" +
                 "\t".join(f"ad_{j + 1}" for j in range(args.k)) + "\n")
        for r in reports:
            fh.write(f"{r.class_label}\t{r.n}\t{r.k}\t{r.hz:.17g}\t"
                     + "\t".join(f"{a:.17g}" for a in r.ad_per_dim) + "\n")

    # Q-Q data for the first reduced dimension of each class
    with open(args.output + ".qq.tsv", "w", encoding="utf-8") as fh:
        fh.write("label\ttheoretical\tsample\n")
        vectors = head.project(dataset.vectors) if head else dataset.vectors
        for label in sorted(set(dataset.labels.tolist())):
            cls = vectors[dataset.labels == label]
            first = diagnostics.pca_reduce(cls, 1).points[:, 0]
            for theo, samp in diagnostics.emit_qq(first):
                fh.write(f"{label}\t{theo:.17g}\t{samp:.17g}\n")

    if model is None:
        model = fit_gaussian(dataset.target_vectors(), ridge=1e-6)
    with open(args.output + ".dist.tsv", "w", encoding="utf-8") as fh:
        fh.write("id\tlabel\td2\n")
        for rid, label, d2 in diagnostics.emit_distance_report(dataset, head, model):
            fh.write(f"{rid}\t{label}\t{d2:.17g}\n")
    print(f"wrote {args.output}.normality.tsv, .qq.tsv, .dist.tsv")
    return EXIT_OK


def cmd_ablate(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    rows = []
    for loss_flag in ("mah", "mah-mean", "cosine"):
        args.loss = loss_flag
        train_ds, dev_ds, test_ds, head, model, thr, _ = _train_and_calibrate(dataset, args)
        for decision in ("beta", "mlp"):
            if decision == "beta":
                report = _evaluate(head, model, thr, test_ds)
            else:
                mlp = trainer.train_mlp(train_ds, head, epochs=args.mlp_epochs,
                                        seed=args.seed)
                preds = mlp.predict(head.project(test_ds.vectors))
                report = metrics.score(preds, test_ds.labels)
            rows.append((loss_flag, decision, report))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("loss\tdecision\tacc\tpr\tfpr\tf1\n")
        for loss_flag, decision, r in rows:
            fh.write(f"{loss_flag}\t{decision}\t{r.accuracy:.3f}\t{r.precision:.3f}"
                     f"\t{r.fpr:.3f}\t{r.f1:.3f}\n")
    print(f"wrote {len(rows)} ablation rows to {args.output}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "infer": cmd_infer,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, args, argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
