"""Command-line front-end: synth, train, infer, evaluate, diagnose, ablate.

Exit codes: 0 success, 2 usage/config, 3 data errors, 4 numerical
failures.  All randomness flows from --seed; rerunning any subcommand
with the same flags reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

from . import data as data_mod
from . import diagnostics, metrics, trainer
from .errors import ConfigError, DataError, NumericalError
from .linalg import fit_gaussian
from .mahalanobis import DecisionThreshold, calibrate, scores
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_LOSS_FLAGS = {"mah": "mah", "mah-mean": "mah_mean", "cosine": "cosine"}


def _config_tokens(path) -> list[str]:
    """Each key=value line of a config file as one --key=value token."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    return tokens


def _checked(cast, ok, requirement: str):
    """argparse type that also rejects a value failing ok: exit 2, before any work."""
    def parse(text):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"{text!r} {requirement}")
        return value
    parse.__name__ = cast.__name__  # keeps argparse's "invalid int value" wording
    return parse


_LEVEL = _checked(float, lambda v: 0 < v < 1, "must lie in (0, 1)")
_RATE = _checked(float, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_COUNT = _checked(int, lambda v: v >= 1, "must be at least 1")
_EPOCHS = _checked(int, lambda v: v >= 0, "must be non-negative")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         "must be finite and non-negative")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mahaclass")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value file; flags override its values")

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(p)
    p.add_argument("--output", required=True)
    p.add_argument("--d-in", type=_COUNT, default=32)
    p.add_argument("--n-target", type=_COUNT, default=2000)
    p.add_argument("--m-non-target", type=_COUNT, default=8000)
    p.add_argument("--manifold-dim", type=_COUNT, default=8)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--separation", type=_POSITIVE, default=3.0)

    def train_flags(p):
        p.add_argument("--batch-size", type=_COUNT, default=16)
        p.add_argument("--window-mult", type=_COUNT, default=100)
        p.add_argument("--epochs", type=_EPOCHS, default=1)
        p.add_argument("--lr", type=_POSITIVE, default=1e-3)
        p.add_argument("--ridge", type=_NON_NEGATIVE, default=1e-6)
        p.add_argument("--proj-dim", type=_COUNT, default=64)
        p.add_argument("--fpr-cap", type=_RATE, default=1.0,
                       help="highest dev false positive rate calibration may pick; "
                            "1 caps nothing")
        p.add_argument("--beta-level", type=_LEVEL, default=None,
                       help="fixed quantile level; skips dev-set calibration")

    p = sub.add_parser("train", help="train, calibrate on dev, save the model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model artifact path")
    p.add_argument("--log", help="optional training-log path")
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="mah-mean")
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
    p.add_argument("--k", type=_COUNT, default=3)

    p = sub.add_parser("ablate", help="loss x decision-head comparison grid")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    train_flags(p)
    p.add_argument("--mlp-epochs", type=_EPOCHS, default=50)
    return parser


def _config_hash(args) -> str:
    keys = sorted(k for k in vars(args)
                  if k not in ("command", "config", "input", "output", "log"))
    text = ";".join(f"{k}={getattr(args, k)}" for k in keys)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


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


def _split(args):
    """The train, dev and test parts of --input.  Only the parts are kept,
    so the whole set is freed before training."""
    return data_mod.split(data_mod.load_dataset(args.input), seed=args.seed)


def _train_and_calibrate(train_ds, dev_ds, loss, args):
    cfg = TrainConfig(loss_kind=_LOSS_FLAGS[loss], batch_size=args.batch_size,
                      window_multiplier=args.window_mult, learning_rate=args.lr,
                      epochs=args.epochs, ridge=args.ridge, proj_dim=args.proj_dim,
                      seed=args.seed)  # train() caps proj_dim at the input width
    head, model, log = trainer.train(train_ds, cfg)
    if args.beta_level is not None:
        thr = DecisionThreshold.for_model(model, args.beta_level)
    else:
        thr = calibrate(model, data_mod.finite_projection(head, dev_ds.vectors, dev_ds.ids),
                        dev_ds.labels, args.fpr_cap)
    return data_mod.Detector.of(head, model, thr, args.seed, _config_hash(args)), log


def _evaluate(det: data_mod.Detector, z, labels) -> metrics.MetricsReport:
    """Metrics of det's decisions on the rows z, already projected by det."""
    t_values = scores(det.gaussian, z)
    report = metrics.score((t_values < det.v_beta).astype(int), labels)
    report.auc = metrics.roc_auc(-t_values, labels)
    return report


def cmd_train(args) -> int:
    train_ds, dev_ds, _ = _split(args)
    det, log = _train_and_calibrate(train_ds, dev_ds, args.loss, args)
    try:  # a failing run writes nothing, so the dev split is scored first
        report = _evaluate(det, det.project(dev_ds.vectors, dev_ds.ids), dev_ds.labels)
    except NumericalError as exc:
        raise NumericalError(f"dev split: {exc}") from exc
    data_mod.save_model(det, args.output)
    if args.log:
        try:
            trainer.write_training_log(log, args.log)
        except OSError:
            os.remove(args.output)  # a run that fails writes nothing
            raise
    print(f"model written to {args.output} (beta={det.beta_level:.6g}, "
          f"v_beta={det.v_beta:.6g})")
    print("dev metrics:")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_infer(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    det = data_mod.load_model(args.model)
    t_values = det.scores(dataset.vectors).tolist()
    with open(args.output, "w", encoding="utf-8") as fh:
        for rid, t in zip(dataset.ids, t_values):
            fh.write(f"{rid}\t{int(t < det.v_beta)}\t{t:.17g}\n")
    print(f"wrote {len(dataset)} decisions to {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    det = data_mod.load_model(args.model)
    report = _evaluate(det, det.project(dataset.vectors), dataset.labels)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    dataset = data_mod.load_dataset(args.input)
    det = data_mod.load_model(args.model) if args.model else None
    vectors = dataset.vectors if det is None else det.project(dataset.vectors)
    if args.k > vectors.shape[1]:
        raise ConfigError(f"--k {args.k} exceeds the {'input' if det is None else 'projected'} "
                          f"dimension {vectors.shape[1]}")
    try:  # fit the raw target class before any report is written
        model = fit_gaussian(dataset.target_vectors(), ridge=1e-6) if det is None else det.gaussian
    except NumericalError as exc:
        raise NumericalError(f"class 1 (target): {exc}") from exc
    reports = diagnostics.normality_report(vectors, dataset.labels, k=args.k)
    with open(args.output + ".normality.tsv", "w", encoding="utf-8") as fh:
        fh.write("label\tn\tk\thz\t" +
                 "\t".join(f"ad_{j + 1}" for j in range(args.k)) + "\n")
        for r in reports:
            fh.write(f"{r.class_label}\t{r.n}\t{r.k}\t{r.hz:.17g}\t"
                     + "\t".join(f"{a:.17g}" for a in r.ad_per_dim) + "\n")

    # Q-Q data for the first reduced dimension of each class
    with open(args.output + ".qq.tsv", "w", encoding="utf-8") as fh:
        fh.write("label\ttheoretical\tsample\n")
        for r in reports:
            for theo, samp in diagnostics.emit_qq(r.points[:, 0]):
                fh.write(f"{r.class_label}\t{theo:.17g}\t{samp:.17g}\n")

    with open(args.output + ".dist.tsv", "w", encoding="utf-8") as fh:
        fh.write("id\tlabel\td2\n")
        for rid, label, d2 in diagnostics.emit_distance_report(dataset.ids, dataset.labels,
                                                               vectors, model):
            fh.write(f"{rid}\t{label}\t{d2:.17g}\n")
    print(f"wrote {args.output}.normality.tsv, .qq.tsv, .dist.tsv")
    return EXIT_OK


def cmd_ablate(args) -> int:
    train_ds, dev_ds, test_ds = _split(args)
    if args.proj_dim >= train_ds.d_in:  # train() would give every loss the identity head
        raise ConfigError(f"--proj-dim {args.proj_dim} is not below d_in {train_ds.d_in}: "
                          "the head is the identity, so the losses have nothing to compare")
    rows = []
    for loss_flag in ("mah", "mah-mean", "cosine"):
        det, _ = _train_and_calibrate(train_ds, dev_ds, loss_flag, args)
        z_test = det.project(test_ds.vectors, test_ds.ids)
        rows.append((loss_flag, "beta", _evaluate(det, z_test, test_ds.labels)))
        mlp = trainer.train_mlp(det.project(train_ds.vectors, train_ds.ids), train_ds.labels,
                                epochs=args.mlp_epochs, seed=args.seed)
        rows.append((loss_flag, "mlp", metrics.score(mlp.predict(z_test), test_ds.labels)))
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
        if args.config:
            # the file's flags go first, so the command line's own flags win
            try:
                args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
            except SystemExit as exc:  # argparse has printed the usage error
                return exc.code
        return _COMMANDS[args.command](args)
    except (ConfigError, DataError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, ConfigError) else
                EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
