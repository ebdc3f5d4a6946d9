"""Command-line front-end: synth, train, infer, evaluate, diagnose, ablate.

Exit codes: 0 success, 2 usage/config, 3 data errors, 4 numerical
failures.  All randomness flows from --seed; rerunning any subcommand
with the same flags reproduces its output byte for byte.

Each command is its own process, so this module imports at its top only
what every command needs: the parser and ``data``'s dataset half.  A
command imports the model, training, metrics and report modules inside
the functions that use them, so ``synth`` loads none of them and
``infer``, ``evaluate`` and ``diagnose`` load no training code.
``entry`` freezes the heap the imports built (``gc.freeze``), so that no
later collection walks it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import data as data_mod
from .data import LOSS_KINDS, TrainConfig
from .errors import ConfigError, DataError, NumericalError
from .seeds import SEED_LIMIT

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_LOSS_FLAGS = {kind.replace("_", "-"): kind for kind in LOSS_KINDS}


def _config_tokens(argv) -> list[str]:
    """A --key=value token for each key=value line of the file a command's
    --config names, read before the full parse so that it can supply required
    flags; none without the flag or without its value, which that parse reports."""
    if not argv or argv[0] not in _COMMANDS:  # the full parse reports a missing command
        return []
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return []
    if not path:
        return []
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
_MIXTURE = _checked(int, lambda v: v >= 2, "must be at least 2")
_EPOCHS = _checked(int, lambda v: v >= 0, "must be non-negative")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         "must be finite and non-negative")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and positive")
_SEED = _checked(int, lambda v: 0 <= v < SEED_LIMIT, "must lie in [0, 2**63)")
# (argparse dest, config field, type) of the flags that set a SynthConfig
# or TrainConfig field, whose default is that field's
_SYNTH_FLAGS = (("d_in", "d_in", _COUNT), ("n_target", "n_target", _COUNT),
                ("m_non_target", "m_non_target", _COUNT), ("manifold_dim", "manifold_dim", _COUNT),
                ("components", "components", _MIXTURE), ("separation", "separation", _POSITIVE))
_TRAIN_FLAGS = (("batch_size", "batch_size", _COUNT), ("window_mult", "window_multiplier", _COUNT),
                ("epochs", "epochs", _EPOCHS), ("lr", "learning_rate", _POSITIVE),
                ("ridge", "ridge", _NON_NEGATIVE), ("proj_dim", "proj_dim", _COUNT))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mahaclass")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--config", help="key=value file; flags override its values")

    def config_flags(p, config, flags):
        for dest, field, kind in flags:
            p.add_argument("--" + dest.replace("_", "-"), type=kind, default=getattr(config, field))

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(p)
    p.add_argument("--output", required=True)
    config_flags(p, data_mod.SynthConfig, _SYNTH_FLAGS)

    def train_flags(p):
        config_flags(p, TrainConfig, _TRAIN_FLAGS)
        level = p.add_mutually_exclusive_group()  # a fixed level skips calibration
        level.add_argument("--fpr-cap", type=_RATE, default=1.0,
                           help="highest dev false positive rate calibration may pick; "
                                "1 caps nothing")
        level.add_argument("--beta-level", type=_LEVEL, default=None,
                           help="fixed quantile level; skips dev-set calibration")

    p = sub.add_parser("train", help="train, calibrate on dev, save the model")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model artifact path")
    p.add_argument("--log", help="optional training-log path")
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS),
                   default=TrainConfig.loss_kind.replace("_", "-"))
    train_flags(p)

    for name, help_text in (("infer", "per-instance decisions and statistics"),
                            ("evaluate", "metrics report on a labeled set")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        for flag in ("--model", "--input", "--output"):
            p.add_argument(flag, required=True)

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


@contextlib.contextmanager
def _replacing(path):
    """The name the block should write path's contents to.  When path is a
    regular file (a symlink's target counts) or not there yet, that is a
    temporary file beside it, which replaces it when the block completes
    and is removed when the block raises, so a failing run leaves path as
    it was; it gets the mode ``open(path, "w")`` would give it.  Anything
    else (/dev/null, a FIFO, a directory) is path itself, written as
    ``open`` would write it."""
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            yield path
            return
        mode = stat.S_IMODE(st.st_mode)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
    except OSError as exc:  # name the file the user gave, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        os.fchmod(fd, mode)
        os.close(fd)
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _config_hash(args) -> str:
    import hashlib  # only train and ablate hash; see seeds.rng_for

    keys = sorted(k for k in vars(args)
                  if k not in ("command", "config", "input", "output", "log"))
    text = ";".join(f"{k}={getattr(args, k)}" for k in keys)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cmd_synth(args) -> int:
    ds = data_mod.synth_benchmark(data_mod.SynthConfig(
        seed=args.seed, **{field: getattr(args, dest) for dest, field, _ in _SYNTH_FLAGS}))
    with _replacing(args.output) as tmp:
        data_mod.save_dataset(ds, tmp)
    print(f"wrote {len(ds)} records (dim {ds.d_in}, "
          f"{ds.n_target} target / {ds.m_non_target} non-target) to {args.output}")
    return EXIT_OK


def _train_and_calibrate(train_ds, dev_ds, loss, args):
    """The trained Detector, its training log and the T of each dev row,
    which calibration (without --beta-level) picks the threshold from."""
    from . import trainer
    from .mahalanobis import DecisionThreshold, calibrate_scores, null_beta_params

    if not (dev_ds.n_target and dev_ds.m_non_target):
        raise NumericalError("dev split: both classes must be present")
    cfg = TrainConfig(loss_kind=_LOSS_FLAGS[loss], seed=args.seed,  # train() caps proj_dim at d_in
                      **{field: getattr(args, dest) for dest, field, _ in _TRAIN_FLAGS})
    head, model, log = trainer.train(train_ds, cfg)
    try:
        dev_t = data_mod.finite_projection(head, dev_ds.vectors, dev_ds.ids, model)
    except NumericalError as exc:
        raise NumericalError(f"dev split: {exc}") from exc
    if args.beta_level is not None:
        thr = DecisionThreshold.for_model(model, args.beta_level)
    else:
        thr = calibrate_scores(null_beta_params(model), dev_t, dev_ds.labels, args.fpr_cap)
    return data_mod.Detector.of(head, model, thr, args.seed, _config_hash(args)), log, dev_t


def cmd_train(args) -> int:
    from .trainer import write_training_log

    if args.log and os.path.realpath(args.log) == os.path.realpath(args.output) and (
            os.path.isfile(args.output) or not os.path.exists(args.output)):  # not /dev/null
        raise ConfigError(f"--log and --output name the same file {args.output}")
    train_ds, dev_ds, _ = data_mod.split(data_mod.load_dataset(args.input), seed=args.seed)
    det, log, dev_t = _train_and_calibrate(train_ds, dev_ds, args.loss, args)
    report = det.report(dev_t, dev_ds.labels)
    with _replacing(args.output) as model_tmp:
        data_mod.save_model(det, model_tmp)
        if args.log:
            with _replacing(args.log) as log_tmp:
                write_training_log(log, log_tmp)
    print(f"model written to {args.output} (beta={det.beta_level!r}, v_beta={det.v_beta!r})")
    print("dev metrics:")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_infer(args) -> int:
    det = data_mod.load_model(args.model)
    n = 0
    with _replacing(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for chunk in data_mod.read_chunks(args.input):
            t_values = det.scores(chunk.vectors, chunk.ids)
            fh.write("".join(f"{rid}\t{d}\t{t:.17g}\n" for rid, d, t in zip(
                chunk.ids, det.decide(t_values).tolist(), t_values.tolist())))
            n += len(chunk)
    print(f"wrote {n} decisions to {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    det = data_mod.load_model(args.model)
    t_values, labels = [], []
    for chunk in data_mod.read_chunks(args.input):
        t_values.append(det.scores(chunk.vectors, chunk.ids))
        labels.append(chunk.labels)
    report = det.report(np.concatenate(t_values), np.concatenate(labels))
    with _replacing(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    from . import diagnostics  # no other command needs it
    from .linalg import fit_gaussian

    dataset = data_mod.load_dataset(args.input)
    det = data_mod.load_model(args.model) if args.model else None
    ids, labels = dataset.ids, dataset.labels
    vectors = dataset.vectors if det is None else det.project(dataset.vectors, ids)
    if args.k > vectors.shape[1]:
        raise ConfigError(f"--k {args.k} exceeds the {'input' if det is None else 'projected'} "
                          f"dimension {vectors.shape[1]}")
    try:  # fit the raw target class before any report is written
        model = fit_gaussian(dataset.target_vectors()) if det is None else det.gaussian
    except NumericalError as exc:
        raise NumericalError(f"class 1 (target): {exc}") from exc
    del dataset  # with --model, the raw rows are not needed once projected
    reports = diagnostics.normality_report(vectors, labels, k=args.k)
    # nested, so no report replaces its path unless all three are written
    with (_replacing(args.output + ".normality.tsv") as normality_tmp,
          _replacing(args.output + ".qq.tsv") as qq_tmp,
          _replacing(args.output + ".dist.tsv") as dist_tmp):
        with open(normality_tmp, "w", encoding="utf-8") as fh:
            diagnostics.emit_normality_report(fh, reports, args.k)
        with open(qq_tmp, "w", encoding="utf-8") as fh:
            diagnostics.emit_qq(fh, reports)
        with open(dist_tmp, "w", encoding="utf-8") as fh:
            diagnostics.emit_distance_report(fh, ids, labels, vectors, model)
    print(f"wrote {args.output}.normality.tsv, .qq.tsv, .dist.tsv")
    return EXIT_OK


def cmd_ablate(args) -> int:
    from . import metrics, trainer

    train_ds, dev_ds, test_ds = data_mod.split(data_mod.load_dataset(args.input), seed=args.seed)
    if args.proj_dim >= train_ds.d_in:  # train() would give every loss the identity head
        raise ConfigError(f"--proj-dim {args.proj_dim} is not below d_in {train_ds.d_in}: "
                          "the head is the identity, so the losses have nothing to compare")
    rows = []
    for loss_flag in _LOSS_FLAGS:
        det, _, _ = _train_and_calibrate(train_ds, dev_ds, loss_flag, args)
        t_values = det.scores(test_ds.vectors, test_ds.ids)  # decisions only: no AUC column
        rows.append((loss_flag, "beta", metrics.score(det.decide(t_values), test_ds.labels)))
        mlp = trainer.train_mlp(det.project(train_ds.vectors, train_ds.ids), train_ds.labels,
                                epochs=args.mlp_epochs, seed=args.seed)
        rows.append((loss_flag, "mlp", metrics.score(
            mlp.predict(det.project(test_ds.vectors, test_ds.ids)), test_ds.labels)))
    with _replacing(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
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
    """The exit code of every outcome of argv, argparse's usage errors and -h included."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        tokens = _config_tokens(argv)  # placed first, so the command line's own flags win
        try:
            args = build_parser().parse_args(argv[:1] + tokens + argv[1:])
        except SystemExit as exc:  # argparse has printed its usage error or help
            return exc.code
        return _COMMANDS[args.command](args)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, DataError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, ConfigError) else
                EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA)


def entry() -> None:
    """The console script and ``python -m mahaclass.cli``.  The objects the
    imports made live as long as the process, so ``gc.freeze`` moves them
    out of every later collection, the one at exit included.  ``main``
    leaves the collector alone, because callers run it in process."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
