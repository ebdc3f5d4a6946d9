#!/usr/bin/env python3
"""Check the paper's promised target-rejection rate on fresh rows: CLAIMS.tsv.

    python3 scripts/claim_study.py [--output CLAIMS.tsv]

The data is the high-d file, ``mahaclass synth --d-in 256 --n-target 300
--m-non-target 3000`` at seed 0, written to a temporary directory.  Each
cell of the grid (--proj-dim x --epochs x seeds 0..--seeds-1) is one
``mahaclass train ... --window-mult 15 --beta-level 0.9``, run through
``cli.main``, the path users run.  The saved model then scores --fresh
target rows drawn from the configured target law (``synth_target_moments``)
with ``rng_for(seed, "claims-fresh")``, and the test split of its run.

One TSV row per cell: the promised rejection 1 - beta (``repr``), the
fresh rejection rate with its 99% Clopper-Pearson bounds, the KS distance
of the fresh T to the null Beta(d/2, (n - d)/2), the test split's F1 and
AUC, and the saved v_beta (``repr``).  Rerunning gives the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

from mahaclass import cli  # noqa: E402
from mahaclass.data import SynthConfig, load_dataset, load_model, split, synth_target_moments  # noqa: E402
from mahaclass.mahalanobis import null_beta_params  # noqa: E402
from mahaclass.seeds import rng_for  # noqa: E402

TRAIN_FLAGS = ["--window-mult", "15", "--beta-level", "0.9"]
COLUMNS = ("d_in", "d_out", "epochs", "seed", "promised", "rejected", "cp99_low", "cp99_high",
           "ks", "test_f1", "test_auc", "v_beta")


def clopper_pearson(k: int, n: int, level: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial interval for k successes in n trials."""
    tail = (1 - level) / 2
    low = stats.beta.ppf(tail, k, n - k + 1) if k else 0.0
    high = stats.beta.ppf(1 - tail, k + 1, n - k) if k < n else 1.0
    return float(low), float(high)


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"mahaclass {' '.join(argv)} exited {code}")


def cell(data_path, data, d_out: int, epochs: int, seed: int, n_fresh: int, fresh_law) -> tuple:
    """One row: train on data_path, then score fresh targets and data's test split."""
    model_path = pathlib.Path(data_path).with_name("model.txt")
    run_cli(["train", "--input", str(data_path), "--output", str(model_path),
             "--seed", str(seed), "--proj-dim", str(d_out), "--epochs", str(epochs)] + TRAIN_FLAGS)
    det = load_model(model_path)
    t = det.scores(rng_for(seed, "claims-fresh").multivariate_normal(*fresh_law, size=n_fresh))
    rejected = int(np.count_nonzero(det.decide(t) == 0))
    null = null_beta_params(det.gaussian)
    ks = stats.kstest(t, stats.beta(null.a, null.b).cdf).statistic
    test = split(data, seed=seed)[2]
    test_t = det.scores(test.vectors, test.ids)
    report = det.report(test_t, test.labels)
    low, high = clopper_pearson(rejected, n_fresh)
    return (data.d_in, det.d_out, epochs, seed, repr(1 - det.beta_level),
            f"{rejected / n_fresh:.6f}", f"{low:.6f}", f"{high:.6f}", f"{ks:.6f}",
            f"{report.f1:.6f}", f"{report.auc:.6f}", repr(det.v_beta))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=str(ROOT / "CLAIMS.tsv"))
    ap.add_argument("--d-in", type=int, default=256)
    ap.add_argument("--n-target", type=int, default=300)
    ap.add_argument("--m-non-target", type=int, default=3000)
    ap.add_argument("--proj-dim", type=int, nargs="+", default=[4, 16])
    ap.add_argument("--epochs", type=int, nargs="+", default=[0, 5])
    ap.add_argument("--seeds", type=int, default=4, help="train seeds 0..SEEDS-1")
    ap.add_argument("--fresh", type=int, default=20_000, help="fresh target rows per cell")
    args = ap.parse_args(argv)
    cfg = SynthConfig(d_in=args.d_in, n_target=args.n_target, m_non_target=args.m_non_target)
    fresh_law = synth_target_moments(cfg)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        data_path = os.path.join(work, "data.tsv")
        run_cli(["synth", "--output", data_path, "--seed", str(cfg.seed), "--d-in", str(cfg.d_in),
                 "--n-target", str(cfg.n_target), "--m-non-target", str(cfg.m_non_target)])
        data = load_dataset(data_path)
        rows = [cell(data_path, data, d_out, epochs, seed, args.fresh, fresh_law)
                for d_out in args.proj_dim for epochs in args.epochs for seed in range(args.seeds)]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\t".join(COLUMNS) + "\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)
    print(f"wrote {len(rows)} cells to {args.output} in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
