#!/usr/bin/env python3
"""End-to-end demonstration run on the synthetic benchmark.

Generates a dataset, trains and calibrates a model, scores the held-out
data, writes diagnostics, and finishes with the loss/decision ablation
grid.  Everything lands under --workdir; rerunning with the same seed
reproduces every file byte for byte.
"""

import argparse
import pathlib
import sys

from mahaclass import cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", default="runs/synthetic")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = pathlib.Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    seed = ["--seed", str(args.seed)]
    data = str(work / "data.tsv")
    model = str(work / "model.txt")

    steps = [
        ["synth", "--output", data] + seed,
        ["train", "--input", data, "--output", model,
         "--log", str(work / "train_log.tsv")] + seed,
        ["infer", "--model", model, "--input", data,
         "--output", str(work / "decisions.tsv")] + seed,
        ["evaluate", "--model", model, "--input", data,
         "--output", str(work / "metrics.txt")] + seed,
        ["diagnose", "--input", data, "--model", model,
         "--output", str(work / "diag")] + seed,
        ["ablate", "--input", data, "--output", str(work / "ablation.tsv"),
         "--proj-dim", "8", "--epochs", "2", "--mlp-epochs", "20"] + seed,
    ]

    for argv in steps:
        print(f"$ mahaclass {' '.join(argv)}")
        rc = cli.main(argv)
        if rc != 0:
            print(f"step failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"done; outputs under {work}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
