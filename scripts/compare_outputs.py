#!/usr/bin/env python3
"""Check that another source tree gives byte-identical CLI outputs.

    python3 scripts/compare_outputs.py OTHER_SRC

OTHER_SRC is a directory holding a ``mahaclass`` package, such as the
``src/`` of a checkout of another commit.  The same commands run as
``python -m mahaclass.cli`` on the default synthetic benchmark (seed 0),
once with this checkout's ``src/`` and once with OTHER_SRC, each in its own
temporary directory.  Every output file is compared byte for byte, and each
command's exit code, stdout and any stderr with the temporary directory's
path replaced.
Prints ``same`` or ``DIFF`` per output and exits 1 on any DIFF.  A DIFF
whose outputs split into the same number of whitespace-separated fields,
differing only in fields that parse as floats, also shows the largest
relative difference between such fields.  Standard library only; one BLAS
thread.
"""

import argparse
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (label, argv); paths are relative to the run's temporary directory, its cwd.
# The default train's head is square (identity, no SGD), so its log is empty;
# REDUCED trains an 8-dim head of the 32-dim rows, so the other runs cover SGD,
# and train-mah writes that run's log.  The 2-dim head
# of the *-2d runs makes every projection a product that OpenBLAS computes
# with its small-matrix kernel.  The *-wide runs repeat synth, train, infer
# and evaluate at d_in 128, the width of perfbench's score workload.  An
# entry whose argv is a function is a step of this script, run on the
# temporary directory: write_mixed, write_spaced, write_targets and
# write_shuffled turn data.tsv into data_mixed.tsv, data_spaced.tsv,
# data_targets.tsv and data_shuffled.tsv, and write_config and
# write_bad_config write run.cfg and bad.cfg.
TRAIN = ["train", "--input", "data.tsv"]
REDUCED = ["--proj-dim", "8"]


def write_mixed(work: pathlib.Path) -> None:
    """data_mixed.tsv: data.tsv with its components written in turn as
    repr, %.6e, a short decimal and an integer, a zero integer as -0."""
    forms = (repr, "{:.6e}".format, "{:.3f}".format, lambda x: "%d" % x if abs(x) >= 1 else "-0")
    with open(work / "data.tsv", encoding="utf-8") as src, \
            open(work / "data_mixed.tsv", "w", encoding="utf-8") as dst:
        for i, line in enumerate(src):
            rid, label, vec = line.split("\t")
            tokens = (forms[(i + j) % 4](float(t)) for j, t in enumerate(vec.split()))
            dst.write(f"{rid}\t{label}\t{' '.join(tokens)}\n")


def write_spaced(work: pathlib.Path) -> None:
    """data_spaced.tsv: data.tsv with one space before its components and
    two between them, a layout the strtold read refuses, so that every
    chunk is parsed line by line."""
    with open(work / "data.tsv", encoding="utf-8") as src, \
            open(work / "data_spaced.tsv", "w", encoding="utf-8") as dst:
        for line in src:
            rid, label, vec = line.split("\t")
            dst.write(f"{rid}\t{label}\t {'  '.join(vec.split())}\n")


def write_targets(work: pathlib.Path) -> None:
    """data_targets.tsv: the label-1 rows of data.tsv, a file of one class."""
    with open(work / "data.tsv", encoding="utf-8") as src, \
            open(work / "data_targets.tsv", "w", encoding="utf-8") as dst:
        dst.writelines(line for line in src if line.split("\t")[1] == "1")


def write_shuffled(work: pathlib.Path) -> None:
    """data_shuffled.tsv: 9001 rows of data.tsv in a seeded random order, so
    the ids are far from sorted and the last 256-row block is short."""
    with open(work / "data.tsv", encoding="utf-8") as src:
        lines = src.readlines()
    random.Random(0).shuffle(lines)
    with open(work / "data_shuffled.tsv", "w", encoding="utf-8") as dst:
        dst.writelines(lines[:9001])


def write_config(work: pathlib.Path) -> None:
    """run.cfg: train's required flags and an 8-dim head, all in the file."""
    (work / "run.cfg").write_text("input = data.tsv\noutput = model_config.txt\n"
                                  "proj-dim = 8\n", encoding="utf-8")


def write_bad_config(work: pathlib.Path) -> None:
    """bad.cfg: a batch size of 0, which train refuses as it refuses the flag."""
    (work / "bad.cfg").write_text("batch-size = 0\n", encoding="utf-8")


COMMANDS = [
    ("synth", ["synth", "--output", "data.tsv"]),
    ("train", TRAIN + ["--output", "model.txt", "--log", "train_log.tsv"]),
    ("train-mah", TRAIN + REDUCED + ["--output", "model_mah.txt", "--loss", "mah",
                                     "--log", "train_log_mah.tsv"]),
    ("train-epochs0", TRAIN + REDUCED + ["--output", "model_epochs0.txt", "--epochs", "0"]),
    ("train-fpr-cap", TRAIN + REDUCED + ["--output", "model_fpr_cap.txt",
                                         "--fpr-cap", "0.001"]),
    ("train-batch24", TRAIN + REDUCED + ["--output", "model_batch24.txt",
                                         "--batch-size", "24"]),
    ("train-cosine", TRAIN + REDUCED + ["--output", "model_cosine.txt", "--beta-level", "0.9",
                                        "--loss", "cosine"]),
    ("infer", ["infer", "--model", "model.txt", "--input", "data.tsv",
               "--output", "decisions.tsv"]),
    ("evaluate", ["evaluate", "--model", "model.txt", "--input", "data.tsv",
                  "--output", "metrics.txt"]),
    # infer and evaluate read --input in chunks; the 8-dim SGD head makes each
    # chunk's projection a real product, so these cover chunked scoring
    ("infer-mah", ["infer", "--model", "model_mah.txt", "--input", "data.tsv",
                   "--output", "decisions_mah.tsv"]),
    ("evaluate-mah", ["evaluate", "--model", "model_mah.txt", "--input", "data.tsv",
                      "--output", "metrics_mah.txt"]),
    ("diagnose-raw", ["diagnose", "--input", "data.tsv", "--output", "diag_raw"]),
    ("diagnose-model", ["diagnose", "--input", "data.tsv", "--model", "model.txt",
                        "--output", "diag_model"]),
    ("diagnose-mah", ["diagnose", "--input", "data.tsv", "--model", "model_mah.txt",
                      "--output", "diag_mah"]),
    ("train-2d", TRAIN + ["--proj-dim", "2", "--output", "model_2d.txt"]),
    ("infer-2d", ["infer", "--model", "model_2d.txt", "--input", "data.tsv",
                  "--output", "decisions_2d.tsv"]),
    ("evaluate-2d", ["evaluate", "--model", "model_2d.txt", "--input", "data.tsv",
                     "--output", "metrics_2d.txt"]),
    ("diagnose-2d", ["diagnose", "--input", "data.tsv", "--model", "model_2d.txt",
                     "--output", "diag_2d", "--k", "2"]),
    # one reduced dimension: a one-column normality header, Q-Q of a 1-d reduction
    ("diagnose-k1", ["diagnose", "--input", "data.tsv", "--k", "1", "--output", "diag_k1"]),
    ("synth-wide", ["synth", "--output", "data_wide.tsv", "--d-in", "128",
                    "--n-target", "600", "--m-non-target", "2400"]),
    ("train-wide", ["train", "--input", "data_wide.tsv", "--output", "model_wide.txt"]),
    ("infer-wide", ["infer", "--model", "model_wide.txt", "--input", "data_wide.tsv",
                    "--output", "decisions_wide.tsv"]),
    ("evaluate-wide", ["evaluate", "--model", "model_wide.txt", "--input", "data_wide.tsv",
                       "--output", "metrics_wide.txt"]),
    # four components over 8003 rows: the mixture's alternating offset signs
    # and a last component longer than the others
    ("synth-components", ["synth", "--output", "data_components.tsv", "--components", "4",
                           "--m-non-target", "8003"]),
    # rows near 1e20 and 1e300, which synth writes in scientific notation:
    # the first by its block kernel on x86, the second past the kernel's
    # exponent bound, by its per-value fallback
    ("synth-far", ["synth", "--output", "data_far.tsv", "--separation", "1e20",
                   "--n-target", "300", "--m-non-target", "1200"]),
    ("synth-huge", ["synth", "--output", "data_huge.tsv", "--separation", "1e300"]),
    # the same rows in the number forms other tools write
    ("mixed-input", write_mixed),
    ("train-mixed", ["train", "--input", "data_mixed.tsv", "--output", "model_mixed.txt"]
     + REDUCED),
    ("infer-mixed", ["infer", "--model", "model_mixed.txt", "--input", "data_mixed.tsv",
                     "--output", "decisions_mixed.tsv"]),
    ("evaluate-mixed", ["evaluate", "--model", "model_mixed.txt", "--input", "data_mixed.tsv",
                        "--output", "metrics_mixed.txt"]),
    # the same rows in a hand-spaced layout
    ("spaced-input", write_spaced),
    ("train-spaced", ["train", "--input", "data_spaced.tsv", "--output", "model_spaced.txt"]
     + REDUCED),
    ("infer-spaced", ["infer", "--model", "model_spaced.txt", "--input", "data_spaced.tsv",
                      "--output", "decisions_spaced.tsv"]),
    ("evaluate-spaced", ["evaluate", "--model", "model_spaced.txt", "--input",
                         "data_spaced.tsv", "--output", "metrics_spaced.txt"]),
    # evaluate on targets alone, which have no false positive rate or AUC
    ("targets-input", write_targets),
    ("evaluate-targets", ["evaluate", "--model", "model.txt", "--input", "data_targets.tsv",
                          "--output", "metrics_targets.txt"]),
    # diagnose writes its distance report by id in 256-row blocks: ids far
    # from file order and a short last block
    ("shuffled-input", write_shuffled),
    ("diagnose-shuffled-raw", ["diagnose", "--input", "data_shuffled.tsv",
                               "--output", "diag_shuffled_raw"]),
    ("diagnose-shuffled-mah", ["diagnose", "--input", "data_shuffled.tsv", "--model",
                               "model_mah.txt", "--output", "diag_shuffled_mah"]),
    # required flags from a --config file
    ("config-file", write_config),
    ("train-config", ["train", "--config", "run.cfg"]),
    # the front door: usage errors from a flag and from a --config line, help
    # and an unknown command, each an exit code with its stdout and stderr
    ("train-batch0", TRAIN + ["--output", "model_batch0.txt", "--batch-size", "0"]),
    ("bad-config-file", write_bad_config),
    ("train-bad-config", ["train", "--config", "bad.cfg"]),
    ("train-help", ["train", "--help"]),
    ("unknown-command", ["frobnicate"]),
    ("ablate", ["ablate", "--input", "data.tsv", "--output", "ablation.tsv",
                "--mlp-epochs", "3"] + REDUCED),
    ("ablate-fpr-cap", ["ablate", "--input", "data.tsv", "--output", "ablation_fpr_cap.tsv",
                        "--mlp-epochs", "1", "--fpr-cap", "0.01"] + REDUCED),
]


def run_all(src: pathlib.Path, work: pathlib.Path) -> dict[str, bytes]:
    """Every output of the command list under src: stdout (with its exit
    code) and any stderr per command, then each file the commands wrote."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs = {}
    for label, argv in COMMANDS:
        if callable(argv):
            argv(work)
            continue
        proc = subprocess.run([sys.executable, "-m", "mahaclass.cli", *argv, "--seed", "0"],
                              env=env, cwd=work, capture_output=True)
        stdout, stderr = (out.replace(str(work).encode(), b"<tmp>")
                          for out in (proc.stdout, proc.stderr))
        outputs[f"stdout of {label}"] = b"exit %d\n" % proc.returncode + stdout
        if stderr:
            outputs[f"stderr of {label}"] = stderr
        print(f"  ran {label} under {src} (exit {proc.returncode})", file=sys.stderr)
    for path in sorted(work.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def largest_relative_difference(a: bytes, b: bytes) -> float | None:
    """max |x - y| / max(|x|, |y|) over the differing fields x, y of a and b;
    None when the fields do not pair up or a differing field is not a float."""
    fields_a, fields_b = a.split(), b.split()
    if len(fields_a) != len(fields_b):
        return None
    largest = 0.0
    for x, y in zip(fields_a, fields_b):
        if x == y:
            continue
        try:
            x, y = float(x), float(y)
        except ValueError:
            return None
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        scale = max(abs(x), abs(y))
        largest = max(largest, abs(x - y) / scale if scale else 0.0)
    return largest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other_src", type=pathlib.Path,
                    help="directory holding the mahaclass package to compare against")
    args = ap.parse_args()
    other = args.other_src.resolve()
    if not (other / "mahaclass" / "cli.py").is_file():
        ap.error(f"{other} holds no mahaclass package")
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        ours = run_all(SRC, pathlib.Path(a))
        theirs = run_all(other, pathlib.Path(b))
    diff = 0
    for name in sorted(ours.keys() | theirs.keys()):
        same = ours.get(name) == theirs.get(name)
        diff += not same
        if same:
            print(f"same  {name}")
            continue
        moved = None
        if name in ours and name in theirs:
            moved = largest_relative_difference(ours[name], theirs[name])
        note = ("fields differ beyond floats" if moved is None
                else f"largest relative difference {moved:.3g}")
        print(f"DIFF  {name}  ({note})")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
