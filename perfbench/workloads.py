"""Workload plans: the inputs each workload generates and the CLI stages
it times.

A plan is data only.  ``run.py`` executes its CLI steps as child
processes (untraced, timed); ``child.py`` executes the same steps through
in-process ``cli.main`` calls with tracing wrappers installed.

Every input comes from one seed.  Queries share the ``synth`` seed of the
training data: the class geometry is drawn from the seed, so queries from
another seed would score recall 0 without any error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("score", "train", "diagnose")

# Full-size and toy-size (self-test) class counts of one synth call.
_SIZES = {
    "full": {"n_target": 2000, "m_non_target": 8000},
    "toy": {"n_target": 300, "m_non_target": 1200},
}

# score: one synth call of 1.5 times the default size, carved class-wise
# into a default-size training file (rows i % 3 != 2) and a disjoint query
# file of half that size (rows i % 3 == 2).
QUERY_EVERY = 3


@dataclass
class Plan:
    workload: str
    seed: int
    work: Path
    setup: list = field(default_factory=list)    # steps
    stages: list = field(default_factory=list)   # (label, argv, input rows)
    quality: list = field(default_factory=list)  # (label, argv)
    model: Path | None = None       # model the decide loop and checks use
    queries: Path | None = None     # labelled held-out rows for quality and decide
    train_input: Path | None = None


def cli_step(*argv) -> tuple:
    return ("cli", [str(a) for a in argv])


def plan(workload: str, seed: int, work: Path, toy: bool = False) -> Plan:
    """Steps for one workload, writing every file under ``work``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = _SIZES["toy" if toy else "full"]
    s = ["--seed", str(seed)]
    p = Plan(workload=workload, seed=seed, work=work)
    nt, mn = size["n_target"], size["m_non_target"]
    if workload == "score":
        p.train_input = work / "train.tsv"
        p.queries = work / "queries.tsv"
        p.model = work / "model.txt"
        n_rows = (nt + mn) // 2
        p.setup = [
            cli_step("synth", "--output", work / "all.tsv", "--d-in", 128,
                     "--n-target", nt * 3 // 2, "--m-non-target", mn * 3 // 2, *s),
            ("carve", work / "all.tsv", p.train_input, p.queries, QUERY_EVERY),
            cli_step("train", "--input", p.train_input, "--output", p.model, *s),
        ]
        p.stages = [
            ("infer", ["infer", "--model", str(p.model), "--input", str(p.queries),
                       "--output", str(work / "infer.{k}.tsv"), *s], n_rows),
            ("evaluate", ["evaluate", "--model", str(p.model), "--input", str(p.queries),
                          "--output", str(work / "evaluate.{k}.txt"), *s], n_rows),
        ]
        return p

    p.train_input = work / "data.tsv"
    p.queries = work / "test.tsv"
    p.setup = [
        cli_step("synth", "--output", p.train_input, "--n-target", nt,
                 "--m-non-target", mn, *s),
        ("split", p.train_input, p.queries, seed),
    ]
    n_rows = nt + mn
    if workload == "train":
        p.model = work / "model.mah_mean.0.txt"
        p.stages = [
            ("train", ["train", "--input", str(p.train_input),
                       "--output", str(work / "model.mah_mean.{k}.txt"), *s], n_rows),
            ("train_mah", ["train", "--input", str(p.train_input), "--loss", "mah",
                           "--output", str(work / "model.mah.{k}.txt"), *s], n_rows),
        ]
    else:
        p.model = work / "model.txt"
        p.setup.append(cli_step("train", "--input", p.train_input, "--output", p.model, *s))
        p.stages = [
            ("diagnose", ["diagnose", "--input", str(p.train_input), "--model", str(p.model),
                          "--output", str(work / "diag.{k}"), *s], n_rows),
        ]
    p.quality = [
        ("infer", ["infer", "--model", str(p.model), "--input", str(p.queries),
                   "--output", str(work / "infer.q.tsv"), *s]),
        ("evaluate", ["evaluate", "--model", str(p.model), "--input", str(p.queries),
                      "--output", str(work / "evaluate.q.txt"), *s]),
    ]
    return p


def infer_outputs(p: Plan) -> list[Path]:
    """Infer output files the quality checks read, first one canonical."""
    if p.workload == "score":
        return sorted(p.work.glob("infer.*.tsv"), key=_k)
    return [p.work / "infer.q.tsv"]


def evaluate_outputs(p: Plan) -> list[Path]:
    if p.workload == "score":
        return sorted(p.work.glob("evaluate.*.txt"), key=_k)
    return [p.work / "evaluate.q.txt"]


def _k(path: Path) -> int:
    return int(path.name.split(".")[1])


def carve(src: Path, train_out: Path, query_out: Path, every: int) -> None:
    """Stratified, disjoint carve of one synth file: within each class, row
    i goes to the queries when i % every == every - 1, else to the
    training file.

    A strided pick keeps every mixture component of the non-target class
    (synth writes them in blocks) in both files.
    """
    seen = {"0": 0, "1": 0}
    with open(src, encoding="utf-8") as fh, \
            open(train_out, "w", encoding="utf-8") as tr, \
            open(query_out, "w", encoding="utf-8") as q:
        for line in fh:
            label = line.split("\t", 2)[1]
            (q if seen[label] % every == every - 1 else tr).write(line)
            seen[label] += 1


def write_test_split(data: Path, test_out: Path, seed: int) -> None:
    """The held-out test split exactly as ``train`` draws it from ``data``."""
    from mahaclass.data import load_dataset, save_dataset, split

    _, _, test = split(load_dataset(data), seed=seed)
    save_dataset(test, test_out)


def run_py_step(step: tuple) -> None:
    if step[0] == "carve":
        carve(*step[1:])
    elif step[0] == "split":
        write_test_split(*step[1:])
    else:
        raise ValueError(f"unknown step {step[0]!r}")
