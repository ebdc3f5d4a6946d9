#!/usr/bin/env python3
"""Self-test of the benchmark, at toy size:

    python3 perfbench/selftest.py

* every workload, untraced and traced, passes its checks and reports
  every metric;
* the checks catch a perturbed T, a flipped decision, a query file drawn
  with another seed, and a perturbed Henze-Zirkler, Anderson-Darling or
  Q-Q value;
* without the package source the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Run, run_setup  # noqa: E402

SELFTEST_WORK = ROOT / ".perfbench-work" / "selftest"


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def case_workloads() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            where = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                errs.append(f"{where}: no result line (exit {proc.returncode}): "
                            f"{proc.stderr[-400:]}")
                continue
            names = {m["name"] for m in spec[key]}
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                errs.append(f"{where}: exit {proc.returncode}, {result['failed']} failed: "
                            f"{proc.stderr[-400:]}")
            if set(result["metrics"]) != names:
                errs.append(f"{where}: metrics differ from BENCHMARK.json: "
                            f"{sorted(names ^ set(result['metrics']))}")
            if trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
                errs.append(f"{where}: an end-to-end metric is not positive")
    return errs


def case_corruptions() -> list[str]:
    """Each injected corruption must fail a check."""
    work = SELFTEST_WORK / "corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = Run(work, toy=True)
    plan = workloads.plan("score", 3, work, toy=True)
    run_setup(r, plan)
    other = workloads.plan("score", 4, work / "other", toy=True)
    other.work.mkdir()
    r.cli(other.setup[0][1], "other synth")
    workloads.run_py_step(other.setup[1])
    for name, queries in (("same", plan.queries), ("other", other.queries)):
        r.cli(["infer", "--model", str(plan.model), "--input", str(queries),
               "--output", str(work / f"infer.{name}.tsv")], "infer")
    model = checks.read_model(plan.model)
    ids, labels, x = checks.read_dataset(plan.queries)
    t_ref = checks.reference_T(model, x)

    errs = []
    if checks.check_infer(work / "infer.same.tsv", model, ids, t_ref):
        errs.append("the unmodified infer output fails its check")
    lines = (work / "infer.same.tsv").read_text().splitlines()

    def corrupted(i, edit) -> list[str]:
        rid, pred, t = lines[i].split("\t")
        bad = lines[:i] + ["\t".join(edit(rid, pred, t))] + lines[i + 1:]
        path = work / "infer.bad.tsv"
        path.write_text("\n".join(bad) + "\n")
        return checks.check_infer(path, model, ids, t_ref)

    far = int(max(range(len(ids)), key=lambda i: abs(t_ref[i] - model["v_beta"])))
    if not corrupted(len(ids) // 2, lambda rid, p, t: (rid, p, repr(float(t) * (1 + 1e-5)))):
        errs.append("a T perturbed by 1e-5 relative was not caught")
    if not corrupted(far, lambda rid, p, t: (rid, str(1 - int(p)), t)):
        errs.append("a flipped decision was not caught")

    o_ids, o_labels, o_x = checks.read_dataset(other.queries)
    o_t = checks.reference_T(model, o_x)
    _, o_preds, _ = checks.read_infer(work / "infer.other.tsv")
    if not checks.check_quality(checks.reference_report(o_preds, o_labels, o_t)):
        errs.append("a query file drawn with another seed passed the quality floors")
    return errs


def case_normality_corruptions() -> list[str]:
    """A diagnose output with one perturbed HZ, AD or Q-Q value must fail."""
    work = SELFTEST_WORK / "normality"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = Run(work, toy=True)
    plan = workloads.plan("diagnose", 3, work, toy=True)
    run_setup(r, plan)
    r.cli([a.replace("{k}", "0") for a in plan.stages[0][1]], "diagnose")
    prefix = work / "diag.0"
    model = checks.read_model(plan.model)
    data = checks.read_dataset(plan.train_input)

    errs = []
    if checks.check_diagnose(prefix, model, *data):
        errs.append("the unmodified diagnose output fails its check")
    for suffix, row, col in ((".normality.tsv", 1, 3), (".normality.tsv", 2, 4),
                             (".qq.tsv", 5, 2)):
        path = Path(f"{prefix}{suffix}")
        good = path.read_text()
        lines = [line.split("\t") for line in good.splitlines()]
        lines[row][col] = repr(float(lines[row][col]) * (1 + 1e-6))
        path.write_text("\n".join("\t".join(f) for f in lines) + "\n")
        if not checks.check_diagnose(prefix, model, *data):
            errs.append(f"{suffix} row {row} column {col} perturbed by 1e-6 was not caught")
        path.write_text(good)
    return errs


def case_no_package() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = SELFTEST_WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("score", 0, cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"exit {proc.returncode} with stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failed = 0
    for case in (case_no_package, case_corruptions, case_normality_corruptions,
                 case_workloads):
        errs = case()
        failed += bool(errs)
        print(f"{'FAIL' if errs else 'ok  '} {case.__name__}")
        for e in errs:
            print(f"     {e}")
    shutil.rmtree(SELFTEST_WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
