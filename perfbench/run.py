#!/usr/bin/env python3
"""mahaclass benchmark: times the real CLI stages and checks their outputs.

    python3 perfbench/run.py --workload score --seed 1 --seconds 10 --trace 0

Run from the repository root; it needs ``src/mahaclass``.  One process
(this one) generates every input from ``--seed`` and runs one stage at a
time, each in its own child process, for wall time and peak RSS.  All
output checks run after the timed region, against references computed in
``checks.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` does the traced
run instead and prints the per-layer metrics.  The last line of standard
output is the result object; a detail object (per-stage figures, sample
counts, failures, environment) is printed on the line before it.  Any
failed stage or check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import speed  # noqa: E402

SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
# Scaled stage seconds of one round of each workload at the seed code on a
# 2-core host.  A run makes --seconds // ROUND_S rounds (at least
# SETUP_REPEATS): a number fixed by the benchmark, not by how fast the
# program under test is.
ROUND_S = {"score": 3.1, "train": 2.8, "diagnose": 2.9}
RUN_DEADLINE_S = 170.0  # children still running then are killed and fail the run
BLAS_THREADS = 1        # per child, at most nproc


class StageFailed(Exception):
    """A child process failed; the run stops and reports it."""


class Run:
    """Child processes and checks of one benchmark run, with the attempted
    and failed counts."""

    def __init__(self, work: Path, toy: bool):
        self.work = work
        self.toy = toy
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.between = None  # called after each CLI child, outside its timing
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.walls: list = []  # (label, unscaled seconds) of each CLI child
        self.last_probe = None  # reading right after the last timed step
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        **{k: str(BLAS_THREADS) for k in (
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    def check(self, what: str, fn, *args) -> None:
        """One output check; an unreadable output fails it too."""
        self.attempted += 1
        try:
            errors = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output ({exc!r})"]
        self.fail(*(f"{what}: {e}" for e in errors))

    def fail(self, *messages: str) -> None:
        """Count one failed operation, if there are messages."""
        self.failed += bool(messages)
        self.failures += messages

    def kill_at_deadline(self, proc) -> threading.Timer:
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        return timer

    def child(self, argv, label: str, stage: bool) -> float:
        """Run one child process to completion; its wall seconds.  A
        non-zero exit or a timeout fails the run.  Stage children count
        toward peak RSS."""
        self.attempted += 1
        log = self.work / f"{label}.log"
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            timer = self.kill_at_deadline(proc)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if stage:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{label}: exit code {rc} after {wall:.1f} s: {' | '.join(tail)}")
            raise StageFailed
        return wall

    def probe_before(self) -> float:
        """A speed reading just before a timed step: the one taken right
        after the previous timed step, if nothing ran in between."""
        reading, self.last_probe = self.last_probe or speed.probe(), None
        return reading

    def probe_after(self) -> float:
        self.last_probe = speed.probe()
        return self.last_probe

    def cli(self, argv, label: str, stage: bool = True) -> float:
        """One CLI child; its seconds scaled to the probe's nominal speed."""
        before = self.probe_before()
        wall = self.child([sys.executable, "-m", "mahaclass.cli", *argv], label, stage)
        self.walls.append((label, wall))
        seconds = speed.scaled(wall, before, self.probe_after())
        if self.between:
            self.between()
        return seconds


class DecideClient:
    """The one-row decide loop in its own child process, idle between the
    bursts this process requests, so its samples spread over the run."""

    def __init__(self, r: Run, plan):
        r.attempted += 1
        self.r = r
        self.out = r.work / "decide.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "decide", "--model", str(plan.model),
             "--queries", str(plan.queries), "--out", str(self.out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=r.env, cwd=r.work, text=True)
        self.timer = r.kill_at_deadline(self.proc)
        self.scales: list[float] = []  # speed.scaled factor of each burst
        self._expect("ready")

    def _expect(self, word: str) -> None:
        if self.proc.stdout.readline().strip() != word:
            self.r.fail(f"decide loop: exit code {self.proc.wait()}")
            raise StageFailed

    def burst(self) -> None:
        before = self.r.probe_before()
        self.proc.stdin.write("burst\n")
        self.proc.stdin.flush()
        self._expect("ok")
        self.scales.append(speed.scaled(1.0, before, self.r.probe_after()))

    def finish(self) -> dict:
        """The loop's summary, with the median over bursts of each burst's
        p50 and p99, scaled by the speed readings around the burst."""
        self.proc.stdin.close()
        rc = self.proc.wait()
        if rc != 0:
            self.r.fail(f"decide loop: exit code {rc}")
            raise StageFailed
        out = json.loads(self.out.read_text())
        for q in ("p50", "p99"):
            out[f"{q}_us"] = statistics.median(
                v * f for v, f in zip(out[f"burst_{q}_us"], self.scales))
        return out

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_setup(r: Run, plan) -> float:
    """Scaled seconds of the set-up's CLI children.  The benchmark's own
    steps (carving the queries, writing the test split) run untimed."""
    from workloads import run_py_step

    total = 0.0
    for i, step in enumerate(plan.setup):
        if step[0] == "cli":
            total += r.cli(step[1], f"setup.{i}.{step[1][0]}", stage=False)
        else:
            run_py_step(step)
            r.last_probe = None
    return total


def untraced(r: Run, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set-ups and stage rounds alternate, with a decide burst after every
    CLI child, for as many rounds as ``seconds`` buys at the nominal round
    time."""
    import workloads

    plan = workloads.plan(workload, seed, r.work, toy=r.toy)
    setups: list[float] = []
    times: dict[str, list[float]] = {label: [] for label, _, _ in plan.stages}
    decider = None
    try:
        rounds = max(SETUP_REPEATS, int(seconds // ROUND_S[workload]))
        for k in range(rounds):
            if k < SETUP_REPEATS:
                setups.append(run_setup(r, plan))
            for label, argv, _ in plan.stages:
                argv = [a.replace("{k}", str(k)) for a in argv]
                times[label].append(r.cli(argv, f"{label}.{k}"))
                if decider is None:  # the train workload's model exists from here
                    decider = DecideClient(r, plan)
                    r.between = decider.burst
                    decider.burst()
        for label, argv in plan.quality:
            r.cli(argv, f"quality.{label}")
        r.between = None
        decide = decider.finish()
    finally:
        r.between = None
        if decider:
            decider.stop()

    quality = check_outputs(r, plan, decide["decisions"])
    metrics = {
        "setup_s": statistics.median(setups),
        "stage_s": sum(statistics.median(ts) for ts in times.values()),
        "decide_one_us_p50": decide["p50_us"],
        "peak_rss_mb": r.peak_rss_mb,
        "test_f1": quality.get("f1", 0.0),
        "test_auc": quality.get("auc", 0.0),
    }
    detail = {"decide_one_us_p99": decide["p99_us"],
              "setup_s_samples": setups, "stage_s_samples": times, "wall_s": r.walls,
              "decide_samples": decide["samples"], "decide_bursts": decide["bursts"],
              "decide_burst_p50_us": decide["burst_p50_us"],
              "decide_burst_p99_us": decide["burst_p99_us"],
              "decide_burst_scale": decider.scales,
              "null_reject_err": quality.get("null_reject_err")}
    for label, _, n_rows in plan.stages:
        med = statistics.median(times[label])
        if label in ("infer", "evaluate"):
            detail[f"{label}_rows_per_s"] = n_rows / med
        else:
            detail[f"{label}_s"] = med
    return metrics, detail


def check_outputs(r: Run, plan, decisions) -> dict:
    """Every output check, after the timed region; returns the held-out
    quality figures."""
    import checks
    import workloads

    try:
        model = checks.read_model(plan.model)
        ids, labels, x = checks.read_dataset(plan.queries)
        t_ref = checks.reference_T(model, x)
        _, preds, _ = checks.read_infer(workloads.infer_outputs(plan)[0])
        ref = checks.reference_report(preds, labels, t_ref)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        r.check("outputs", lambda: [f"unreadable model, queries or infer output ({exc!r})"])
        return {}
    d_in = x.shape[1]
    infers, evals = workloads.infer_outputs(plan), workloads.evaluate_outputs(plan)
    r.check("model", checks.check_model, model, d_in)
    r.check("infer", checks.check_infer, infers[0], model, ids, t_ref)
    r.check("infer repeat", checks.check_identical, infers)
    r.check("evaluate", checks.check_evaluate, evals[0], ref)
    r.check("evaluate repeat", checks.check_identical, evals)
    r.check("quality", checks.check_quality, ref)
    r.check("beta_decide", checks.check_decisions, decisions, model, t_ref)
    if plan.workload == "train":
        for loss in ("mah_mean", "mah"):
            models = sorted(plan.work.glob(f"model.{loss}.*.txt"))
            r.check(f"train {loss}", lambda: checks.check_model(
                checks.read_model(models[0]), d_in) + checks.check_identical(models))
    if plan.workload == "diagnose":
        prefixes = sorted(str(p)[: -len(".dist.tsv")] for p in plan.work.glob("diag.*.dist.tsv"))
        r.check("diagnose", lambda: checks.check_diagnose(
            prefixes[0], model, *checks.read_dataset(plan.train_input)))
        for suffix in (".normality.tsv", ".qq.tsv", ".dist.tsv"):
            r.check(f"diagnose repeat {suffix}", checks.check_identical,
                    [p + suffix for p in prefixes])
    return {"f1": ref["f1"], "auc": ref["auc"],
            "null_reject_err": checks.null_reject_err(model, labels, t_ref)}


def traced(r: Run, workload: str, seed: int) -> tuple[dict, dict]:
    """The traced run in one child; its stage outputs get the same checks."""
    import workloads

    out = r.work / "trace.json"
    r.child([sys.executable, str(HERE / "child.py"), "trace", "--workload", workload,
             "--seed", str(seed), "--work", str(r.work), "--out", str(out)]
            + (["--toy"] if r.toy else []), "trace", stage=False)
    result = json.loads(out.read_text())
    for label, rc in result["ops"]:
        r.attempted += 1
        if rc != 0:
            r.fail(f"traced {label}: exit code {rc}")
    check_outputs(r, workloads.plan(workload, seed, r.work, toy=r.toy),
                  result["decide"]["decisions"])
    layers = result["layers"]
    layers["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
    layers["trace.overhead_share"] = layers["trace.overhead_s"] / result["untraced_s"]
    return layers, {"untraced_stage_s": result["untraced_s"],
                    "traced_stage_s": result["traced_s"],
                    "decide_samples": result["decide"]["samples"]}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "mahaclass" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = Run(work, args.toy)
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so that each speed probe
    # reads the CPU the timed work runs on (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            values, detail = traced(r, args.workload, args.seed)
            wanted = spec["per_layer"]
        else:
            values, detail = untraced(r, args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except StageFailed:
        values, detail, wanted = {}, {}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = not r.failed and all(m["name"] in values for m in wanted)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=r.attempted, failed=r.failed,
                  failed_ops_share=r.failed / max(r.attempted, 1),
                  failures=r.failures[:20], environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ok, "attempted": max(r.attempted, 1), "failed": r.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values}}))
    if r.failures:
        print("\n".join(r.failures[:20]), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
