"""Child-process side of the benchmark; imports the package under test.

``decide``: a closed loop of one caller making one-row
``mahalanobis.beta_decide`` calls on projected query rows, in bursts the
parent requests between stages.

``trace``: the traced run.  It wraps the public functions of each package
module, from outside the package, and runs a workload's set-up and stages
through in-process ``cli.main`` calls.  After a warm-up pass the stages
run once untraced and once traced; the difference is the tracing overhead.

Run by ``run.py``; the arguments are internal.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import workloads  # noqa: E402

# (module, attribute path) of every traced name, grouped by layer.
TRACED = [
    ("cli", "cmd_synth"), ("cli", "cmd_train"), ("cli", "cmd_infer"),
    ("cli", "cmd_evaluate"), ("cli", "cmd_diagnose"),
    ("data", "load_dataset"), ("data", "save_dataset"), ("data", "synth_benchmark"),
    ("data", "split"), ("data", "load_model"), ("data", "save_model"),
    ("linalg", "append_point"), ("linalg", "cholesky"), ("linalg", "fit_gaussian"),
    ("linalg", "SlidingWindow.refresh"), ("linalg", "spd_solve"),
    ("betadist", "reg_inc_beta"), ("betadist", "beta_quantile"),
    ("mahalanobis", "decision_statistic"), ("mahalanobis", "beta_decide"),
    ("mahalanobis", "sq_mahalanobis"), ("mahalanobis", "calibrate"),
    ("loss", "mah_mean_loss"), ("loss", "mah_loss"),
    ("trainer", "train"), ("trainer", "TripleSampler.next_batch"),
    ("trainer", "Adam.step"), ("trainer", "ProjectionHead.project"),
    ("diagnostics", "henze_zirkler"), ("diagnostics", "pca_reduce"),
    ("diagnostics", "anderson_darling"), ("diagnostics", "emit_qq"),
    ("diagnostics", "emit_distance_report"),
    ("metrics", "score"), ("metrics", "roc_auc"),
]
# Calls of the first name made while the second is active.
NESTED = [("betadist.reg_inc_beta", "betadist.beta_quantile"),
          ("trainer.Adam.step", "trainer.train")]


class Tracer:
    """Spans at each traced call: inclusive time, self time (minus direct
    traced children) and call counts, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.rows: dict[str, int] = {}
        self.peak_mb: dict[str, float] = {}
        self.nested: dict[tuple, int] = {}
        self._stack: list[list] = []   # [name, child time]
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            active = [frame[0] for frame in tracer._stack]
            for pair in NESTED:
                if pair[0] == name and pair[1] in active:
                    tracer.nested[pair] = tracer.nested.get(pair, 0) + 1
            memory = name == "diagnostics.henze_zirkler"
            if memory:
                tracemalloc.start()
            tracer._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb.get(name, 0.0), peak)
                if name not in active:  # recursion counts once
                    tracer.total[name] = tracer.total.get(name, 0.0) + dt
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dt - children
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if name == "data.load_dataset":
                tracer.rows[name] = tracer.rows.get(name, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced name wherever the package holds a reference
        to it: its module, modules that imported it by name, and the CLI
        command table.  Names a version of the package lacks are skipped."""
        pkg_modules = [m for k, m in list(sys.modules.items())
                       if k == "mahaclass" or k.startswith("mahaclass.")]
        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"mahaclass.{mod_name}")
            name = f"{mod_name}.{attr}"
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, fn_name, None) if holder is not None else None
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            if owner:
                self._set(holder, fn_name, wrapper)
                continue
            for m in pkg_modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapper)
                    elif isinstance(value, dict):  # e.g. the CLI command table
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set(value, k, wrapper, item=True)

    def _set(self, holder, key, value, item=False) -> None:
        old = holder[key] if item else getattr(holder, key)
        self._patched.append((holder, key, old, item))
        if item:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, old, item in reversed(self._patched):
            if item:
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._patched.clear()


def load_decider(model_path):
    """(model, threshold, W, b) built from the artifact through the
    package's public types."""
    from mahaclass.betadist import BetaParams
    from mahaclass.data import load_model
    from mahaclass.linalg import GaussianModel, cholesky
    from mahaclass.mahalanobis import DecisionThreshold

    a = load_model(model_path)
    d = a.mean.shape[0]
    model = GaussianModel(mean=a.mean, cov=a.cov, n=a.n, ridge=a.ridge,
                          chol=cholesky(a.cov + a.ridge * np.eye(d)))
    thr = DecisionThreshold(beta_level=a.beta_level, params=BetaParams(a.beta_a, a.beta_b),
                            v_beta=a.v_beta)
    return model, thr, a.weights, a.bias


class Decider:
    """One caller making one-row ``beta_decide`` calls, the next after the
    previous returns.  Each ``run`` is one burst; decisions are kept for
    the first pass over the rows, for checking."""

    BURST_CALLS = 2000  # so a burst's p99 has 20 samples beyond it

    def __init__(self, model_path, query_path):
        from mahaclass import mahalanobis

        self.decide = mahalanobis.beta_decide
        self.model, self.thr, w, b = load_decider(model_path)
        self.rows = checks.read_dataset(query_path)[2] @ w.T + b
        for row in self.rows[:50]:  # warm caches and lazy set-up
            self.decide(self.model, row, self.thr)
        self.calls = 0
        self.bursts: list[np.ndarray] = []  # latencies in us, one array per run
        self.decisions: list[int] = []

    def run(self, count: int) -> None:
        """One burst of ``count`` calls.  The count is fixed, not a time, so
        a faster program gets no more samples to take the best of."""
        clock = time.perf_counter_ns
        lat = []
        while len(lat) < count:
            row = self.rows[self.calls % len(self.rows)]
            t0 = clock()
            dec = self.decide(self.model, row, self.thr)
            lat.append(clock() - t0)
            if self.calls < len(self.rows):
                self.decisions.append(int(dec))
            self.calls += 1
        self.bursts.append(np.array(lat) / 1e3)

    def summary(self) -> dict:
        """Each burst's latency p50 and p99, and the checked decisions."""
        p50s, p99s = zip(*(np.percentile(b, [50, 99]) for b in self.bursts))
        return {"samples": self.calls, "bursts": len(self.bursts),
                "burst_p50_us": [float(v) for v in p50s],
                "burst_p99_us": [float(v) for v in p99s],
                "decisions": self.decisions}


def serve_decide(model_path, query_path, out) -> None:
    """Decide bursts on request, so the samples spread over a whole run
    while the loop stays idle during stages: reads one line per burst,
    answers ``ok``; on end of input writes the summary to ``out``."""
    decider = Decider(model_path, query_path)
    print("ready", flush=True)
    for _ in sys.stdin:
        decider.run(Decider.BURST_CALLS)
        print("ok", flush=True)
    Path(out).write_text(json.dumps(decider.summary()))


def cli_call(argv) -> int:
    from mahaclass import cli

    try:
        return int(cli.main(argv))
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)


def traced_run(workload: str, seed: int, work: Path, toy: bool) -> dict:
    import mahaclass.cli  # noqa: F401  (loads every package module)

    plan = workloads.plan(workload, seed, work, toy=toy)
    tracer = Tracer()
    ops = []  # (label, return code)

    def run_step(step, label=None):
        if step[0] == "cli":
            ops.append((label or step[1][0], cli_call(step[1])))
        else:
            workloads.run_py_step(step)

    def stage_pass(k):
        t0 = time.perf_counter()
        for label, argv, _ in plan.stages:
            ops.append((label, cli_call([a.replace("{k}", str(k)) for a in argv])))
        return time.perf_counter() - t0

    tracer.install()
    for step in plan.setup:
        run_step(step, "setup")
    tracer.uninstall()
    stage_pass(0)  # warm-up, so first-call costs fall on neither timed pass
    untraced_s = stage_pass(1)
    tracer.install()
    chol_before = tracer.calls.get("linalg.cholesky", 0)
    traced_s = stage_pass(2)
    chol_stages = tracer.calls.get("linalg.cholesky", 0) - chol_before
    for label, argv in plan.quality:
        run_step(("cli", argv), label)
    decider = Decider(plan.model, plan.queries)
    decider.run(200 if toy else Decider.BURST_CALLS)
    tracer.uninstall()
    # Refactorizations per scored row, over the scoring stages of the traced
    # pass, the quality stages and the one-row decide calls.
    scored = [rows for label, _, rows in plan.stages if label in ("infer", "evaluate")]
    chol = tracer.calls.get("linalg.cholesky", 0) - chol_before - (0 if scored else chol_stages)
    rows = (sum(scored) + tracer.calls.get("mahalanobis.beta_decide", 0)
            + len(plan.quality) * len(checks.read_dataset(plan.queries)[0]))
    return {"layers": layer_metrics(tracer, chol, rows), "ops": ops,
            "untraced_s": untraced_s, "traced_s": traced_s, "decide": decider.summary()}


def layer_metrics(tracer: Tracer, chol_scoring: int, rows_scored: int) -> dict:
    """Every per-layer metric by name; zero where a layer did no work."""
    c, s, own = tracer.calls, tracer.total, tracer.self_time
    ratio = (lambda a, b: a / b if b else 0.0)
    out = {}
    for stage in ("infer", "evaluate", "train", "diagnose"):
        out[f"cli.{stage}.self_s"] = own.get(f"cli.cmd_{stage}", 0.0)
    for name in (f"{mod}.{attr}" for mod, attr in TRACED
                 if mod != "cli" and attr != "train"):
        out[f"{name}.s"] = s.get(name, 0.0)
        out[f"{name}.calls"] = c.get(name, 0)
    out["data.load_dataset.rows_per_s"] = ratio(tracer.rows.get("data.load_dataset", 0),
                                                s.get("data.load_dataset", 0.0))
    out["linalg.cholesky.calls_per_row"] = ratio(chol_scoring, rows_scored)
    out["betadist.reg_inc_beta.calls_per_quantile"] = ratio(
        tracer.nested.get(NESTED[0], 0), c.get("betadist.beta_quantile", 0))
    out["trainer.train.self_s"] = own.get("trainer.train", 0.0)
    out["trainer.steps"] = tracer.nested.get(NESTED[1], 0)
    out["diagnostics.henze_zirkler.peak_mb"] = tracer.peak_mb.get("diagnostics.henze_zirkler", 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("decide")
    d.add_argument("--model", required=True)
    d.add_argument("--queries", required=True)
    t = sub.add_parser("trace")
    t.add_argument("--workload", required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--work", required=True)
    t.add_argument("--toy", action="store_true")
    for p in (d, t):
        p.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.mode == "decide":
        serve_decide(args.model, args.queries, args.out)
    else:
        result = traced_run(args.workload, args.seed, Path(args.work), args.toy)
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
