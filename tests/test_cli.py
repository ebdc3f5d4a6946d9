import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mahaclass import cli
from mahaclass.data import (
    SynthConfig,
    load_dataset,
    load_model,
    save_dataset,
    split,
    synth_target_moments,
)
from mahaclass.metrics import roc_auc
from mahaclass.seeds import rng_for

SYNTH_FLAGS = ["--d-in", "8", "--n-target", "160", "--m-non-target", "320",
               "--manifold-dim", "3", "--separation", "2.5"]
TRAIN_FLAGS = ["--proj-dim", "4", "--window-mult", "10", "--batch-size", "16"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared synth -> train pipeline outputs for the read-only commands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.tsv"
    model = root / "model.txt"
    assert cli.main(["synth", "--output", str(data), "--seed", "1"] + SYNTH_FLAGS) == 0
    assert cli.main(["train", "--input", str(data), "--output", str(model),
                     "--seed", "1"] + TRAIN_FLAGS) == 0
    return root, data, model


@pytest.fixture(scope="module")
def far_data(workspace):
    """The workspace's data with --separation 1e300: non-target rows ~1e300 away."""
    far = workspace[0] / "far.tsv"
    assert cli.main(["synth", "--output", str(far), "--seed", "1"] + SYNTH_FLAGS
                    + ["--separation", "1e300"]) == 0
    return far


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "d.tsv"
        assert cli.main(["synth", "--output", str(out), "--seed", "0"] + SYNTH_FLAGS) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 480
        assert lines[0].startswith("t000000\t1\t")

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        cli.main(["synth", "--output", str(a), "--seed", "3"] + SYNTH_FLAGS)
        cli.main(["synth", "--output", str(b), "--seed", "3"] + SYNTH_FLAGS)
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_artifact_loads(self, workspace):
        _, _, model = workspace
        art = load_model(model)
        assert art.d_in == 8
        assert art.d_out == 4
        assert 0.0 < art.v_beta < 1.0

    def test_fixed_beta_level(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "m.txt"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--beta-level", "0.9"] + TRAIN_FLAGS) == 0
        assert load_model(out).beta_level == 0.9

    def test_training_log_written(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "m.txt"
        log = tmp_path / "log.tsv"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--log", str(log), "--seed", "1"] + TRAIN_FLAGS) == 0
        assert len(log.read_text().splitlines()) > 0

    def test_fpr_cap_alone_caps_the_dev_rate(self, workspace, tmp_path):
        # the workspace model, calibrated with no cap, passes 10 of the 32
        # dev non-targets; --fpr-cap with no other flag must hold them to 10%
        _, data, model = workspace
        dev = split(load_dataset(data), seed=1)[1]

        def dev_fpr(path):
            det = load_model(path)
            return np.mean(det.scores(dev.non_target_vectors()) < det.v_beta)

        assert dev_fpr(model) > 0.1
        out = tmp_path / "m.txt"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--fpr-cap", "0.1"] + TRAIN_FLAGS) == 0
        assert dev_fpr(out) <= 0.1

    def test_square_head_saves_the_identity(self, workspace, tmp_path):
        # the default --proj-dim 64 is not below d_in 8: no SGD, an empty log
        _, data, _ = workspace
        out, log = tmp_path / "m.txt", tmp_path / "log.tsv"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--log", str(log), "--seed", "1"]) == 0
        det = load_model(out)
        np.testing.assert_array_equal(det.weights, np.eye(8))
        np.testing.assert_array_equal(det.bias, np.zeros(8))
        assert log.read_text() == ""

    @pytest.mark.parametrize("seed", range(4))
    def test_saved_model_keeps_the_beta_law(self, tmp_path, seed):
        # Fresh rows from the target class's own Gaussian must be rejected at
        # the promised rate 1 - beta_level, within three binomial standard
        # errors either way.  The default head is square, hence the identity.
        data, model = tmp_path / "data.tsv", tmp_path / "model.txt"
        assert cli.main(["synth", "--output", str(data), "--seed", str(seed)]) == 0
        assert cli.main(["train", "--input", str(data), "--output", str(model),
                         "--seed", str(seed), "--epochs", "3"]) == 0
        mu, cov = synth_target_moments(SynthConfig(seed=seed))
        fresh = rng_for(seed, "fresh-targets").multivariate_normal(mu, cov, size=20_000)
        det = load_model(model)
        rejected = np.mean(det.scores(fresh) >= det.v_beta)
        p = 1 - det.beta_level
        assert abs(rejected - p) <= 3 * math.sqrt(p * (1 - p) / len(fresh)), (
            f"rejected {rejected:.4f} of fresh targets, promised {p:.4f}")


class TestInferEvaluate:
    def test_infer_output(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "decisions.tsv"
        assert cli.main(["infer", "--model", str(model), "--input", str(data),
                         "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 480
        rid, pred, t = lines[0].split("\t")
        assert pred in ("0", "1")
        assert 0.0 <= float(t) <= 1.0
        # decision is consistent with the stored threshold
        art = load_model(model)
        assert (float(t) < art.v_beta) == (pred == "1")

    def test_evaluate_output(self, workspace, tmp_path):
        _, data, model = workspace
        out = tmp_path / "metrics.txt"
        assert cli.main(["evaluate", "--model", str(model), "--input", str(data),
                         "--output", str(out)]) == 0
        text = out.read_text()
        fields = dict(line.split("\t") for line in text.splitlines())
        assert set(fields) >= {"tp", "fp", "tn", "fn", "accuracy", "f1", "fpr", "auc"}
        counts = sum(int(fields[k]) for k in ("tp", "fp", "tn", "fn"))
        assert counts == 480

    def test_overflowing_distances_score_one(self, workspace, far_data, tmp_path):
        # the non-target rows' squared distance overflows
        _, _, model = workspace
        far = far_data
        decisions, report = tmp_path / "decisions.tsv", tmp_path / "metrics.txt"
        for command, out in (("infer", decisions), ("evaluate", report)):
            assert cli.main([command, "--model", str(model), "--input", str(far),
                             "--output", str(out)]) == 0
        rows = [line.split("\t") for line in decisions.read_text().splitlines()]
        assert [(pred, t) for rid, pred, t in rows if rid.startswith("n")] == [("0", "1")] * 320
        t = np.array([float(r[2]) for r in rows])
        assert np.isfinite(t).all()
        fields = dict(line.split("\t") for line in report.read_text().splitlines())
        auc = roc_auc(-t, load_dataset(far).labels)
        assert auc > 0.99 and fields["auc"] == f"{auc:.6f}"


class TestDiagnose:
    def test_report_files(self, workspace, tmp_path):
        _, data, model = workspace
        prefix = str(tmp_path / "diag")
        assert cli.main(["diagnose", "--input", str(data), "--model", str(model),
                         "--output", prefix, "--k", "2"]) == 0
        normality = (tmp_path / "diag.normality.tsv").read_text().splitlines()
        assert normality[0] == "label\tn\tk\thz\tad_1\tad_2"
        assert len(normality) == 3
        qq = (tmp_path / "diag.qq.tsv").read_text().splitlines()
        assert qq[0] == "label\ttheoretical\tsample"
        dist = (tmp_path / "diag.dist.tsv").read_text().splitlines()
        assert len(dist) == 481

    def test_without_model(self, workspace, tmp_path):
        _, data, _ = workspace
        prefix = str(tmp_path / "raw")
        assert cli.main(["diagnose", "--input", str(data), "--output", prefix]) == 0
        assert (tmp_path / "raw.normality.tsv").exists()

    @pytest.mark.parametrize("n_target", [0, 1])
    def test_too_few_target_rows_write_no_report(self, tmp_path, capsys, n_target):
        # the raw target Gaussian is fitted before any report is written
        rng = np.random.default_rng(3)
        data = tmp_path / "data.tsv"
        data.write_text("".join(f"r{i}\t{int(i < n_target)}\t"
                                + " ".join(f"{v:.6f}" for v in rng.normal(size=4)) + "\n"
                                for i in range(40)))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        rc = cli.main(["diagnose", "--input", str(data), "--output", str(out / "rep")])
        assert rc == cli.EXIT_NUMERICAL
        assert (f"error: class 1 (target): need at least 2 points, got {n_target}"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []


class TestAblate:
    def test_grid_rows(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "ablation.tsv"
        assert cli.main(["ablate", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--mlp-epochs", "5"] + TRAIN_FLAGS) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "loss\tdecision\tacc\tpr\tfpr\tf1"
        cells = [line.split("\t") for line in lines[1:]]
        assert [(c[0], c[1]) for c in cells] == [
            ("mah", "beta"), ("mah", "mlp"),
            ("mah-mean", "beta"), ("mah-mean", "mlp"),
            ("cosine", "beta"), ("cosine", "mlp")]
        for c in cells:
            assert all(0.0 <= float(v) <= 1.0 for v in c[2:])

    def test_beta_row_is_train_then_evaluate_on_the_test_split(self, tmp_path):
        # ablate's mah-mean beta row is what a default train model scores
        # under evaluate on the test split, to the table's 3 decimals
        data, model, test = tmp_path / "data.tsv", tmp_path / "m.txt", tmp_path / "test.tsv"
        table, report = tmp_path / "ablation.tsv", tmp_path / "metrics.txt"
        flags = ["--seed", "2"] + TRAIN_FLAGS
        assert cli.main(["synth", "--output", str(data), "--seed", "2"] + SYNTH_FLAGS) == 0
        assert cli.main(["ablate", "--input", str(data), "--output", str(table),
                         "--mlp-epochs", "0"] + flags) == 0
        assert cli.main(["train", "--input", str(data), "--output", str(model)] + flags) == 0
        save_dataset(split(load_dataset(data), seed=2)[2], test)
        assert cli.main(["evaluate", "--model", str(model), "--input", str(test),
                         "--output", str(report)]) == 0
        fields = dict(line.split("\t") for line in report.read_text().splitlines())
        row = next(line.split("\t") for line in table.read_text().splitlines()
                   if line.startswith("mah-mean\tbeta\t"))
        assert row[2:] == [f"{float(fields[k]):.3f}"
                           for k in ("accuracy", "precision", "fpr", "f1")]


    @pytest.mark.parametrize("proj_dim", ["8", "64"])
    def test_square_head_is_usage_error(self, workspace, tmp_path, capsys, proj_dim):
        # every loss would get the identity head, so all six rows would agree
        _, data, _ = workspace
        capsys.readouterr()
        rc = cli.main(["ablate", "--input", str(data), "--output", str(tmp_path / "a.tsv"),
                       "--proj-dim", proj_dim])
        assert rc == cli.EXIT_USAGE
        assert f"--proj-dim {proj_dim} is not below d_in 8" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("proj-dim = 4\nwindow-mult = 10\nbatch-size = 16\n"
                       "beta-level = 0.9\n# a comment\n")
        out = tmp_path / "m.txt"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--config", str(cfg)]) == 0
        assert load_model(out).beta_level == 0.9

    def test_flags_override_config(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta-level = 0.5\n")
        out = tmp_path / "m.txt"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--beta-level", "0.95",
                         "--config", str(cfg)] + TRAIN_FLAGS) == 0
        assert load_model(out).beta_level == 0.95

    def test_unknown_key_is_usage_error(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning-speed = 9\n")
        rc = cli.main(["train", "--input", str(data), "--output",
                       str(tmp_path / "m.txt"), "--config", str(cfg)])
        assert rc == cli.EXIT_USAGE

    def test_bad_value_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch-size = abc\n")
        out = tmp_path / "m.txt"
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--config", str(cfg)])
        assert rc == cli.EXIT_USAGE
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_removed_refit_full_is_usage_error(self, workspace, tmp_path, where):
        # train always saves the refit under the final head, so the flag that
        # once chose it is an unknown flag, on the command line and in a file
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("refit-full = false\n")
        out = tmp_path / "m.txt"
        argv = ["train", "--input", str(data), "--output", str(out)] + TRAIN_FLAGS
        try:
            rc = cli.main(argv + (["--refit-full"] if where == "flag" else
                                  ["--config", str(cfg)]))
        except SystemExit as exc:  # argparse rejects a command-line flag itself
            rc = exc.code
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("train", "calibrate", "f1-fpr-cap"),
        ("ablate", "calibrate", "f1"),
        ("ablate", "loss", "cosine"),
    ])
    def test_removed_calibrate_and_ablate_loss_are_usage_errors(self, workspace, tmp_path,
                                                                command, key, value, where):
        # --fpr-cap alone sets the calibration policy and ablate trains every
        # loss, so these flags are unknown, on the command line and in a file
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        argv = [command, "--input", str(data), "--output", str(out), "--epochs", "0"] + TRAIN_FLAGS
        if command == "ablate":
            argv += ["--mlp-epochs", "0"]
        try:
            rc = cli.main(argv + ([f"--{key}", value] if where == "flag" else
                                  ["--config", str(cfg)]))
        except SystemExit as exc:  # argparse rejects a command-line flag itself
            rc = exc.code
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_abbreviated_flag_overrides_config(self, workspace, tmp_path):
        # 128 target training rows: batch size 8 logs 16 batches, 32 logs 4
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch-size = 32\n")
        log = tmp_path / "log.tsv"
        assert cli.main(["train", "--input", str(data), "--output", str(tmp_path / "m.txt"),
                         "--log", str(log), "--seed", "1", "--proj-dim", "4",
                         "--window-mult", "10", "--batch", "8", "--config", str(cfg)]) == 0
        assert len(log.read_text().splitlines()) == 16

    def test_non_utf8_config_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--config", str(cfg)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
        assert not out.exists()

    def test_malformed_line_is_usage_error(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no equals sign here\n")
        rc = cli.main(["train", "--input", str(data), "--output",
                       str(tmp_path / "m.txt"), "--config", str(cfg)])
        assert rc == cli.EXIT_USAGE


def _edit_model(src, dst, edits):
    """Copy a model file, setting the first value of each edited key."""
    lines = []
    for line in src.read_text().splitlines():
        key, *values = line.split(" ")
        if key in edits:
            values[0] = edits[key]
        lines.append(" ".join([key] + values))
    dst.write_text("\n".join(lines) + "\n")


class TestExitCodes:
    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize("edits", [
        {"mean": "nan"},
        {"cov": "inf"},
        {"beta_a": "2.5"},
        {"v_beta": "1.5"},
        {"v_beta": "0"},
        {"gauss_n": "5", "beta_b": "0.5"},  # n <= d+1 with consistent shapes
        {"ridge": "-100"},
        {"cov": "-5"},  # cov + ridge*I not positive definite
        {"w": "abc"},
        {"bias": "0x1"},
    ])
    def test_invalid_model_is_data_error(self, workspace, tmp_path, command, edits):
        _, data, model = workspace
        bad = tmp_path / "bad.txt"
        _edit_model(model, bad, edits)
        out = tmp_path / "out.tsv"
        rc = cli.main([command, "--model", str(bad), "--input", str(data),
                       "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("key", ["d_in", "d_out", "seed", "config_hash", "gauss_n",
                                     "ridge", "beta_level", "beta_a", "beta_b", "v_beta"])
    def test_repeated_model_key_is_data_error(self, workspace, tmp_path, capsys, key):
        _, data, model = workspace
        lines = model.read_text().splitlines(keepends=True)
        repeat = next(line for line in lines if line.split(" ")[0] == key)
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines[:-1] + [repeat, lines[-1]]))
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        rc = cli.main(["evaluate", "--model", str(bad), "--input", str(data),
                       "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert f"malformed artifact (repeated key {key!r})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "evaluate", "diagnose"])
    def test_dimension_mismatch_is_data_error(self, workspace, tmp_path, command):
        _, _, model = workspace
        wide = tmp_path / "wide.tsv"
        assert cli.main(["synth", "--output", str(wide), "--d-in", "16", "--n-target", "20",
                         "--m-non-target", "20", "--manifold-dim", "3"]) == 0
        out = tmp_path / "out"
        rc = cli.main([command, "--model", str(model), "--input", str(wide),
                       "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("k, use_model, dimension", [(9, False, "input dimension 8"),
                                                          (5, True, "projected dimension 4")],
                             ids=["raw", "model"])
    def test_k_above_the_dimension_is_usage_error(self, workspace, tmp_path, capsys,
                                                  k, use_model, dimension):
        _, data, model = workspace
        argv = ["diagnose", "--input", str(data), "--output", str(tmp_path / "rep"),
                "--k", str(k)] + (["--model", str(model)] if use_model else [])
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--k {k}" in err and dimension in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("loss", ["mah", "mah-mean"])
    def test_diverging_run_is_numerical_error(self, tmp_path, capsys, loss):
        # lr 1e6 blows the head up at the first step: mah similarities
        # underflow to zero, mah-mean's window covariance stops factoring;
        # a 31-dim head of the 32-dim rows, since a square head runs no SGD
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--seed", "1", "--d-in", "32",
                         "--n-target", "600", "--m-non-target", "300"]) == 0
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--seed", "1", "--loss", loss, "--lr", "1e6", "--proj-dim", "31"])
        assert rc == cli.EXIT_NUMERICAL
        assert "diverged at epoch 0, batch 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr, reason", [
        # the head stays finite but the window covariance overflows
        ("1e200", "batch 1: matrix has non-finite entries"),
        # the first Adam step overflows the head itself
        ("1e308", "batch 0: head parameters are not finite"),
    ], ids=["window", "head"])
    def test_huge_learning_rate_is_numerical_error(self, workspace, tmp_path, capsys,
                                                   lr, reason):
        _, data, _ = workspace
        out, log = tmp_path / "m.txt", tmp_path / "log.tsv"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out), "--log", str(log),
                       "--seed", "1", "--lr", lr] + TRAIN_FLAGS)
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"training diverged at epoch 0, {reason}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_separation_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.tsv"
        capsys.readouterr()
        rc = cli.main(["synth", "--output", str(out), "--d-in", "4", "--manifold-dim", "2",
                       "--separation", "1e308"])
        assert rc == cli.EXIT_USAGE
        assert "separation 1e+308 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_rows_fail_the_first_loss(self, far_data, tmp_path, capsys):
        # the first loss is NaN before any update: the input, not the step, is at fault
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(far_data), "--output", str(out),
                       "--seed", "1"] + TRAIN_FLAGS)
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "the first loss, before any update, is nan: the input rows overflow" in err
        assert "diverged" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("with_model", [False, True], ids=["raw", "model"])
    def test_overflowing_rows_fail_henze_zirkler_by_class(self, workspace, far_data, tmp_path,
                                                         capsys, recwarn, with_model):
        # the non-target class's covariance overflows in the Henze-Zirkler step
        _, _, model = workspace
        capsys.readouterr()
        rc = cli.main(["diagnose", "--input", str(far_data), "--output", str(tmp_path / "rep")]
                      + (["--model", str(model)] if with_model else []))
        assert rc == cli.EXIT_NUMERICAL
        assert ("error: class 0: Henze-Zirkler test failed: matrix has non-finite entries"
                in capsys.readouterr().err)
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        assert list(tmp_path.iterdir()) == []

    def test_refit_failure_names_the_refit(self, workspace, tmp_path, capsys):
        # the first target row overflows the refit's covariance; with no epochs
        # and a 16-row warm-start window it reaches nothing before the refit
        _, data, _ = workspace
        ds = load_dataset(data)
        ds.vectors[0] = 1e300
        huge = tmp_path / "huge.tsv"
        save_dataset(ds, huge)
        train_ds = split(ds, seed=1)[0]
        assert ds.labels[0] == 1 and train_ds.ids[0] == ds.ids[0]
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(huge), "--output", str(out), "--seed", "1",
                       "--epochs", "0", "--window-mult", "1"])
        assert rc == cli.EXIT_NUMERICAL
        assert (f"error: refit under the final head ({train_ds.n_target} rows, dimension 8, "
                "ridge 1e-06) does not factor: matrix has non-finite entries"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_warm_start_failure_names_the_window(self, tmp_path, capsys):
        # a 16-row window cannot span a 32-dim head of the 40-dim rows without
        # a ridge; the 40 target training rows are enough for the final refit
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--d-in", "40",
                         "--n-target", "50", "--m-non-target", "100"]) == 0
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out), "--ridge", "0",
                       "--proj-dim", "32", "--batch-size", "4", "--window-mult", "4"])
        assert rc == cli.EXIT_NUMERICAL
        assert "warm-start window (16 rows, dimension 32, ridge 0.0)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,part,flags", [
        ("train", 1, []),                         # the dev row fails calibration
        ("train", 1, ["--beta-level", "0.9"]),    # ... or the dev metrics
        ("ablate", 2, ["--mlp-epochs", "0"]),     # a test row fails the test metrics
        ("ablate", 0, ["--mlp-epochs", "0"]),     # a train row fails the MLP's input
    ])
    def test_overflowing_split_row_names_its_record(self, workspace, tmp_path, capsys,
                                                    recwarn, command, part, flags):
        # a split's row index is not the file's: the error names the record,
        # and a run that fails writes no model, log or table
        _, data, _ = workspace
        ds = load_dataset(data)
        rid = split(ds, seed=1)[part].ids[-1]
        ds.vectors[ds.ids.index(rid)] = 1.7e308
        huge = tmp_path / "huge.tsv"
        save_dataset(ds, huge)
        log = ["--log", str(tmp_path / "log.tsv")] if command == "train" else []
        capsys.readouterr()
        rc = cli.main([command, "--input", str(huge), "--output", str(tmp_path / "out"),
                       "--seed", "1", "--epochs", "0"] + TRAIN_FLAGS + flags + log)
        assert rc == cli.EXIT_NUMERICAL
        assert f"record {rid!r} does not project to finite values" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        assert [p.name for p in tmp_path.iterdir()] == ["huge.tsv"]

    def test_one_row_window_is_usage_error(self, workspace, tmp_path, capsys):
        # the loss needs a window fitted to at least 2 rows
        _, data, _ = workspace
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--batch-size", "1", "--window-mult", "1"])
        assert rc == cli.EXIT_USAGE
        assert "--batch-size 1 x --window-mult 1 gives a 1-row window" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    def test_model_without_projected_dimensions_is_data_error(self, workspace, tmp_path,
                                                               capsys, command):
        # d_out 0 with no w or cov rows, empty bias and mean, and the Beta
        # shapes such a file implies: consistent, but nothing to score with
        _, data, model = workspace
        lines = model.read_text().splitlines()
        n = int(next(line.split(" ")[1] for line in lines if line.startswith("gauss_n ")))
        edits = {"d_out": "0", "bias": "", "mean": "", "beta_a": "0", "beta_b": f"{n / 2:g}"}
        kept = []
        for line in lines:
            key = line.split(" ")[0]
            if key not in ("w", "cov"):
                kept.append(f"{key} {edits[key]}" if key in edits else line)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(kept) + "\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        rc = cli.main([command, "--model", str(bad), "--input", str(data),
                       "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert "malformed artifact (d_out 0 must be at least 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_dev_split_without_a_class_writes_nothing(self, tmp_path, capsys, recwarn):
        # 2 non-target rows both fall in the train split; --beta-level skips calibration
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--n-target", "200",
                         "--m-non-target", "2", "--d-in", "4", "--manifold-dim", "2",
                         "--seed", "1"]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(tmp_path / "m.txt"),
                       "--log", str(tmp_path / "log.tsv"), "--beta-level", "0.9"])
        assert rc == cli.EXIT_NUMERICAL
        assert "error: dev split: both classes must be present" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
        assert [p.name for p in tmp_path.iterdir()] == ["data.tsv"]

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_ragged_dataset_is_data_error(self, workspace, tmp_path, capsys, command):
        _, data, model = workspace
        ragged = tmp_path / "ragged.tsv"
        ragged.write_text(data.read_text() + "zz\t0\t1.0 2.0\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        rc = cli.main([command, "--model", str(model), "--input", str(ragged),
                       "--output", str(out)] if command == "infer" else
                      [command, "--input", str(ragged), "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert "line 481" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "diagnose"])
    def test_rows_without_components_are_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "empty_vectors.tsv"
        data.write_text("".join(f"r{i}\t{int(i < 20)}\t\n" for i in range(40)))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = cli.main([command, "--input", str(data), "--output", str(out)])
        assert rc == cli.EXIT_DATA
        assert "line 1: no vector components" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("command, flag, make", [
        ("infer", "--model", lambda p: p.write_text("mahaclass-model x\nend\n")),
        ("infer", "--model", lambda p: p.write_bytes(b"mahaclass-model 1\n\xff\nend\n")),
        ("infer", "--input", lambda p: p.write_bytes(b"r0\t1\t1.0\nr1\t0\t\xff\n")),
        ("train", "--input", lambda p: p.write_bytes(b"r0\t1\t\xe9\n")),
        ("infer", "--model", Path.mkdir),
        ("infer", "--input", Path.mkdir),
        ("train", "--input", Path.mkdir),
        ("infer", "--output", Path.mkdir),
        ("train", "--output", Path.mkdir),
    ], ids=["model-version-x", "model-not-utf8", "input-not-utf8", "train-input-not-utf8",
            "model-dir", "input-dir", "train-input-dir", "output-dir", "train-output-dir"])
    def test_unreadable_file_is_data_error(self, workspace, tmp_path, capsys,
                                           command, flag, make):
        _, data, model = workspace
        paths = {"--input": data, "--output": tmp_path / "out"}
        if command == "infer":
            paths["--model"] = model
        bad = paths[flag] = tmp_path / "bad"
        make(bad)
        capsys.readouterr()
        argv = [command] + [str(v) for kv in paths.items() for v in kv]
        rc = cli.main(argv + TRAIN_FLAGS if command == "train" else argv)
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad"]
        assert not bad.is_dir() or not any(bad.iterdir())

    @pytest.mark.parametrize("flag", ["--output", "--log"])
    def test_unwritable_train_output_writes_nothing(self, workspace, tmp_path, capsys, flag):
        # whichever of the model and the log cannot be written, neither is left behind
        _, data, _ = workspace
        paths = {"--output": tmp_path / "model.txt", "--log": tmp_path / "log.tsv"}
        bad = paths[flag] = tmp_path / "missing" / "file"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--seed", "1"] + TRAIN_FLAGS
                      + [str(v) for kv in paths.items() for v in kv])
        assert rc == cli.EXIT_DATA
        assert str(bad) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["train", "--beta-level", "1.5"],
        ["train", "--beta-level", "0"],
        ["train", "--beta-level", "nan"],
        ["train", "--fpr-cap", "7"],
        ["ablate", "--fpr-cap", "-0.1"],
        ["diagnose", "--k", "0"],
        ["ablate", "--mlp-epochs", "-1"],
        ["train", "--proj-dim", "0"],
        ["train", "--batch-size", "0"],
        ["train", "--window-mult", "0"],
        ["train", "--epochs", "-1"],
        ["ablate", "--proj-dim", "-2"],
        ["ablate", "--batch-size", "0"],
        ["ablate", "--window-mult", "-1"],
        ["ablate", "--epochs", "-1"],
        ["synth", "--d-in", "0"],
        ["synth", "--n-target", "0"],
        ["synth", "--m-non-target", "-5"],
        ["synth", "--manifold-dim", "0"],
    ])
    def test_out_of_range_flag_is_usage_error(self, workspace, tmp_path, capsys, argv):
        _, data, _ = workspace
        argv = argv + ["--output", str(tmp_path / "out")]
        if argv[0] != "synth":
            argv += ["--input", str(data)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "must " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--ridge"), ("train", "--lr"), ("ablate", "--ridge"), ("ablate", "--lr"),
        ("synth", "--separation"),
    ])
    def test_non_finite_flag_is_usage_error(self, workspace, tmp_path, capsys,
                                            command, flag, value):
        _, data, _ = workspace
        argv = [command, f"{flag}={value}", "--output", str(tmp_path / "out")]
        if command != "synth":
            argv += ["--input", str(data)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "must be finite" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line", ["beta-level = 1.5", "fpr-cap = 7",
                                      "ridge = nan", "lr = inf"])
    def test_out_of_range_config_value_is_usage_error(self, workspace, tmp_path, line):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "m.txt"
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--config", str(cfg)] + TRAIN_FLAGS)
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_negative_mlp_epochs_in_config_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mlp_epochs = -1\n")
        out = tmp_path / "grid.tsv"
        capsys.readouterr()
        rc = cli.main(["ablate", "--input", str(data), "--output", str(out),
                       "--config", str(cfg)] + TRAIN_FLAGS)
        assert rc == cli.EXIT_USAGE
        assert "--mlp-epochs: '-1' must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_mlp_epochs_is_accepted(self):
        args = cli.build_parser().parse_args(["ablate", "--input", "x", "--output", "y",
                                              "--mlp-epochs", "0"])
        assert args.mlp_epochs == 0

    def test_missing_input_is_data_error(self, tmp_path):
        rc = cli.main(["train", "--input", str(tmp_path / "nope.tsv"),
                       "--output", str(tmp_path / "m.txt")])
        assert rc == cli.EXIT_DATA

    def test_corrupt_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only one field\n")
        rc = cli.main(["infer", "--model", str(tmp_path / "m.txt"),
                       "--input", str(bad), "--output", str(tmp_path / "o.tsv")])
        assert rc == cli.EXIT_DATA

    def test_too_few_target_rows_is_usage_error(self, tmp_path, capsys):
        # too few targets for the decision statistic (n <= d+1 after split),
        # caught before any training
        rng = np.random.default_rng(0)
        lines = []
        for i in range(20):
            vec = " ".join(f"{v:.6f}" for v in rng.normal(size=10))
            lines.append(f"r{i}\t{1 if i < 10 else 0}\t{vec}")
        data = tmp_path / "tiny.tsv"
        data.write_text("\n".join(lines) + "\n")
        rc = cli.main(["train", "--input", str(data), "--output",
                       str(tmp_path / "m.txt"), "--proj-dim", "10",
                       "--window-mult", "2", "--batch-size", "4"])
        assert rc == cli.EXIT_USAGE
        assert ("--proj-dim 10 gives d_out 10, which needs more than 11 target training rows; "
                "the train split has 8") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("command", ["infer", "evaluate", "diagnose"])
    def test_non_finite_projection_is_numerical_error(self, workspace, tmp_path, capsys,
                                                      command):
        _, data, model = workspace
        ds = load_dataset(data)
        ds.vectors[2] = 1e308 * np.sign(load_model(model).weights[0])
        huge = tmp_path / "huge.tsv"
        save_dataset(ds, huge)
        capsys.readouterr()
        rc = cli.main([command, "--model", str(model), "--input", str(huge),
                       "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_NUMERICAL
        assert "row 2 of the input (counting from 0)" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["huge.tsv"]

    def test_unknown_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


def test_cli_import_leaves_scipy_packages_and_f2py_unloaded():
    # a fresh interpreter, since this suite itself imports these modules; the
    # CLI loads only scipy's LAPACK extension file (see mahaclass._lapack)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mahaclass.cli; print(*(m for m in "
            "('scipy.stats', 'scipy.special', 'scipy.linalg', 'numpy.f2py') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []
