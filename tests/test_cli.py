import numpy as np
import pytest

from mahaclass import cli
from mahaclass.data import load_model

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

    def test_invalid_train_config_is_usage_error(self, workspace, tmp_path):
        _, data, _ = workspace
        out = tmp_path / "m.txt"
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--proj-dim", "0"])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("loss", ["mah", "mah-mean"])
    def test_diverging_run_is_numerical_error(self, tmp_path, capsys, loss):
        # lr 1e6 blows the head up at the first step: mah similarities
        # underflow to zero, mah-mean's window covariance stops factoring
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--seed", "1", "--d-in", "32",
                         "--n-target", "600", "--m-non-target", "300"]) == 0
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out),
                       "--seed", "1", "--loss", loss, "--lr", "1e6"])
        assert rc == cli.EXIT_NUMERICAL
        assert "diverged at epoch 0, batch 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_numerical_error_exit(self, tmp_path):
        # too few targets for the decision statistic (n <= d+1 after split)
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
        assert rc == cli.EXIT_NUMERICAL

    def test_unknown_subcommand_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
