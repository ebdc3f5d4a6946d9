import gc
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
from mahaclass import cli, mahalanobis, metrics, trainer
from mahaclass import data as data_mod
from mahaclass.data import (
    SynthConfig,
    load_dataset,
    load_model,
    save_dataset,
    split,
    synth_benchmark,
    synth_target_moments,
)
from mahaclass.errors import NumericalError
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

    def test_fixed_beta_level(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "m.txt"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--seed", "1", "--beta-level", "0.9"] + TRAIN_FLAGS) == 0
        det = load_model(out)
        assert det.beta_level == 0.9
        # the printed level and critical value read back as the saved floats
        printed = re.search(r"\(beta=(\S+), v_beta=(\S+)\)", capsys.readouterr().out)
        assert (float(printed[1]), float(printed[2])) == (det.beta_level, det.v_beta)

    def test_training_log_written(self, workspace, tmp_path, monkeypatch):
        # an SGD run (--proj-dim 4 of 8 dims) logs one row per step: its epoch,
        # its batch and the loss that trainer.train returned, as %.17g
        _, data, _ = workspace
        returned = []
        train = trainer.train

        def keep(*args, **kwargs):
            returned.append(result := train(*args, **kwargs))
            return result

        monkeypatch.setattr(trainer, "train", keep)
        out = tmp_path / "m.txt"
        log = tmp_path / "log.tsv"
        assert cli.main(["train", "--input", str(data), "--output", str(out),
                         "--log", str(log), "--seed", "1"] + TRAIN_FLAGS) == 0
        (_, _, entries), = returned
        # 128 target training rows in batches of 16: 8 steps in the one epoch
        assert [(e.epoch, e.batch) for e in entries] == [(0, b) for b in range(8)]
        assert log.read_text() == "".join(f"{e.epoch}\t{e.batch}\t{format(e.loss, '.17g')}\n"
                                          for e in entries)

    @pytest.mark.parametrize("form", ["same-path", "existing", "symlink", "dotted"])
    def test_log_and_output_on_one_file_is_usage_error(self, workspace, tmp_path, capsys, form):
        # the model would replace the log: refused before --input is read, so
        # a missing --input, a data error, is not reported
        out = tmp_path / "model.txt"
        log = {"same-path": out, "existing": out, "symlink": tmp_path / "log.tsv",
               "dotted": f"{tmp_path}/./model.txt"}[form]
        if form == "existing":
            out.write_bytes(b"an earlier model\n")
        if form == "symlink":
            log.symlink_to(out)
        before = sorted(p.name for p in tmp_path.iterdir())
        for data in (workspace[1], tmp_path / "missing.tsv"):
            capsys.readouterr()
            rc = cli.main(["train", "--input", str(data), "--output", str(out),
                           "--log", str(log)] + TRAIN_FLAGS)
            assert rc == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err == f"error: --log and --output name the same file {out}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == before
            if form == "existing":
                assert out.read_bytes() == b"an earlier model\n"

    def test_log_and_output_may_both_be_dev_null(self, workspace):
        _, data, _ = workspace
        assert cli.main(["train", "--input", str(data), "--output", os.devnull,
                         "--log", os.devnull, "--seed", "1"] + TRAIN_FLAGS) == 0

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

    def test_evaluate_on_targets_only(self, workspace, tmp_path):
        # a file of fresh targets measures the target rejection rate; with
        # no non-target row, fpr and auc have nothing to count and read 0
        _, data, model = workspace
        targets = tmp_path / "targets.tsv"
        lines = data.read_text().splitlines(keepends=True)
        targets.write_text("".join(line for line in lines if line.split("\t")[1] == "1"))
        out = tmp_path / "metrics.txt"
        assert cli.main(["evaluate", "--model", str(model), "--input", str(targets),
                         "--output", str(out)]) == 0
        fields = dict(line.split("\t") for line in out.read_text().splitlines())
        assert int(fields["tp"]) + int(fields["fn"]) == 160
        assert (fields["fp"], fields["tn"]) == ("0", "0")
        assert (fields["fpr"], fields["auc"]) == ("0.000000", "0.000000")
        assert fields["degenerate"] == "fpr,auc"

    def test_evaluate_on_the_dev_split_prints_the_dev_metrics(self, tmp_path, capsys):
        # a 2-dim head of 32-dim rows, whose small products BLAS may round
        # apart from large ones: evaluate, scoring the dev split in chunks,
        # must give each row the T that train's calibration gave it
        data, model, dev = tmp_path / "data.tsv", tmp_path / "m.txt", tmp_path / "dev.tsv"
        assert cli.main(["synth", "--output", str(data), "--seed", "0"]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--input", str(data), "--output", str(model), "--seed", "0",
                         "--proj-dim", "2"]) == 0
        dev_metrics = capsys.readouterr().out.split("dev metrics:\n")[1]
        save_dataset(split(load_dataset(data), seed=0)[1], dev)
        assert cli.main(["evaluate", "--model", str(model), "--input", str(dev),
                         "--output", str(tmp_path / "metrics.txt")]) == 0
        assert capsys.readouterr().out == dev_metrics

    @pytest.mark.parametrize("flags", [[], ["--beta-level", "0.9"]])
    def test_train_scores_in_chunk_row_blocks(self, workspace, tmp_path, monkeypatch, flags):
        # calibration and the dev metrics use the T infer gives each row:
        # every solve is one block of CHUNK_ROWS rows, scored once
        _, data, _ = workspace
        sizes, scores = [], mahalanobis.scores
        monkeypatch.setattr(mahalanobis, "scores",
                            lambda model, z: sizes.append(len(z)) or scores(model, z))
        assert cli.main(["train", "--input", str(data), "--output", str(tmp_path / "m.txt"),
                         "--seed", "1"] + TRAIN_FLAGS + flags) == 0
        assert sizes == [data_mod.CHUNK_ROWS]


# fault -> (exit code, message); at 4 rows a chunk, row r is on line r + 1,
# in chunk r // 4 + 1, and the workspace's row r < 160 is record t00000r
CHUNK_FAULTS = {
    "overflow-in-chunk-2": (cli.EXIT_NUMERICAL,
                            "record 't000005' does not project to finite values"),
    "ragged-in-chunk-3": (cli.EXIT_DATA, "line 10: 2 components, expected 8"),
    "duplicate-across-chunks": (cli.EXIT_DATA, "line 7: duplicate id"),
    "not-utf8-after-chunk-1": (cli.EXIT_DATA, "not UTF-8 text"),
}


def _with_fault(lines, weights, fault) -> bytes:
    """The dataset lines with one CHUNK_FAULTS fault."""
    lines = list(lines)
    if fault == "overflow-in-chunk-2":
        rid, label, _ = lines[5].split("\t")
        lines[5] = f"{rid}\t{label}\t" + " ".join(f"{v:.17g}" for v in 1e308 * np.sign(weights))
    elif fault == "ragged-in-chunk-3":
        rid, label, vec = lines[9].split("\t")
        lines[9] = f"{rid}\t{label}\t" + " ".join(vec.split()[:2])
    elif fault == "duplicate-across-chunks":  # line 7 repeats line 1's id
        lines[6] = lines[0].split("\t")[0] + "\t" + lines[6].split("\t", 1)[1]
    text = "\n".join(lines).encode() + b"\n"
    if fault == "not-utf8-after-chunk-1":
        # past the first 8 KB the decoder reads, so the early chunks are scored first
        text += b"zz\t0\t\xff\n"
    return text


class TestChunkedScoring:
    """infer and evaluate read --input CHUNK_ROWS rows at a time (4 here)."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data_mod, "CHUNK_ROWS", 4)

    @pytest.mark.parametrize("existing", [False, True], ids=["new-output", "existing-output"])
    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize("fault", list(CHUNK_FAULTS))
    def test_bad_row_fails_the_run_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                      fault, command, existing):
        _, data, model = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(_with_fault(data.read_text().splitlines()[:60],
                                    load_model(model).weights[0], fault))
        out = tmp_path / "out.tsv"
        if existing:
            out.write_bytes(b"an earlier output\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        rc = cli.main([command, "--model", str(model), "--input", str(bad),
                       "--output", str(out)])
        code, message = CHUNK_FAULTS[fault]
        assert rc == code
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not existing or out.read_bytes() == b"an earlier output\n"

    def test_chunked_output_matches_one_chunk(self, workspace, tmp_path, monkeypatch):
        _, data, model = workspace
        outputs = {}
        for rows in (4, 480):  # 120 chunks, then the whole file as one
            monkeypatch.setattr(data_mod, "CHUNK_ROWS", rows)
            for command in ("infer", "evaluate"):
                out = tmp_path / f"{command}.{rows}"
                assert cli.main([command, "--model", str(model), "--input", str(data),
                                 "--output", str(out)]) == 0
                outputs[command, rows] = out.read_bytes()
        assert outputs["infer", 4] == outputs["infer", 480]
        assert outputs["evaluate", 4] == outputs["evaluate", 480]

    def test_infer_onto_its_own_input(self, workspace, tmp_path):
        _, data, model = workspace
        same = tmp_path / "same.tsv"
        same.write_bytes(data.read_bytes())
        separate = tmp_path / "separate.tsv"
        for out in (separate, same):
            assert cli.main(["infer", "--model", str(model), "--input", str(same),
                             "--output", str(out)]) == 0
        assert same.read_bytes() == separate.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["same.tsv", "separate.tsv"]

    def test_output_gets_the_mode_open_gives(self, workspace, tmp_path):
        _, data, model = workspace
        fresh, kept = tmp_path / "fresh.tsv", tmp_path / "kept.tsv"
        kept.write_text("old\n")
        kept.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for out in (fresh, kept):
                assert cli.main(["infer", "--model", str(model), "--input", str(data),
                                 "--output", str(out)]) == 0
        finally:
            os.umask(umask)
        assert (fresh.stat().st_mode & 0o777, kept.stat().st_mode & 0o777) == (0o644, 0o640)


class TestOutputKinds:
    """infer writes a regular --output by temp-and-replace and anything
    else as a plain open() would."""

    def _infer(self, model, data, out):
        return cli.main(["infer", "--model", str(model), "--input", str(data),
                         "--output", str(out)])

    def test_symlink_is_written_through(self, workspace, tmp_path):
        _, data, model = workspace
        expected, target = tmp_path / "expected.tsv", tmp_path / "target.tsv"
        link = tmp_path / "link"
        assert self._infer(model, data, expected) == 0
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert self._infer(model, data, link) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.tsv", "link",
                                                              "target.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_directly(self, workspace, tmp_path):
        _, data, model = workspace
        expected, fifo = tmp_path / "expected.tsv", tmp_path / "fifo"
        assert self._infer(model, data, expected) == 0
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert self._infer(model, data, fifo) == 0
        reader.join(timeout=30)
        assert received == [expected.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.tsv", "fifo"]

    @pytest.mark.parametrize("command", ["infer", "train", "evaluate"])
    def test_directory_is_data_error(self, workspace, tmp_path, capsys, command):
        _, data, model = workspace
        out = tmp_path / "out"
        out.mkdir()
        argv = TRAIN_FLAGS if command == "train" else ["--model", str(model)]
        capsys.readouterr()
        rc = cli.main([command, "--input", str(data), "--output", str(out)] + argv)
        assert rc == cli.EXIT_DATA
        assert f"Is a directory: '{out}'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and not any(out.iterdir())

    @pytest.mark.parametrize("command", ["synth", "ablate"])
    def test_failed_write_keeps_an_existing_output(self, workspace, tmp_path, capsys,
                                                   monkeypatch, command):
        # the file being written fails after three rows, as on a full disk,
        # whether the rows come one to a write or many
        _, data, _ = workspace
        real_open = open

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.rows = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                lines = text.splitlines(keepends=True)
                if self.rows + len(lines) > 3:
                    self.fh.write("".join(lines[:3 - self.rows]))
                    raise OSError(28, "No space left on device")
                self.rows += len(lines)
                return self.fh.write(text)

        def failing_open(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            return FailingFile(fh) if "w" in mode else fh

        # synth's rows are written by data.save_dataset, ablate's table by cli
        monkeypatch.setattr(data_mod if command == "synth" else cli, "open", failing_open,
                            raising=False)
        out = tmp_path / "out.tsv"
        out.write_bytes(b"an earlier output\n")
        argv = (SYNTH_FLAGS if command == "synth" else
                ["--input", str(data), "--mlp-epochs", "0"] + TRAIN_FLAGS)
        capsys.readouterr()
        assert cli.main([command, "--output", str(out), "--seed", "1"] + argv) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


@pytest.fixture(scope="module")
def sized_files(tmp_path_factory):
    """Default-benchmark files of 2k and 20k rows (d_in 32) and a model
    trained on the 2k one: ``{rows: path}`` and the model path."""
    root = tmp_path_factory.mktemp("sized")
    files = {rows: root / f"{rows}.tsv" for rows in (2000, 20000)}
    for rows, path in files.items():
        save_dataset(synth_benchmark(SynthConfig(n_target=rows // 5, m_non_target=rows * 4 // 5)),
                     path)
    model = root / "model.txt"
    assert cli.main(["train", "--input", str(files[2000]), "--output", str(model)]) == 0
    return files, model


def peak_rss_mb(argv) -> float:
    """The VmHWM of a fresh interpreter that runs ``cli.main(argv)``.  The
    child reads its own VmHWM: ru_maxrss would carry over this test
    process's peak across the exec."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from mahaclass import cli; rc = cli.main(sys.argv[1:]); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); sys.exit(rc)")
    result = subprocess.run([sys.executable, "-c", code] + [str(a) for a in argv],
                            env=env, capture_output=True, text=True, check=True)
    return int(result.stdout.split()[-1]) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_infer_peak_memory_is_flat_in_the_number_of_rows(sized_files, tmp_path):
    # peak RSS of infer on 2k and on 20k rows (d_in 32); a run that holds
    # every row grows about 1 KB per row
    files, model = sized_files
    peak_mb = {rows: peak_rss_mb(["infer", "--model", model, "--input", path,
                                  "--output", tmp_path / "out.tsv"])
               for rows, path in files.items()}
    assert peak_mb[20000] - peak_mb[2000] < 8, peak_mb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_diagnose_peak_memory_holds_each_class_once(sized_files, tmp_path):
    # peak RSS of diagnose --model on 2k and on 20k rows (d_in 32, a square
    # 32-dim head): the raw and the projected rows are each held whole once
    # (about 0.5 KB a row), and each class's PCA adds its (n, k)
    # coordinates, not a centered copy and an (n, d) U.  The growth read
    # 9.1-9.3 MB; with the centered copy and U it read 18.8-19.0 MB
    files, model = sized_files
    peak_mb = {rows: peak_rss_mb(["diagnose", "--model", model, "--input", path,
                                  "--output", tmp_path / "diag"])
               for rows, path in files.items()}
    assert peak_mb[20000] - peak_mb[2000] < 14, peak_mb


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

    @pytest.mark.parametrize("existing", [False, True], ids=["new-reports", "existing-reports"])
    def test_unwritable_report_writes_no_report(self, workspace, tmp_path, capsys, existing):
        # the three reports are replaced together, or not at all
        _, data, model = workspace
        (tmp_path / "diag.dist.tsv").mkdir()
        if existing:
            for suffix in (".normality.tsv", ".qq.tsv"):
                (tmp_path / ("diag" + suffix)).write_text("an earlier report\n")
        before = {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc = cli.main(["diagnose", "--input", str(data), "--model", str(model),
                       "--output", str(tmp_path / "diag")])
        assert rc == cli.EXIT_DATA
        assert f"Is a directory: '{tmp_path / 'diag.dist.tsv'}'" in capsys.readouterr().err
        assert {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()} == before
        assert not any((tmp_path / "diag.dist.tsv").iterdir())

    @pytest.mark.parametrize("existing", [False, True], ids=["new-reports", "existing-reports"])
    def test_failing_qq_report_writes_no_report(self, workspace, tmp_path, capsys, monkeypatch,
                                                existing):
        # a Q-Q report that fails half-written leaves all three paths as they were
        from mahaclass import diagnostics

        def failing_qq(fh, reports):
            fh.write("label\ttheoretical\tsample\n0\t-1.5\t-1.5\n")
            raise NumericalError("Q-Q report failed")

        _, data, model = workspace
        monkeypatch.setattr(diagnostics, "emit_qq", failing_qq)
        if existing:
            for suffix in (".normality.tsv", ".qq.tsv", ".dist.tsv"):
                (tmp_path / ("diag" + suffix)).write_text("an earlier report\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc = cli.main(["diagnose", "--input", str(data), "--model", str(model),
                       "--output", str(tmp_path / "diag")])
        assert rc == cli.EXIT_NUMERICAL
        assert "error: Q-Q report failed" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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

    def test_table_takes_no_auc(self, workspace, tmp_path, monkeypatch):
        # the table has no AUC column, so no row ranks the test split for one
        _, data, _ = workspace
        argv = ["ablate", "--input", str(data), "--seed", "1", "--mlp-epochs", "1"] + TRAIN_FLAGS
        assert cli.main(argv + ["--output", str(tmp_path / "ranked.tsv")]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("metrics.roc_auc called")

        monkeypatch.setattr(metrics, "roc_auc", fail)
        assert cli.main(argv + ["--output", str(tmp_path / "unranked.tsv")]) == 0
        assert (tmp_path / "unranked.tsv").read_bytes() == (tmp_path / "ranked.tsv").read_bytes()

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

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_config_supplies_required_flags(self, workspace, tmp_path, command):
        # every required flag from the file, found under an abbreviated
        # --config too: the run writes what a flag-only run writes, since the
        # config hash ignores --config, --input and --output
        _, data, model = workspace
        by_file, by_flags = tmp_path / "by_file.out", tmp_path / "by_flags.out"
        required = {"input": data} if command == "train" else {"model": model, "input": data}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in required.items())
                       + f"output = {by_file}\n")
        extra = ["--seed", "1"] + TRAIN_FLAGS if command == "train" else []
        for spelling in ("--config", "--conf"):
            by_file.unlink(missing_ok=True)
            assert cli.main([command, spelling, str(cfg)] + extra) == 0
            flags = [f"--{k}={v}" for k, v in required.items()]
            assert cli.main([command, "--output", str(by_flags)] + flags + extra) == 0
            assert by_file.read_bytes() == by_flags.read_bytes()

    def test_config_without_a_value_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        assert cli.main(["train", "--input", str(data), "--output", str(tmp_path / "m.txt"),
                         "--config"]) == cli.EXIT_USAGE
        assert "argument --config: expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        rc = cli.main(argv + (["--refit-full"] if where == "flag" else ["--config", str(cfg)]))
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
        rc = cli.main(argv + ([f"--{key}", value] if where == "flag" else
                              ["--config", str(cfg)]))
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

    def test_overflowing_row_after_an_update_is_divergence(self, workspace, tmp_path, capsys):
        # one non-target train row near 1e300 makes the loss NaN only in the
        # batch that draws it, here the fifth: the first loss is finite, so
        # this reports a divergence, not overflowing input
        _, data, _ = workspace
        ds = load_dataset(data)
        train_ds = split(ds, seed=1)[0]
        rid = next(r for r, label in zip(train_ds.ids, train_ds.labels) if label == 0)
        ds.vectors[ds.ids.index(rid)] = 1e300
        huge = tmp_path / "huge.tsv"
        save_dataset(ds, huge)
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(huge), "--output", str(tmp_path / "m.txt"),
                       "--log", str(tmp_path / "log.tsv"), "--seed", "1"] + TRAIN_FLAGS)
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: training diverged at epoch 0, batch 4: loss is nan\n"
        assert [p.name for p in tmp_path.iterdir()] == ["huge.tsv"]

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

    @pytest.mark.parametrize("loss", ["mah", "mah-mean", "cosine"])
    def test_warm_start_failure_names_the_window(self, tmp_path, capsys, loss):
        # a 16-row window cannot span a 32-dim head of the 40-dim rows without
        # a ridge; the 40 target training rows are enough for the final refit.
        # The cosine loss reads no window, so its run trains
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--d-in", "40",
                         "--n-target", "50", "--m-non-target", "100"]) == 0
        out = tmp_path / "m.txt"
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--output", str(out), "--ridge", "0",
                       "--proj-dim", "32", "--batch-size", "4", "--window-mult", "4",
                       "--loss", loss])
        if loss == "cosine":
            assert rc == cli.EXIT_OK
            assert load_model(out).weights.shape == (32, 40)
            return
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

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_one_class_dev_split_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # the same data, calibrating: the dev split is checked before any SGD
        data = tmp_path / "data.tsv"
        assert cli.main(["synth", "--output", str(data), "--n-target", "200",
                         "--m-non-target", "2", "--d-in", "4", "--manifold-dim", "2",
                         "--seed", "1"]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("trainer.train called")

        monkeypatch.setattr(trainer, "train", fail)
        rc = cli.main([command, "--input", str(data), "--output", str(tmp_path / "out"),
                       "--proj-dim", "2"])
        assert rc == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: dev split: both classes must be present\n"
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

    def test_failed_log_keeps_an_existing_model(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        model = tmp_path / "model.txt"
        model.write_bytes(b"an earlier model\n")
        capsys.readouterr()
        rc = cli.main(["train", "--input", str(data), "--seed", "1", "--output", str(model),
                       "--log", str(tmp_path / "missing" / "log.tsv")] + TRAIN_FLAGS)
        assert rc == cli.EXIT_DATA
        assert str(tmp_path / "missing" / "log.tsv") in capsys.readouterr().err
        assert model.read_bytes() == b"an earlier model\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]

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
        ["synth", "--components", "1"],
        ["synth", "--seed", "-1"],
        ["synth", "--seed", str(2**63)],
        ["train", "--seed", "-1"],
        ["ablate", "--seed", str(2**63)],
    ])
    def test_out_of_range_flag_is_usage_error(self, workspace, tmp_path, capsys, argv):
        _, data, _ = workspace
        argv = argv + ["--output", str(tmp_path / "out")]
        if argv[0] != "synth":
            argv += ["--input", str(data)]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_USAGE
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
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "must be finite" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line", ["beta-level = 1.5", "fpr-cap = 7", "ridge = nan",
                                      "lr = inf", "components = 1", "seed = -1"])
    def test_out_of_range_config_value_is_usage_error(self, workspace, tmp_path, capsys, line):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "m.txt"
        argv = ["--output", str(out), "--config", str(cfg)]
        argv = (["synth"] + argv if line.startswith("components") else
                ["train", "--input", str(data)] + argv + TRAIN_FLAGS)
        capsys.readouterr()
        rc = cli.main(argv)
        assert rc == cli.EXIT_USAGE
        key, _, value = line.split()
        assert f"argument --{key}: '{value}' must" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_range_ends_are_accepted(self):
        parser = cli.build_parser()
        for seed in (0, 2**63 - 1):
            assert parser.parse_args(["synth", "--output", "d", "--seed", str(seed)]).seed == seed

    def test_oversized_synth_is_usage_error(self, tmp_path, capsys):
        # refused by SynthConfig before any array is allocated
        out = tmp_path / "d.tsv"
        capsys.readouterr()
        assert cli.main(["synth", "--output", str(out), "--n-target", str(2**62)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {2**62 + 8000} rows of dimension 32 exceed the largest "
                                "array of 8-byte floats\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["synth_benchmark", "save_dataset"])
    def test_out_of_memory_is_numerical_error(self, tmp_path, capsys, monkeypatch, where):
        # a patched allocation: a real one this large could start filling memory
        def exhausted(*args):
            raise MemoryError("Unable to allocate 233. TiB for an array")

        monkeypatch.setattr(data_mod, where, exhausted)
        out = tmp_path / "d.tsv"
        capsys.readouterr()
        assert cli.main(["synth", "--output", str(out), "--n-target", "50",
                         "--m-non-target", "50"]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 233. TiB for an array\n"
        assert list(tmp_path.iterdir()) == []

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
        assert (f"record {ds.ids[2]!r} does not project to finite values"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["huge.tsv"]

    def test_unknown_subcommand_is_usage(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


class TestFrontDoor:
    """cli.main returns the exit code of every outcome, and a value read from
    a --config line is refused as the same value given as a flag is."""

    @pytest.mark.parametrize("flag, value", [("batch-size", "0"), ("ridge", "nan"),
                                             ("beta-level", "1.5")])
    def test_flag_and_config_line_fail_alike(self, workspace, tmp_path, capsys, flag, value):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        argv = ["train", "--input", str(data), "--output", str(tmp_path / "m.txt"),
                "--log", str(tmp_path / "log.tsv")]
        last_lines = []
        for given in ([f"--{flag}", value], ["--config", str(cfg)]):
            capsys.readouterr()
            assert cli.main(argv + given) == cli.EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            last_lines.append(err.splitlines()[-1])
        assert last_lines[0] == last_lines[1]
        assert last_lines[0].startswith(
            f"mahaclass train: error: argument --{flag}: '{value}' must")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_beta_level_and_fpr_cap_are_alternatives(self, tmp_path, capsys, command):
        # a fixed level skips calibration, which is what the cap bounds: both
        # is a usage error at parse time, before --input (absent here) is read
        cfg, cap_cfg = tmp_path / "run.cfg", tmp_path / "cap.cfg"
        cfg.write_text("fpr_cap = 0.1\nbeta_level = 0.9\n")
        cap_cfg.write_text("fpr-cap = 0.1\n")
        argv = [command, "--input", str(tmp_path / "missing.tsv"), "--output", str(tmp_path / "out")]
        for given in (["--fpr-cap", "0.1", "--beta-level", "0.9"], ["--config", str(cfg)],
                      ["--config", str(cap_cfg), "--beta-level", "0.9"]):
            capsys.readouterr()
            assert cli.main(argv + given) == cli.EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and "[--fpr-cap FPR_CAP | --beta-level BETA_LEVEL]" in err
            assert err.endswith(f"mahaclass {command}: error: argument --beta-level: "
                                "not allowed with argument --fpr-cap\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.cfg", "run.cfg"]

    def test_entry_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # the freeze itself is checked in a fresh interpreter
        # (test_each_command_loads_only_the_modules_it_runs); here it would
        # freeze this test process's heap
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        monkeypatch.setattr(sys, "argv", ["mahaclass", "frobnicate"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == cli.EXIT_USAGE
        assert frozen == [True]
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_help_and_a_missing_command_return_their_codes(self, capsys):
        assert cli.main(["train", "--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: mahaclass train ")
        assert cli.main([]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: command\n")


def test_cli_import_leaves_scipy_packages_and_f2py_unloaded():
    # a fresh interpreter, since this suite itself imports these modules; the
    # CLI loads only scipy's LAPACK extension file (see mahaclass._scipy)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mahaclass.cli; print(*(m for m in "
            "('scipy', 'scipy.stats', 'scipy.special', 'scipy.linalg', 'numpy.f2py') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == []


def test_commands_skip_the_scipy_special_package(tmp_path):
    # a fresh interpreter runs infer and evaluate, which load nothing of
    # scipy.special, then train and diagnose, whose ufuncs come from its
    # _ufuncs extension (see mahaclass._scipy): the package __init__, and
    # the scipy._lib._array_api it imports, never run
    data, model = tmp_path / "data.tsv", tmp_path / "model.txt"
    assert cli.main(["synth", "--output", str(data), "--seed", "1"] + SYNTH_FLAGS) == 0
    assert cli.main(["train", "--input", str(data), "--output", str(model), "--seed", "1"]
                    + TRAIN_FLAGS) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = """if True:
        import sys
        from mahaclass import cli
        model, data, out, *train_flags = sys.argv[1:]
        def loaded(prefix):
            return sorted(m for m in sys.modules if m.startswith(prefix))
        for command in ("infer", "evaluate"):
            assert cli.main([command, "--model", model, "--input", data,
                             "--output", out + command]) == 0
        assert loaded("scipy.special") == [], loaded("scipy.special")
        assert cli.main(["train", "--input", data, "--output", out + "model", "--seed", "1",
                         *train_flags]) == 0
        assert cli.main(["diagnose", "--input", data, "--model", model,
                         "--output", out + "diag"]) == 0
        assert "scipy.special._ufuncs" in sys.modules
        assert loaded("scipy._lib._array_api") == [], loaded("scipy._lib._array_api")
        assert "scipy.special" not in sys.modules
    """
    result = subprocess.run([sys.executable, "-c", code, str(model), str(data),
                             str(tmp_path / "out_"), *TRAIN_FLAGS],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_only_hashing_commands_load_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto; only commands that take a digest
    # (seeds.rng_for, the model's config hash) import it, and only diagnose
    # imports mahaclass.diagnostics
    data, model = tmp_path / "data.tsv", tmp_path / "model.txt"
    assert cli.main(["synth", "--output", str(data), "--seed", "1"] + SYNTH_FLAGS) == 0
    assert cli.main(["train", "--input", str(data), "--output", str(model), "--seed", "1"]
                    + TRAIN_FLAGS) == 0
    code = """if True:
        import sys
        from mahaclass import cli
        model, data, out, *train_flags = sys.argv[1:]
        def loaded(*names):
            return [m for m in names if m in sys.modules]
        assert loaded("hashlib", "_hashlib", "mahaclass.diagnostics") == [], loaded(
            "hashlib", "_hashlib", "mahaclass.diagnostics")
        for argv in (["infer", "--model", model], ["evaluate", "--model", model],
                     ["diagnose", "--model", model], ["diagnose"]):
            assert cli.main(argv + ["--input", data, "--output", out + argv[0]]) == 0
            assert loaded("hashlib", "_hashlib") == [], (argv, loaded("hashlib", "_hashlib"))
        assert cli.main(["train", "--input", data, "--output", out + "model", "--seed", "1",
                         *train_flags]) == 0
        assert loaded("hashlib") == ["hashlib"]
    """
    run_fresh(code, str(model), str(data), str(tmp_path / "out_"), *TRAIN_FLAGS)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # a fresh interpreter per command: synth loads no model, training or
    # metrics code, nor scipy's LAPACK extension file; the commands that
    # read a model load no training code; entry(), not main(), freezes
    # the import-time heap
    data, model = tmp_path / "data.tsv", tmp_path / "model.txt"
    assert cli.main(["synth", "--output", str(data), "--seed", "1"] + SYNTH_FLAGS) == 0
    assert cli.main(["train", "--input", str(data), "--output", str(model), "--seed", "1"]
                    + TRAIN_FLAGS) == 0
    code = """if True:
        import gc, sys
        from mahaclass import cli
        assert cli.main(sys.argv[1:]) == 0
        assert gc.get_freeze_count() == 0
        print(*(m for m in sys.modules
                if m.startswith("mahaclass.") or m == "scipy.linalg._flapack"))
    """
    out = str(tmp_path / "out_")

    def loaded(*argv):
        return set(run_fresh(code, *argv).split())

    never_in_synth = {f"mahaclass.{m}" for m in (
        "linalg", "_scipy", "mahalanobis", "betadist", "metrics", "trainer", "loss")}
    never_in_synth.add("scipy.linalg._flapack")
    synth = loaded("synth", "--output", out + "synth", *SYNTH_FLAGS)
    assert synth & never_in_synth == set(), synth & never_in_synth
    for argv in (["infer", "--model", str(model)], ["evaluate", "--model", str(model)],
                 ["diagnose", "--model", str(model)], ["diagnose"]):
        modules = loaded(*argv, "--input", str(data), "--output", out + argv[0])
        assert modules & {"mahaclass.trainer", "mahaclass.loss"} == set(), (argv, modules)

    code = """if True:
        import gc, sys
        from mahaclass import cli
        sys.argv = ["mahaclass", *sys.argv[1:]]
        try:
            cli.entry()
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert gc.get_freeze_count() > 0
    """
    run_fresh(code, "synth", "--output", out + "entry", *SYNTH_FLAGS)


def test_train_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (and inspect) on its first call; calibration
    # takes its distinct dev statistics by a sort instead
    data = tmp_path / "data.tsv"
    assert cli.main(["synth", "--output", str(data), "--seed", "1"] + SYNTH_FLAGS) == 0
    code = """if True:
        import sys
        from mahaclass import cli
        data, out, *train_flags = sys.argv[1:]
        assert cli.main(["train", "--input", data, "--output", out, *train_flags]) == 0
        assert "numpy.ma" not in sys.modules
    """
    run_fresh(code, str(data), str(tmp_path / "model.txt"), *TRAIN_FLAGS)
