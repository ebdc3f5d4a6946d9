import math
import re
import warnings
from dataclasses import replace
from decimal import Context, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_fresh
from mahaclass import data as data_mod
from mahaclass.betadist import BetaParams
from mahaclass.data import (
    Detector,
    EmbeddingDataset,
    SynthConfig,
    finite_projection,
    load_dataset,
    load_model,
    padded_blocks,
    read_chunks,
    save_dataset,
    save_model,
    split,
    synth_benchmark,
    synth_target_moments,
)
from mahaclass.errors import ConfigError, DataError, NumericalError
from mahaclass.linalg import GaussianModel, cholesky
from mahaclass.mahalanobis import DecisionThreshold, beta_decide, scores
from mahaclass.metrics import score
from mahaclass.trainer import ProjectionHead, TrainConfig, train


def toy_dataset(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingDataset([f"r{i}" for i in range(n)], np.arange(n) % 2,
                            rng.normal(size=(n, d)))


class TestDataset:
    def test_counts(self):
        ds = toy_dataset(10)
        assert len(ds) == 10
        assert ds.d_in == 3
        assert ds.n_target == 5
        assert ds.m_non_target == 5

    def test_duplicate_id(self):
        with pytest.raises(DataError, match="duplicate id 'a'"):
            EmbeddingDataset(["a", "a"], np.array([1, 0]), np.array([np.zeros(2), np.ones(2)]))

    def test_ragged_dimensions(self):
        # columns whose shapes disagree; a ragged file is the loader's DataError
        with pytest.raises(NumericalError, match="do not line up"):
            EmbeddingDataset(["a", "b"], np.array([1, 0]), np.zeros((3, 2)))
        with pytest.raises(NumericalError, match="do not line up"):
            EmbeddingDataset(["a", "b"], np.array([1, 0, 1]), np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="do not line up"):
            EmbeddingDataset(["a", "b"], np.array([1, 0]), np.zeros(2))

    def test_non_finite(self):
        with pytest.raises(DataError, match="'b'"):
            EmbeddingDataset(["a", "b"], np.array([1, 0]), np.array([[1.0, 2.0], [1.0, np.nan]]))

    def test_bad_label(self):
        with pytest.raises(DataError, match="'b' has label 2"):
            EmbeddingDataset(["a", "b"], np.array([1, 2]), np.zeros((2, 2)))

    def test_empty(self):
        with pytest.raises(ConfigError, match="at least one record"):
            EmbeddingDataset([], np.zeros(0, dtype=int), np.zeros((0, 2)))

    def test_class_views(self):
        ds = toy_dataset(6)
        assert ds.target_vectors().shape == (3, 3)
        assert ds.non_target_vectors().shape == (3, 3)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1, 0, 1])


# both readers of a dataset file; TestDatasetIo reads in chunks of 2 rows,
# so a bad line past the first chunk is found while reading a later one
READERS = (load_dataset, lambda path: list(read_chunks(path)))


class TestDatasetIo:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data_mod, "CHUNK_ROWS", 2)

    def test_round_trip_bit_exact(self, tmp_path):
        ds = toy_dataset(12, seed=1)
        path = tmp_path / "ds.tsv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.ids == ds.ids
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.vectors, ds.vectors)
        # a second save must reproduce the file byte for byte
        path2 = tmp_path / "ds2.tsv"
        save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("rows", [1, 3, 11, 12, 17])  # 1, 3, N-1, N and N+5 for N = 12
    def test_chunks_join_to_the_whole_file(self, tmp_path, monkeypatch, rows):
        ds = toy_dataset(12, seed=2)
        path = tmp_path / "ds.tsv"
        save_dataset(ds, path)
        monkeypatch.setattr(data_mod, "CHUNK_ROWS", 256)
        whole = load_dataset(path)  # one chunk
        monkeypatch.setattr(data_mod, "CHUNK_ROWS", rows)
        chunks = list(read_chunks(path))
        assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= rows
        assert [rid for c in chunks for rid in c.ids] == whole.ids == ds.ids
        labels = np.concatenate([c.labels for c in chunks])
        assert labels.tobytes() == whole.labels.tobytes() == ds.labels.tobytes()
        vectors = np.concatenate([c.vectors for c in chunks])
        assert vectors.tobytes() == whole.vectors.tobytes() == ds.vectors.tobytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = toy_dataset(5, seed=3)
        plain, blank = tmp_path / "plain.tsv", tmp_path / "blank.tsv"
        save_dataset(ds, plain)
        # an empty line between each two records and two after the last
        blank.write_text("\n".join(plain.read_text().splitlines(keepends=True)) + "\n\n")
        whole, back = load_dataset(plain), load_dataset(blank)
        assert back.ids == whole.ids == ds.ids
        assert back.labels.tobytes() == whole.labels.tobytes()
        assert back.vectors.tobytes() == whole.vectors.tobytes()
        # CHUNK_ROWS is 2: each chunk holds 2 records, not 2 lines
        assert [c.ids for c in read_chunks(blank)] == [ds.ids[:2], ds.ids[2:4], ds.ids[4:]]

    def test_duplicate_id_across_chunks(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("a\t1\t1.0\nb\t0\t2.0\nc\t0\t3.0\na\t0\t4.0\n")
        chunks = read_chunks(p)
        assert next(chunks).ids == ["a", "b"]
        with pytest.raises(DataError, match="line 4: duplicate id 'a'"):
            next(chunks)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\t1\n")
        for read in READERS:
            with pytest.raises(DataError, match="line 1"):
                read(p)

    def test_bad_label(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\t2\t1.0 2.0\n")
        for read in READERS:
            with pytest.raises(DataError, match="line 1: label must be 0 or 1, got '2'"):
                read(p)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "ragged.tsv"
        p.write_text("a\t1\t1.0 2.0 3.0\nb\t0\t1.0 2.0 3.0\nzz\t0\t1.0 2.0\n")
        for read in READERS:
            with pytest.raises(DataError, match="line 3"):
                read(p)

    def test_no_components(self, tmp_path):
        p = tmp_path / "empty_vectors.tsv"
        p.write_text("".join(f"r{i}\t{i % 2}\t\n" for i in range(4)))
        for read in READERS:
            with pytest.raises(DataError, match="line 1: no vector components"):
                read(p)

    def test_bad_float(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\t1\t1.0 oops\n")
        for read in READERS:
            with pytest.raises(DataError, match="line 1"):
                read(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        for read in READERS:
            with pytest.raises(DataError, match="no records"):
                read(p)


GOOD = b"a\t1\t1.5 -2.25\nb\t0\t3 4\n"
# (file bytes, what reading gives: a regex of the DataError, or the vectors);
# the bad rows sit on lines 3-4, one chunk at CHUNK_ROWS 2 as at 256
PARSE_CASES = {
    "crlf": (b"a\t1\t1.5 -2.25\r\nb\t0\t3 4\r\n", [[1.5, -2.25], [3, 4]]),
    "space-runs": (b"a\t1\t1.5    -2.25\nb\t0\t3  4\n", [[1.5, -2.25], [3, 4]]),
    "outer-spaces": (b"a\t1\t  1.5 -2.25 \nb\t0\t 3 4   \n", [[1.5, -2.25], [3, 4]]),
    "formfeed": (GOOD + b"c\t1\t5\x0c6\n", [[1.5, -2.25], [3, 4], [5, 6]]),
    "nbsp": (GOOD + "c\t1\t5\xa06\n".encode(), [[1.5, -2.25], [3, 4], [5, 6]]),
    "en-quad": (GOOD + "c\t1\t5\u20006\n".encode(), [[1.5, -2.25], [3, 4], [5, 6]]),
    "subnormal": (GOOD + b"c\t1\t4e-320 -0\n", [[1.5, -2.25], [3, 4], [4e-320, -0.0]]),
    "overflow": (GOOD + b"c\t1\t1e400 0\n", "record 'c' contains non-finite values"),
    "nan": (GOOD + b"c\t1\t0 nan\n", "record 'c' contains non-finite values"),
    # the strtold route reads these; the midpoints and the subnormal
    # boundary are converted again by float()
    "mixed-forms": (GOOD + b"c\t1\t1E5 -.5e-3\nd\t0\t+7. 00012\n",
                    [[1.5, -2.25], [3, 4], [1e5, -5e-4], [7, 12]]),
    "midpoints": (GOOD + b"c\t1\t9007199254740993 4.9406564584124654e-324\n",
                  [[1.5, -2.25], [3, 4], [9007199254740992.0, 5e-324]]),
    # float() takes these, the strtold route refuses them
    "infinity": (GOOD + b"c\t1\tInfinity 0\n", "record 'c' contains non-finite values"),
    "vertical-tab": (GOOD + b"c\t1\t5\x0b6\n", [[1.5, -2.25], [3, 4], [5, 6]]),
    "underscore": (GOOD + b"c\t1\t1_0 0\n", [[1.5, -2.25], [3, 4], [10, 0]]),
    "arabic-digit": (GOOD + "c\t1\t١ 0\n".encode(), [[1.5, -2.25], [3, 4], [1, 0]]),
    # both routes refuse these
    "nan-payload": (GOOD + b"c\t1\tnan(1) 0\n",
                    "line 3: could not convert string to float: 'nan\\(1\\)'"),
    "hex": (GOOD + b"c\t1\t0 0x1p3\n", "line 3: could not convert string to float: '0x1p3'"),
    "hash": (GOOD + b"c\t1\t#2 0\n", "line 3: could not convert string to float: '#2'"),
    "minus-inside": (GOOD + b"c\t1\t1-2 0\n", "line 3: could not convert string to float: '1-2'"),
    "bare-exponent": (GOOD + b"c\t1\t1e 0\n", "line 3: could not convert string to float: '1e'"),
    # 3 + 1 components balance the chunk's total of 2 a row at 256 rows a chunk
    "widths-balance": (GOOD + b"c\t1\t1 2 3\nd\t0\t4\n", "line 3: 3 components, expected 2"),
    "extra-tab": (b"a\t1\t1 2\t3\n", "line 1: expected 3 tab-separated fields"),
    "empty-vector": (GOOD + b"c\t1\t\n", "line 3: no vector components"),
    "space-vector": (GOOD + b"c\t1\t   \n", "line 3: no vector components"),
    # a first chunk of one empty vector field would read as width 0
    "all-empty-vectors": (b"a\t1\t\n", "line 1: no vector components"),
    "bad-float-then-label": (GOOD + b"c\t1\t1 x\nd\t2\t1 2\n",
                             "line 3: could not convert string to float: 'x'"),
    "bad-label-then-float": (GOOD + b"c\t2\t1 2\nd\t1\t1 x\n", "line 3: label must be 0 or 1"),
    # empty lines are skipped, but a message names the file line
    "blank-lines": (b"\na\t1\t1.5 -2.25\n\nb\t0\t3 4\n\n\n", [[1.5, -2.25], [3, 4]]),
    "blank-then-bad-label": (b"a\t1\t1 2\n\nb\t0\t3 4\n\n\nc\t2\t1 2\n",
                             "line 6: label must be 0 or 1"),
    "duplicate-in-chunk": (GOOD + b"c\t1\t1 2\nc\t0\t1 2\n", "line 4: duplicate id 'c'"),
    "ragged-then-float": (GOOD + b"c\t1\t1\nd\t0\t1 x\n", "line 3: 1 components, expected 2"),
    # line 4's bad byte lies past the decoder's first 8 KiB block, so line 3
    # is read (and is the first bad line) before the file fails to decode
    "bad-float-then-byte": (GOOD + b"c\t1\t1 x\nd\t0\t" + b"1 " * 5000 + b"\xff\n",
                            "line 3: could not convert string to float: 'x'"),
    "byte-in-first-block": (GOOD + b"c\t1\t1 x\nd\t0\t1 \xff\n", "not UTF-8 text"),
}


class TestBulkParse:
    """The two routes of a chunk's vectors: the strtold read
    (``_strtold_vectors``) and the per-line parse (``_strtold_vectors``
    off).  Each file gives the same ids, labels and vector bytes, or the
    same DataError, by both routes at 2 and 256 rows a chunk."""

    @staticmethod
    def outcome(path):
        try:
            ds = load_dataset(path)
        except DataError as exc:
            return str(exc)
        return ds.ids, ds.labels.tolist(), ds.vectors.tobytes()

    @classmethod
    def outcomes(cls, path, monkeypatch):
        out = []
        for rows in (2, 256):
            monkeypatch.setattr(data_mod, "CHUNK_ROWS", rows)
            out.append(cls.outcome(path))
            with monkeypatch.context() as m:
                m.setattr(data_mod, "_strtold_vectors", lambda vecs, width: None)
                out.append(cls.outcome(path))
        return out

    @staticmethod
    def assert_expected(outcome, expected):
        if isinstance(expected, str):
            assert isinstance(outcome, str) and re.search(expected, outcome)
        else:
            n = len(expected)
            assert outcome[:2] == (["a", "b", "c", "d"][:n], [1, 0, 1, 0][:n])
            assert outcome[2] == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("case", PARSE_CASES)
    def test_bulk_and_per_line_parse_agree(self, tmp_path, monkeypatch, case):
        content, expected = PARSE_CASES[case]
        p = tmp_path / "case.tsv"
        p.write_bytes(content)
        outcomes = self.outcomes(p, monkeypatch)
        assert outcomes == [outcomes[0]] * 4
        self.assert_expected(outcomes[0], expected)

    def test_no_chunk_is_read_by_loadtxt(self, tmp_path, monkeypatch):
        def loadtxt(*args, **kwargs):
            raise AssertionError("np.loadtxt read a chunk")

        monkeypatch.setattr(data_mod.np, "loadtxt", loadtxt)
        gates = (data_mod._X87_LONG_DOUBLE, False)  # as on this host, and off
        p = tmp_path / "case.tsv"
        for content, expected in PARSE_CASES.values():
            p.write_bytes(content)
            for rows in (2, 256):
                monkeypatch.setattr(data_mod, "CHUNK_ROWS", rows)
                for gate in gates:
                    monkeypatch.setattr(data_mod, "_X87_LONG_DOUBLE", gate)
                    self.assert_expected(self.outcome(p), expected)

    def test_gate_off_parses_every_chunk_line_by_line(self, tmp_path, monkeypatch):
        ds = toy_dataset(600, d=5)
        p = tmp_path / "ds.tsv"
        save_dataset(ds, p)
        gate_on = load_dataset(p)
        chunks, original = [], data_mod._parse_lines

        def per_line(numbered, seen, width):
            chunks.append(len(numbered))
            return original(numbered, seen, width)

        monkeypatch.setattr(data_mod, "_X87_LONG_DOUBLE", False)
        monkeypatch.setattr(data_mod, "_parse_lines", per_line)
        back = load_dataset(p)
        assert chunks == [256, 256, 88]
        assert back.ids == gate_on.ids
        assert back.vectors.tobytes() == gate_on.vectors.tobytes() == ds.vectors.tobytes()

    # 128: the d_in of perfbench's score workload
    @pytest.mark.skipif(not data_mod._X87_LONG_DOUBLE,
                        reason="long double is not x87's 80-bit format: no bulk read")
    @pytest.mark.parametrize("d", [5, 128])
    def test_well_formed_chunks_parse_in_bulk(self, tmp_path, monkeypatch, d):
        def per_line(*args):
            raise AssertionError("per-line parse of a well-formed chunk")

        ds = toy_dataset(600, d=d)
        p = tmp_path / "ds.tsv"
        save_dataset(ds, p)
        monkeypatch.setattr(data_mod, "_parse_lines", per_line)
        back = load_dataset(p)
        assert back.ids == ds.ids
        assert back.vectors.tobytes() == ds.vectors.tobytes()

    def test_template_matches_per_float_formatting(self, tmp_path):
        # the "%.17g" templates of save_dataset and save_model write each
        # float as format(v, ".17g")
        def g17(values):
            return " ".join(format(v, ".17g") for v in np.asarray(values).tolist())

        extremes = [5e-324, -0.0, 1e308, 0.1, 2.0 ** 53 + 2, 1 / 3, -1e-5, 123456789.0,
                    np.finfo(float).max, -np.finfo(float).tiny]
        rng = np.random.default_rng(3)
        vectors = np.concatenate([
            rng.normal(size=(20, 5)) * 10.0 ** rng.integers(-300, 300, size=(20, 1)),
            np.reshape(extremes, (2, 5))])
        ds = EmbeddingDataset([f"r{i}" for i in range(len(vectors))],
                              np.arange(len(vectors)) % 2, vectors)
        p = tmp_path / "ds.tsv"
        save_dataset(ds, p)
        expected = "".join(f"{rid}\t{label}\t{g17(row)}\n"
                           for rid, label, row in zip(ds.ids, ds.labels, vectors))
        assert p.read_text(encoding="utf-8") == expected
        assert load_dataset(p).vectors.tobytes() == vectors.tobytes()

        det = replace(make_detector(d_in=10, d_out=4),
                      weights=np.array([np.roll(extremes, i) for i in range(4)]),
                      bias=np.array(extremes[:4]), mean=np.array(extremes[-4:]))
        save_model(det, p)
        floats = [("ridge", [det.ridge]), ("beta_level", [det.beta_level]),
                  ("beta_a", [det.beta_a]), ("beta_b", [det.beta_b]), ("v_beta", [det.v_beta]),
                  ("bias", det.bias), *(("w", row) for row in det.weights), ("mean", det.mean),
                  *(("cov", det.cov[i, :i + 1]) for i in range(4))]
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[6:-1] == [f"{k} {g17(v)}" for k, v in floats]
        assert load_model(p).weights.tobytes() == det.weights.tobytes()


def midpoint(x: float, nudge: int = 0) -> str:
    """The exact decimal halfway between the double x and the next one up,
    moved up (nudge 1) or down (-1) by 1e-40 of itself."""
    ctx = Context(prec=1200)
    m = ctx.add(Decimal(x), ctx.divide(Decimal(math.ulp(x)), 2))
    return f"{ctx.add(m, Decimal(nudge).scaleb(m.adjusted() - 40)):e}"


def assert_reads_as_float(rows: list[list[str]]):
    """_strtold_vectors reads the token rows as float() does, bit for bit."""
    out = data_mod._strtold_vectors([" ".join(r) for r in rows], len(rows[0]))
    assert out is not None, rows
    assert out.tobytes() == np.array([[float(t) for t in r] for r in rows]).tobytes(), rows


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.one_of(
    FINITE.map("{:.17g}".format), FINITE.map(repr), FINITE.map("{:.6e}".format),
    FINITE.map("{:.3f}".format),
    # 1-30 random digits, a point anywhere (or after them) and an exponent
    st.builds(lambda sign, digits, point, exp: f"{sign}{digits[:point]}.{digits[point:]}e{exp}",
              st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=30),
              st.integers(0, 30), st.integers(-330, 310)))
PINNED = [
    "9007199254740993", "9007199254740995",  # 2^53 + 1 and + 3: ties to even
    midpoint(1.0), midpoint(1.0, 1), midpoint(1.0, -1), midpoint(0.1), midpoint(0.1, -1),
    midpoint(2.0 ** -1022 - 2.0 ** -1074, -1),  # below the smallest normal
    midpoint(5e-324), midpoint(0.0), midpoint(0.0, 1), midpoint(0.0, -1),
    midpoint(1.7976931348623157e308), midpoint(1.7976931348623157e308, -1),  # overflow edge
    "5e-324", "-5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "1e-400", "-1e-400", "1e400",
    "-1e400", "1.7976931348623158e308", "-0", "0", "0.000123456789012345678901234567890",
]


@pytest.mark.skipif(not data_mod._X87_LONG_DOUBLE, reason="long double is not x87's 80-bit format")
class TestStrtoldVectors:
    """``_strtold_vectors`` gives what ``float()`` gives each token, bit for
    bit, or refuses the chunk."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda w: st.lists(st.lists(TOKENS, min_size=w, max_size=w), min_size=1, max_size=8)))
    def test_reads_what_float_reads(self, rows):
        assert_reads_as_float(rows)

    @pytest.mark.parametrize("token", PINNED)
    def test_pinned_tokens(self, token):
        # in every row and column, so a token converted again is put back in place
        assert_reads_as_float([["1", "2", "3"], ["4", token, "6"], [token, "8", token]])

    def test_random_doubles_and_midpoints(self):
        rng = np.random.default_rng(26)
        x = rng.integers(0, 2 ** 64, size=20000, dtype=np.uint64).view(float)
        x = x[np.isfinite(x)].tolist()
        tokens = [f"{v:.17g}" for v in x] + [repr(v) for v in x[:4000]]
        subnormal = rng.integers(0, 2 ** 52, size=200, dtype=np.uint64).view(float).tolist()
        tokens += [midpoint(abs(v), nudge) for v in x[:200] + subnormal for nudge in (-1, 0, 1)]
        tokens += ["0"] * (-len(tokens) % 16)
        assert_reads_as_float([tokens[i:i + 16] for i in range(0, len(tokens), 16)])

    @pytest.mark.parametrize("vecs, width", [
        (["0x1p3 0"], 2), (["nan(1) 0"], 2), (["1_0 0"], 2), (["Infinity 0"], 2),
        (["inf 0"], 2), (["5\x0b6"], 2), (["1 2 3", "4"], 2), (["1-2 0"], 2), (["1e 0"], 2),
        (["e5 0"], 2), (["+ 0"], 2), ([". 0"], 2), (["1,2"], 2), (["1 2\r"], 2),
        (["\u0661 0"], 2), ([" 1 2"], 3), (["1  2"], 3), (["1 2 "], 3), (["1\t2"], 2),
        ([""], 0), (["", ""], 0),
    ])
    def test_refuses(self, vecs, width):
        assert data_mod._strtold_vectors(vecs, width) is None

    def test_gate_off_gives_the_same_outcome(self, tmp_path, monkeypatch):
        # every record of a file of mixed forms goes by the strtold route
        rng = np.random.default_rng(5)
        x = rng.normal(size=(600, 6)) * 10.0 ** rng.integers(-320, 300, size=(600, 1))
        forms = [repr, "{:.6e}".format, "{:.3f}".format, lambda v: str(int(v)), "{:.17g}".format]
        lines = [f"r{i}\t{i % 2}\t" + " ".join(forms[(i + j) % 5](v) if j else "-0"
                                              for j, v in enumerate(row))
                 for i, row in enumerate(x.tolist())]
        p = tmp_path / "mixed.tsv"
        p.write_text("\n".join(lines) + "\n")
        read, original = [], data_mod._strtold_vectors

        def strtold(vecs, width):
            read.append(original(vecs, width))
            return read[-1]

        monkeypatch.setattr(data_mod, "_strtold_vectors", strtold)
        outcomes = TestBulkParse.outcomes(p, monkeypatch)
        assert outcomes == [outcomes[0]] * 4 and not isinstance(outcomes[0], str)
        assert read and all(out is not None for out in read)


def assert_writes_as_format(rows):
    """_g17_lines writes each row of values as format(v, ".17g") does, byte
    for byte, between single spaces."""
    block = np.array(rows, dtype=float)
    expected = [" ".join(format(v, ".17g") for v in row) for row in block.tolist()]
    assert data_mod._g17_lines(block) == expected


# the values the kernel refuses, both sides of its exponent bounds and of its
# fixed/scientific switch, exact ties at the 17th digit (2**50 + 1/4, + 3/4,
# times 10), and values with few significant digits
G17_PINNED = [
    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, -np.finfo(float).tiny,
    np.finfo(float).max, -np.finfo(float).max, 1e-5, 1e-4, 9.9999999999999999e-5,
    1e16, 1e17, 99999999999999999.0, 1e42, 1e43, 1e-11, 1e-12, 9.999999999999999e42,
    2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, -2.0 ** 50 - 0.75, 1e23, 0.1, 1 / 3,
    0.5, 100.0, -2.5, 1.0, 1e15, 1e-4 * 1.5, 120000.0, 1234567890123456.8,
]


@pytest.mark.skipif(not data_mod._X87_LONG_DOUBLE, reason="long double is not x87's 80-bit format")
class TestG17Lines:
    """``_g17_lines``, save_dataset's block writer, gives each value the
    bytes of ``format(v, ".17g")``."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), min_size=1, max_size=8)))
    def test_writes_what_format_writes(self, rows):
        assert_writes_as_format(rows)

    @pytest.mark.parametrize("value", G17_PINNED)
    def test_pinned_values(self, value):
        # in every row and column, so a refused value is spliced back in place
        assert_writes_as_format([[1.5, 2, 3], [4, value, 6], [value, 8, value]])

    def test_random_doubles(self):
        rng = np.random.default_rng(32)
        patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(float)
        # most random patterns lie past the exponent bounds: as many again inside
        inside = rng.normal(size=100_000) * 10.0 ** rng.integers(-12, 45, size=100_000)
        assert_writes_as_format(np.concatenate([patterns, inside]).reshape(-1, 16))

    def test_layout_boundaries(self):
        # each power of ten in and around the bounds, the doubles next to it,
        # and values a digit and a carry away
        powers = 10.0 ** np.arange(-13, 46)
        values = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                  -powers, powers * 9.999999999999999, powers * 1.0000000000000002]
        assert_writes_as_format(np.stack(values, axis=1))


def saved_bytes(ds, path, monkeypatch, route):
    """save_dataset's file for ds by one route: its block kernel ("kernel"),
    the kernel refusing every value to the per-token fallback ("refused")
    or, with the long-double gate off, the row template ("template")."""
    with monkeypatch.context() as m:
        if route == "refused":
            round_ld = data_mod._round_ld
            m.setattr(data_mod, "_round_ld",
                      lambda s: (*round_ld(s)[:2], np.ones(s.shape, dtype=bool)))
        elif route == "template":
            m.setattr(data_mod, "_X87_LONG_DOUBLE", False)
        save_dataset(ds, path)
    return path.read_bytes()


@pytest.mark.skipif(not data_mod._X87_LONG_DOUBLE, reason="long double is not x87's 80-bit format")
class TestSaveRoutes:
    """Every route of save_dataset writes the same bytes."""

    # d_in 1, 32 and 128 take 8192, 256 and 64 rows a block: two, four and
    # sixteen blocks, the last one short; then the rows of
    # test_huge_separation_round_trips, most past the exponent bound
    @pytest.mark.parametrize("cfg", [
        SynthConfig(d_in=1, n_target=2000, m_non_target=8000, manifold_dim=1, seed=3),
        SynthConfig(d_in=32, n_target=200, m_non_target=800, seed=3),
        SynthConfig(d_in=128, n_target=200, m_non_target=800, seed=3),
        SynthConfig(d_in=4, n_target=40, m_non_target=80, manifold_dim=2, separation=1e300),
    ], ids=["d1", "d32", "d128", "1e300"])
    def test_routes_write_the_same_bytes(self, tmp_path, monkeypatch, cfg):
        ds = synth_benchmark(cfg)
        written = [saved_bytes(ds, tmp_path / f"{r}.tsv", monkeypatch, r)
                   for r in ("kernel", "refused", "template")]
        assert written[1:] == written[:1] * 2


def test_importing_data_warns_nothing():
    code = """if True:
        import warnings
        warnings.simplefilter("error")
        import mahaclass.data
        print(type(mahaclass.data._X87_LONG_DOUBLE).__name__)
    """
    assert run_fresh(code).split() == ["bool"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data_mod._x87_long_double() == data_mod._X87_LONG_DOUBLE


class TestSplit:
    def test_partition(self):
        ds = toy_dataset(100, seed=2)
        tr, dev, te = split(ds, seed=3)
        ids = tr.ids + dev.ids + te.ids
        assert sorted(ids) == sorted(ds.ids)
        assert len(set(ids)) == 100

    def test_stratified_ratios(self):
        ds = toy_dataset(100, seed=2)
        tr, dev, te = split(ds, seed=3)
        assert (tr.n_target, dev.n_target, te.n_target) == (40, 5, 5)
        assert (tr.m_non_target, dev.m_non_target, te.m_non_target) == (40, 5, 5)

    def test_deterministic_per_seed(self):
        ds = toy_dataset(60, seed=4)
        a = split(ds, seed=7)
        b = split(ds, seed=7)
        c = split(ds, seed=8)
        assert a[0].ids == b[0].ids
        assert a[0].ids != c[0].ids

    def test_pinned_ids(self):
        # the benchmark's held-out set is a split part: its ids and order are frozen
        tr, dev, te = split(toy_dataset(20), seed=5)
        assert tr.ids == ["r0", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10",
                          "r11", "r12", "r14", "r15", "r17", "r19"]
        assert dev.ids == ["r1", "r18"]
        assert te.ids == ["r13", "r16"]

    def test_too_small(self):
        with pytest.raises(DataError, match="cannot fill all three splits"):
            split(toy_dataset(4), seed=0)


class TestSynthBenchmark:
    def test_shapes_and_counts(self):
        cfg = SynthConfig(d_in=8, n_target=50, m_non_target=120, manifold_dim=3,
                          components=3, separation=2.0, seed=0)
        ds = synth_benchmark(cfg)
        assert ds.d_in == 8
        assert ds.n_target == 50
        assert ds.m_non_target == 120

    def test_deterministic(self, tmp_path):
        cfg = SynthConfig(d_in=6, n_target=30, m_non_target=60, manifold_dim=2, seed=5)
        a, b = synth_benchmark(cfg), synth_benchmark(cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_dataset(a, p1)
        save_dataset(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_data(self):
        cfg = SynthConfig(d_in=6, n_target=30, m_non_target=60, manifold_dim=2, seed=5)
        cfg2 = SynthConfig(d_in=6, n_target=30, m_non_target=60, manifold_dim=2, seed=6)
        assert not np.array_equal(synth_benchmark(cfg).vectors,
                                  synth_benchmark(cfg2).vectors)

    def test_target_moments_match_configuration(self):
        cfg = SynthConfig(d_in=6, n_target=20000, m_non_target=1, manifold_dim=3,
                          components=2, seed=9)
        mu, cov = synth_target_moments(cfg)
        x = synth_benchmark(cfg).target_vectors()
        np.testing.assert_allclose(x.mean(axis=0), mu, atol=0.06)
        sample_cov = np.cov(x.T, ddof=1)
        assert np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov) < 0.05

    def test_invalid_config(self):
        with pytest.raises(ConfigError, match="sizes must be positive"):
            SynthConfig(d_in=0)
        with pytest.raises(ConfigError, match="at least 2 components"):
            SynthConfig(components=1)
        with pytest.raises(ConfigError, match=r"manifold_dim must lie in \[1, d_in\]"):
            SynthConfig(manifold_dim=99, d_in=8)
        with pytest.raises(ConfigError, match="separation must be finite and positive"):
            SynthConfig(separation=-1.0)
        for value in (float("nan"), float("inf"), 1e308):
            with pytest.raises(ConfigError, match=r"must be finite|1e\+308 overflows"):
                SynthConfig(separation=value)
        for seed in (-1, 2**63):  # refused here, not at the first seeds.rng_for draw
            with pytest.raises(ConfigError, match=rf"seed {seed} must lie in \[0, 2\*\*63\)"):
                SynthConfig(seed=seed, n_target=10, m_non_target=10)

    def test_huge_separation_round_trips(self, tmp_path):
        cfg = SynthConfig(d_in=4, n_target=40, m_non_target=80, manifold_dim=2,
                          separation=1e300)
        ds = synth_benchmark(cfg)
        path = tmp_path / "d.tsv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.isfinite(back.vectors).all()
        assert np.abs(back.vectors).max() > 1e299
        np.testing.assert_array_equal(back.vectors, ds.vectors)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_memory_stays_within_twice_the_output(self):
        # a fresh interpreter, whose high-water mark this test alone raises
        code = r"""if True:
            import re
            from mahaclass.data import SynthConfig, synth_benchmark
            def status(key):
                with open("/proc/self/status") as fh:
                    return int(re.search(key + r":\s+(\d+) kB", fh.read()).group(1)) * 1024
            before = status("VmRSS")
            ds = synth_benchmark(SynthConfig(d_in=128, n_target=3000, m_non_target=12000))
            print(status("VmHWM") - before, ds.vectors.nbytes)
        """
        rise, size = map(int, run_fresh(code).split())
        assert rise <= 2 * size, (rise, size)


def make_detector(seed=0, d_in=5, d_out=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(d_out, d_in))
    a = rng.normal(size=(20, d_out))
    cov = a.T @ a / 19
    return Detector(
        weights=w, bias=rng.normal(size=d_out), mean=rng.normal(size=d_out), cov=cov,
        n=20, ridge=1e-6, beta_level=0.95, v_beta=0.31, seed=seed, config_hash="ab" * 8)


class TestModelArtifact:
    """The model file: a Detector's save/load round trip."""

    def test_round_trip_exact(self, tmp_path):
        art = make_detector()
        path = tmp_path / "model.txt"
        save_model(art, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.weights, art.weights)
        np.testing.assert_array_equal(back.bias, art.bias)
        np.testing.assert_array_equal(back.mean, art.mean)
        np.testing.assert_array_equal(back.cov, art.cov)
        assert (back.n, back.ridge, back.seed) == (art.n, art.ridge, art.seed)
        assert back.v_beta == art.v_beta
        assert back.config_hash == art.config_hash
        assert (back.d_in, back.d_out, back.beta_a, back.beta_b) == (5, 3, 1.5, 8.5)
        # and the re-serialization is byte-identical
        path2 = tmp_path / "model2.txt"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_cov_symmetry_restored(self, tmp_path):
        art = make_detector(seed=1)
        path = tmp_path / "m.txt"
        save_model(art, path)
        cov = load_model(path).cov
        np.testing.assert_array_equal(cov, cov.T)

    def test_version_mismatch(self, tmp_path):
        art = make_detector()
        path = tmp_path / "m.txt"
        save_model(art, path)
        lines = path.read_text().splitlines()
        lines[0] = "mahaclass-model 99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="format version 99, this build reads version 1"):
            load_model(path)

    def test_truncated(self, tmp_path):
        art = make_detector()
        path = tmp_path / "m.txt"
        save_model(art, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(DataError, match="truncated artifact"):
            load_model(path)

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("something else entirely\n")
        with pytest.raises(DataError, match="not a model artifact"):
            load_model(path)

    def test_non_integer_version_is_parse_error(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(make_detector(), path)
        path.write_text(path.read_text().replace("mahaclass-model 1", "mahaclass-model x"))
        with pytest.raises(DataError, match="not a model artifact"):
            load_model(path)

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"mahaclass-model 1\n\xff\xfe\nend\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_model(path)

    def test_extra_cov_row_is_parse_error(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(make_detector(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + ["cov 1 2 3 4", "end"]) + "\n")
        with pytest.raises(DataError, match="4 cov rows, expected 3"):
            load_model(path)


def trained_parts(seed=0):
    """(data, head, target-class model, threshold) of a small trained run."""
    data = synth_benchmark(SynthConfig(d_in=6, n_target=80, m_non_target=80,
                                       manifold_dim=2, seed=seed))
    head, model, _ = train(data, TrainConfig(proj_dim=3, window_multiplier=4,
                                             batch_size=8, seed=seed))
    return data, head, model, DecisionThreshold.for_model(model, 0.9)


class TestDetector:
    def test_derived_fields(self):
        det = make_detector(d_in=5, d_out=3)
        assert (det.d_in, det.d_out, det.beta_a, det.beta_b) == (5, 3, 1.5, 8.5)
        np.testing.assert_array_equal(det.gaussian.chol, cholesky(det.cov + 1e-6 * np.eye(3)))

    @pytest.mark.parametrize("change", [
        {"mean": np.array([0.0, np.nan, 0.0])},
        {"bias": np.zeros(4)},
        {"cov": np.eye(2)},
        {"cov": -np.eye(3)},  # cov + ridge*I is not positive definite
        {"ridge": -1.0},
        {"n": 4},  # n <= d+1
        {"v_beta": 1.0},
        {"beta_level": 0.0},
        {"weights": np.zeros((0, 5)), "bias": np.zeros(0), "mean": np.zeros(0),
         "cov": np.zeros((0, 0))},  # no projected dimension
    ])
    def test_invariants_checked_at_construction(self, change):
        with pytest.raises(ValueError):
            replace(make_detector(), **change)

    def test_decide_is_strict(self):
        det = make_detector()
        v = det.v_beta
        decided = det.decide(np.array([0.0, np.nextafter(v, 0), v, np.nextafter(v, 1), 0.99]))
        assert decided.dtype == np.dtype(int)
        np.testing.assert_array_equal(decided, [1, 1, 0, 0, 0])

    @pytest.mark.parametrize("labels", [[1, 0, 1, 0, 1], [1, 1, 1, 1, 1]])
    def test_report_scores_the_decisions_ranked_by_minus_t(self, labels):
        det = make_detector()
        t, labels = np.array([0.1, 0.2, det.v_beta, 0.5, 0.3]), np.array(labels)
        got = det.report(t, labels)
        assert got == score((t < det.v_beta).astype(int), labels, -t)
        # one class ranks no pair: the AUC is the degenerate 0
        assert ("auc" in got.degenerate) == (len(set(labels)) == 1)

    def test_project_rejects_other_widths(self):
        det = make_detector(d_in=5)
        with pytest.raises(DataError, match="takes 5-dim input, got 4-dim rows"):
            det.project(np.zeros((2, 4)))
        with pytest.raises(DataError, match=r"takes 5-dim rows, got an array of shape \(5,\)"):
            det.scores(np.zeros(5))
        with pytest.raises(DataError, match=r"got an array of shape \(\)"):
            det.project(np.float64(1.0))

    def test_non_finite_projection_names_the_row(self):
        det = make_detector()
        rows = np.zeros((4, det.d_in))
        rows[2:] = 1e308 * np.sign(det.weights[0])  # projects past the largest double
        # by the row's index in the array when no ids are given
        with pytest.raises(NumericalError, match=r"^record 2 does not project to finite values$"):
            det.project(rows)
        with pytest.raises(NumericalError,
                           match=r"^record 'r258' does not project to finite values$"):
            det.scores(rows, ["r256", "r257", "r258", "r259"])

    @pytest.mark.parametrize("d_in", [32, 128])
    @pytest.mark.parametrize("d_out", [1, 2, 3, 4])
    def test_a_row_projects_the_same_in_any_batch(self, d_in, d_out):
        # BLAS rounds some shapes apart (OpenBLAS's small-matrix dgemm at
        # d_in >= 32, a one-column solve); a row's projection and T must not
        # depend on how many rows, or which, go with it
        det = make_detector(seed=d_in + d_out, d_in=d_in, d_out=d_out)
        head = ProjectionHead(det.weights, det.bias)
        rng = np.random.default_rng(d_in * d_out)
        for n in (1, 255, 257, 3000):
            raw = rng.normal(size=(n, d_in))
            whole_z, whole_t = finite_projection(head, raw), det.scores(raw)
            subset = rng.permutation(n)[: max(1, n // 3)]
            np.testing.assert_array_equal(finite_projection(head, raw[subset]), whole_z[subset])
            np.testing.assert_array_equal(det.scores(raw[subset]), whole_t[subset])
            alone_z = np.vstack([finite_projection(head, raw[i:i + 1]) for i in range(n)])
            alone_t = np.concatenate([det.scores(raw[i:i + 1]) for i in range(n)])
            np.testing.assert_array_equal(alone_z, whole_z)
            np.testing.assert_array_equal(alone_t, whole_t)

    @pytest.mark.parametrize("n", [1, 256, 300])
    def test_padded_blocks(self, n):
        rows = np.arange(1.0, 2 * n + 1).reshape(n, 2)
        backwards = np.arange(n)[::-1]
        for order, blocks in ((np.arange(n), padded_blocks(rows)),
                              (backwards, padded_blocks(rows, backwards))):
            blocks = list(blocks)
            np.testing.assert_array_equal(np.concatenate([t for t, _ in blocks]), order)
            for taken, block in blocks:
                assert block.shape == (data_mod.CHUNK_ROWS, 2)
                np.testing.assert_array_equal(block[:len(taken)], rows[taken])
                assert not block[len(taken):].any()  # zero padding
        # in row order a full block is a view of rows, not a copy
        assert all(np.shares_memory(block, rows) for taken, block in padded_blocks(rows)
                   if len(taken) == data_mod.CHUNK_ROWS)

    def test_scores_of_trained_parts(self):
        data, head, model, thr = trained_parts()
        det = Detector.of(head, model, thr, seed=0, config_hash="0" * 16)
        assert (det.beta_level, det.v_beta) == (thr.beta_level, thr.v_beta)
        assert (det.beta_a, det.beta_b) == (thr.params.a, thr.params.b)
        np.testing.assert_array_equal(det.scores(data.vectors),
                                      scores(model, head.project(data.vectors)))

    def test_benchmark_decider_contract(self, tmp_path):
        # the benchmark rebuilds its one-row decider from these ten attributes
        # of a loaded model; its decisions must be the Detector's own
        data, head, model, thr = trained_parts(seed=1)
        path = tmp_path / "m.txt"
        save_model(Detector.of(head, model, thr, seed=1, config_hash="0" * 16), path)
        det = load_model(path)
        gauss = GaussianModel(mean=det.mean, cov=det.cov, n=det.n, ridge=det.ridge,
                              chol=cholesky(det.cov + det.ridge * np.eye(det.mean.shape[0])))
        thr2 = DecisionThreshold(beta_level=det.beta_level,
                                 params=BetaParams(det.beta_a, det.beta_b), v_beta=det.v_beta)
        rows = data.vectors @ det.weights.T + det.bias
        decided = [beta_decide(gauss, row, thr2) for row in rows]
        expected = (det.scores(data.vectors) < det.v_beta).astype(int)
        assert 0 < expected.sum() < len(expected)
        np.testing.assert_array_equal(decided, expected)
