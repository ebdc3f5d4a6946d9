"""Dataset ingestion, deterministic stratified splitting, the synthetic
benchmark generator, and the trained model (``Detector``) with its file
format.

File formats (normative, bit-exact round trip):

* Dataset: one record per line, three tab-separated fields:
  ``id<TAB>label<TAB>v1 v2 ... vd`` with label 0 (non-target) or
  1 (target) and space-separated float components.
* Model artifact: versioned line-oriented text, floats rendered with 17
  significant digits; see ``save_model``.

Imports: at the top only what every caller needs, the dataset half that
``synth`` runs.  The model half (``Detector``, ``finite_projection``)
imports ``linalg``, ``mahalanobis`` and ``metrics`` where it uses them, so
a command that reads or writes no model loads none of them, nor the LAPACK
extension file behind them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, NotPositiveDefinite, NumericalError
from .seeds import SEED_LIMIT, rng_for

if TYPE_CHECKING:  # the model half imports these where it runs them
    from .linalg import GaussianModel, ProjectionHead
    from .mahalanobis import DecisionThreshold
    from .metrics import MetricsReport

ARTIFACT_MAGIC = "mahaclass-model"
ARTIFACT_VERSION = 1
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, dev, test
CHUNK_ROWS = 256  # rows per read_chunks chunk (flat streaming memory) and projected block


@dataclass(frozen=True, eq=False)
class EmbeddingDataset:
    """A labelled embedding matrix as three columns: ``ids`` (a list of N
    strings), ``labels`` ((N,) ints, 1 target) and ``vectors`` ((N, d) floats)."""

    ids: list[str]
    labels: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if n == 0:
            raise ConfigError("dataset must contain at least one record")
        if self.labels.shape != (n,) or self.vectors.ndim != 2 or len(self.vectors) != n:
            raise NumericalError(f"{n} ids, labels of shape {self.labels.shape} and "
                                 f"vectors of shape {self.vectors.shape} do not line up")
        dup, count = Counter(self.ids).most_common(1)[0]
        if count > 1:
            raise DataError(f"duplicate id {dup!r}")
        bad = ~np.isfinite(self.vectors).all(axis=1)
        if bad.any():
            raise DataError(f"record {self.ids[np.argmax(bad)]!r} contains non-finite values")
        bad = (self.labels != 0) & (self.labels != 1)
        if bad.any():
            i = np.argmax(bad)
            raise DataError(f"record {self.ids[i]!r} has label {self.labels[i]}, expected 0 or 1")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def d_in(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_target(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def m_non_target(self) -> int:
        return len(self) - self.n_target

    def target_vectors(self) -> np.ndarray:
        return self.vectors[self.labels == 1]

    def non_target_vectors(self) -> np.ndarray:
        return self.vectors[self.labels == 0]


def _parse_lines(numbered, seen: set[str], width: int | None):
    """Ids, labels and (N, d) vectors of the numbered (line number, parts)
    pairs, each line's parts split at its first two tabs, parsed one line at
    a time: the DataError of the first bad line, naming it.  Adds the ids to
    ``seen``; ``width`` None takes d from the first line.  Numpy converts
    each component by ``float()``'s rules."""
    ids, labels, buf = [], [], None
    for lineno, parts in numbered:
        if len(parts) != 3 or "\t" in parts[2]:
            raise DataError(f"line {lineno}: expected 3 tab-separated fields")
        rid, label_s, vec_s = parts
        if label_s not in ("0", "1"):
            raise DataError(f"line {lineno}: label must be 0 or 1, got {label_s!r}")
        tokens = vec_s.split()
        if not tokens:
            raise DataError(f"line {lineno}: no vector components")
        if buf is None:
            buf = np.empty((len(numbered), width or len(tokens)))
        if len(tokens) != buf.shape[1]:
            raise DataError(f"line {lineno}: {len(tokens)} components, "
                            f"expected {buf.shape[1]}")
        if rid in seen:
            raise DataError(f"line {lineno}: duplicate id {rid!r}")
        try:
            buf[len(ids)] = tokens
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        seen.add(rid)
        ids.append(rid)
        labels.append(int(label_s))
    return ids, labels, buf


def _x87_long_double() -> bool:
    """Whether ``np.longdouble`` is x87's 80-bit format (a 64-bit significand,
    little-endian, the bytes of 1.0 below) and numpy reads it with a correctly
    rounded ``strtold``: "0.1" must give the long double nearest 1/10, which a
    ``strtod`` fallback does not, and nor does a division rounded to double
    precision."""
    one = np.longdouble(1)
    if one.tobytes()[:10] != bytes(7) + b"\x80\xff\x3f":
        return False
    return bool(np.fromstring(b"0.1", dtype=np.longdouble, sep=" ")[0] == one / 10)


_X87_LONG_DOUBLE = _x87_long_double()  # the gate of _strtold_vectors and _g17_lines
_NUMBER_BYTES = b"0123456789.+-eE"  # with the space, all a token may hold: no hex, inf, nan or 1_0
_TINY = np.finfo(float).tiny  # the smallest normal double


def _strtold_vectors(vecs: list[str], width: int) -> np.ndarray | None:
    """The (len(vecs), width) array of the vector fields vecs, bit for bit
    what ``float()`` gives each token, in one ``np.fromstring`` call; None
    unless width is at least 1 and every field is width tokens of
    ``_NUMBER_BYTES`` between single spaces that each read as one number.
    Only for x87 long doubles (``_X87_LONG_DOUBLE``).

    ``strtold`` rounds each token correctly to a 64-bit significand, and
    the cast to float64 rounds that again.  Every midpoint between two
    normal doubles lies on the 64-bit grid, so the two roundings give the
    correctly rounded double unless the long double is such a midpoint (its
    low 11 significand bits are 0x400), or the double is subnormal or the
    smallest normal one, where the two grids do not line up (Clinger 1990,
    "How to read floating point numbers accurately").  Those tokens are
    converted again with ``float()``."""
    spaces = b" " * (width - 1)
    if width < 1 or any(f.encode().translate(None, _NUMBER_BYTES) != spaces for f in vecs):
        return None
    # a str, which numpy reads in place; a token strtold stops inside ("1-2",
    # "1e", "e") ends the read early: a ValueError, or on numpy 1.x a
    # DeprecationWarning and a short array.  Never pass count=: it pads a
    # short read
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            wide = np.fromstring(" ".join(vecs), dtype=np.longdouble, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if wide.size != len(vecs) * width:  # an empty token reads as no number
        return None
    with np.errstate(over="ignore"):  # past the largest double: inf, as float()
        out = wide.astype(float)
    low_bits = np.ndarray(wide.shape, "<u2", wide, strides=(wide.itemsize,))
    redo = ((low_bits & 0x7FF) == 0x400) | ((np.abs(out) <= _TINY) & (wide != 0))
    for i in np.flatnonzero(redo).tolist():
        row, col = divmod(i, width)
        out[i] = float(vecs[row].split(" ")[col])
    return out.reshape(len(vecs), width)


def _parse_chunk(numbered, seen: set[str], width: int | None):
    """``_parse_lines`` of the numbered parts, but with every vector field
    read by one ``_strtold_vectors`` call, where its gate holds, when each
    line has three fields, a 0/1 label and a new id.  Any other chunk, or
    one that read refuses (an empty or all-space vector field among them),
    is parsed line by line, so the first bad line in file order gets the
    per-line parse's message."""
    if _X87_LONG_DOUBLE and all(len(f) == 3 and f[1] in ("0", "1") for _, f in numbered):
        ids, label_s, vecs = (list(col) for col in zip(*(f for _, f in numbered)))
        new = set(ids)
        if len(new) == len(ids) and new.isdisjoint(seen):
            out = _strtold_vectors(vecs, width or len(vecs[0].split()))
            if out is not None:
                seen |= new
                return ids, [int(s) for s in label_s], out
    return _parse_lines(numbered, seen, width)


def read_chunks(path):
    """Yield a dataset file as EmbeddingDatasets of at most CHUNK_ROWS
    records each, in file order.  Each line is held as its parts, split at
    its first two tabs.  A chunk's vector fields are read in one bulk call
    by ``_strtold_vectors`` where the long-double gate holds
    (``_parse_chunk``); any other chunk, or one that read refuses, is parsed
    line by line, so messages name the file line.  An id repeated
    anywhere in the file is a DataError, as is a file that is not UTF-8 or
    has no records."""
    rows = CHUNK_ROWS
    seen: set[str] = set()
    numbered, width = [], None

    def chunk():
        nonlocal width
        ids, labels, vectors = _parse_chunk(numbered, seen, width)
        width = vectors.shape[1]
        return EmbeddingDataset(ids, np.array(labels), vectors)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                numbered.append((lineno, line.split("\t", 2)))
                if len(numbered) == rows:
                    yield chunk()
                    numbered = []
    except UnicodeDecodeError as exc:
        # a bad line read before the undecodable text comes first
        _parse_lines(numbered, seen, width)
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if numbered:
        yield chunk()
    elif not seen:
        raise DataError(f"{path}: no records")


def load_dataset(path) -> EmbeddingDataset:
    """A whole dataset file: its ``read_chunks`` joined.  Each chunk's rows
    are copied into one growing array as the chunk is read, so the vectors
    are held once, not as chunks and their join."""
    chunks = read_chunks(path)
    first = next(chunks)
    ids, labels = [], []

    def rows():
        for c in itertools.chain([first], chunks):
            ids.extend(c.ids)
            labels.append(c.labels)
            yield from c.vectors

    vectors = np.fromiter(rows(), dtype=(float, (first.d_in,)))
    return EmbeddingDataset(ids, np.concatenate(labels), vectors)


# save_dataset's x87 route, _g17_lines: blocks of about _BLOCK_VALUES
# values, and decimal exponents e10 in [_E10_MIN, _E10_MAX], for which the
# scale 10**(16 - e10) is at most 10**27 and so exact in a 64-bit significand
_BLOCK_VALUES = 8192
_E10_MIN, _E10_MAX = -11, 42
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # 10**0 .. 10**27
_U = np.uint64
_ASCII_ZEROS = _U(0x3030303030303030)  # "0" in each byte
_KEEP = np.array([(1 << 8 * m) - 1 for m in range(9)], _U)  # a word's low m bytes
# per e10 in [_E10_MIN, _E10_MAX]: the "0." and zeros that lead a fixed-notation
# value below 1, from the second byte (the first is the sign's); and the
# "e+XX" of one in scientific notation
_LEAD = np.array([int.from_bytes(b"0." + b"0" * (-e - 1), "little") << 8 if -4 <= e < 0 else 0
                  for e in range(_E10_MIN, _E10_MAX + 1)], _U)
_EXPONENT = np.array([0 if -4 <= e < 17 else int.from_bytes(b"e%+03d" % e, "little")
                      for e in range(_E10_MIN, _E10_MAX + 1)], _U)


def _times_pow10(wide: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """wide * 10**(16 - e10) for long doubles wide and e10 in [_E10_MIN,
    _E10_MAX]: one correctly rounded multiply, or divide where e10 > 16, of
    exact operands."""
    k = 16 - e10
    out = wide * _POW10[np.maximum(k, 0)]
    big = np.flatnonzero(k < 0)
    out[big] = wide[big] / _POW10[-k[big]]
    return out


def _round_ld(s: np.ndarray):
    """floor(s), s rounded to an integer (halves up) and whether s lies
    within one unit in the last place of a half-integer, each read off the
    64-bit significand of the x87 long doubles s in [1e15, 1e18), which hold
    4 to 14 bits below the units bit."""
    bits = np.ndarray(s.shape, "<u8", s, strides=(s.itemsize,))
    exponent = np.ndarray(s.shape, "<u2", s, offset=8, strides=(s.itemsize,)) & 0x7FFF
    frac_bits = (16383 + 63 - exponent).astype(_U)  # of the significand's 64
    floor = bits >> frac_bits
    rem = bits - (floor << frac_bits)
    half = _U(1) << (frac_bits - _U(1))
    return floor, floor + (rem > half), (rem + _U(1) >= half) & (rem <= half + _U(1))


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """Words of the eight decimal digits (as bytes 0-9) of each v < 10**8
    (uint64), the first in the lowest byte: v splits into two 4-digit lanes
    of 32 bits, four 2-digit lanes of 16 and eight digits of 8, dividing by
    100 and by 10 with a multiply and a shift that are exact below 10**4
    and 100."""
    hi = v // _U(10000)
    x = hi | ((v - hi * _U(10000)) << _U(32))
    hi = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    x = hi | ((x - hi * _U(100)) << _U(16))
    hi = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return hi | ((x - hi * _U(10)) << _U(8))


def _g17_lines(block: np.ndarray) -> list[str]:
    """Each row of the (rows, d) float block as one line of its d values
    written as ``format(v, ".17g")`` writes them, between single spaces.
    Only for x87 long doubles (``_X87_LONG_DOUBLE``).

    Clinger's exact scaling (see ``_strtold_vectors``) run in reverse: with
    e10 = floor(log10|x|), s = |x| * 10**(16 - e10) is one correctly
    rounded long double multiply or divide, moved once by a power of ten
    when it falls outside [1e16, 1e17 - 0.5); rounded to an integer, it
    holds x's 17 significant digits.  That rounding is the exact one unless
    s lies within one unit in the last place of a half-integer, where the
    long double's own rounding may have crossed it.  Such values are
    refused, as are +-0, subnormals, inf, nan and e10 outside [_E10_MIN,
    _E10_MAX]: each is formatted by ``"%.17g" % v`` and spliced in.

    Each value's text is laid out by %g's rules in seven 8-byte words, a
    zero byte marking an unused slot: sign and "0.000" ahead of a fixed
    value below 1; the digits before the point; the point; the digits after
    it; the 17th digit, "e+XX" and the separator.  Fixed notation holds for
    -4 <= e10 < 17, and trailing zeros and a bare point are dropped.  The
    zero bytes of the block's words are deleted in one pass and the text is
    split at the newlines that end the rows."""
    x = np.ascontiguousarray(block, dtype=float).ravel()
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        e10 = np.floor(np.log10(ax))
    # +-0, subnormals, inf, nan and far exponents; scaled meanwhile as 1.0
    refuse = ~((e10 >= _E10_MIN) & (e10 <= _E10_MAX))
    ax[refuse], e10[refuse] = 1.0, 0.0
    e10 = e10.astype(np.int64)
    wide = ax.astype(np.longdouble)
    floor, n17, tie = _round_ld(_times_pow10(wide, e10))
    # where log10 rounded across a power of ten, e10 moves by one
    low, high = floor < _U(10**16), n17 >= _U(10**17)
    e10 += high.astype(np.int64) - low
    refuse |= (e10 < _E10_MIN) | (e10 > _E10_MAX)
    move = np.flatnonzero((low | high) & ~refuse)
    if move.size:
        _, n17[move], tie[move] = _round_ld(_times_pow10(wide[move], e10[move]))
    refuse |= tie | (n17 < _U(10**16)) | (n17 >= _U(10**17))
    e10[refuse] = 0  # inside the tables; the digits of these values go unread

    head = n17 // _U(10)  # the first 16 digits, and the 17th
    last = n17 - head * _U(10)
    first8 = head // _U(10**8)
    digits = _eight_digits(np.stack([first8, head - first8 * _U(10**8)]))
    # significant digits: those up to the last nonzero byte of the three
    # words; float() keeps a word's highest set bit, as no byte exceeds 9
    lens = (np.frexp(np.vstack([digits, last]).astype(float))[1] + 7) >> 3
    sig = ((lens > 0) * (lens + [[0], [8], [16]])).max(axis=0)
    digits |= _ASCII_ZEROS

    fixed = (e10 >= -4) & (e10 < 17)
    before = np.where(fixed, np.maximum(e10 + 1, 0), 1)  # digits ahead of the point
    shown = np.maximum(sig, before)
    keep_b, keep_s = _KEEP[np.minimum(before, 8)], _KEEP[np.minimum(shown, 8)]
    keep_b2, keep_s2 = _KEEP[np.clip(before - 8, 0, 8)], _KEEP[np.clip(shown - 8, 0, 8)]
    words = np.empty((x.size, 7), _U)
    words[:, 0] = _LEAD[e10 - _E10_MIN] | (x < 0) * _U(ord("-"))
    words[:, 1] = digits[0] & keep_b
    words[:, 2] = digits[1] & keep_b2
    words[:, 3] = ((shown > before) & (before > 0)) * _U(ord("."))
    words[:, 4] = digits[0] & (keep_s ^ keep_b)
    words[:, 5] = digits[1] & (keep_s2 ^ keep_b2)
    words[:, 6] = (shown == 17) * (last | _U(ord("0"))) | (_EXPONENT[e10 - _E10_MIN] << _U(8))
    bad = np.flatnonzero(refuse)
    tokens = ["%.17g" % v for v in x[bad].tolist()]  # at most 24 bytes
    words[bad] = 0
    words[bad, :3] = np.array(tokens, "S24").view(_U).reshape(-1, 3)
    # the separators: a space, or a newline after a row's last value
    sep = np.full(x.size, ord(" "), _U)
    sep[block.shape[1] - 1::block.shape[1]] = ord("\n")
    words[:, 6] |= sep << _U(40)
    return words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def save_dataset(data: EmbeddingDataset, path) -> None:
    """Write data in the dataset format, each component exactly as
    ``format(v, ".17g")`` writes it.  Where ``_X87_LONG_DOUBLE`` holds, the
    rows go in blocks of about _BLOCK_VALUES values, each formatted by
    ``_g17_lines`` and written with one call; elsewhere a row at a time by
    one %-template of "%.17g" fields, as in save_model."""
    labels = data.labels.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        if _X87_LONG_DOUBLE:
            rows = max(1, _BLOCK_VALUES // data.d_in)
            for start in range(0, len(data), rows):
                stop = start + rows
                lines = _g17_lines(data.vectors[start:stop])
                fh.write("".join(["%s\t%d\t%s\n" % rec for rec in
                                  zip(data.ids[start:stop], labels[start:stop], lines)]))
        else:
            # a row at a time, as the whole array as Python floats would take
            # about 4x its memory
            template = "%s\t%d\t" + " ".join(["%.17g"] * data.d_in) + "\n"
            for rid, label, row in zip(data.ids, labels, data.vectors):
                fh.write(template % (rid, label, *row.tolist()))


def split(data: EmbeddingDataset, seed: int = 0):
    """Stratified train/dev/test split in SPLIT_RATIOS, deterministic under seed."""
    rng = rng_for(seed, "split")
    parts = ([], [], [])
    for label in (1, 0):
        idx = np.flatnonzero(data.labels == label)
        rng.shuffle(idx)
        c = len(idx)
        b1 = int(round(SPLIT_RATIOS[0] * c))
        b2 = int(round((SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) * c))
        for part, chunk in zip(parts, np.split(idx, [b1, b2])):
            part.append(chunk)
    parts = [np.sort(np.concatenate(p)) for p in parts]
    if any(len(p) == 0 for p in parts):
        raise DataError(f"{len(data)} records cannot fill all three splits")
    return tuple(EmbeddingDataset([data.ids[i] for i in p], data.labels[p], data.vectors[p])
                 for p in parts)


# -- synthetic benchmark -----------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale benchmark: one Gaussian target class on a low-dimensional
    manifold against a heterogeneous non-target mixture.

    The mixture's first component is concentric with the target at
    ``separation`` times its scale (angularly indistinguishable); the
    remaining components are displaced Gaussians, plus a uniform
    background slab.
    """

    d_in: int = 32
    n_target: int = 2000
    m_non_target: int = 8000
    manifold_dim: int = 8
    components: int = 3
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.d_in < 1 or self.n_target < 1 or self.m_non_target < 1:
            raise ConfigError("sizes must be positive")
        rows = self.n_target + self.m_non_target
        if rows * self.d_in * 8 > np.iinfo(np.intp).max:  # numpy could not index the array
            raise ConfigError(f"{rows} rows of dimension {self.d_in} exceed the largest "
                              "array of 8-byte floats")
        if self.components < 2:
            raise ConfigError("non-target mixture needs at least 2 components")
        if not (1 <= self.manifold_dim <= self.d_in):
            raise ConfigError("manifold_dim must lie in [1, d_in]")
        if not (self.separation > 0 and math.isfinite(self.separation)):
            raise ConfigError("separation must be finite and positive")
        # Normal draws stay below 40 in magnitude (numpy's sampler cannot pass
        # about 14) and the manifold scales at most 2, so no coordinate of the mixture (its offsets and the
        # background slab of +-2.1 * separation included) reaches
        # 100 * manifold_dim * separation beyond the target mean.
        if not math.isfinite(100.0 * self.manifold_dim * self.separation):
            raise ConfigError(f"separation {self.separation} overflows the mixture's "
                              f"coordinates at manifold_dim {self.manifold_dim}")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:  # else seeds.rng_for fails at the first draw
        raise ConfigError(f"seed {seed} must lie in [0, 2**63)")


_AMBIENT_NOISE = 0.1


def _synth_geometry(cfg: SynthConfig):
    rng = rng_for(cfg.seed, "synth-geometry")
    mu = rng.normal(size=cfg.d_in)
    mu *= 5.0 / np.linalg.norm(mu)  # far from the origin: norms carry signal
    # manifold contains the radial direction (largest scale), so the
    # radial offsets of the mixture overlap the target spread
    raw = rng.normal(size=(cfg.d_in, cfg.manifold_dim))
    raw[:, 0] = mu / np.linalg.norm(mu)
    basis, _ = np.linalg.qr(raw)
    basis[:, 0] *= np.sign(basis[:, 0] @ mu)
    scales = np.linspace(2.0, 0.8, cfg.manifold_dim)
    return mu, basis, scales


def synth_target_moments(cfg: SynthConfig):
    """Configured population mean and covariance of the target class."""
    mu, basis, scales = _synth_geometry(cfg)
    cov = basis @ np.diag(scales**2) @ basis.T + _AMBIENT_NOISE**2 * np.eye(cfg.d_in)
    return mu, cov

def synth_benchmark(cfg: SynthConfig) -> EmbeddingDataset:
    """The benchmark's rows: the targets, then each mixture component and
    the background, each drawn into its own rows of one preallocated array."""
    mu, basis, scales = _synth_geometry(cfg)
    rng = rng_for(cfg.seed, "synth-sample")
    m = cfg.m_non_target
    vectors = np.empty((cfg.n_target + m, cfg.d_in))

    def gaussian(rows, center, scale, noise):
        """center + (N(0, I) * scale) @ basis.T + noise * N(0, I) into rows."""
        z = rng.normal(size=(len(rows), cfg.manifold_dim)) * scale
        np.matmul(z, basis.T, out=rows)
        rows += center
        eps = rng.normal(size=rows.shape)
        eps *= noise
        rows += eps

    gaussian(vectors[:cfg.n_target], mu, scales, _AMBIENT_NOISE)

    # component weights: 10% uniform background, rest split evenly
    n_bg = max(1, int(round(0.1 * m)))
    per_comp = (m - n_bg) // cfg.components
    counts = [per_comp] * cfg.components
    counts[-1] += (m - n_bg) - per_comp * cfg.components
    spread = cfg.separation * float(np.mean(scales))
    parts = np.split(vectors[cfg.n_target:], np.cumsum(counts))

    # concentric component: same manifold, separation-times the scale --
    # angularly indistinguishable from the target class
    gaussian(parts[0], mu, cfg.separation * scales, cfg.separation * _AMBIENT_NOISE)
    # displaced components: radial offsets (along the class-mean ray,
    # invisible to angular similarity) with target-like covariance
    for k in range(1, cfg.components):
        sign = 1.0 if k % 2 else -0.7
        comp_scale = float(rng.uniform(0.6, 1.2))
        gaussian(parts[k], mu + sign * spread * basis[:, 0], comp_scale * scales,
                 2.0 * _AMBIENT_NOISE)
    parts[-1][:] = rng.uniform(-1.5 * spread, 1.5 * spread, size=(n_bg, cfg.d_in))
    parts[-1] += mu

    ids = [f"t{i:06d}" for i in range(cfg.n_target)] + [f"n{i:06d}" for i in range(m)]
    return EmbeddingDataset(ids, np.repeat([1, 0], [cfg.n_target, m]), vectors)


# -- training configuration --------------------------------------------------

LOSS_KINDS = ("mah", "mah_mean", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``trainer.train``, kept here so that the CLI's parser
    reads their defaults without loading the training code."""

    loss_kind: str = "mah_mean"
    batch_size: int = 16       # 40 suits larger corpora
    window_multiplier: int = 100  # 500 for large datasets
    learning_rate: float = 1e-3
    epochs: int = 1
    ridge: float = 1e-6
    proj_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}")
        if min(self.batch_size, self.window_multiplier, self.proj_dim) < 1:
            raise ConfigError("batch_size, window_multiplier and proj_dim must be positive")
        if self.window_capacity < 2:  # the loss needs a window fit to 2 rows or more
            raise ConfigError(f"--batch-size {self.batch_size} x --window-mult "
                              f"{self.window_multiplier} gives a {self.window_capacity}-row "
                              "window; it needs at least 2 rows")
        if not (self.epochs >= 0 and self.learning_rate > 0 and self.ridge >= 0
                and math.isfinite(self.learning_rate) and math.isfinite(self.ridge)):
            raise ConfigError("invalid epochs, learning_rate or ridge")
        _check_seed(self.seed)

    @property
    def window_capacity(self) -> int:
        return self.window_multiplier * self.batch_size


# -- trained model -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Detector:
    """A trained model, the whole decision rule: projection ``weights`` and
    ``bias``, the projected target-class Gaussian, and the threshold ``v_beta``
    on T.  The fields are what a model file holds; construction checks them
    (ValueError) and factors cov + ridge*I once, as ``gaussian``."""

    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    n: int
    ridge: float
    beta_level: float
    v_beta: float
    seed: int
    config_hash: str
    gaussian: GaussianModel = field(init=False, repr=False)

    def __post_init__(self):
        d = self.d_out
        if d < 1:
            raise ValueError(f"d_out {d} must be at least 1")
        if (self.bias.shape, self.mean.shape, self.cov.shape) != ((d,), (d,), (d, d)):
            raise ValueError("inconsistent dimensions")
        if not all(np.isfinite(v).all() for v in (self.weights, self.bias, self.mean,
                                                  self.cov, self.ridge)):
            raise ValueError("non-finite values")
        if self.ridge < 0:
            raise ValueError(f"ridge {self.ridge} must be non-negative")
        if self.n <= d + 1:
            raise ValueError(f"gauss_n {self.n} must exceed d+1 = {d + 1}")
        if not (0 < self.v_beta < 1 and 0 < self.beta_level < 1):
            raise ValueError("v_beta and beta_level must lie in (0, 1)")
        from .linalg import GaussianModel, cholesky

        try:
            chol = cholesky(self.cov + self.ridge * np.eye(d))
        except NotPositiveDefinite as exc:
            raise ValueError("cov + ridge*I is not positive definite") from exc
        object.__setattr__(self, "gaussian",
                           GaussianModel(self.mean, self.cov, chol, self.n, self.ridge))

    @classmethod
    def of(cls, head: ProjectionHead, model: GaussianModel,
           thr: DecisionThreshold, seed: int, config_hash: str) -> Detector:
        return cls(head.weights, head.bias, model.mean, model.cov, model.n, model.ridge,
                   thr.beta_level, thr.v_beta, seed, config_hash)

    @property
    def d_in(self) -> int:
        return self.weights.shape[1]

    @property
    def d_out(self) -> int:
        return self.weights.shape[0]

    @property
    def beta_a(self) -> float:
        from .mahalanobis import null_beta_params

        return null_beta_params(self.gaussian).a

    @property
    def beta_b(self) -> float:
        from .mahalanobis import null_beta_params

        return null_beta_params(self.gaussian).b

    @property
    def head(self) -> ProjectionHead:
        from .linalg import ProjectionHead

        return ProjectionHead(self.weights, self.bias)

    def project(self, raw, ids=None) -> np.ndarray:
        """Raw (N, d_in) rows in the projected space (see ``finite_projection``)."""
        return finite_projection(self.head, raw, ids)

    def scores(self, raw, ids=None) -> np.ndarray:
        """Normalized statistic T of each raw row (see ``finite_projection``)."""
        return finite_projection(self.head, raw, ids, self.gaussian)

    def decide(self, t_values) -> np.ndarray:
        """The decision rule: 1 (target) where T < ``v_beta``, 0 elsewhere."""
        return (t_values < self.v_beta).astype(int)

    def report(self, t_values, labels) -> MetricsReport:
        """Metrics of the decisions on rows with statistics t_values, ranked by -T."""
        from . import metrics

        return metrics.score(self.decide(t_values), labels, -t_values)


def padded_blocks(rows: np.ndarray, order=None):
    """Yield rows CHUNK_ROWS at a time, in row order or through the index
    array ``order``, as (taken, block): the indices taken and a (CHUNK_ROWS,
    d) block of those rows, a short last block zero-padded.  Every product
    and solve on a block then has one shape: BLAS rounds some shapes
    differently (OpenBLAS's small-matrix dgemm, a one-column solve), and a
    row's value would then depend on the rows computed with it."""
    in_order = order is None
    order = np.arange(len(rows)) if in_order else order
    for start in range(0, len(order), CHUNK_ROWS):
        taken = order[start:start + CHUNK_ROWS]
        block = rows[start:start + CHUNK_ROWS] if in_order else rows[taken]  # a view in row order
        if len(taken) < CHUNK_ROWS:
            block = np.pad(block, ((0, CHUNK_ROWS - len(taken)), (0, 0)))
        yield taken, block


@np.errstate(over="ignore", invalid="ignore")  # reported below as a NumericalError
def finite_projection(head: ProjectionHead, raw, ids=None,
                      gaussian: GaussianModel | None = None) -> np.ndarray:
    """``head.project(raw)``, or with a ``gaussian`` each projected row's T
    (``mahalanobis.scores``).  DataError unless raw holds (N, d_in) rows;
    NumericalError naming the first row that projects past the largest
    double by its record id (its index in raw when no ``ids`` are given)."""
    from .mahalanobis import scores

    d_in = head.weights.shape[1]
    if np.ndim(raw) != 2:
        raise DataError(f"the model takes {d_in}-dim rows, got an array of shape {np.shape(raw)}")
    if np.shape(raw)[1] != d_in:
        raise DataError(f"the model takes {d_in}-dim input, got {np.shape(raw)[1]}-dim rows")
    out = np.empty((len(raw), len(head.bias)) if gaussian is None else len(raw))
    for taken, block in padded_blocks(np.ascontiguousarray(raw, dtype=float)):
        z = head.project(block)
        bad = ~np.isfinite(z[:len(taken)]).all(axis=1)
        if bad.any():
            i = int(taken[np.argmax(bad)])
            raise NumericalError(f"record {ids[i] if ids is not None else i!r} "
                                 "does not project to finite values")
        out[taken] = (z if gaussian is None else scores(gaussian, z))[:len(taken)]
    return out


def save_model(det: Detector, path) -> None:
    plain = [("d_in", det.d_in), ("d_out", det.d_out), ("seed", det.seed),
             ("config_hash", det.config_hash), ("gauss_n", det.n)]
    floats = [("ridge", det.ridge), ("beta_level", det.beta_level), ("beta_a", det.beta_a),
              ("beta_b", det.beta_b), ("v_beta", det.v_beta)]
    rows = [("bias", det.bias), *(("w", row) for row in det.weights), ("mean", det.mean),
            *(("cov", det.cov[i, : i + 1]) for i in range(det.d_out))]
    lines = [f"{ARTIFACT_MAGIC} {ARTIFACT_VERSION}", *(f"{k} {v}" for k, v in plain),
             *("%s %.17g" % kv for kv in floats),
             *(f"{k} " + " ".join(["%.17g"] * len(row)) % tuple(row) for k, row in rows),
             "end"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Detector:
    """The Detector a model file holds; DataError naming the file when it
    is not one or has another format version."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != ARTIFACT_MAGIC or not head[1].isdigit():
        raise DataError(f"{path}: not a model artifact")
    if int(head[1]) != ARTIFACT_VERSION:
        raise DataError(
            f"{path}: format version {head[1]}, this build reads version {ARTIFACT_VERSION}")
    if lines[-1].strip() != "end":
        raise DataError(f"{path}: truncated artifact (missing end marker)")

    scalars: dict[str, str] = {}
    rows: dict[str, list] = {"w": [], "cov": [], "bias": [], "mean": []}
    try:
        for line in lines[1:-1]:
            key, _, rest = line.partition(" ")
            if key in rows:
                rows[key].append([float(t) for t in rest.split()])
            elif key in scalars:
                raise ValueError(f"repeated key {key!r}")
            else:
                scalars[key] = rest
        d = int(scalars["d_out"])
        (bias,), (mean,), cov_rows = rows["bias"], rows["mean"], rows["cov"]
        if len(cov_rows) != d:
            raise ValueError(f"{len(cov_rows)} cov rows, expected {d}")
        cov = np.zeros((d, d))
        for i, row in enumerate(cov_rows):
            cov[i, : i + 1] = row
        det = Detector(
            weights=np.array(rows["w"], dtype=float).reshape(d, int(scalars["d_in"])),
            bias=np.array(bias), mean=np.array(mean), cov=cov + np.tril(cov, -1).T,
            n=int(scalars["gauss_n"]), ridge=float(scalars["ridge"]),
            beta_level=float(scalars["beta_level"]), v_beta=float(scalars["v_beta"]),
            seed=int(scalars["seed"]), config_hash=scalars["config_hash"])
        if (float(scalars["beta_a"]), float(scalars["beta_b"])) != (det.beta_a, det.beta_b):
            raise ValueError(f"Beta shapes must be d/2 = {det.beta_a} "
                             f"and (n-d)/2 = {det.beta_b}")
        return det
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed artifact ({exc})") from exc
