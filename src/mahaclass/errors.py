"""Exception hierarchy shared across the package: one class per CLI exit code.

``cli.main`` maps each family to its exit code: ``ConfigError`` (2, an
invalid flag or configuration), ``DataError`` (3, bad or inconsistent
input files; ``OSError`` maps there too) and ``NumericalError`` (4, a
computation that cannot proceed).  The message says which check fired.

Two subclasses remain because code catches them by name: the trainer
rewraps ``NotPositiveDefinite`` and ``NonFiniteLoss`` into a divergence
error naming the epoch and batch, and ``data.Detector`` turns a
``NotPositiveDefinite`` model covariance into a malformed-file error.
"""


class MahaclassError(Exception):
    pass


class ConfigError(MahaclassError):
    pass


class DataError(MahaclassError):
    pass


class NumericalError(MahaclassError):
    pass


class NotPositiveDefinite(NumericalError):
    pass


class NonFiniteLoss(NumericalError):
    pass
