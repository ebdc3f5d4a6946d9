import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mahaclass
from mahaclass.linalg import GaussianModel, cholesky


def make_model(mean, cov, n, ridge=0.0) -> GaussianModel:
    """GaussianModel with prescribed statistics (bypasses fitting)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    chol = cholesky(cov + ridge * np.eye(mean.shape[0]))
    return GaussianModel(mean=mean, cov=cov, chol=chol, n=n, ridge=ridge)


def run_fresh(code: str, *argv: str) -> str:
    """The stdout of ``python -c code *argv`` in a new interpreter that
    imports this mahaclass; fails the test when it exits non-zero."""
    src = str(Path(mahaclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout
