"""The two LAPACK routines the package calls: ``dtrtrs`` and ``dpotrs``.

Both come straight from scipy's ``linalg/_flapack`` extension file, which
skips the ``scipy.linalg`` package ``__init__`` (with ``scipy._lib`` and
``numpy.f2py``, about half of the CLI's start-up).  ``find_spec("scipy")``
locates the file without importing the ``scipy`` package.  The module is
loaded under its own name, so a later ``import scipy.linalg`` (which
``scipy.special`` makes) reuses it instead of loading it again.  On any
failure (no such file, a loader error, a name absent) the same two
functions come from the public ``scipy.linalg.lapack`` instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def _load():
    """(dtrtrs, dpotrs) from the extension file, else from scipy.linalg.lapack."""
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = next(p for p in (os.path.join(root, "linalg", "_flapack" + suffix)
                                for suffix in importlib.machinery.EXTENSION_SUFFIXES)
                    if os.path.isfile(p))
        name = "scipy.linalg._flapack"
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        return module.dtrtrs, module.dpotrs
    except Exception:  # the file is private to scipy: any failure takes the public route
        from scipy.linalg.lapack import dpotrs, dtrtrs
        return dtrtrs, dpotrs


dtrtrs, dpotrs = _load()
