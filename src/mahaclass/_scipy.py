"""The scipy functions the package calls, taken from scipy's compiled
extension files without the package ``__init__`` files around them.

LAPACK: ``dtrtrs`` and ``dpotrs``, loaded when this module is imported.
Both come straight from scipy's ``linalg/_flapack`` extension file, which
skips the ``scipy.linalg`` package ``__init__`` (with ``scipy._lib`` and
``numpy.f2py``, about half of the CLI's start-up) and the top-level
``scipy`` package too.  ``find_spec("scipy")`` locates the file without
importing the ``scipy`` package.  The module is loaded under its own name,
so a later ``import scipy.linalg`` reuses it instead of loading it again.
On any failure (no such file, a loader error, a name absent) the same two
functions come from the public ``scipy.linalg.lapack`` instead.

Special functions: ``special()`` returns a module holding the ufuncs
``betainc``, ``betaincinv``, ``ndtr`` and ``ndtri``, loaded on the first
call (calibration and ``diagnose``; ``infer`` and ``evaluate`` never make
it).  It is scipy's ``special/_ufuncs`` extension, whose functions are
the very objects ``scipy.special`` exports.  The ``scipy.special``
package ``__init__`` would also import ``scipy._lib._array_api``,
``array_api_compat`` and the rest of the package: about 0.25 s on a
2-core x86 host, where the extension alone takes 40 ms.  ``_ufuncs``
imports its sibling extensions relatively, which needs a
``scipy.special`` in ``sys.modules``, so a bare stand-in package with the
real directory as its path sits there while ``_ufuncs`` loads and is
removed afterwards: a later ``import scipy.special`` runs the real
``__init__``, which reuses the loaded extensions.  When
``scipy.special`` is already imported it is used as it is, and on any
failure the public ``import scipy.special`` is the fallback.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import types


def _scipy_dir() -> str:
    return importlib.util.find_spec("scipy").submodule_search_locations[0]


def _load():
    """(dtrtrs, dpotrs) from the extension file, else from scipy.linalg.lapack."""
    try:
        root = _scipy_dir()
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


def _load_special() -> types.ModuleType:
    """scipy.special when imported, else its _ufuncs extension, else the
    public import of scipy.special."""
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]
    try:
        stand_in = types.ModuleType("scipy.special")
        stand_in.__path__ = [os.path.join(_scipy_dir(), "special")]
        sys.modules["scipy.special"] = stand_in
        try:
            return importlib.import_module("scipy.special._ufuncs")
        finally:
            del sys.modules["scipy.special"]
    except Exception:  # the file is private to scipy: any failure takes the public route
        import scipy.special
        return scipy.special


special = functools.cache(_load_special)
