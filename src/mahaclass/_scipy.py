"""The scipy functions the package calls, taken from scipy's compiled
extension files without the package ``__init__`` files around them.

``_extension(name, public)`` imports one extension module, such as
``scipy.linalg._flapack``, under its own name while a bare stand-in for its
package sits in ``sys.modules`` with scipy's real directory as its path.
The package's ``__init__`` never runs, and ``find_spec("scipy")`` locates
the directory without importing the top-level ``scipy`` package.  The
stand-in is removed afterwards and the extension module stays, so
a later public import of the package runs the real ``__init__``, which
reuses the loaded extension: the functions are the very objects scipy's
public modules export.  When the package is already imported, or on any
failure (no such file, a loader error), the public module is imported.

LAPACK: ``dtrtrs`` and ``dpotrs``, loaded when this module is imported,
come from ``linalg/_flapack``.  That leaves the top-level ``scipy``
package unimported and skips ``scipy.linalg`` (with ``scipy._lib`` and
``numpy.f2py``, about half of the CLI's start-up); the fallback is
``scipy.linalg.lapack``.

Special functions: ``special()`` returns a module holding the ufuncs
``betainc``, ``betaincinv``, ``ndtr`` and ``ndtri``, loaded on the first
call (calibration and ``diagnose``; ``infer`` and ``evaluate`` never make
it): ``special/_ufuncs``, or the public ``scipy.special``.  This load does
run the top-level ``scipy/__init__``: ``_ufuncs`` imports its sibling
``_ufuncs_cxx``, which imports ``scipy._cyutility``.  The ``scipy.special``
``__init__`` would also import ``scipy._lib._array_api``,
``array_api_compat`` and the rest of the package: about 0.25 s on a
2-core x86 host, where the extension alone takes about 20 ms.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import os
import sys
import types


def _extension(name: str, public: str) -> types.ModuleType:
    """The extension module ``name``, imported without its package's
    ``__init__``; the module ``public`` when the package is already
    imported or on any failure."""
    package, _, _ = name.rpartition(".")
    if package not in sys.modules:
        try:
            stand_in = types.ModuleType(package)
            stand_in.__path__ = [os.path.join(
                importlib.util.find_spec("scipy").submodule_search_locations[0],
                *package.split(".")[1:])]
            sys.modules[package] = stand_in
            try:
                return importlib.import_module(name)
            finally:
                del sys.modules[package]
        except Exception:  # the file is private to scipy: any failure takes the public route
            pass
    return importlib.import_module(public)


_lapack = _extension("scipy.linalg._flapack", "scipy.linalg.lapack")
dtrtrs, dpotrs = _lapack.dtrtrs, _lapack.dpotrs
special = functools.cache(lambda: _extension("scipy.special._ufuncs", "scipy.special"))
