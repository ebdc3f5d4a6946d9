import importlib.util
import math
import sys
import types

import pytest

from conftest import run_fresh
from mahaclass import _scipy

# Run in a fresh interpreter, since this suite itself imports scipy's
# packages.  argv: the extension ("lapack" or "special"), the route, an
# empty directory.  Loads the extension the way the route says, checks that
# no stand-in package is left in sys.modules (and, on LAPACK's stand-in
# route, that the scipy package was not imported), then that every function
# it gives is the public module's own object, and prints the loaded
# module's name.
_LOADING = """if True:
    import importlib, importlib.util, sys, types
    ext, route, empty = sys.argv[1:]
    name, public, functions = {
        "lapack": ("scipy.linalg._flapack", "scipy.linalg.lapack", ("dtrtrs", "dpotrs")),
        "special": ("scipy.special._ufuncs", "scipy.special",
                    ("betainc", "betaincinv", "ndtr", "ndtri")),
    }[ext]
    package = name.rpartition(".")[0]
    if ext == "special":  # loads LAPACK by its own route first
        from mahaclass import _scipy
    if route == "package-imported":
        importlib.import_module(package)
    find_spec = importlib.util.find_spec
    if route == "no-extension-file":
        importlib.util.find_spec = lambda name, *args: types.SimpleNamespace(
            submodule_search_locations=[empty])
    elif route == "no-scipy-spec":
        importlib.util.find_spec = lambda name, *args: None
    try:
        from mahaclass import _scipy
        module = _scipy._lapack if ext == "lapack" else _scipy.special()
    finally:
        importlib.util.find_spec = find_spec
    left = sys.modules.get(package)
    assert left is None or hasattr(left, "__file__"), left
    if route == "stand-in":  # _ufuncs itself imports the scipy package
        assert left is None and (ext == "special" or "scipy" not in sys.modules)
    public = importlib.import_module(public)
    for function in functions:
        assert getattr(module, function) is getattr(public, function), function
    if ext == "lapack":
        assert _scipy.dtrtrs is public.dtrtrs and _scipy.dpotrs is public.dpotrs
    print(module.__name__)
"""


@pytest.mark.parametrize("ext, extension, public", [
    ("lapack", "scipy.linalg._flapack", "scipy.linalg.lapack"),
    ("special", "scipy.special._ufuncs", "scipy.special"),
])
@pytest.mark.parametrize("route", [
    "stand-in", "package-imported",
    "no-extension-file",  # the stand-in's directory is empty
    "no-scipy-spec",
])
def test_extension_functions_are_the_public_ones(tmp_path, ext, extension, public, route):
    loaded = extension if route == "stand-in" else public
    assert run_fresh(_LOADING, ext, route, str(tmp_path)).split() == [loaded]


class TestExtensionRoutes:
    """``_extension`` in this process, on a pure-Python stand-in for an
    extension file: ``scipy.fakepkg._mod`` under a directory the test
    makes, with ``math`` as the public module."""

    NAME, PACKAGE = "scipy.fakepkg._mod", "scipy.fakepkg"

    @pytest.fixture
    def scipy_dir(self, tmp_path, monkeypatch):
        """A directory that find_spec("scipy") reports as scipy's; the
        package's __init__ raises, so running it fails the import."""
        (tmp_path / "fakepkg").mkdir()
        (tmp_path / "fakepkg" / "__init__.py").write_text("raise RuntimeError('__init__ ran')\n")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
            types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])))
        yield tmp_path / "fakepkg"
        sys.modules.pop(self.NAME, None)

    def test_stand_in_imports_the_module_without_its_package(self, scipy_dir):
        (scipy_dir / "_mod.py").write_text("VALUE = 1\n")
        module = _scipy._extension(self.NAME, "math")
        assert module.__name__ == self.NAME and module.VALUE == 1
        assert sys.modules[self.NAME] is module
        assert self.PACKAGE not in sys.modules

    def test_imported_package_takes_the_public_route(self, scipy_dir, monkeypatch):
        (scipy_dir / "_mod.py").write_text("VALUE = 1\n")
        monkeypatch.setitem(sys.modules, self.PACKAGE, types.ModuleType(self.PACKAGE))
        assert _scipy._extension(self.NAME, "math") is math
        assert self.NAME not in sys.modules

    @pytest.mark.parametrize("route", [
        "no-scipy-spec", "find-spec-raises", "no-extension-file", "extension-raises"])
    def test_failure_takes_the_public_route_and_leaves_no_stand_in(
            self, scipy_dir, monkeypatch, route):
        if route == "no-scipy-spec":
            monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None)
        elif route == "find-spec-raises":
            def find_spec(name, *args):
                raise ModuleNotFoundError(name)
            monkeypatch.setattr(importlib.util, "find_spec", find_spec)
        elif route == "extension-raises":
            (scipy_dir / "_mod.py").write_text("raise ImportError('bad extension')\n")
        assert _scipy._extension(self.NAME, "math") is math
        assert self.PACKAGE not in sys.modules and self.NAME not in sys.modules
