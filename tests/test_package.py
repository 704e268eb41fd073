"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import tauvar


def test_every_exported_name_exists():
    modules = [tauvar] + [
        importlib.import_module(f"tauvar.{info.name}") for info in pkgutil.iter_modules(tauvar.__path__)
    ]
    assert len(modules) > 10  # the package and its submodules were found
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}, which do not exist"
