"""Package surface: every name a module exports exists, importing the package
leaves scipy unloaded until an analytic function needs it, and the sources
keep one integer rule and parse at the declared Python floor."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import tauvar
from tauvar.specfun import log_gamma
from tauvar.weights import make_bump_weight, parseval_check


def test_every_exported_name_exists():
    modules = [tauvar] + [
        importlib.import_module(f"tauvar.{info.name}") for info in pkgutil.iter_modules(tauvar.__path__)
    ]
    assert len(modules) > 10  # the package and its submodules were found
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names {missing}, which do not exist"


_FRESH_IMPORT = """
import importlib, json, pkgutil, sys
import tauvar
for info in pkgutil.iter_modules(tauvar.__path__):
    importlib.import_module(f"tauvar.{info.name}")
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from tauvar.specfun import log_gamma
from tauvar.weights import make_bump_weight, parseval_check
print(json.dumps({
    "modules": len(list(pkgutil.iter_modules(tauvar.__path__))),
    "scipy_at_import": loaded,
    "log_gamma": repr(log_gamma(0.5)),
    "parseval": repr(parseval_check(make_bump_weight())),
}))
"""


def test_import_leaves_scipy_unloaded():
    src = str(Path(tauvar.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{_FRESH_IMPORT}"],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    assert got["modules"] > 10
    assert got["scipy_at_import"] == [], f"importing tauvar loaded {got['scipy_at_import'][:5]}"
    # scipy loads on first use and gives the values this process computes
    assert got["log_gamma"] == repr(log_gamma(0.5))
    assert got["parseval"] == repr(parseval_check(make_bump_weight()))


def test_benchmark_traced_targets_exist(monkeypatch):
    # the benchmark's traced replay looks each target up in its owner's
    # namespace; a deleted or renamed public function would break that run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    targets = workloads.targets()
    assert len(targets) == 18
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]
    assert not missing, f"benchmark traces {missing}, which do not exist"


_ROOT = Path(__file__).resolve().parents[1]


def test_integer_rule_has_one_owner():
    # arith._INTEGERS is the one test for an integer argument
    hits = [
        (path.name, n)
        for path in sorted((_ROOT / "src" / "tauvar").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if "np.integer" in line
    ]
    assert [name for name, _ in hits] == ["arith.py"], hits
    assert "_INTEGERS = (int, np.integer)" in (_ROOT / "src" / "tauvar" / "arith.py").read_text()


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10
    assert 'requires-python = ">=3.10"' in (_ROOT / "pyproject.toml").read_text()
    paths = sorted((_ROOT / "src" / "tauvar").glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py"))
    assert len(paths) > 15
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
