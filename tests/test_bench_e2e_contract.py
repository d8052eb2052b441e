"""What ``bench_e2e/`` needs of the program still exists.

``bench_e2e`` is outside the tier-1 ``testpaths`` and its traced pass
replaces program names by string (``bench_e2e.tracing.PATCHES``), so a
rename in ``src/repro`` would otherwise surface only when someone runs
the benchmark.  This resolves every patch target the way
``bench_e2e.tracing.installed`` does, checks that every module-level
target is a name its module actually calls, and imports every
``repro.*`` name the benchmark's sources import.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from bench_e2e.tracing import PATCHES

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench_e2e"


def _repro_imports():
    """``(file, module, name-or-None)`` for every repro import in bench_e2e."""
    found = set()
    for path in sorted(BENCH_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.update((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("repro")
                )
    return sorted(found, key=str)


@pytest.mark.parametrize("target", sorted({target for target, _span, _attrs in PATCHES}))
def test_patch_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = inspect.getattr_static(owner, attribute)
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))


@pytest.mark.parametrize(
    "target",
    sorted({target for target, _span, _attrs in PATCHES if "." not in target.partition(":")[2]}),
)
def test_module_target_is_called(target):
    """A name kept bound only for the patch would trace zero calls."""
    module_name, _, name = target.partition(":")
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert name in loaded, f"{module_name} binds {name} but never calls it"


@pytest.mark.parametrize("source, module_name, name", _repro_imports())
def test_imported_name_exists(source, module_name, name):
    module = importlib.import_module(module_name)
    if name is not None:
        assert hasattr(module, name), f"bench_e2e/{source} imports {module_name}.{name}"
