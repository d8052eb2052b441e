"""Every runnable example still imports.

An example that imports a name the package no longer has fails only
when someone runs it.  Loading each ``examples/*.py`` as a module (under
its own name, so its ``__main__`` block stays unrun) resolves all of its
imports in well under a second.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_found():
    assert EXAMPLES, f"no examples under {EXAMPLES_DIR}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.name} has no main()"
