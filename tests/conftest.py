"""Shared pytest configuration for the repro test suite.

The analysis tests share one session-scoped ``head_analysis`` (the real
tree loaded once, analyzed once), one ``violations_of`` and one
in-process ``lint_cli`` runner.
"""

import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Differential-fuzzing knobs (--difftest-budget / --difftest-seed) and the
# session-scoped difftest_report fixture.
pytest_plugins = ("repro.testing.pytest_plugin",)


@pytest.fixture(scope="session")
def head_analysis():
    """``src/repro``, loaded once and analyzed once.

    Every test that reads the real tree shares it; fault injections
    derive their mutants from ``head_analysis.project.replace_source``.
    """
    from repro.analysis import deep
    from repro.analysis.project import load_project

    project = load_project([REPO_ROOT / "src" / "repro"])
    return deep.analyze(project)


def violations_of(analysis, code):
    return [v for v in analysis.violations if v.code == code]


def write_tree(root, sources):
    """Write ``{dotted module: source}`` under ``root/src/``; returns ``root``."""
    for name, source in sources.items():
        target = root / "src" / (name.replace(".", "/") + ".py")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


@pytest.fixture
def lint_cli(capsys, monkeypatch):
    """``repro-lint`` in-process: ``lint_cli(*args, cwd=...) -> (exit, out, err)``."""
    from repro.analysis import cli

    def run(*args, cwd=REPO_ROOT):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        status = cli.main([str(arg) for arg in args])
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return run
