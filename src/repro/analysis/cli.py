"""``repro-lint``: command-line front end for the lint engine.

Exit codes: 0 clean, 1 violations found, 2 usage error.

Also runnable without an installed entry point::

    PYTHONPATH=src python -m repro.analysis.cli src/repro tests
    PYTHONPATH=src python -m repro.analysis src/repro tests

Plain ``repro-lint PATHS`` runs the per-module rules over the given
files.  ``--deep`` instead runs every whole-program rule
(:mod:`repro.analysis.deep`: float-comparison dataflow and the lemma
table, layering and import contracts, asyncio hygiene) and must be started from
the repository root: it always analyzes the full ``src/repro`` tree --
cross-module reasoning needs the whole program -- and ignores ``PATHS``
unless ``--changed-only`` is given, which restricts the *reported*
findings to those paths (or, with no paths, to the files
``git diff --name-only HEAD`` lists); that is what the pre-commit hook
uses.  ``--report`` additionally prints the thread and executor entry
points the concurrency pass finds.  ``--select``, ``--ignore`` and
``--list-rules`` treat both kinds of rule alike; any finding fails the
run, and ``# repro: noqa(CODE)`` with a reason is the one escape hatch.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint import PARSE_ERROR_CODE, Linter, iter_rules, select_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-specific AST lint for the SENN/SNNN reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (directories are walked for *.py)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line; print violations only",
    )
    deep = parser.add_argument_group("whole-program analysis")
    deep.add_argument(
        "--deep",
        action="store_true",
        help=(
            "run the whole-program rules (marked `(--deep)` in "
            "--list-rules) over src/repro instead of the per-module ones"
        ),
    )
    deep.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "report only findings in the given paths (or in `git diff "
            "--name-only HEAD` when no paths are given); analysis still "
            "covers the whole tree"
        ),
    )
    deep.add_argument(
        "--report",
        action="store_true",
        help="also print the thread and executor entry points",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def _git_changed_files() -> List[Path]:
    try:
        output = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    return [Path(line) for line in output.splitlines() if line.strip()]


def _deep_main(args: argparse.Namespace, codes: List[str]) -> int:
    from repro.analysis import deep
    from repro.analysis.project import load_project

    src_root = Path("src/repro")
    if not src_root.is_dir():
        print(
            "repro-lint: error: whole-program passes must run from the "
            "repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2

    project = load_project([src_root])
    analysis = deep.analyze(project, select=codes)
    if args.report:
        for line in analysis.report():
            print(line)

    violations = analysis.violations
    if args.changed_only:
        changed = args.paths if args.paths else _git_changed_files()
        allowed = {path.resolve() for path in changed}
        violations = [v for v in violations if Path(v.path).resolve() in allowed]
    for violation in violations:
        print(violation.render())
    if not args.quiet:
        noun = "finding" if len(violations) == 1 else "findings"
        print(
            f"repro-lint --deep: {len(project.modules)} modules analyzed, "
            f"{len(violations)} {noun}",
            file=sys.stderr,
        )
    return 1 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            kind = " (--deep)" if rule.whole_program else ""
            print(f"{rule.code}  {rule.name}{kind}: {rule.description}")
        print(f"{PARSE_ERROR_CODE}  parse-error: file cannot be read or parsed (always on)")
        return 0

    try:
        rules = select_rules(
            _split_codes(args.select), _split_codes(args.ignore), whole_program=args.deep
        )
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    codes = [rule.code for rule in rules]
    if args.deep:
        return _deep_main(args, codes)

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2

    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"repro-lint: error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = Linter(select=codes).lint_paths(args.paths)
    if report.violations:
        print(report.render())
    if not args.quiet:
        noun = "violation" if len(report.violations) == 1 else "violations"
        print(
            f"repro-lint: {report.files_checked} files checked, "
            f"{len(report.violations)} {noun}",
            file=sys.stderr,
        )
    return 1 if report.violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
