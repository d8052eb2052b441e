"""Acceptance tests for the repro-lint engine and its rules."""

import io
import tokenize

from repro.analysis.callgraph import build_import_graph
from repro.analysis.layers import layer_violations
from repro.analysis.lint import _NOQA_RE, Linter, _expand_paths, lint_paths, lint_source
from repro.analysis.project import project_from_sources
from tests.conftest import REPO_ROOT, write_tree

# One seeded violation per rule.  The pretend path places the module in
# the library package, where RPR006 applies.
FIXTURE_PATH = "src/repro/network/fixture_module.py"
FIXTURE = '''\
"""Fixture module with exactly one violation of every lint rule."""

import random


def euclidean_probe(a, b, history=[]):
    """Docstring so RPR014 (which covers repro.network) stays quiet."""
    gap = a.distance_to(b)
    if gap == 0.0:
        history.append(gap)
    rng = random.Random()
    try:
        return rng.random()
    except:
        return 0.0
'''
ALL_RULE_CODES = {"RPR001", "RPR002", "RPR004", "RPR005", "RPR006"}


def codes_of(violations):
    return {v.code for v in violations}


#: Modules an oracle fixture may reach for; the contract judges imports
#: of project modules only, so the targets must exist.
ORACLE_TARGETS = {
    "repro.core.verification": "",
    "repro.geometry.point": "class Point:\n    pass\n",
    "repro.index.knn": "def k_nearest(points, query, k):\n    return []\n",
    "repro.testing.difftest": "",
}


def oracle_contract_findings(source, module="repro.testing.oracles"):
    """Import targets ``--deep`` flags as RPR013 in ``module``'s ``source``."""
    project = project_from_sources({**ORACLE_TARGETS, module: source})
    return [record.target for record, _ in layer_violations(build_import_graph(project))]


class TestSeededFixture:
    def test_one_violation_per_rule(self):
        violations = lint_source(FIXTURE, path=FIXTURE_PATH)
        assert codes_of(violations) == ALL_RULE_CODES
        # exactly one finding per rule -- the fixture seeds no duplicates
        assert len(violations) == len(ALL_RULE_CODES)

    def test_violations_carry_position_and_render(self):
        violations = lint_source(FIXTURE, path=FIXTURE_PATH)
        by_code = {v.code: v for v in violations}
        assert by_code["RPR001"].line == 9  # gap == 0.0
        assert by_code["RPR005"].line == 14  # bare except
        rendered = by_code["RPR004"].render()
        assert rendered.startswith(FIXTURE_PATH)
        assert "RPR004" in rendered


def unused_markers(source, path):
    """``(line, code)`` of every ``# repro: noqa(CODE)`` comment naming a
    per-module rule that finds nothing of that code there.

    Only real comments count (``tokenize``), not marker text inside a
    string.  The source is linted with every marker cut off; a
    module-scope code is used if the file has any finding of it.
    """
    linter = Linter()
    module_scope = {rule.code: rule.module_scope for rule in linter.rules}
    markers = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = _NOQA_RE.search(token.string) if token.type == tokenize.COMMENT else None
        if match is not None and match.group("codes"):
            codes = {code.strip().upper() for code in match.group("codes").split(",")}
            markers.append((token.start, codes & module_scope.keys()))
    if not markers:
        return []
    lines = source.splitlines(keepends=True)
    for (row, col), _ in markers:
        lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
    found = {(v.line, v.code) for v in linter.lint_source("".join(lines), path)}
    codes_found = {code for _, code in found}
    return [
        (row, code)
        for (row, _), codes in markers
        for code in sorted(codes)
        if not (code in codes_found if module_scope[code] else (row, code) in found)
    ]


class TestSuppression:
    def test_every_named_marker_suppresses_a_finding(self):
        unused = [
            f"{path}:{row} {code}"
            for path in _expand_paths(
                [REPO_ROOT / part for part in ("src", "tests", "benchmarks", "examples")]
            )
            for row, code in unused_markers(path.read_text(encoding="utf-8"), str(path))
        ]
        assert unused == []

    def test_a_marker_that_suppresses_nothing_is_reported(self):
        patched = FIXTURE.replace(
            "if gap == 0.0:", "if gap == 0.0:  # repro: noqa(RPR001, RPR002)"
        ).replace('"""Fixture', '"""# repro: noqa(RPR004) Fixture')
        assert unused_markers(patched, FIXTURE_PATH) == [(9, "RPR002")]
        assert unused_markers("# repro: noqa(RPR006)\n" + FIXTURE, FIXTURE_PATH) == []

    def test_line_noqa_suppresses_single_code(self):
        patched = FIXTURE.replace(
            "if gap == 0.0:", "if gap == 0.0:  # repro: noqa(RPR001)"
        )
        assert codes_of(lint_source(patched, path=FIXTURE_PATH)) == (
            ALL_RULE_CODES - {"RPR001"}
        )

    def test_bare_noqa_suppresses_all_codes_on_line(self):
        patched = FIXTURE.replace(
            "rng = random.Random()", "rng = random.Random()  # repro: noqa"
        )
        assert "RPR002" not in codes_of(lint_source(patched, path=FIXTURE_PATH))

    def test_noqa_for_other_code_does_not_suppress(self):
        patched = FIXTURE.replace(
            "if gap == 0.0:", "if gap == 0.0:  # repro: noqa(RPR005)"
        )
        assert "RPR001" in codes_of(lint_source(patched, path=FIXTURE_PATH))

    def test_module_scope_rule_suppressed_file_wide(self):
        patched = "# repro: noqa(RPR006)\n" + FIXTURE
        assert "RPR006" not in codes_of(lint_source(patched, path=FIXTURE_PATH))

    def test_dunder_all_satisfies_rpr006(self):
        patched = FIXTURE + '\n__all__ = ["euclidean_probe"]\n'
        assert "RPR006" not in codes_of(lint_source(patched, path=FIXTURE_PATH))


class TestRuleSemantics:
    def test_tolerance_helper_not_flagged(self):
        source = (
            "from repro.geometry.tolerance import near_zero\n"
            "def f(a, b):\n"
            "    return near_zero(a.distance_to(b))\n"
        )
        assert "RPR001" not in codes_of(lint_source(source, path="src/repro/core/m.py"))

    def test_taint_flows_through_assignment_chains(self):
        source = "def f(a, b):\n    d = a.distance_to(b)\n    e = d\n    return e == 1.5\n"
        assert "RPR001" in codes_of(lint_source(source, path="src/repro/core/m.py"))

    def test_exact_assert_allowed_in_test_modules_only(self):
        source = "def test_x(a, b):\n    assert a.distance_to(b) == 5.0\n"
        assert "RPR001" not in codes_of(lint_source(source, path="tests/test_m.py"))
        assert "RPR001" in codes_of(lint_source(source, path="src/repro/core/m.py"))

    def test_taint_flows_through_comprehensions_and_displays(self):
        source = (
            "def f(hits, truth):\n"
            "    got = [(round(n.distance, 9), n.payload) for n in hits]\n"
            "    want = {i: tuple(n.distance for n in row) for i, row in truth}\n"
            "    return got == [want[0]]\n"
        )
        assert "RPR001" in codes_of(lint_source(source, path="src/repro/core/m.py"))

    def test_integer_counts_are_not_distances(self):
        source = (
            "def f(offers, live):\n"
            "    count = sum(1 for offer in offers if offer.radius)\n"
            "    return live != count\n"
        )
        assert "RPR001" not in codes_of(lint_source(source, path="src/repro/core/m.py"))

    def test_bound_attributes_are_distances_only_in_strict_modules(self):
        source = "def f(self, index):\n    return index == self.upper\n"
        assert "RPR001" not in codes_of(
            lint_source(source, path="src/repro/service/m.py")
        )
        assert "RPR001" in codes_of(lint_source(source, path="src/repro/core/heap.py"))

    def test_module_top_level_is_a_scope(self):
        source = "import math\n\nGAP = math.hypot(3.0, 4.0)\nEXACT = GAP == 5.0\n"
        assert "RPR001" in codes_of(lint_source(source, path="examples/m.py"))

    def test_seeded_rng_not_flagged(self):
        source = "import random\nrng = random.Random(42)\n"
        assert codes_of(lint_source(source, path="src/repro/sim/m.py")) <= {"RPR006"}

    def test_sim_config_exempt_from_rpr002(self):
        source = "import random\n\nrng = random.Random()\n"
        assert "RPR002" not in codes_of(
            lint_source(source, path="src/repro/sim/config.py")
        )

    def test_global_rng_state_flagged(self):
        source = "import random\n\ndef f():\n    return random.uniform(0.0, 1.0)\n"
        assert "RPR002" in codes_of(lint_source(source, path="src/repro/sim/m.py"))

    # The oracle-import contract is a deep RPR013 contract (it was the
    # per-module RPR007): judged on every import record, deferred too.
    def test_oracle_module_cannot_import_code_under_test(self):
        source = "from repro.index.knn import k_nearest\n\n__all__ = []\n"
        assert oracle_contract_findings(source) == ["repro.index.knn"]

    def test_oracle_module_plain_import_flagged_too(self):
        source = "import repro.core.verification\n\n__all__ = []\n"
        assert oracle_contract_findings(source) == ["repro.core.verification"]

    def test_oracle_relative_import_flagged(self):
        source = "from . import difftest\n\n__all__ = []\n"
        assert "repro.testing.difftest" in oracle_contract_findings(source)

    def test_oracle_point_import_allowed(self):
        source = "from repro.geometry.point import Point\n\n__all__ = []\n"
        assert oracle_contract_findings(source) == []

    def test_non_oracle_testing_modules_exempt_from_the_oracle_contract(self):
        source = "from repro.index.knn import k_nearest\n\n__all__ = []\n"
        assert (
            oracle_contract_findings(source, module="repro.testing.difftest") == []
        )

    def test_oracle_deferred_import_flagged(self):
        source = (
            "def oracle_knn(points, query, k):\n"
            "    from repro.index.knn import k_nearest\n"
            "\n"
            "    return k_nearest(points, query, k)\n"
        )
        assert oracle_contract_findings(source) == ["repro.index.knn"]

    def test_syntax_error_reported_as_rpr900(self):
        violations = lint_source("def broken(:\n", path="src/repro/core/m.py")
        assert codes_of(violations) == {"RPR900"}


class TestEngine:
    def test_select_restricts_to_listed_codes(self):
        linter = Linter(select={"RPR004"})
        assert codes_of(linter.lint_source(FIXTURE, path=FIXTURE_PATH)) == {"RPR004"}

    def test_ignore_drops_listed_codes(self):
        linter = Linter(ignore={"RPR001", "RPR006"})
        assert codes_of(linter.lint_source(FIXTURE, path=FIXTURE_PATH)) == (
            ALL_RULE_CODES - {"RPR001", "RPR006"}
        )

    def test_repo_source_tree_is_clean(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"])
        assert report.files_checked > 50
        assert report.ok, report.render()


class TestCli:
    def test_cli_reports_seeded_fixture(self, lint_cli, tmp_path):
        write_tree(tmp_path, {"repro.network.fixture_module": FIXTURE})
        status, out, _ = lint_cli("src", cwd=tmp_path)
        assert status == 1
        for code in ALL_RULE_CODES:
            assert code in out

    def test_cli_clean_file_exits_zero(self, lint_cli, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text('"""Clean."""\n\n__all__ = []\n')
        assert lint_cli(target)[0] == 0

    def test_cli_missing_path_is_usage_error(self, lint_cli, tmp_path):
        assert lint_cli(tmp_path / "absent.py")[0] == 2

    def test_cli_list_rules(self, lint_cli):
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        for code in ALL_RULE_CODES | {"RPR014"}:
            assert code in out


class TestDocsHygieneRule:
    """RPR014: docstrings on the documented core + canonical citations."""

    CORE_PATH = "src/repro/core/m.py"

    def test_public_function_without_docstring_flagged_in_core(self):
        source = '"""Doc."""\n\n\ndef probe():\n    return 1\n'
        assert "RPR014" in codes_of(lint_source(source, path=self.CORE_PATH))

    def test_docstringed_function_passes(self):
        source = '"""Doc."""\n\n\ndef probe():\n    """Probe."""\n    return 1\n'
        assert "RPR014" not in codes_of(lint_source(source, path=self.CORE_PATH))

    def test_public_class_and_method_both_checked(self):
        source = (
            '"""Doc."""\n\n\nclass Widget:\n'
            '    """A widget."""\n\n'
            "    def turn(self):\n        return 1\n"
        )
        violations = [
            v for v in lint_source(source, path=self.CORE_PATH) if v.code == "RPR014"
        ]
        assert len(violations) == 1  # only the method is missing one

    def test_private_and_dunder_defs_exempt(self):
        source = (
            '"""Doc."""\n\n\nclass Widget:\n'
            '    """A widget."""\n\n'
            "    def __init__(self):\n        self.x = 1\n\n"
            "    def _spin(self):\n        return 1\n"
        )
        assert "RPR014" not in codes_of(lint_source(source, path=self.CORE_PATH))

    def test_docstrings_not_required_outside_documented_core(self):
        source = '"""Doc."""\n\n\ndef probe():\n    return 1\n'
        assert "RPR014" not in codes_of(lint_source(source, path="src/repro/sim/m.py"))
        assert "RPR014" not in codes_of(lint_source(source, path="tests/test_m.py"))

    def test_lowercase_citation_is_non_canonical(self):
        source = '"""Implements lemma 3.2 for peers."""\n'  # repro: noqa(RPR014)
        violations = lint_source(source, path="src/repro/sim/m.py")
        assert any(
            v.code == "RPR014" and "non-canonical" in v.message for v in violations
        )

    def test_abbreviated_section_is_non_canonical(self):
        source = '"""See Sec. 3.3 for bounds."""\n'  # repro: noqa(RPR014)
        violations = lint_source(source, path="src/repro/sim/m.py")
        assert any(
            v.code == "RPR014" and "non-canonical" in v.message for v in violations
        )

    def test_canonical_citations_pass(self):
        source = (
            '"""Lemma 3.2, Lemmas 3.1 and Section 3.2.1 are all canonical."""\n'
        )
        assert "RPR014" not in codes_of(lint_source(source, path="src/repro/sim/m.py"))

    def test_unknown_lemma_number_flagged(self):
        source = '"""Implements Lemma 9.9 exactly."""\n'  # repro: noqa(RPR014)
        violations = lint_source(source, path="src/repro/sim/m.py")
        assert any(
            v.code == "RPR014" and "no such" in v.message for v in violations
        )

    def test_known_section_numbers_are_not_cross_checked(self):
        # Sections have no registry; only the canonical *form* is policed.
        source = '"""Background in Section 9.9."""\n'
        assert "RPR014" not in codes_of(lint_source(source, path="src/repro/sim/m.py"))

    def test_noqa_suppresses_citation_finding(self):
        source = '"""Uses lemma 3.2."""  # repro: noqa(RPR014)\n'
        assert "RPR014" not in codes_of(lint_source(source, path="src/repro/sim/m.py"))
