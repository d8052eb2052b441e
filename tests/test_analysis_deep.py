"""Acceptance tests for ``repro-lint --deep``: the driver, its CLI, the
call graph and rules RPR011-RPR013 (RPR016-RPR018 live in
``test_analysis_concurrency``; RPR013's oracle-import cases sit beside
the per-module rules in ``test_analysis_lint``).

Two layers of coverage:

- fixture projects built with ``project_from_sources`` exercise each
  pass in isolation (positive and negative cases per rule);
- the real tree is loaded and analyzed once per session (the
  ``head_analysis`` fixture of ``conftest.py``) and must be clean at
  HEAD, and seeded soundness mutations (the Lemma 3.2 ``<=`` -> ``<``
  flip, dropping the Lemma 3.8 ``covers_disk`` call) must surface as
  RPR012 findings *statically* -- no test execution of the mutated code.
"""

import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis import deep
from repro.analysis.callgraph import build_call_graph, build_import_graph
from repro.analysis.concurrency import infer_effects
from repro.analysis.floatcheck import (
    LEMMA_TABLE,
    SELF_CHECK_SCOPES,
    collect_comparison_sites,
    float_comparison_violations,
    lemma_conformance_violations,
    lemma_table_lines,
)
from repro.analysis.layers import cycle_violations, layer_violations
from repro.analysis.project import project_from_sources
from tests.conftest import REPO_ROOT, violations_of, write_tree


#: One RPR013 breach: the oracle module imports the code under test.
ORACLE_BREACH_SOURCES = {
    "repro.testing.oracles": (
        "from repro.core.server import knn\n\n__all__ = [\"knn\"]\n"
    ),
    "repro.core.server": "def knn():\n    return []\n",
}


# ----------------------------------------------------------------------
# RPR011: float-comparison dataflow
# ----------------------------------------------------------------------
class TestFloatComparisons:
    # ``repro.core.bounds`` is in STRICT_FLOAT_MODULES and carries no
    # lemma-table entries, so it makes a clean fixture namespace.
    def fixture(self, body):
        return project_from_sources({"repro.core.bounds": body})

    def test_raw_comparison_is_flagged(self):
        project = self.fixture(
            "def check(distance, limit):\n"
            "    return distance < limit\n"
        )
        found = list(float_comparison_violations(project))
        assert len(found) == 1
        site, message = found[0]
        assert site.lineno == 2
        assert "raw `<`" in message

    def test_tolerance_routed_comparison_is_exempt(self):
        project = self.fixture(
            "def check(distance, limit, tol):\n"
            "    return distance <= limit + tol\n"
        )
        assert list(float_comparison_violations(project)) == []

    def test_zero_sign_guard_is_exempt(self):
        project = self.fixture(
            "def check(distance):\n"
            "    return distance > 0.0\n"
        )
        assert list(float_comparison_violations(project)) == []

    def test_equality_against_zero_is_not_a_sign_guard(self):
        project = self.fixture(
            "def check(distance):\n"
            "    return distance == 0.0\n"
        )
        assert len(list(float_comparison_violations(project))) == 1

    def test_taint_flows_through_assignment(self):
        project = self.fixture(
            "def check(query, poi, limit):\n"
            "    gap = query.distance_to(poi)\n"
            "    doubled = gap * 2.0\n"
            "    return doubled < limit\n"
        )
        found = list(float_comparison_violations(project))
        assert len(found) == 1
        assert found[0][0].lineno == 4

    def test_untainted_comparison_is_ignored(self):
        project = self.fixture(
            "def check(count, limit):\n"
            "    return count < limit\n"
        )
        assert list(float_comparison_violations(project)) == []

    def test_noqa_suppresses_through_the_driver(self):
        project = self.fixture(
            "def check(distance, limit):\n"
            "    return distance < limit  # repro: noqa(RPR011)\n"
        )
        analysis = deep.analyze(project)
        assert violations_of(analysis, "RPR011") == []

    def test_head_tree_is_clean(self, head_analysis):
        assert violations_of(head_analysis, "RPR011") == []


# ----------------------------------------------------------------------
# RPR012: lemma conformance
# ----------------------------------------------------------------------
class TestLemmaConformance:
    def test_head_tree_conforms(self, head_analysis):
        assert list(lemma_conformance_violations(head_analysis.project)) == []

    def test_self_check_scopes_are_not_vacuous(self, head_analysis):
        """Taint rot would silently hollow out the self-check; guard it.

        Each scope must be pinned by real evidence: collected comparison
        sites, or (for the multi-peer verifier, which certifies through
        a delegated call instead of a comparison) a call entry in the
        lemma table.
        """
        sites = []
        for module in head_analysis.project.modules.values():
            sites.extend(collect_comparison_sites(module))
        for scope in SELF_CHECK_SCOPES:
            has_site = any(
                site.qualname == scope or site.qualname.startswith(scope + ".")
                for site in sites
            )
            has_call_entry = any(
                entry.is_call_entry and entry.qualname == scope
                for entry in LEMMA_TABLE
            )
            assert has_site or has_call_entry, f"nothing pins {scope}"

    def test_lemma_32_direction_flip_is_caught_statically(self, head_analysis):
        """The acceptance mutation: ``<=`` -> ``<`` in verify_single_peer."""
        source = head_analysis.project.modules["repro.core.verification"].source
        site_count = source.count("distance + delta <= certain_radius")
        assert site_count == 1
        mutated = head_analysis.project.replace_source(
            "repro.core.verification",
            source.replace(
                "distance + delta <= certain_radius",
                "distance + delta < certain_radius",
            ),
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "Lemma 3.2" in message
        ]
        assert len(findings) == site_count
        for finding in findings:
            assert "direction violates" in finding
            assert "requires `<=`" in finding

    def test_coverage_fast_path_direction_flip_is_caught_statically(
        self, head_analysis
    ):
        """Lemma 3.8's single-circle fast path in the coverage kernel."""
        source = head_analysis.project.modules["repro.geometry.coverage"].source
        pinned = "separation + tr <= r + -tolerance"
        assert source.count(pinned) == 1
        mutated = head_analysis.project.replace_source(
            "repro.geometry.coverage",
            source.replace(pinned, "separation + tr < r + -tolerance"),
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "single-circle fast path" in message
        ]
        assert len(findings) == 1
        assert "direction violates" in findings[0]
        assert "requires `<=`" in findings[0]

    @pytest.mark.parametrize(
        "pinned, flipped, lemma, required",
        [
            (
                "maxdists[row[2] - order] < lower",
                "maxdists[row[2] - order] <= lower",
                "rule 1 (downward pruning)",
                "<",
            ),
            (
                "row[0] <= upper",
                "row[0] < upper",
                "rule 2 (upward pruning; leaf admission)",
                "<=",
            ),
            ("key > cut", "key >= cut", "rule 2 (upward pruning, pop)", ">"),
            (
                "keys[index - 1] > key",
                "keys[index - 1] >= key",
                "result-order invariant",
                ">",
            ),
        ],
    )
    def test_einn_direction_flips_are_caught_statically(
        self, head_analysis, pinned, flipped, lemma, required
    ):
        """Each comparison of the run-per-node EINN loop, one flip at a time."""
        source = head_analysis.project.modules["repro.index.knn"].source
        assert source.count(pinned) == 1
        mutated = head_analysis.project.replace_source(
            "repro.index.knn", source.replace(pinned, flipped)
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if lemma in message
        ]
        assert len(findings) == 1
        assert "direction violates" in findings[0]
        assert f"requires `{required}`" in findings[0]

    @pytest.mark.parametrize(
        "pinned, flipped, required",
        [
            ("distance < worst.distance", "distance <= worst.distance", "<"),
            (
                "distance >= certain_bucket[-1].distance",
                "distance > certain_bucket[-1].distance",
                ">=",
            ),
        ],
    )
    def test_heap_direction_flips_are_caught_statically(
        self, head_analysis, pinned, flipped, required
    ):
        """Table 1's admission test and the complete-heap shortcut."""
        source = head_analysis.project.modules["repro.core.heap"].source
        assert source.count(pinned) == 1
        mutated = head_analysis.project.replace_source(
            "repro.core.heap", source.replace(pinned, flipped)
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "Table 1" in message
        ]
        assert len(findings) == 1
        assert "direction violates" in findings[0]
        assert f"requires `{required}`" in findings[0]

    def test_direction_flip_surfaces_through_full_driver(self, head_analysis):
        source = head_analysis.project.modules["repro.core.verification"].source
        mutated = head_analysis.project.replace_source(
            "repro.core.verification",
            source.replace(
                "distance + delta <= certain_radius",
                "distance + delta < certain_radius",
            ),
        )
        analysis = deep.analyze(mutated, select=["RPR011", "RPR012"])
        flagged = violations_of(analysis, "RPR012")
        assert any("Lemma 3.2" in v.message for v in flagged)
        # The flip must not double-report as a raw comparison.
        assert violations_of(analysis, "RPR011") == []

    def test_dropping_covers_disk_is_caught(self, head_analysis):
        source = head_analysis.project.modules["repro.core.verification"].source
        assert "region.covers_disk(target)" in source
        mutated = head_analysis.project.replace_source(
            "repro.core.verification",
            source.replace("region.covers_disk(target)", "True"),
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "covers_disk" in message
        ]
        assert len(findings) == 1
        assert "Lemma 3.8" in findings[0]

    def test_deleting_a_pinned_comparison_reports_stale_entry(self, head_analysis):
        source = head_analysis.project.modules["repro.core.heap"].source
        mutated = head_analysis.project.replace_source(
            "repro.core.heap",
            source.replace("distance < worst.distance", "bool(distance)"),
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "stale lemma table entry" in message
        ]
        assert len(findings) == 1
        assert "CandidateHeap._insert" in findings[0]

    def test_uncovered_comparison_in_scope_is_reported(self, head_analysis):
        source = head_analysis.project.modules["repro.core.heap"].source
        mutated = head_analysis.project.replace_source(
            "repro.core.heap",
            source.replace(
                "distance < worst.distance",
                "distance < worst.distance + 1e-12",
            ),
        )
        findings = [
            message
            for _, _, message in lemma_conformance_violations(mutated)
            if "not covered by the lemma table" in message
        ]
        assert len(findings) == 1

    def test_table_and_rendering_cover_both_entry_kinds(self):
        lines = lemma_table_lines()
        assert len(lines) == len(LEMMA_TABLE)
        assert any("must call `covers_disk`" in line for line in lines)
        assert any("Lemma 3.2" in line for line in lines)


# ----------------------------------------------------------------------
# RPR013: layering contracts
# ----------------------------------------------------------------------
class TestLayering:
    def test_upward_import_is_flagged_once_per_line(self):
        project = project_from_sources(
            {
                "repro.geometry.gadget": (
                    "from repro.core.heap import alpha, beta, gamma\n"
                ),
                "repro.core.heap": "alpha = beta = gamma = 1\n",
            }
        )
        found = list(layer_violations(build_import_graph(project)))
        assert len(found) == 1
        record, message = found[0]
        assert record.source == "repro.geometry.gadget"
        assert "layer" in message

    def test_deferred_import_is_sanctioned(self):
        project = project_from_sources(
            {
                "repro.geometry.gadget": (
                    "def lazy():\n"
                    "    from repro.core.heap import alpha\n"
                    "    return alpha\n"
                ),
                "repro.core.heap": "alpha = 1\n",
            }
        )
        assert list(layer_violations(build_import_graph(project))) == []

    def test_static_analysis_zone_may_not_import_product_code(self):
        project = project_from_sources(
            {
                "repro.analysis.callgraph": "import repro.core.heap\n",
                "repro.core.heap": "alpha = 1\n",
            }
        )
        found = list(layer_violations(build_import_graph(project)))
        assert len(found) == 1
        assert "must run on broken trees" in found[0][1]

    def test_top_level_cycle_is_reported(self):
        project = project_from_sources(
            {
                "repro.core.ping": "import repro.core.pong\n",
                "repro.core.pong": "import repro.core.ping\n",
            }
        )
        found = list(cycle_violations(build_import_graph(project)))
        assert len(found) == 1
        assert "import cycle" in found[0][1]

    def test_head_tree_has_no_layer_violations(self, head_analysis):
        assert violations_of(head_analysis, "RPR013") == []

    def test_importing_repro_io_does_not_load_experiments(self):
        """The lazy figures export keeps repro.io at its declared layer."""
        code = (
            "import sys\n"
            "import repro.io\n"
            "assert 'repro.experiments' not in sys.modules\n"
            "from repro.io import save_figure\n"
            "assert callable(save_figure)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# call graph and effect inference details (unit level)
# ----------------------------------------------------------------------
def graph_for(project):
    return build_call_graph(project, build_import_graph(project))


class TestCallResolution:
    def test_super_call_reaches_project_bases_and_never_a_bare_name(self):
        graph = graph_for(
            project_from_sources(
                {
                    "repro.core.errors": (
                        "from repro.core.base import Base\n"
                        "\n"
                        "\n"
                        "class Failure(ValueError):\n"
                        "    def __init__(self, message):\n"
                        "        super().__init__(message)\n"
                        "\n"
                        "\n"
                        "class Child(Base):\n"
                        "    def __init__(self):\n"
                        "        super().__init__()\n"
                    ),
                    "repro.core.base": (
                        "class Root:\n"
                        "    def __init__(self):\n"
                        "        self.ready = True\n"
                        "\n"
                        "\n"
                        "class Base(Root):\n"
                        "    pass\n"
                        "\n"
                        "\n"
                        "class Unrelated:\n"
                        "    def __init__(self):\n"
                        "        self.ready = False\n"
                    ),
                }
            )
        )


        def callees(qualname):
            info = graph.functions[qualname]
            return {c for site in info.call_sites for c in graph.callees(info, site)}

        # A stdlib base has no project method: the call reaches nothing,
        # where a bare-name match reached every importable __init__.
        assert callees("repro.core.errors.Failure.__init__") == set()
        # A project base is followed up its own bases to the definition.
        assert callees("repro.core.errors.Child.__init__") == {
            "repro.core.base.Root.__init__"
        }


class TestEffectInference:
    def test_name_match_requires_import_reachability(self):
        caller = "def pump(channel, frame):\n    channel.transmit(frame)\n"
        project = project_from_sources(
            {
                # Same method name as the blocking one below, but the
                # module never imports it, so the call cannot dispatch
                # there ...
                "repro.geometry.shapes": caller,
                # ... and from a module that does, it can.
                "repro.sim.driver": "import repro.service.wire\n\n\n" + caller,
                "repro.service.wire": (
                    "class Wire:\n"
                    "    def transmit(self, frame):\n"
                    "        self.sock.sendall(frame)\n"
                ),
            }
        )
        effects = infer_effects(project, graph_for(project))
        assert "repro.geometry.shapes.pump" not in effects
        assert effects["repro.sim.driver.pump"].description == (
            "calls repro.service.wire.Wire.transmit (blocking call `self.sock.sendall`)"
        )


# ----------------------------------------------------------------------
# the driver: one of each fact, one catalogue, declared names that exist
# ----------------------------------------------------------------------
class TestDriver:
    def test_each_fact_is_built_once_per_analyze(self, monkeypatch):
        calls = []
        for name in ("build_import_graph", "build_call_graph", "infer_effects"):
            real = getattr(deep, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(deep, name, counted)
        analysis = deep.analyze(project_from_sources(ORACLE_BREACH_SOURCES))
        assert len(violations_of(analysis, "RPR013")) == 1
        assert sorted(calls) == [
            "build_call_graph",
            "build_import_graph",
            "infer_effects",
        ]

    def test_select_runs_only_the_passes_that_emit_the_code(self, monkeypatch):
        def unwanted(*args):
            raise AssertionError("RPR012 needs no call graph")

        monkeypatch.setattr(deep, "build_call_graph", unwanted)
        analysis = deep.analyze(
            project_from_sources(ORACLE_BREACH_SOURCES), select=["RPR012"]
        )
        assert analysis.violations == []

    def test_import_reachability_is_complete_on_cycles(self):
        # Deferred imports form cycles; every member reaches every other.
        project = project_from_sources(
            {
                "repro.core.a": "def f():\n    import repro.core.b\n",
                "repro.core.b": "def g():\n    import repro.core.c\n",
                "repro.core.c": "def h():\n    import repro.core.a\n",
            }
        )
        ring = {"repro.core.a", "repro.core.b", "repro.core.c"}
        closure = build_import_graph(project).reachability()
        assert all(closure[name] == ring for name in ring)

    def test_declared_name_in_an_absent_module_is_silent(self):
        # LEMMA_TABLE names functions of repro.core and repro.index; a
        # fixture project that does not contain those modules owes no
        # stale-entry or missing-call finding.
        analysis = deep.analyze(project_from_sources(ORACLE_BREACH_SOURCES))
        assert [v.code for v in analysis.violations] == ["RPR013"]

    def test_head_is_clean(self, head_analysis):
        assert head_analysis.violations == []


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
BREACH_PATH = "src/repro/testing/oracles.py"


def seeded_tree(tmp_path):
    """A tree small enough to analyze in milliseconds: one RPR013 breach."""
    return write_tree(tmp_path, ORACLE_BREACH_SOURCES)


class TestDeepCli:
    def run_subprocess(self, *args, cwd=REPO_ROOT):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )

    def test_whole_tree_gate_is_clean_and_prints_the_entry_point_table(self):
        proc = self.run_subprocess("--deep", "--report")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stderr
        headers = [line for line in proc.stdout.splitlines() if line[:1] != " "]
        assert headers == ["concurrency: thread/executor entry points"]

    def test_a_tree_whose_package_import_fails_is_still_linted(self, tmp_path):
        # An upward top-level import makes a cycle through the package:
        # importing ``repro`` on this copy fails, and the lint names it.
        shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro")
        circle = tmp_path / "src" / "repro" / "geometry" / "circle.py"
        lines = circle.read_text().splitlines(keepends=True)
        point = lines.index("from repro.geometry.point import Point\n")
        lines.insert(point, "from repro.core.heap import CandidateHeap\n")
        circle.write_text("".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--deep", "--select", "RPR013"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert f"src/repro/geometry/circle.py:{point + 1}:" in proc.stdout
        assert "RPR013" in proc.stdout

    def test_deep_outside_repo_root_is_a_usage_error(self, tmp_path):
        proc = self.run_subprocess("--deep", cwd=tmp_path)
        assert proc.returncode == 2
        assert "src/repro not found" in proc.stderr

    def test_list_rules_includes_deep_catalogue(self, lint_cli):
        # No other flag needed: one catalogue, 12 rules + RPR900.
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        codes = [line.split()[0] for line in out.splitlines()]
        assert codes == sorted(codes) and len(codes) == 13
        assert {"RPR001", "RPR011", "RPR013", "RPR016", "RPR900"} <= set(codes)
        retired = {
            "RPR003", "RPR007", "RPR008", "RPR009", "RPR010", "RPR015",
            "RPR019", "RPR020", "RPR021", "RPR022", "RPR023", "RPR024",
            "RPR025", "RPR026",
        }
        assert not retired & set(codes)

    def test_finding_fails_the_run(self, lint_cli, tmp_path):
        status, out, err = lint_cli("--deep", cwd=seeded_tree(tmp_path))
        assert status == 1
        assert out.startswith(f"{BREACH_PATH}:1:") and "RPR013" in out
        assert "1 finding" in err

    def test_unknown_code_is_a_usage_error_in_both_modes(self, lint_cli, tmp_path):
        tree = seeded_tree(tmp_path)
        # Retired codes are as unknown as a code that never existed.
        for code in ("RPR999", "RPR008", "RPR021", "RPR025"):
            status, _, err = lint_cli("--deep", "--select", code, cwd=tree)
            assert status == 2 and f"unknown lint rule codes: {code}" in err
        status, _, err = lint_cli("--ignore", "RPR999", "src", cwd=tree)
        assert status == 2 and "RPR999" in err

    def test_whole_program_code_without_deep_says_so(self, lint_cli, tmp_path):
        tree = seeded_tree(tmp_path)
        status, _, err = lint_cli("--select", "RPR013", "src", cwd=tree)
        assert status == 2
        assert "RPR013" in err and "with --deep" in err
        status, _, err = lint_cli("--deep", "--select", "RPR001", cwd=tree)
        assert status == 2
        assert "RPR001" in err and "without --deep" in err

    def test_select_and_ignore_apply_to_whole_program_rules(self, lint_cli, tmp_path):
        tree = seeded_tree(tmp_path)
        status, out, _ = lint_cli("--deep", "--select", "RPR012", cwd=tree)
        assert (status, out) == (0, "")
        status, out, _ = lint_cli("--deep", "--ignore", "RPR013", cwd=tree)
        assert (status, out) == (0, "")
        status, out, _ = lint_cli("--deep", "--select", "rpr013", cwd=tree)
        assert status == 1 and "RPR013" in out

    def test_changed_only_filters_reported_findings(self, lint_cli, tmp_path):
        tree = write_tree(seeded_tree(tmp_path), {"repro.core.beta": "__all__ = []\n"})
        status, out, _ = lint_cli(
            "--deep", "--changed-only", "src/repro/core/beta.py", cwd=tree
        )
        assert (status, out) == (0, "")
        status, out, _ = lint_cli("--deep", "--changed-only", BREACH_PATH, cwd=tree)
        assert status == 1 and "RPR013" in out

    def test_changed_only_keeps_a_rename_that_orphans_a_declared_name(
        self, lint_cli, tmp_path
    ):
        # LEMMA_TABLE (unchanged) still pins verify_single_peer; only
        # verification.py changed, and the stale entry is reported there.
        source = (REPO_ROOT / "src/repro/core/verification.py").read_text()
        assert source.count("def verify_single_peer(") == 1
        tree = write_tree(
            tmp_path,
            {
                "repro.core.verification": source.replace(
                    "def verify_single_peer(", "def verify_one_peer("
                ),
                "repro.core.beta": "__all__ = []\n",
            },
        )
        changed = "src/repro/core/verification.py"
        args = ("--deep", "--select", "RPR012", "--quiet", "--changed-only")
        status, out, _ = lint_cli(*args, changed, cwd=tree)
        assert status == 1
        assert out.startswith(f"{changed}:1:") and out.count("\n") == 1
        assert "stale lemma table entry" in out and "verify_single_peer" in out
        status, out, _ = lint_cli(*args, "src/repro/core/beta.py", cwd=tree)
        assert (status, out) == (0, "")
