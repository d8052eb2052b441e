"""Acceptance tests for the accounting and hot-path passes of
``repro-lint --deep`` (RPR021-RPR025).

Mirrors the structure of ``test_analysis_concurrency.py``:

- fixture projects built with ``project_from_sources`` exercise each
  rule in isolation (positive and negative cases);
- the real tree comes from the session's ``head_analysis`` and must be
  clean at HEAD;
- the acceptance-criteria fault injections (deleting a ``read_node``
  call in the kNN hot path, dropping the session cleanup on the
  connection-drop path) must surface as RPR021/RPR022 findings
  *statically*, and an undeclared ``Node.entries`` mutation as RPR023;
- the runtime half (the accounting sanitizer: billing attribution,
  subcounter fold-once, the conservation law) is driven over the golden
  scenario corpus and a live loopback server, cross-checking *runtime
  billing is a subset of the static billing model*.
"""

import pathlib

import numpy as np

from repro.analysis import deep
from repro.analysis.accounting import accounting_report
from repro.analysis.hotpath import MUTATION_TABLE, MutationEntry, hotpath_report
from repro.analysis.project import project_from_sources
from repro.analysis.runtime import SANITIZER, Sanitizer, sanitized
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.knn import k_nearest_einn
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree
from repro.core.server import ServerAlgorithm, SpatialDatabaseServer
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport
from repro.testing.scenarios import ScenarioGen, decode_scenario
from tests.conftest import violations_of, write_tree

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
ACCOUNTING_CODES = ["RPR021", "RPR022"]
HOTPATH_CODES = ["RPR023", "RPR024", "RPR025"]


# ----------------------------------------------------------------------
# RPR021: billing discipline
# ----------------------------------------------------------------------
BILLING_PRELUDE = (
    "def read_node(node, counter):\n"
    "    counter.record(node.page_id, node.is_leaf)\n"
    "    return node\n"
    "\n"
    "\n"
)

BILLING_ENTRIES = ("search", "bad_search", "double", "sneaky", "caller")


def billing_analysis(body, entries=BILLING_ENTRIES):
    project = project_from_sources({"repro.acct.mod": BILLING_PRELUDE + body})
    policy = deep.Policy(
        # Declare the entry points this body defines (an undefined one
        # is a finding of its own).
        billing_entry_points=frozenset(
            f"repro.acct.mod.{name}" for name in entries if f"def {name}(" in body
        ),
        billing_modules=("repro.acct.mod",),
    )
    return deep.analyze(project, select=ACCOUNTING_CODES, policy=policy)


class TestBillingDiscipline:
    def test_metered_scan_is_clean(self):
        analysis = billing_analysis(
            "def search(tree, counter):\n"
            "    node = read_node(tree.root, counter)\n"
            "    for entry in node.entries:\n"
            "        pass\n"
        )
        assert analysis.violations == []
        assert "repro.acct.mod.search" in analysis.checked

    def test_unbilled_scan_is_rpr021(self):
        analysis = billing_analysis(
            "def bad_search(tree, counter):\n"
            "    node = tree.root\n"
            "    for entry in node.entries:\n"
            "        pass\n"
        )
        flagged = violations_of(analysis, "RPR021")
        assert len(flagged) == 1
        assert "never metered" in flagged[0].message

    def test_unmetered_read_node_is_rpr021(self):
        analysis = billing_analysis(
            "def bad_search(tree, counter):\n"
            "    node = read_node(tree.root)\n"
            "    for entry in node.entries:\n"
            "        pass\n"
        )
        flagged = violations_of(analysis, "RPR021")
        # The counter-less read also leaves `node` unbilled, so the
        # follow-on scan is flagged too.
        assert len(flagged) == 2
        assert any("without a counter" in v.message for v in flagged)
        assert any("never metered" in v.message for v in flagged)

    def test_double_billing_is_rpr021(self):
        analysis = billing_analysis(
            "def double(tree, counter):\n"
            "    node = read_node(tree.root, counter)\n"
            "    again = read_node(node, counter)\n"
            "    return again\n"
        )
        flagged = violations_of(analysis, "RPR021")
        assert len(flagged) == 1
        assert "billed twice" in flagged[0].message

    def test_rebind_then_reread_is_clean(self):
        # The self-rebind idiom of a descent loop: X = read_node(X, c).
        analysis = billing_analysis(
            "def search(tree, counter):\n"
            "    node = read_node(tree.root, counter)\n"
            "    node = read_node(node.child, counter)\n"
            "    return node\n"
        )
        assert analysis.violations == []

    def test_chokepoint_bypass_is_rpr021(self):
        analysis = billing_analysis(
            "def sneaky(tree, counter):\n"
            "    counter.record(tree.root.page_id, True)\n"
        )
        flagged = violations_of(analysis, "RPR021")
        assert len(flagged) == 1
        assert "bypassing the read_node chokepoint" in flagged[0].message

    def test_unbilled_arg_to_scanning_callee_is_rpr021(self):
        analysis = billing_analysis(
            "def scan_only(node):\n"
            "    return len(node.entries)\n"
            "\n"
            "\n"
            "def caller(tree, counter):\n"
            "    node = tree.root\n"
            "    return scan_only(node)\n"
        )
        flagged = violations_of(analysis, "RPR021")
        assert len(flagged) == 1
        assert "passes unmetered `node` to `scan_only`" in flagged[0].message

    def test_billed_arg_to_scanning_callee_is_clean(self):
        analysis = billing_analysis(
            "def scan_only(node):\n"
            "    return len(node.entries)\n"
            "\n"
            "\n"
            "def caller(tree, counter):\n"
            "    node = read_node(tree.root, counter)\n"
            "    return scan_only(node)\n"
        )
        assert analysis.violations == []

    def test_unreachable_scope_is_not_checked(self):
        # Same unbilled scan, but no entry point reaches it.
        analysis = billing_analysis(
            "def cold_path(tree):\n"
            "    for entry in tree.root.entries:\n"
            "        pass\n",
            entries=(),
        )
        assert analysis.violations == []
        assert analysis.checked == set()


# ----------------------------------------------------------------------
# RPR022: subcounter fold-once
# ----------------------------------------------------------------------
def fold_analysis(sources):
    return deep.analyze(project_from_sources(sources), select=["RPR022"])


class TestFoldOnce:
    def test_local_subcounter_without_finally_is_rpr022(self):
        analysis = fold_analysis(
            {
                "repro.fold.mod": (
                    "def leaky(counter):\n"
                    "    sub = counter.subcounter()\n"
                    "    sub.start_query()\n"
                )
            }
        )
        flagged = violations_of(analysis, "RPR022")
        assert len(flagged) == 1
        assert "not absorbed in a `finally`" in flagged[0].message

    def test_local_subcounter_with_finally_is_clean(self):
        analysis = fold_analysis(
            {
                "repro.fold.mod": (
                    "def careful(counter):\n"
                    "    sub = counter.subcounter()\n"
                    "    try:\n"
                    "        sub.start_query()\n"
                    "    finally:\n"
                    "        counter.absorb(sub.finish_query())\n"
                )
            }
        )
        assert analysis.violations == []

    def test_stored_subcounter_without_fold_method_is_rpr022(self):
        analysis = fold_analysis(
            {
                "repro.fold.mod": (
                    "class Stream:\n"
                    "    def __init__(self, counter):\n"
                    "        self._sub = counter.subcounter()\n"
                )
            }
        )
        flagged = violations_of(analysis, "RPR022")
        assert len(flagged) == 1
        assert "no method of the class absorbs it" in flagged[0].message

    FOLDING_STREAM = (
        "class Stream:\n"
        "    def __init__(self, counter):\n"
        "        self._parent = counter\n"
        "        self._sub = counter.subcounter()\n"
        "\n"
        "    def finalize(self):\n"
        "        self._parent.absorb(self._sub.finish_query())\n"
        "\n"
        "\n"
    )

    def test_acquirer_without_guaranteed_fold_is_rpr022(self):
        analysis = fold_analysis(
            {
                "repro.fold.mod": self.FOLDING_STREAM
                + "def handle(counter):\n"
                "    stream = Stream(counter)\n"
                "    stream.pump()\n"
            }
        )
        flagged = violations_of(analysis, "RPR022")
        assert len(flagged) == 1
        assert "never guarantees `stream.finalize()`" in flagged[0].message

    def test_acquirer_with_finally_fold_is_clean(self):
        analysis = fold_analysis(
            {
                "repro.fold.mod": self.FOLDING_STREAM
                + "def handle(counter):\n"
                "    stream = Stream(counter)\n"
                "    try:\n"
                "        stream.pump()\n"
                "    finally:\n"
                "        stream.finalize()\n"
            }
        )
        assert analysis.violations == []


# ----------------------------------------------------------------------
# RPR023: mirror mutation discipline
# ----------------------------------------------------------------------
MUTATION_SOURCE = {
    "repro.mut.mod": (
        "def add(leaf, entry):\n"
        "    leaf.entries.append(entry)\n"
    )
}

DECLARED = (
    MutationEntry(
        qualname="repro.mut.mod.add",
        kind="append",
        target="leaf.entries",
        strategy="extend-in-place",
        rationale="test fixture",
    ),
)


def mutation_analysis(sources, table):
    policy = deep.Policy(mutation_modules=("repro.mut.mod",), mutation_table=table)
    return deep.analyze(project_from_sources(sources), select=["RPR023"], policy=policy)


class TestMirrorMutations:
    def test_undeclared_site_is_rpr023(self):
        analysis = mutation_analysis(MUTATION_SOURCE, table=())
        flagged = violations_of(analysis, "RPR023")
        assert len(flagged) == 1
        assert "not declared in hotpath.MUTATION_TABLE" in flagged[0].message
        assert flagged[0].line == 2

    def test_declared_site_is_clean(self):
        analysis = mutation_analysis(MUTATION_SOURCE, table=DECLARED)
        assert analysis.violations == []
        assert len(analysis.mutation_sites) == 1

    def test_stale_table_entry_is_rpr023(self):
        stale = DECLARED + (
            MutationEntry(
                qualname="repro.mut.mod.gone",
                kind="remove",
                target="leaf.entries",
                strategy="drop",
                rationale="no longer exists",
            ),
        )
        analysis = mutation_analysis(MUTATION_SOURCE, table=stale)
        flagged = violations_of(analysis, "RPR023")
        assert len(flagged) == 1
        assert "stale MUTATION_TABLE entry" in flagged[0].message

    def test_rebind_site_is_discovered(self):
        sources = {
            "repro.mut.mod": (
                "def split(node, keep):\n"
                "    node.entries = keep\n"
            )
        }
        analysis = mutation_analysis(sources, table=())
        assert [s.kind for s in analysis.mutation_sites] == ["rebind"]
        assert len(violations_of(analysis, "RPR023")) == 1

    def test_sites_in_nested_classes_are_discovered(self):
        # Neither scope is in the function-scope index: a class nested in
        # a function, and a class nested in a class.
        sources = {
            "repro.mut.mod": (
                "def make():\n"
                "    class Helper:\n"
                "        def trim(self, node):\n"
                "            node.entries.pop()\n"
                "    return Helper\n"
                "class Outer:\n"
                "    class Inner:\n"
                "        def grow(self, node, entry):\n"
                "            node.entries.append(entry)\n"
            )
        }
        analysis = mutation_analysis(sources, table=())
        assert [(s.qualname, s.kind, s.lineno) for s in analysis.mutation_sites] == [
            ("repro.mut.mod.make.Helper.trim", "pop", 4),
            ("repro.mut.mod.Outer.Inner.grow", "append", 9),
        ]
        assert [v.line for v in violations_of(analysis, "RPR023")] == [4, 9]


# ----------------------------------------------------------------------
# RPR024 / RPR025: hot-loop allocations and unguarded obs
# ----------------------------------------------------------------------
def hot_analysis(body):
    project = project_from_sources({"repro.hotm.mod": body})
    policy = deep.Policy(hot_entry_points=frozenset({"repro.hotm.mod.hot"}))
    return deep.analyze(project, select=["RPR024", "RPR025"], policy=policy)


class TestHotLoops:
    def test_ndarray_alloc_in_loop_is_rpr024(self):
        analysis = hot_analysis(
            "import numpy as np\n"
            "\n"
            "\n"
            "def hot(items):\n"
            "    for item in items:\n"
            "        buf = np.zeros(4)\n"
            "    return buf\n"
        )
        flagged = violations_of(analysis, "RPR024")
        assert len(flagged) == 1
        assert "np.zeros(...)" in flagged[0].message

    def test_comprehension_outside_loop_is_clean(self):
        analysis = hot_analysis(
            "def hot(items):\n"
            "    out = [item for item in items]\n"
            "    for item in out:\n"
            "        pass\n"
            "    return out\n"
        )
        assert analysis.violations == []

    def test_hot_alloc_suppression_at_origin(self):
        analysis = hot_analysis(
            "def hot(items):\n"
            "    for item in items:\n"
            "        pair = [item, item]  # plain list: not an ndarray\n"
            "        scratch = {k: 0 for k in item}  # repro: hot-alloc(tiny per-item dict)\n"
            "    return scratch\n"
        )
        assert analysis.violations == []

    def test_cold_function_is_not_scanned(self):
        analysis = hot_analysis(
            "import numpy as np\n"
            "\n"
            "\n"
            "def hot(items):\n"
            "    return len(items)\n"
            "\n"
            "\n"
            "def cold(items):\n"
            "    for item in items:\n"
            "        buf = np.zeros(4)\n"
            "    return buf\n"
        )
        assert analysis.violations == []
        assert analysis.hot == {"repro.hotm.mod.hot"}

    def test_unguarded_obs_in_loop_is_rpr025(self):
        analysis = hot_analysis(
            "def hot(items):\n"
            "    for item in items:\n"
            "        OBS.registry.counter('x').inc()\n"
        )
        flagged = violations_of(analysis, "RPR025")
        assert len(flagged) == 1
        assert "without an" in flagged[0].message

    def test_guarded_obs_in_loop_is_clean(self):
        analysis = hot_analysis(
            "def hot(items):\n"
            "    for item in items:\n"
            "        if OBS.enabled:\n"
            "            OBS.registry.counter('x').inc()\n"
        )
        assert analysis.violations == []

    def test_helper_rooted_call_is_exempt(self):
        # The generation-cache idiom: the helper is the guard.
        analysis = hot_analysis(
            "def hot(items):\n"
            "    for item in items:\n"
            "        _cached_counter().inc()\n"
        )
        assert violations_of(analysis, "RPR025") == []


# ----------------------------------------------------------------------
# the real tree
# ----------------------------------------------------------------------
class TestHeadTree:
    def test_head_accounting_is_clean(self, head_analysis):
        assert [
            v for v in head_analysis.violations if v.code in ACCOUNTING_CODES
        ] == []

    def test_head_hotpath_is_clean(self, head_analysis):
        assert [
            v for v in head_analysis.violations if v.code in HOTPATH_CODES
        ] == []

    def test_every_read_node_site_passes_a_counter(self, head_analysis):
        read_sites = [
            s for s in head_analysis.billing_sites if s.kind == "read_node"
        ]
        assert read_sites, "expected read_node billing sites in the tree"
        assert all(site.counter for site in read_sites)

    def test_checked_scopes_cover_the_query_layer(self, head_analysis):
        checked = head_analysis.checked
        assert any(q.endswith("k_nearest_einn") for q in checked)
        assert any(q.endswith("knn_query_detailed") for q in checked)
        assert any(q.endswith("_execute_shared") for q in checked)

    def test_mutation_sites_match_the_declared_table(self, head_analysis):
        keys = {
            (site.qualname, site.kind, site.target)
            for site in head_analysis.mutation_sites
        }
        assert keys == {(e.qualname, e.kind, e.target) for e in MUTATION_TABLE}

    def test_hot_set_covers_the_entry_points(self, head_analysis):
        hot = head_analysis.hot
        assert any(q.endswith("verify_single_peer") for q in hot)
        assert any(q.endswith("incremental_nearest") for q in hot)

    def test_reports_render(self, head_analysis):
        acct_text = "\n".join(accounting_report(head_analysis))
        assert "billing table" in acct_text
        assert "read_node" in acct_text
        assert "checked scopes" in acct_text
        hot_text = "\n".join(hotpath_report(head_analysis))
        assert "mutation table" in hot_text
        assert "hot set" in hot_text
        assert "extend-in-place" in hot_text


# ----------------------------------------------------------------------
# acceptance fault injections (static, no execution of mutated code)
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_deleting_a_read_node_call_is_rpr021(self, head_analysis):
        head_project = head_analysis.project
        module = head_project.get("repro.index.knn")
        mutated = module.source.replace(
            "        tree.read_node(node, counter)\n", ""
        )
        assert mutated != module.source
        analysis = deep.analyze(
            head_project.replace_source("repro.index.knn", mutated),
            select=["RPR021"],
        )
        flagged = violations_of(analysis, "RPR021")
        assert len(flagged) == 1
        assert "unmetered" in flagged[0].message
        assert "visit" in flagged[0].message

    def test_dropping_session_cleanup_on_drop_path_is_rpr022(self, head_analysis):
        head_project = head_analysis.project
        module = head_project.get("repro.service.asyncserver")
        mutated = module.source.replace(
            "            session.close()\n", "            pass\n"
        )
        assert mutated != module.source
        analysis = deep.analyze(
            head_project.replace_source("repro.service.asyncserver", mutated),
            select=["RPR022"],
        )
        flagged = violations_of(analysis, "RPR022")
        assert len(flagged) == 1
        assert "ServiceSession" in flagged[0].message

    def test_undeclared_entries_mutation_is_rpr023(self, head_analysis):
        head_project = head_analysis.project
        module = head_project.get("repro.index.rtree")
        mutated = module.source.replace(
            "        leaf.entries.remove(entry)\n",
            "        leaf.entries.remove(entry)\n"
            "        leaf.entries.append(entry)\n",
        )
        assert mutated != module.source
        analysis = deep.analyze(
            head_project.replace_source("repro.index.rtree", mutated),
            select=["RPR023"],
        )
        flagged = violations_of(analysis, "RPR023")
        assert len(flagged) == 1
        assert "append" in flagged[0].message


# ----------------------------------------------------------------------
# the runtime half: the accounting sanitizer
# ----------------------------------------------------------------------
def _golden_scenarios():
    items = []
    for path in sorted(GOLDEN_DIR.glob("*.scenario")):
        text = "\n".join(
            line
            for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
        items.append((path.stem, decode_scenario(text)))
    gen = ScenarioGen(seed=20260808)
    for index in range(10):
        items.append((f"gen-{index}", gen.generate(index)))
    return items


def _allowed_billers(head_analysis):
    """The static billing model as runtime (file, function) pairs.

    Node/scan billing always surfaces at the ``read_node`` chokepoint;
    object billing surfaces at each ``record_object`` call site the
    accounting pass discovered.
    """
    allowed = {("rtree.py", "read_node")}
    for site in head_analysis.billing_sites:
        if site.kind == "record_object":
            allowed.add(
                (
                    site.module.rsplit(".", 1)[-1] + ".py",
                    site.qualname.rsplit(".", 1)[-1],
                )
            )
    return allowed


class TestAccountingSanitizer:
    def test_golden_scenarios_conserve_and_bill_in_model(self, head_analysis):
        scenarios = _golden_scenarios()
        assert len(scenarios) >= 20
        SANITIZER.reset_accounting()
        try:
            with sanitized():
                for _name, scenario in scenarios:
                    pois = [(Point(x, y), pid) for x, y, pid in scenario.pois]
                    tree = RTree.bulk_load(list(pois))
                    counter = PageAccessCounter()
                    query = Point(*scenario.query)
                    counter.start_query()
                    k_nearest_einn(tree, query, scenario.k, counter=counter)
                    counter.finish_query()
                    counter.start_query()
                    tree.circle_search(query, 1.0, counter)
                    counter.finish_query()
                    assert Sanitizer.verify_conservation(counter) == []
            assert SANITIZER.accounting_violations == []
            assert SANITIZER.accounting_leftovers() == []
            assert SANITIZER.billing_callers <= _allowed_billers(head_analysis)
            assert ("rtree.py", "read_node") in SANITIZER.billing_callers
        finally:
            SANITIZER.reset_accounting()

    def test_live_loopback_server_accounting(self, head_analysis):
        rng = np.random.default_rng(7)
        pois = [
            (Point(float(x), float(y)), f"poi-{i}")
            for i, (x, y) in enumerate(rng.uniform(0.0, 4.0, size=(250, 2)))
        ]
        server = SpatialDatabaseServer.from_points(
            pois, algorithm=ServerAlgorithm.EINN
        )
        transport = LoopbackTransport(QueryService(server))
        client = ServiceClient(transport)
        SANITIZER.reset_accounting()
        try:
            with sanitized():
                for seed in range(3):
                    qrng = np.random.default_rng(seed)
                    query = Point(
                        float(qrng.uniform(0, 4)), float(qrng.uniform(0, 4))
                    )
                    client.knn_query_detailed(query, 5)
                client.range_query_detailed(Point(2.0, 2.0), 0.6)
                client.window_query_detailed(BoundingBox(0.5, 0.5, 2.0, 2.0))
                stream = client.incremental_query(Point(1.0, 1.0))
                for _ in range(5):
                    next(stream)
                stream.close()
                # A second stream is deliberately left open: closing the
                # transport (-> the session) must fold it too.
                dangling = client.incremental_query(Point(3.0, 3.0))
                next(dangling)
                transport.close()
            assert SANITIZER.accounting_violations == []
            assert SANITIZER.accounting_leftovers() == []
            assert SANITIZER.billing_callers <= _allowed_billers(head_analysis)
            assert Sanitizer.verify_conservation(server.counter) == []
        finally:
            SANITIZER.reset_accounting()

    def test_double_fold_is_reported(self):
        SANITIZER.reset_accounting()
        try:
            with sanitized():
                counter = PageAccessCounter()
                sub = counter.subcounter()
                sub.start_query()
                sub.record(1, is_leaf=True)
                breakdown = sub.finish_query()
                counter.absorb(breakdown)
                assert SANITIZER.accounting_violations == []
                counter.absorb(breakdown)
            assert len(SANITIZER.accounting_violations) == 1
            assert "twice" in SANITIZER.accounting_violations[0]
        finally:
            SANITIZER.reset_accounting()

    def test_unfolded_subcounter_is_a_leftover(self):
        SANITIZER.reset_accounting()
        try:
            with sanitized():
                counter = PageAccessCounter()
                sub = counter.subcounter()
                sub.start_query()
                sub.record(1, is_leaf=False)
                breakdown = sub.finish_query()
                leftovers = SANITIZER.accounting_leftovers()
                assert len(leftovers) == 1
                assert "never absorbed" in leftovers[0]
                counter.absorb(breakdown)
                assert SANITIZER.accounting_leftovers() == []
        finally:
            SANITIZER.reset_accounting()

    def test_conservation_breach_is_detected(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record(1, is_leaf=True)
        counter.finish_query()
        counter.total_accesses += 1  # simulate a lost breakdown
        problems = Sanitizer.verify_conservation(counter)
        assert len(problems) == 1
        assert "history sums to 1" in problems[0]

    def test_reset_accounting_clears_tracking(self):
        SANITIZER.reset_accounting()
        with sanitized():
            counter = PageAccessCounter()
            counter.subcounter()
            assert SANITIZER.accounting_leftovers() != []
            SANITIZER.reset_accounting()
            assert SANITIZER.accounting_leftovers() == []
            assert SANITIZER.billing_callers == set()
            assert SANITIZER.accounting_violations == []

    def test_disabled_sanitizer_records_nothing(self):
        SANITIZER.reset_accounting()
        if not SANITIZER.enabled:
            counter = PageAccessCounter()
            counter.start_query()
            counter.record(1, is_leaf=True)
            counter.finish_query()
            sub = counter.subcounter()
            counter.absorb(sub.finish_query())
            assert SANITIZER.billing_callers == set()
            assert SANITIZER.accounting_leftovers() == []


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_perf_flag_is_clean_at_head(self, lint_cli):
        # --perf is gone; --deep --select runs just these passes.
        codes = ",".join(ACCOUNTING_CODES + HOTPATH_CODES)
        status, out, err = lint_cli("--deep", "--select", codes)
        assert status == 0, out + err
        assert "0 findings" in err

    def test_report_flag_prints_tables(self, lint_cli, tmp_path):
        source = (
            "__all__ = ['delete']\n\n\n"
            "def delete(leaf, entry, counter):\n"
            "    counter.record_object(entry)\n"
            "    leaf.entries.remove(entry)\n"
        )
        tree = write_tree(tmp_path, {"repro.index.rtree": source})
        status, out, err = lint_cli("--deep", "--report", "--quiet", cwd=tree)
        assert status == 1, out + err
        assert "repro.index.rtree:5 record_object [delete]  -> counter" in out
        assert "repro.index.rtree:6 remove leaf.entries  -> (undeclared)" in out
        assert "hotpath: hot set" in out
        assert "src/repro/index/rtree.py:6:0: RPR023" in out

    def test_list_rules_includes_perf_catalogue(self, lint_cli):
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        for code in ACCOUNTING_CODES + HOTPATH_CODES:
            assert code in out
        assert "RPR026" not in out
