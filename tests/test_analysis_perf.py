"""Acceptance tests for the accounting pass of ``repro-lint --deep``
(RPR022).

Mirrors the structure of ``test_analysis_concurrency.py``:

- fixture projects built with ``project_from_sources`` exercise each
  rule in isolation (positive and negative cases);
- the real tree comes from the session's ``head_analysis`` and must be
  clean at HEAD;
- the acceptance-criteria fault injection (dropping the session cleanup
  on the connection-drop path) must surface as an RPR022 finding
  *statically*;
- the runtime half (the accounting sanitizer: billing attribution,
  subcounter fold-once, the conservation law) is driven over the golden
  scenario corpus and a live loopback server, checking that only the
  five billing sites ever bill.
"""

import pathlib

import numpy as np

from repro.analysis import deep
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
# the real tree
# ----------------------------------------------------------------------
class TestHeadTree:
    def test_head_accounting_is_clean(self, head_analysis):
        assert violations_of(head_analysis, "RPR022") == []

    def test_reports_render(self, head_analysis):
        text = "\n".join(head_analysis.report())
        # The instrument handle's cache is declared shared and annotated.
        assert "  Instrument._state                -> owner:cache" in text
        assert "TcpTransport._lock -> MetricsRegistry._lock" in text


# ----------------------------------------------------------------------
# acceptance fault injections (static, no execution of mutated code)
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_dropping_session_cleanup_on_drop_path_is_rpr022(self, head_analysis):
        head_project = head_analysis.project
        module = head_project.get("repro.service.asyncserver")
        mutated = module.source.replace(
            "        self._session.close()\n", "        pass\n"
        )
        assert mutated != module.source
        analysis = deep.analyze(
            head_project.replace_source("repro.service.asyncserver", mutated),
            select=["RPR022"],
        )
        flagged = violations_of(analysis, "RPR022")
        assert len(flagged) == 1
        assert "ServiceSession" in flagged[0].message


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


#: The four billing sites as runtime ``(file, function)`` pairs: node and
#: scan billing always surfaces at the ``read_node`` chokepoint, object
#: billing at the three functions that ship data records (kNN answers of
#: the server and of the batching executor share ``_record_shipped``).
ALLOWED_BILLERS = {
    ("rtree.py", "read_node"),
    ("server.py", "_record_shipped"),
    ("server.py", "range_query_detailed"),
    ("server.py", "window_query_detailed"),
}


class TestAccountingSanitizer:
    def test_golden_scenarios_conserve_and_bill_in_model(self):
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
            assert SANITIZER.billing_callers <= ALLOWED_BILLERS
            assert ("rtree.py", "read_node") in SANITIZER.billing_callers
        finally:
            SANITIZER.reset_accounting()

    def test_live_loopback_server_accounting(self):
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
            assert SANITIZER.billing_callers <= ALLOWED_BILLERS
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
    def test_report_flag_prints_tables(self, lint_cli, tmp_path):
        source = (
            "import threading\n\n"
            "__all__ = ['Box']\n\n\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.value = 0\n\n"
            "    def put(self, value):\n"
            "        with self._lock:\n"
            "            self.value = value\n"
        )
        tree = write_tree(tmp_path, {"repro.core.box": source})
        status, out, err = lint_cli(
            "--deep", "--report", "--quiet", "--select", "RPR015", cwd=tree
        )
        assert status == 0, out + err
        assert out == (
            "concurrency: guarded-by table\n"
            "  Box.value  -> Box._lock\n"
            "concurrency: lock-order graph\n"
            "  (no lock nesting observed)\n"
            "concurrency: thread/executor entry points\n"
            "  (none)\n"
        )

    def test_list_rules_includes_perf_catalogue(self, lint_cli):
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        assert "RPR022" in out and "RPR025" not in out
