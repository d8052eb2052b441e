"""Acceptance tests for the concurrency pass of ``repro-lint --deep``
(RPR015-RPR020).

Mirrors the structure of ``test_analysis_deep.py``:

- fixture projects built with ``project_from_sources`` exercise each
  rule in isolation (positive and negative cases);
- the real tree comes from the session's ``head_analysis`` and must be
  clean at HEAD;
- the acceptance-criteria fault injections (dropping the ``with
  self._lock:`` guard in ``TcpTransport.request``, adding an ``await``
  under a held ``threading.Lock`` in the server's ``stop``) must surface as
  RPR015/RPR017 findings *statically*;
- the runtime half (tracked locks, the race sanitizer's lock-order
  graph and metric owning-context check) is driven directly here; the
  static-vs-runtime graph comparison over a live server lives in
  ``test_service_concurrency.py``.
"""

from repro.analysis import deep
from repro.analysis.concurrency import concurrency_report
from repro.analysis.locks import LockOrderGraph, LockSite, canonical_lock_name
from repro.analysis.project import project_from_sources
from repro.analysis.runtime import (
    SANITIZER,
    named_lock,
    sanitized,
)
from tests.conftest import violations_of, write_tree

CONCURRENCY_CODES = ["RPR015", "RPR016", "RPR017", "RPR018", "RPR019", "RPR020"]


def analyze_concurrency(project):
    return deep.analyze(project, select=CONCURRENCY_CODES)


# ----------------------------------------------------------------------
# RPR015: unguarded shared write
# ----------------------------------------------------------------------
RACY_BOX = {
    "repro.conc.box": (
        "import threading\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.items = []\n"
        "\n"
        "    def locked_add(self, item):\n"
        "        with self._lock:\n"
        "            self.items.append(item)\n"
        "\n"
        "    def racy_add(self, item):\n"
        "        self.items.append(item)\n"
    ),
}


class TestSharedWrites:
    def test_mixed_locked_unlocked_write_is_rpr015(self):
        analysis = analyze_concurrency(project_from_sources(RACY_BOX))
        flagged = violations_of(analysis, "RPR015")
        assert len(flagged) == 1
        assert "Box.items" in flagged[0].message
        assert "racy_add" in flagged[0].message
        assert flagged[0].line == 14

    def test_all_writes_locked_is_clean_and_inferred(self):
        sources = {
            "repro.conc.box": RACY_BOX["repro.conc.box"].replace(
                "    def racy_add(self, item):\n"
                "        self.items.append(item)\n",
                "",
            )
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert analysis.violations == []
        assert analysis.guarded_by["Box.items"] == "Box._lock"

    def test_init_writes_are_exempt(self):
        sources = {
            "repro.conc.initonly": (
                "import threading\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.config = {}\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert analysis.violations == []

    def test_write_outside_declared_guard_is_rpr015(self):
        sources = {
            "repro.conc.declared": (
                "import threading\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.state = 0  # repro: guarded-by(self._lock)\n"
                "\n"
                "    def poke(self):\n"
                "        self.state = 1\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR015")
        assert len(flagged) == 1
        assert "declared guard" in flagged[0].message
        assert flagged[0].line == 10

    def test_unrelated_class_without_locks_is_ignored(self):
        sources = {
            "repro.conc.plain": (
                "class PerQueryScratch:\n"
                "    def __init__(self):\n"
                "        self.acc = []\n"
                "\n"
                "    def push(self, x):\n"
                "        self.acc.append(x)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert analysis.violations == []
        assert analysis.shared_classes == {}


# ----------------------------------------------------------------------
# RPR020: unannotated shared field / guarded-by annotations
# ----------------------------------------------------------------------
class TestGuardedBy:
    def test_all_unlocked_writes_demand_annotation(self):
        sources = {
            "repro.conc.naked": (
                "import threading\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def poke(self):\n"
                "        self.counter = 1\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR020")
        assert len(flagged) == 1
        assert "counter" in flagged[0].message
        assert "guarded-by" in flagged[0].message

    def test_owner_sentinel_annotation_clears_the_field(self):
        sources = {
            "repro.conc.owned": (
                "import threading\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def poke(self):\n"
                "        self.counter = 1  # repro: guarded-by(setup)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert analysis.violations == []
        assert analysis.guarded_by["Holder.counter"] == "owner:setup"

    def test_unknown_spec_is_rpr020(self):
        sources = {
            "repro.conc.typo": (
                "import threading\n"
                "\n"
                "\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def poke(self):\n"
                "        self.counter = 1  # repro: guarded-by(no_such_lock)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR020")
        assert len(flagged) == 1
        assert "unknown guarded-by spec" in flagged[0].message

    def test_thread_target_class_is_shared(self):
        sources = {
            "repro.conc.worker": (
                "import threading\n"
                "\n"
                "\n"
                "class Worker:\n"
                "    def __init__(self):\n"
                "        self._thread = threading.Thread(target=self._run)\n"
                "\n"
                "    def _run(self):\n"
                "        self.result = 42\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        shared = analysis.shared_classes["repro.conc.worker.Worker"]
        assert "threading.Thread" in shared.reason
        assert violations_of(analysis, "RPR020")


# ----------------------------------------------------------------------
# RPR016: blocking call reachable from a coroutine
# ----------------------------------------------------------------------
class TestAsyncBlocking:
    def test_time_sleep_in_coroutine_is_rpr016(self):
        sources = {
            "repro.conc.aio": (
                "import time\n"
                "\n"
                "\n"
                "async def tick():\n"
                "    time.sleep(0.1)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR016")
        assert len(flagged) == 1
        assert "tick" in flagged[0].message

    def test_blocking_reached_through_sync_helper(self):
        sources = {
            "repro.conc.aio2": (
                "import time\n"
                "\n"
                "\n"
                "def settle():\n"
                "    time.sleep(0.1)\n"
                "\n"
                "\n"
                "async def tick():\n"
                "    settle()\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR016")
        assert len(flagged) == 1
        assert "tick" in flagged[0].message

    def test_run_in_executor_dispatch_is_clean(self):
        sources = {
            "repro.conc.aio3": (
                "import asyncio\n"
                "import time\n"
                "\n"
                "\n"
                "def settle():\n"
                "    time.sleep(0.1)\n"
                "\n"
                "\n"
                "async def tick():\n"
                "    loop = asyncio.get_running_loop()\n"
                "    await loop.run_in_executor(None, settle)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert violations_of(analysis, "RPR016") == []

    def test_asyncio_sleep_is_not_blocking(self):
        sources = {
            "repro.conc.aio4": (
                "import asyncio\n"
                "\n"
                "\n"
                "async def tick():\n"
                "    await asyncio.sleep(0.1)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert violations_of(analysis, "RPR016") == []


# ----------------------------------------------------------------------
# RPR017: await under a held threading.Lock
# ----------------------------------------------------------------------
class TestAwaitUnderLock:
    def test_await_inside_thread_lock_is_rpr017(self):
        sources = {
            "repro.conc.stall": (
                "import asyncio\n"
                "import threading\n"
                "\n"
                "\n"
                "class Pump:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    async def flush(self):\n"
                "        with self._lock:\n"
                "            await asyncio.sleep(0)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR017")
        assert len(flagged) == 1
        assert "flush" in flagged[0].message
        assert flagged[0].line == 11

    def test_async_with_asyncio_lock_is_clean(self):
        sources = {
            "repro.conc.ok": (
                "import asyncio\n"
                "\n"
                "\n"
                "class Pump:\n"
                "    def __init__(self):\n"
                "        self._lock = asyncio.Lock()\n"
                "\n"
                "    async def flush(self):\n"
                "        async with self._lock:\n"
                "            await asyncio.sleep(0)\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert violations_of(analysis, "RPR017") == []


# ----------------------------------------------------------------------
# RPR018: dropped task
# ----------------------------------------------------------------------
class TestDroppedTask:
    def test_bare_ensure_future_is_rpr018(self):
        sources = {
            "repro.conc.fire": (
                "import asyncio\n"
                "\n"
                "\n"
                "async def work():\n"
                "    return 1\n"
                "\n"
                "\n"
                "async def fire():\n"
                "    asyncio.ensure_future(work())\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        flagged = violations_of(analysis, "RPR018")
        assert len(flagged) == 1
        assert "ensure_future" in flagged[0].message

    def test_retained_task_is_clean(self):
        sources = {
            "repro.conc.kept": (
                "import asyncio\n"
                "\n"
                "\n"
                "async def work():\n"
                "    return 1\n"
                "\n"
                "\n"
                "async def fire():\n"
                "    task = asyncio.create_task(work())\n"
                "    await task\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert violations_of(analysis, "RPR018") == []


# ----------------------------------------------------------------------
# RPR019: lock-order cycles
# ----------------------------------------------------------------------
CYCLE_SOURCES = {
    "repro.conc.ab": (
        "import threading\n"
        "\n"
        "\n"
        "class AB:\n"
        "    def __init__(self):\n"
        "        self.a_lock = threading.Lock()\n"
        "        self.b_lock = threading.Lock()\n"
        "\n"
        "    def one(self):\n"
        "        with self.a_lock:\n"
        "            with self.b_lock:\n"
        "                pass\n"
        "\n"
        "    def two(self):\n"
        "        with self.b_lock:\n"
        "            with self.a_lock:\n"
        "                pass\n"
    ),
}


class TestLockOrder:
    def test_opposite_orders_are_a_cycle(self):
        analysis = analyze_concurrency(project_from_sources(CYCLE_SOURCES))
        flagged = violations_of(analysis, "RPR019")
        assert len(flagged) == 1
        assert "AB.a_lock" in flagged[0].message
        assert "AB.b_lock" in flagged[0].message
        # Reported at the witness's file path (not its dotted module
        # name), which is what lets noqa and --changed-only match it.
        assert (flagged[0].path, flagged[0].line) == ("repro/conc/ab.py", 11)
        witness = "            with self.b_lock:\n                pass\n"
        assert CYCLE_SOURCES["repro.conc.ab"].count(witness) == 1
        suppressed = CYCLE_SOURCES["repro.conc.ab"].replace(
            witness, witness.replace(":\n", ":  # repro: noqa(RPR019) fixture\n", 1)
        )
        analysis = analyze_concurrency(
            project_from_sources({"repro.conc.ab": suppressed})
        )
        assert violations_of(analysis, "RPR019") == []

    def test_consistent_order_is_clean(self):
        sources = {
            "repro.conc.ab": CYCLE_SOURCES["repro.conc.ab"].replace(
                "        with self.b_lock:\n"
                "            with self.a_lock:\n",
                "        with self.a_lock:\n"
                "            with self.b_lock:\n",
            )
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert analysis.violations == []
        assert ("AB.a_lock", "AB.b_lock") in analysis.lock_graph.edges

    def test_interprocedural_nesting_builds_edges(self):
        sources = {
            "repro.conc.indirect": (
                "import threading\n"
                "\n"
                "\n"
                "class AB:\n"
                "    def __init__(self):\n"
                "        self.a_lock = threading.Lock()\n"
                "        self.b_lock = threading.Lock()\n"
                "\n"
                "    def inner(self):\n"
                "        with self.b_lock:\n"
                "            pass\n"
                "\n"
                "    def outer(self):\n"
                "        with self.a_lock:\n"
                "            self.inner()\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert ("AB.a_lock", "AB.b_lock") in analysis.lock_graph.edges

    def test_reacquiring_plain_lock_is_self_deadlock(self):
        sources = {
            "repro.conc.selfdl": (
                "import threading\n"
                "\n"
                "\n"
                "class S:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "\n"
                "    def twice(self):\n"
                "        with self._lock:\n"
                "            with self._lock:\n"
                "                pass\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert len(violations_of(analysis, "RPR019")) == 1

    def test_reacquiring_rlock_is_fine(self):
        sources = {
            "repro.conc.rl": (
                "import threading\n"
                "\n"
                "\n"
                "class S:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.RLock()\n"
                "\n"
                "    def twice(self):\n"
                "        with self._lock:\n"
                "            with self._lock:\n"
                "                pass\n"
            ),
        }
        analysis = analyze_concurrency(project_from_sources(sources))
        assert violations_of(analysis, "RPR019") == []


class TestLockOrderGraph:
    def test_cycles_and_witness(self):
        graph = LockOrderGraph()
        graph.add_edge("a", "b", LockSite("m", 1))
        graph.add_edge("b", "a", LockSite("m", 2))
        graph.add_edge("a", "c", LockSite("m", 3))
        assert graph.cycles() == [["a", "b"]]
        assert graph.witness("a", "b")[0].lineno == 1
        assert graph.missing_edges([("a", "b"), ("c", "a")]) == [("c", "a")]

    def test_aliases_fold_onto_one_node(self):
        assert canonical_lock_name("Counter._lock") == "MetricsRegistry._lock"
        graph = LockOrderGraph()
        graph.add_edge("x", "Counter._lock", LockSite("m", 1))
        assert ("x", "MetricsRegistry._lock") in graph.edges

    def test_render_lists_sorted_edges(self):
        graph = LockOrderGraph()
        graph.add_edge("b", "c", LockSite("mod", 9))
        graph.add_edge("a", "b", LockSite("mod", 4))
        assert graph.render() == ["a -> b  (mod:4)", "b -> c  (mod:9)"]


# ----------------------------------------------------------------------
# the real tree
# ----------------------------------------------------------------------
class TestHeadTree:
    def test_head_is_clean(self, head_analysis):
        assert [
            v for v in head_analysis.violations if v.code in CONCURRENCY_CODES
        ] == []

    def test_head_guarded_by_table(self, head_analysis):
        table = head_analysis.guarded_by
        assert table["TcpTransport._sock"] == "TcpTransport._lock"
        assert table["Counter._value"] == "MetricsRegistry._lock"
        assert table["BackgroundServer._address"] == "owner:handshake"

    def test_head_lock_graph_has_transport_metrics_edge(self, head_analysis):
        assert (
            "TcpTransport._lock",
            "MetricsRegistry._lock",
        ) in head_analysis.lock_graph.edges
        assert head_analysis.lock_graph.cycles() == []

    def test_head_thread_entries(self, head_analysis):
        entries = " ".join(head_analysis.thread_entries)
        assert "thread -> self._run" in entries
        assert "executor -> _client_worker" in entries

    def test_background_server_is_shared(self, head_analysis):
        shared = head_analysis.shared_classes[
            "repro.service.asyncserver.BackgroundServer"
        ]
        assert "threading.Thread" in shared.reason

    def test_report_renders(self, head_analysis):
        lines = concurrency_report(head_analysis)
        text = "\n".join(lines)
        assert "guarded-by table" in text
        assert "lock-order graph" in text
        assert "TcpTransport._lock -> MetricsRegistry._lock" in text


# ----------------------------------------------------------------------
# acceptance fault injections (static, no execution of mutated code)
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_removing_transport_lock_guard_is_rpr015(self, head_analysis):
        head_project = head_analysis.project
        module = head_project.get("repro.service.transport")
        mutated = module.source.replace("with self._lock:", "if True:")
        assert mutated != module.source
        analysis = analyze_concurrency(
            head_project.replace_source("repro.service.transport", mutated)
        )
        flagged = violations_of(analysis, "RPR015")
        assert any("_sock" in v.message for v in flagged)

    def test_await_under_thread_lock_in_stop_is_rpr017(self, head_analysis):
        # The dispatcher is plain callbacks; ``stop`` is where the server
        # still awaits.
        head_project = head_analysis.project
        module = head_project.get("repro.service.asyncserver")
        mutated = module.source.replace(
            "    async def stop(self) -> None:\n",
            "    async def stop(self) -> None:\n"
            "        self._stop_lock = threading.Lock()\n",
        ).replace(
            "            await self._tcp.wait_closed()\n",
            "            with self._stop_lock:\n"
            "                await self._tcp.wait_closed()\n",
        )
        assert mutated.count("_stop_lock") == 2
        analysis = analyze_concurrency(
            head_project.replace_source("repro.service.asyncserver", mutated)
        )
        flagged = violations_of(analysis, "RPR017")
        assert any("AsyncQueryServer.stop" in v.message for v in flagged)


# ----------------------------------------------------------------------
# the runtime half: tracked locks and the race sanitizer
# ----------------------------------------------------------------------
class TestRuntimeSanitizer:
    def test_nesting_records_an_edge(self):
        lock_a = named_lock("test.A")
        lock_b = named_lock("test.B")
        SANITIZER.reset_concurrency()
        try:
            with sanitized():
                with lock_a:
                    with lock_b:
                        pass
            assert ("test.A", "test.B") in SANITIZER.lock_order_edges()
            assert SANITIZER.lock_order_violations == []
        finally:
            SANITIZER.reset_concurrency()

    def test_inversion_is_reported(self):
        lock_a = named_lock("test.A")
        lock_b = named_lock("test.B")
        SANITIZER.reset_concurrency()
        try:
            with sanitized():
                with lock_a:
                    with lock_b:
                        pass
                with lock_b:
                    with lock_a:
                        pass
            assert any(
                "inversion" in report
                for report in SANITIZER.lock_order_violations
            )
        finally:
            SANITIZER.reset_concurrency()

    def test_disabled_sanitizer_records_nothing(self):
        lock_a = named_lock("test.quiet.A")
        lock_b = named_lock("test.quiet.B")
        SANITIZER.reset_concurrency()
        try:
            before = SANITIZER.lock_order_edges()
            if not SANITIZER.enabled:
                with lock_a:
                    with lock_b:
                        pass
                assert SANITIZER.lock_order_edges() == before
        finally:
            SANITIZER.reset_concurrency()

    def test_metric_mutation_owner_check(self):
        from repro.obs.metrics import Counter

        counter = Counter("test.counter", ())
        SANITIZER.reset_concurrency()
        try:
            with sanitized():
                counter.inc()
                assert SANITIZER.metric_violations == []
                # Reporting a mutation without holding the guard (what an
                # un-locked write path would do) is flagged.
                SANITIZER.note_metric_mutation("test.counter", "ghost._lock")
            assert len(SANITIZER.metric_violations) == 1
            assert "ghost._lock" in SANITIZER.metric_violations[0]
        finally:
            SANITIZER.reset_concurrency()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_report_flag_prints_tables(self, lint_cli, tmp_path):
        consistent = CYCLE_SOURCES["repro.conc.ab"].replace(
            "        with self.b_lock:\n            with self.a_lock:\n",
            "        with self.a_lock:\n            with self.b_lock:\n",
        )
        tree = write_tree(tmp_path, {"repro.conc.ab": consistent})
        status, out, err = lint_cli(
            "--deep", "--report", "--quiet", "--ignore", "RPR008", cwd=tree
        )
        assert status == 0, out + err
        assert "guarded-by table" in out
        assert "AB.a_lock -> AB.b_lock  (repro.conc.ab:11)" in out

    def test_list_rules_includes_concurrency_catalogue(self, lint_cli):
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        for code in CONCURRENCY_CODES:
            assert code in out
