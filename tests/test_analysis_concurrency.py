"""Acceptance tests for the concurrency pass of ``repro-lint --deep``
(RPR016-RPR018).

Mirrors the structure of ``test_analysis_deep.py``:

- fixture projects built with ``project_from_sources`` exercise each
  rule in isolation (positive and negative cases);
- the real tree comes from the session's ``head_analysis`` and must be
  clean at HEAD;
- the acceptance-criteria fault injection (an ``await`` under a held
  ``threading.Lock`` in the server's ``stop``) must surface as an
  RPR017 finding *statically*.

A shared ``TcpTransport`` is exercised by eight threads at once in
``test_service_concurrency.py``.
"""

from repro.analysis import deep
from repro.analysis.concurrency import concurrency_report
from repro.analysis.project import project_from_sources
from tests.conftest import violations_of, write_tree

CONCURRENCY_CODES = ["RPR016", "RPR017", "RPR018"]
RETIRED_CODES = ["RPR015", "RPR019", "RPR020", "RPR022"]


def analyze_concurrency(project):
    return deep.analyze(project, select=CONCURRENCY_CODES)


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
# the real tree
# ----------------------------------------------------------------------
class TestHeadTree:
    def test_head_is_clean(self, head_analysis):
        assert [
            v for v in head_analysis.violations if v.code in CONCURRENCY_CODES
        ] == []

    def test_head_thread_entries(self, head_analysis):
        entries = " ".join(head_analysis.thread_entries)
        assert "thread -> self._run" in entries
        assert "executor -> _client_worker" in entries

    def test_report_renders(self, head_analysis):
        lines = concurrency_report(head_analysis)
        assert lines[0] == "concurrency: thread/executor entry points"
        assert any("thread -> self._run" in line for line in lines[1:])


# ----------------------------------------------------------------------
# acceptance fault injections (static, no execution of mutated code)
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_await_under_thread_lock_in_stop_is_rpr017(self, head_analysis):
        # The dispatcher is plain callbacks; ``stop`` is where the server
        # still awaits.
        head_project = head_analysis.project
        module = head_project.modules["repro.service.asyncserver"]
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
# CLI integration
# ----------------------------------------------------------------------
class TestCli:
    def test_report_flag_prints_tables(self, lint_cli, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "\n"
            "def serve():\n"
            "    threading.Thread(target=serve).start()\n"
        )
        tree = write_tree(tmp_path, {"repro.conc.spawn": source})
        status, out, err = lint_cli("--deep", "--report", "--quiet", cwd=tree)
        assert status == 0, out + err
        assert out == (
            "concurrency: thread/executor entry points\n"
            "  repro.conc.spawn:5 thread -> serve\n"
        )

    def test_list_rules_includes_concurrency_catalogue(self, lint_cli):
        status, out, _ = lint_cli("--list-rules")
        assert status == 0
        codes = {line.split()[0] for line in out.splitlines()}
        assert set(CONCURRENCY_CODES) <= codes
        assert not set(RETIRED_CODES) & codes
