"""The differential runner: smoke budget, fault injection, shrinking, CLI."""

import pytest

import repro.core.senn as senn
import repro.testing.difftest as difftest
from repro.testing.cli import main as difftest_main
from repro.testing.difftest import (
    CheckFailure,
    repro_snippet,
    run_scenario,
    shrink_scenario,
)
from repro.testing.scenarios import ScenarioGen, decode_scenario, encode_scenario

#: A handcrafted Lemma 3.2 boundary-equality scenario: peer at 0, query at
#: 0.25, candidate at 0.5, all on one horizontal line, so
#: ``Dist(Q, n_i) + Dist(Q, P) == Dist(P, n_i)`` holds bit-for-bit.
BOUNDARY = (
    "repro1;k=1;cap=8;cov=exact;sides=32;own=0;exact=1;net=0;"
    "q=0.25:0.0;pois=0.5:0.0:p0;peers=0.0:0.0:1"
)


def flipped_verify_single(query, cache, heap):
    """``verify_single_peer`` with Lemma 3.2's ``<=`` flipped to ``<``."""
    if cache.is_empty():
        return 0
    delta = query.distance_to(cache.query_location)
    certain_radius = cache.certain_radius
    certified = 0
    candidates = sorted(cache.neighbors, key=lambda n: query.distance_to(n.point))
    for neighbor in candidates:
        distance = query.distance_to(neighbor.point)
        certain = distance + delta < certain_radius  # injected off-by-one
        if certain:
            certified += 1
        heap.add(neighbor.point, neighbor.payload, distance, certain)
    return certified


def flip_lemma32(monkeypatch):
    """Inject :func:`flipped_verify_single` where SENN and difftest call it."""
    for module in (senn, difftest):
        monkeypatch.setattr(module, "verify_single_peer", flipped_verify_single)


class TestSmoke:
    def test_difftest_budget_is_green(self, difftest_report):
        """The PR-gate smoke: the configured budget must pass all checks."""
        assert difftest_report.ok, getattr(difftest_report, "log", "")
        assert difftest_report.scenarios_run > 0

    def test_all_core_checks_exercised(self):
        """A modest budget must reach every always-on check family."""
        stats = {}
        for _, scenario in ScenarioGen(seed=3).stream(60):
            run_scenario(scenario, stats)
        for check in (
            "server-inn",
            "server-depth-first",
            "server-einn-plain",
            "single-peer-lemma",
            "multi-peer-lemma",
            "vectorized-verify",
            "senn",
            "senn-certified-ranks",
            "einn-bounds",
            "einn-page-accesses",
            "service-knn",
            "service-senn",
            "service-stream",
            "naive-sharing",
            "snnn",
        ):
            assert stats.get(check, 0) > 0, f"{check} never ran"


class TestFaultInjection:
    def test_flipped_lemma32_is_caught_and_shrinks_small(self, monkeypatch):
        """The acceptance gate: ``<=`` -> ``<`` in verify_single must be
        detected and shrink to a tiny reproduction."""
        flip_lemma32(monkeypatch)
        caught = None
        for index, scenario in ScenarioGen(seed=7).stream(100):
            failures = run_scenario(scenario)
            if failures:
                caught = (scenario, failures)
                break
        assert caught is not None, "flipped Lemma 3.2 not detected in 100 scenarios"
        scenario, failures = caught
        assert any(f.check == "single-peer-completeness" for f in failures)
        shrunk = shrink_scenario(scenario, failures[0].check)
        assert len(shrunk.pois) <= 6
        assert len(shrunk.peers) <= 2
        assert any(
            f.check == failures[0].check for f in run_scenario(shrunk)
        ), "shrunk scenario no longer reproduces the failure"

    def test_handcrafted_boundary_scenario_catches_flip(self, monkeypatch):
        scenario = decode_scenario(BOUNDARY)
        assert run_scenario(scenario) == []
        flip_lemma32(monkeypatch)
        checks = {f.check for f in run_scenario(scenario)}
        assert "single-peer-completeness" in checks


class TestShrinking:
    def test_shrink_preserves_failure_and_validity(self, monkeypatch):
        flip_lemma32(monkeypatch)
        scenario = next(
            s for _, s in ScenarioGen(seed=7).stream(100) if run_scenario(s)
        )
        check = run_scenario(scenario)[0].check
        shrunk = shrink_scenario(scenario, check)
        # Still a valid, encodable scenario that fails the same check.
        assert decode_scenario(encode_scenario(shrunk)) == shrunk
        assert any(f.check == check for f in run_scenario(shrunk))
        assert len(shrunk.pois) <= len(scenario.pois)
        assert len(shrunk.peers) <= len(scenario.peers)

    def test_shrink_of_green_scenario_is_identity(self):
        scenario = decode_scenario(BOUNDARY)
        assert shrink_scenario(scenario, "senn") == scenario

    def test_repro_snippet_is_executable(self):
        snippet = repro_snippet(decode_scenario(BOUNDARY), "single-peer-completeness")
        namespace = {}
        exec(snippet, namespace)  # the printed regression test must run
        namespace["test_difftest_regression"]()

    def test_check_failure_render(self):
        failure = CheckFailure("senn", "rank 0 differs")
        assert failure.render() == "[senn] rank 0 differs"


class TestCli:
    def test_budget_run_green(self, capsys):
        assert difftest_main(["--budget", "40", "--seed", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "40 scenarios" in out
        assert "0 failing" in out

    def test_replay_green_scenario(self, capsys):
        assert difftest_main(["--replay", BOUNDARY]) == 0
        assert "passed all checks" in capsys.readouterr().out

    def test_replay_invalid_string(self, capsys):
        assert difftest_main(["--replay", "not-a-scenario"]) == 2

    def test_failing_run_writes_artifact(self, tmp_path, capsys, monkeypatch):
        flip_lemma32(monkeypatch)
        artifact = tmp_path / "repros.md"
        code = difftest_main(
            [
                "--budget",
                "50",
                "--seed",
                "7",
                "--quiet",
                "--max-failures",
                "1",
                "--artifact",
                str(artifact),
            ]
        )
        assert code == 1
        text = artifact.read_text()
        assert "replay: `repro1;" in text
        assert "def test_difftest_regression" in text
        out = capsys.readouterr().out
        assert "FAIL scenario" in out

    def test_rejects_negative_budget(self):
        with pytest.raises(SystemExit):
            difftest_main(["--budget", "-1"])
