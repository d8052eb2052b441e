"""The checkers must catch a wrong answer, or a green run means nothing."""

import dataclasses

import numpy as np

from repro.core.server import SpatialDatabaseServer
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.service.cli import build_pois

from bench_e2e import suite
from bench_e2e.checks import KnnTruth, NetworkTruth
from bench_e2e.harness import measure
from bench_e2e.workloads import KnnDirect, SnnnNetwork

K = 8


def _world():
    pois = build_pois(2000, 3, 10.0)
    server = SpatialDatabaseServer.from_points(pois)
    rng = np.random.default_rng(4)
    queries = [Point(float(x), float(y)) for x, y in rng.uniform(0, 10, (40, 2))]
    truth = KnnTruth(pois)
    answers = [server.knn_query(q, K) for q in queries]
    return pois, queries, truth, truth.table(queries, K), answers


def test_right_answers_pass():
    _, queries, truth, table, answers = _world()
    assert truth.wrong_answers(queries, table, answers) == 0


def test_swapped_neighbours_are_flagged():
    _, queries, truth, table, answers = _world()
    answers[7] = [answers[7][1], answers[7][0], *answers[7][2:]]
    assert truth.wrong_answers(queries, table, answers) == 1


def test_a_wrong_distance_is_flagged():
    _, queries, truth, table, answers = _world()
    first = answers[0][0]
    answers[0] = [
        NeighborResult(first.point, first.payload, first.distance * (1 + 1e-9)),
        *answers[0][1:],
    ]
    assert truth.wrong_answers(queries, table, answers) == 1


def test_a_substituted_poi_is_flagged_even_with_a_plausible_distance():
    pois, queries, truth, table, answers = _world()
    last = answers[3][-1]
    # Some other POI, but reporting the true k-th distance.
    impostor = next(p for p in pois if p[1] != last.payload)
    answers[3] = [
        *answers[3][:-1],
        NeighborResult(impostor[0], impostor[1], last.distance),
    ]
    assert truth.wrong_answers(queries, table, answers) == 1


def test_a_short_answer_is_flagged():
    _, queries, truth, table, answers = _world()
    answers[5] = answers[5][:-1]
    assert truth.wrong_answers(queries, table, answers) == 1


def test_network_truth_flags_a_reordered_answer():
    workload = SnnnNetwork(seed=5, scale=0.1)
    world = workload.build()
    truth = NetworkTruth(world.network, world.pois)
    origin = world.origins[0]
    answer = workload._query(world, origin).neighbors
    assert not truth.is_wrong(origin, workload.k, answer)
    assert truth.is_wrong(origin, workload.k, [answer[1], answer[0], *answer[2:]])
    further = dataclasses.replace(answer[0], network_distance=answer[0].network_distance * 1.001)
    assert truth.is_wrong(origin, workload.k, [further, *answer[1:]])


class _LyingKnn(KnnDirect):
    """A workload whose program returns one wrong answer per block."""

    def run_block(self, world, index):
        block = super().run_block(world, index)
        answer = block.answers[0]
        block.answers[0] = dataclasses.replace(
            answer, neighbors=list(reversed(answer.neighbors))
        )
        return block


def test_a_wrong_answer_reaches_the_result_as_a_failed_op():
    run = measure(_LyingKnn(seed=7, scale=0.02), seconds=0.0, setup_samples=1)
    assert run.failed == len(run.block_log) == _LyingKnn.min_blocks
    assert run.attempted == 100


def test_the_set_exits_non_zero_on_a_failed_op(monkeypatch, tmp_path):
    def lying_child(workload, seed, seconds, trace, smoke):
        return {
            "correct": False,
            "attempted": 100,
            "failed": 1,
            "metrics": {"ops_per_s": {"value": 1.0, "unit": "op/s"}},
            "detail": {"latency_samples": 100, "pinned": False},
        }

    monkeypatch.setattr(suite, "_child", lying_child)
    monkeypatch.setattr(suite, "OUT_DIR", tmp_path)
    code = suite.run_sets(
        seed=1, seconds=0.1, rounds=1, only=["knn_direct"], trace=False, sets=1, smoke=True
    )
    assert code == 1
    assert (tmp_path / "result.json").is_file()


def test_a_crashed_child_fails_its_ops_and_the_set_goes_on(monkeypatch, tmp_path):
    calls = []

    def child(workload, seed, seconds, trace, smoke):
        calls.append(workload)
        if workload == "tcp_solo":
            return {"crashed": "exit code 1, no result", "stderr": "boom"}
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"ops_per_s": {"value": 1.0, "unit": "op/s"}},
            "detail": {"latency_samples": 10, "pinned": False},
        }

    monkeypatch.setattr(suite, "_child", child)
    monkeypatch.setattr(suite, "OUT_DIR", tmp_path)
    code = suite.run_sets(
        seed=1, seconds=0.1, rounds=1, only=["tcp_solo", "knn_direct"], trace=False, sets=1, smoke=True
    )
    assert calls == ["tcp_solo", "knn_direct"]
    assert code == 1
