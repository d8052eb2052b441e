"""Scenario codec round-trips and generator determinism."""

import pytest

from repro.testing.scenarios import (
    PeerSpec,
    Scenario,
    ScenarioGen,
    decode_scenario,
    encode_scenario,
)

SAMPLE = Scenario(
    k=3,
    query=(0.1, 0.9),
    pois=((0.25, 0.5, "a"), (1 / 3, 0.75, "b_2")),
    peers=(PeerSpec(0.0, 0.0, 2), PeerSpec(0.5, 0.5, 0)),
    cache_capacity=4,
    coverage="polygon",
    polygon_sides=16,
    use_own_cache=True,
    exact=False,
    check_network=True,
)


class TestScenarioValidation:
    def test_requires_pois(self):
        with pytest.raises(ValueError):
            Scenario(k=1, query=(0, 0), pois=())

    def test_rejects_duplicate_poi_ids(self):
        with pytest.raises(ValueError):
            Scenario(k=1, query=(0, 0), pois=((0, 0, "a"), (1, 1, "a")))

    def test_rejects_bad_poi_id(self):
        with pytest.raises(ValueError):
            Scenario(k=1, query=(0, 0), pois=((0, 0, "a:b"),))

    def test_rejects_own_cache_without_peers(self):
        with pytest.raises(ValueError):
            Scenario(k=1, query=(0, 0), pois=((0, 0, "a"),), use_own_cache=True)

    def test_rejects_negative_cache_k(self):
        with pytest.raises(ValueError):
            PeerSpec(0.0, 0.0, -1)

    def test_rejects_unknown_coverage(self):
        with pytest.raises(ValueError):
            Scenario(k=1, query=(0, 0), pois=((0, 0, "a"),), coverage="magic")


class TestCodec:
    def test_round_trip_exact(self):
        encoded = encode_scenario(SAMPLE)
        assert decode_scenario(encoded) == SAMPLE

    def test_round_trip_preserves_float_bits(self):
        """repr-form floats survive the trip bit-for-bit (1/3 included)."""
        decoded = decode_scenario(encode_scenario(SAMPLE))
        assert decoded.pois[1][0] == 1 / 3

    def test_minimal_string_defaults(self):
        scenario = decode_scenario("repro1;k=1;q=0.0:0.0;pois=0.5:0.5:p0;peers=")
        assert scenario.k == 1
        assert scenario.cache_capacity == 8
        assert scenario.coverage == "exact"
        assert scenario.peers == ()

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError):
            decode_scenario("repro9;k=1;q=0:0;pois=0:0:a;peers=")

    def test_rejects_duplicate_field(self):
        with pytest.raises(ValueError):
            decode_scenario("repro1;k=1;k=2;q=0:0;pois=0:0:a;peers=")

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError):
            decode_scenario("repro1;k=1;q=0:0;peers=")

    def test_rejects_malformed_field(self):
        with pytest.raises(ValueError):
            decode_scenario("repro1;k=1;garbage;q=0:0;pois=0:0:a;peers=")

    @pytest.mark.parametrize("field", ["r=0.5", "cpa=4"])
    def test_rejects_unknown_field(self, field):
        """A retired (``r``) or misspelt (``cpa``) key names itself."""
        with pytest.raises(ValueError, match=repr(field.split("=")[0])):
            decode_scenario(f"repro1;k=1;q=0:0;{field};pois=0:0:a;peers=")


class TestScenarioGen:
    def test_same_seed_same_scenarios(self):
        a = [s for _, s in ScenarioGen(seed=13).stream(25)]
        b = [s for _, s in ScenarioGen(seed=13).stream(25)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [s for _, s in ScenarioGen(seed=1).stream(10)]
        b = [s for _, s in ScenarioGen(seed=2).stream(10)]
        assert a != b

    def test_random_access_matches_stream(self):
        """generate(i) must not depend on having generated 0..i-1."""
        gen = ScenarioGen(seed=4)
        streamed = dict(gen.stream(20))
        fresh = ScenarioGen(seed=4)
        for index in (17, 3, 11, 0):
            assert fresh.generate(index) == streamed[index]

    def test_stream_start_offset(self):
        gen = ScenarioGen(seed=5)
        tail = dict(gen.stream(5, start=10))
        assert set(tail) == {10, 11, 12, 13, 14}
        assert tail[12] == gen.generate(12)

    def test_every_family_appears(self):
        gen = ScenarioGen(seed=9)
        assert len(gen.families) == 6
        scenarios = [gen.generate(i) for i in range(len(gen.families))]
        assert len(scenarios) == len(gen.families)

    def test_scenarios_are_valid_and_round_trip(self):
        gen = ScenarioGen(seed=21)
        for _, scenario in gen.stream(50):
            assert decode_scenario(encode_scenario(scenario)) == scenario

    def test_adversarial_shapes_show_up(self):
        """The generator must produce its advertised degeneracies."""
        gen = ScenarioGen(seed=2)
        scenarios = [s for _, s in gen.stream(200)]
        assert any(
            len({(x, y) for x, y, _ in s.pois}) < len(s.pois) for s in scenarios
        ), "no duplicate POI locations generated"
        assert any(
            any(p.cache_k == 0 for p in s.peers) for s in scenarios
        ), "no cold caches generated"
        assert any(s.k > len(s.pois) for s in scenarios), "no k beyond POI count"
        assert any(s.coverage == "polygon" for s in scenarios)
        assert any(s.exact for s in scenarios)
        assert any(s.check_network for s in scenarios)
