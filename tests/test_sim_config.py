"""Tests for repro.sim.config: the paper's Tables 3-4 parameter sets."""

import pytest

from repro.sim.config import (
    METERS_PER_MILE,
    PARAMETER_SETS_2X2,
    PARAMETER_SETS_30X30,
    MovementMode,
    ParameterSet,
    SimulationConfig,
    los_angeles_2x2,
    los_angeles_30x30,
    riverside_2x2,
    riverside_30x30,
    suburbia_2x2,
    suburbia_30x30,
)


class TestTable3:
    """The exact values of Table 3 (2x2 miles)."""

    def test_los_angeles(self):
        p = los_angeles_2x2()
        assert (p.poi_number, p.mh_number, p.c_size) == (16, 463, 10)
        assert (p.m_percentage, p.m_velocity) == (80.0, 30.0)
        assert (p.lambda_query, p.tx_range_m) == (23.0, 200.0)
        assert (p.lambda_knn, p.t_execution_hours, p.area_miles) == (3, 1.0, 2.0)

    def test_riverside(self):
        p = riverside_2x2()
        assert (p.poi_number, p.mh_number) == (5, 50)
        assert p.lambda_query == 2.5

    def test_suburbia(self):
        p = suburbia_2x2()
        assert (p.poi_number, p.mh_number) == (11, 257)
        assert p.lambda_query == 13.0

    def test_density_ordering(self):
        """LA > SYN > RV in host and POI density."""
        la, syn, rv = los_angeles_2x2(), suburbia_2x2(), riverside_2x2()
        assert (
            la.host_density_per_sq_mile
            > syn.host_density_per_sq_mile
            > rv.host_density_per_sq_mile
        )
        assert (
            la.poi_density_per_sq_mile
            > syn.poi_density_per_sq_mile
            > rv.poi_density_per_sq_mile
        )


class TestTable4:
    """The exact values of Table 4 (30x30 miles)."""

    def test_los_angeles(self):
        p = los_angeles_30x30()
        assert (p.poi_number, p.mh_number, p.c_size) == (4050, 121500, 20)
        assert p.lambda_query == 8100.0
        assert (p.lambda_knn, p.t_execution_hours, p.area_miles) == (5, 5.0, 30.0)

    def test_riverside(self):
        p = riverside_30x30()
        assert (p.poi_number, p.mh_number) == (2160, 11700)

    def test_suburbia(self):
        p = suburbia_30x30()
        assert (p.poi_number, p.mh_number) == (3105, 66600)

    def test_registry_complete(self):
        assert set(PARAMETER_SETS_2X2) == {"LA", "SYN", "RV"}
        assert set(PARAMETER_SETS_30X30) == {"LA", "SYN", "RV"}


class TestScaling:
    def test_scaled_area_preserves_densities(self):
        p = los_angeles_30x30()
        scaled = p.scaled_area(0.2)
        assert scaled.area_miles == pytest.approx(6.0)
        assert scaled.host_density_per_sq_mile == pytest.approx(
            p.host_density_per_sq_mile, rel=0.01
        )
        assert scaled.poi_density_per_sq_mile == pytest.approx(
            p.poi_density_per_sq_mile, rel=0.01
        )
        # Query rate per square mile preserved too.
        assert scaled.lambda_query / scaled.area_miles**2 == pytest.approx(
            p.lambda_query / p.area_miles**2, rel=0.01
        )

    def test_scaled_area_keeps_other_knobs(self):
        p = los_angeles_30x30()
        scaled = p.scaled_area(0.5)
        assert scaled.c_size == p.c_size
        assert scaled.tx_range_m == p.tx_range_m
        assert scaled.lambda_knn == p.lambda_knn

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            los_angeles_2x2().scaled_area(0.0)
        with pytest.raises(ValueError):
            los_angeles_2x2().scaled_area(1.5)


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ParameterSet("x", 0, 1, 1, 80, 30, 1, 200, 3, 1, 2)

    def test_bad_percentage(self):
        with pytest.raises(ValueError):
            ParameterSet("x", 1, 1, 1, 150, 30, 1, 200, 3, 1, 2)

    def test_tx_range_conversion(self):
        p = los_angeles_2x2()
        assert p.tx_range_miles == pytest.approx(200.0 / METERS_PER_MILE)


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig(parameters=los_angeles_2x2())
        assert config.movement_mode is MovementMode.ROAD_NETWORK
        assert config.duration_s == pytest.approx(3600.0)
        assert config.query_rate_per_s == pytest.approx(23.0 / 60.0)

    def test_duration_override(self):
        config = SimulationConfig(parameters=los_angeles_2x2(), t_execution_s=120.0)
        assert config.duration_s == 120.0

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(parameters=los_angeles_2x2(), warmup_fraction=1.0)

    def test_senn_config_mapping(self):
        config = SimulationConfig(parameters=los_angeles_2x2())
        senn = config.senn_config()
        assert senn.k == 3
        assert senn.cache_capacity == 10
        assert senn.transmission_range == pytest.approx(200.0 / METERS_PER_MILE)
