"""Sweep machinery and rendering for the experiment harness.

The paper's mobile-host figures all have the same shape: one sub-figure
per region (LA / SYN / RV), an x-axis parameter, and three percentage
series ("Queries Solved by the Server / Single-Peer / Multi-Peer").
:func:`sweep_parameter` produces exactly that structure; benchmarks and
the CLI render it with :func:`format_figure`.

``Quality`` trades fidelity for runtime: FAST is sized for CI-style
benchmark runs (shorter metered windows, smaller 30x30 scale windows,
fewer x points) while FULL approaches the paper's own horizons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import MovementMode, ParameterSet, SimulationConfig
from repro.sim.simulation import Simulation
from repro.sim.stats import SimulationMetrics

__all__ = [
    "FigureResult",
    "Quality",
    "format_figure",
    "run_one",
    "sweep_parameter",
]

SERIES_LABELS = ("server", "single_peer", "multi_peer")


class Quality(enum.Enum):
    """Runtime/fidelity trade-off for experiment runs."""

    FAST = "fast"
    FULL = "full"


@dataclass
class FigureResult:
    """One reproduced figure: per-region series over a swept parameter."""

    figure_id: str
    title: str
    x_label: str
    xs: List[float]
    # region -> series label -> values (percentages, aligned with xs)
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    notes: str = ""

    def region_series(self, region: str, label: str) -> List[float]:
        return self.series[region][label]


def run_one(
    params: ParameterSet,
    *,
    mode: MovementMode = MovementMode.ROAD_NETWORK,
    seed: int = 0,
    t_execution_s: Optional[float] = None,
    config_overrides: Optional[dict] = None,
) -> SimulationMetrics:
    """Run a single simulation and return its metrics."""
    overrides = dict(config_overrides or {})
    config = SimulationConfig(
        parameters=params,
        movement_mode=mode,
        seed=seed,
        t_execution_s=t_execution_s,
        **overrides,
    )
    return Simulation(config).run()


def sweep_parameter(
    figure_id: str,
    title: str,
    x_label: str,
    xs: Sequence[float],
    regions: Dict[str, Callable[[], ParameterSet]],
    make_params: Callable[[ParameterSet, float], ParameterSet],
    *,
    mode: MovementMode = MovementMode.ROAD_NETWORK,
    seed: int = 0,
    t_execution_s: Optional[float] = None,
    config_overrides: Optional[dict] = None,
    notes: str = "",
) -> FigureResult:
    """Run one simulation per (region, x) pair and collect the series.

    ``make_params`` transforms the region's base parameter set for each x
    value (e.g. override the transmission range).
    """
    result = FigureResult(figure_id, title, x_label, list(xs))
    for region, factory in regions.items():
        per_label: Dict[str, List[float]] = {label: [] for label in SERIES_LABELS}
        for x in xs:
            params = make_params(factory(), x)
            metrics = run_one(
                params,
                mode=mode,
                seed=seed,
                t_execution_s=t_execution_s,
                config_overrides=config_overrides,
            )
            percentages = metrics.percentages()
            for label in SERIES_LABELS:
                per_label[label].append(percentages[label])
        result.series[region] = per_label
    return result


def format_figure(result: FigureResult, width: int = 9) -> str:
    """Render a FigureResult as the ASCII analogue of the paper's plot."""
    lines = [f"== {result.figure_id}: {result.title} =="]
    if result.notes:
        lines.append(f"   ({result.notes})")
    header = f"{result.x_label:>20} " + " ".join(
        f"{x:>{width}g}" for x in result.xs
    )
    for region, series in result.series.items():
        lines.append(f"-- {region} --")
        lines.append(header)
        for label, values in series.items():
            row = f"{label + ' %':>20} " + " ".join(
                f"{value:>{width}.1f}" for value in values
            )
            lines.append(row)
    return "\n".join(lines)


def format_table(
    title: str, columns: Sequence[str], rows: Sequence[Tuple] , width: int = 12
) -> str:
    """Simple fixed-width table rendering (used for Tables 3-4, Fig 17)."""
    lines = [f"== {title} =="]
    lines.append(" ".join(f"{c:>{width}}" for c in columns))
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(f"{value:>{width}.2f}")
            else:
                rendered.append(f"{str(value):>{width}}")
        lines.append(" ".join(rendered))
    return "\n".join(lines)
