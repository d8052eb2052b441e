"""Differential-testing harness for the SENN/SNNN query stack.

Three cooperating pieces (see ``docs/differential_testing.md``):

- :mod:`repro.testing.oracles` -- brute-force ground truth (kNN and
  network kNN) plus a sampling-based re-derivation of the
  Lemma 3.2 / 3.8 certainty tests, deliberately independent of
  :mod:`repro.geometry.coverage` and :mod:`repro.index`;
- :mod:`repro.testing.scenarios` -- a seeded generator of adversarial
  query scenarios and a compact scenario-string codec for deterministic
  replay;
- :mod:`repro.testing.difftest` -- the differential runner that executes
  SENN / SNNN / naive sharing / EINN / INN / depth-first side by side on
  each scenario, diffs them against the oracles, and shrinks failures to
  minimal reproductions.

The ``repro-difftest`` console script (:mod:`repro.testing.cli`) and the
pytest plugin (:mod:`repro.testing.pytest_plugin`) are the front ends.
:mod:`repro.testing.invariants` holds the structural validators the
unit and property tests call on the heap, the R*-tree and the page
counter.
"""

from repro.testing.difftest import CheckFailure, DiffReport, run_scenario, shrink_scenario
from repro.testing.oracles import (
    OracleNeighbor,
    certify_multi_oracle,
    certify_single_oracle,
    oracle_knn,
    oracle_network_knn,
)
from repro.testing.scenarios import (
    PeerSpec,
    Scenario,
    ScenarioGen,
    decode_scenario,
    encode_scenario,
)

__all__ = [
    "CheckFailure",
    "DiffReport",
    "OracleNeighbor",
    "PeerSpec",
    "Scenario",
    "ScenarioGen",
    "certify_multi_oracle",
    "certify_single_oracle",
    "decode_scenario",
    "encode_scenario",
    "oracle_knn",
    "oracle_network_knn",
    "run_scenario",
    "shrink_scenario",
]
