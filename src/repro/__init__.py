"""Reproduction of "An SMT-Selection Metric to Improve Multithreaded
Applications' Performance" (Funston et al., IPDPS 2012).

The package implements the paper's SMT-selection metric (SMTsm) and the
full substrate its evaluation ran on: an SMT chip-multiprocessor
simulator, a hardware-performance-counter stack, an OS layer, and the
Table I benchmark catalog.  Top-level convenience re-exports cover the
quickstart path; see the subpackages for the rest:

``repro.arch``, ``repro.sim``, ``repro.counters``, ``repro.simos``,
``repro.workloads``, ``repro.core``, ``repro.experiments``,
``repro.analysis``, ``repro.obs``, ``repro.api``, ``repro.serve``,
``repro.fleet``.

For application code, prefer the stable facade in :mod:`repro.api`
(``Session``/``predict``/``sweep``/``score_counters``/
``simulate_fleet``, re-exported here); the prediction service in
:mod:`repro.serve` and the fleet simulator in :mod:`repro.fleet` are
built on the same substrate.
"""

from repro.api import (
    FleetConfig,
    FleetResult,
    Policy,
    Session,
    Strategy,
    list_policies,
    predict,
    score_counters,
    simulate_fleet,
    sweep,
)
from repro.arch import generic_core, get_architecture, nehalem, power7
from repro.core import SmtPredictor, smtsm, smtsm_from_run
from repro.obs import configure_telemetry, get_tracer
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.results import speedup
from repro.simos import SystemSpec
from repro.workloads import all_workloads, get_workload

__version__ = "1.2.0"

__all__ = [
    "Session",
    "predict",
    "sweep",
    "score_counters",
    "simulate_fleet",
    "FleetConfig",
    "FleetResult",
    "Policy",
    "Strategy",
    "list_policies",
    "power7",
    "nehalem",
    "generic_core",
    "get_architecture",
    "SmtPredictor",
    "smtsm",
    "smtsm_from_run",
    "RunSpec",
    "simulate_run",
    "speedup",
    "SystemSpec",
    "all_workloads",
    "get_workload",
    "get_tracer",
    "configure_telemetry",
    "__version__",
]
