"""SMT chip-multiprocessor simulator.

Two engines share one semantic model of an out-of-order SMT core:

* :mod:`repro.sim.fast_core` — a vectorized mean-value-analysis engine
  that solves for steady-state per-thread throughput, port utilization
  and dispatch-held fraction in closed form.  Used for full experiment
  sweeps (hundreds of benchmark x SMT-level runs).
* :mod:`repro.sim.cycle_core` — a per-cycle pipeline engine with a real
  dispatch/issue-queue/ROB structure.  Used to validate the fast engine
  and for micro-experiments.

Chip-level composition (shared L3, DRAM bandwidth, NUMA) lives in
:mod:`repro.sim.chip`; the full-system run loop in
:mod:`repro.sim.engine`.  The columnar sweep engine
(:func:`repro.sim.table.simulate_many_columnar`) lowers many runs into
one struct-of-arrays table and solves them with whole-table numpy
steps, and :mod:`repro.sim.runcache` persists converged runs on disk
across sessions.
"""

from repro.sim.stream import MemoryBehavior, StreamParams
from repro.sim.cache import CacheModel, EffectiveMissRates, SharingContext
from repro.sim.memory import BandwidthModel, numa_remote_fraction
from repro.sim.branch import BranchModel
from repro.sim.fast_core import CoreInput, CoreOutput, solve_core
from repro.sim.chip import ChipSolution, solve_chip
from repro.sim.results import RunResult
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.runcache import RunCache, run_cache_key
from repro.sim.cycle_core import CycleCore, CycleCoreResult, InstructionGenerator

__all__ = [
    "MemoryBehavior",
    "StreamParams",
    "CacheModel",
    "EffectiveMissRates",
    "SharingContext",
    "BandwidthModel",
    "numa_remote_fraction",
    "BranchModel",
    "CoreInput",
    "CoreOutput",
    "solve_core",
    "ChipSolution",
    "solve_chip",
    "RunResult",
    "RunSpec",
    "simulate_run",
    "RunCache",
    "run_cache_key",
    "CycleCore",
    "CycleCoreResult",
    "InstructionGenerator",
]
