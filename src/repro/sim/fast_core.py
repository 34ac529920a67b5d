"""Steady-state SMT core throughput solver (the "fast engine").

A mean-value-analysis model of an out-of-order SMT core.  For each
hardware thread ``t`` running stream parameters ``S_t``:

1. *Issue capability*: with a window share from the SMT partition, the
   thread can issue ``r_t = min(ilp * ilp_scale, issue_width)``
   instructions per active cycle.
2. *Stalls*: each instruction charges, on average, memory-stall cycles
   (from the cache model, divided by MLP) and branch-mispredict refill
   cycles.  The thread's unconstrained throughput is
   ``x_t = 1 / (1 / r_t + stall_t)`` — the classic interval model.
3. *SMT overlap*: while one thread stalls, others issue; the core's
   unconstrained throughput is simply ``sum_t x_t``.
4. *Structural limits*: per-port capacities and the shared dispatch
   width cap aggregate issue at the structural ceiling ``lam * demand``;
   the contended capacity is divided among threads by hardware-thread
   priority weight (uniform priorities: everyone throttles by ``lam``).
5. *Dispatch held* (the SMTsm's second factor) combines the two causes
   the paper names: issue-queue back-pressure from long-latency misses
   and structural port saturation.

The solver is deliberately closed-form per evaluation: a full
benchmark-suite sweep is thousands of core evaluations, each a handful
of numpy operations (see the HPC guides' "vectorize, don't iterate").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch.machine import Architecture
from repro.sim.branch import BranchModel
from repro.sim.cache import (
    CacheModel,
    EffectiveMissRates,
    SharingContext,
    corunner_pressure,
)
from repro.sim.stream import StreamParams

# NOTE on the saturated regime: an earlier formulation charged an extra
# scheduling-conflict penalty growing with oversubscription depth
# (x = x_want * lambda ** 1.3).  The property suite caught that this
# makes core throughput *non-monotone* in per-thread demand by up to
# ~9% — slowing memory could raise IPC.  Any penalty that deepens with
# backlog has that defect, so the model now issues exactly the
# structural ceiling (lambda * demand, a demand-invariant quantity):
# a backlogged scheduler has more ready candidates, not fewer.
#: Probability that a long-latency stall backs the thread's issue-queue
#: share up to the dispatcher (short stalls drain before dispatch blocks).
QUEUE_FILL_FACTOR = 0.85


#: POWER-style hardware thread priorities: the neutral level, and the
#: per-step weight ratio of the decode/dispatch slot allocator.
NEUTRAL_PRIORITY = 4
PRIORITY_WEIGHT_BASE = 2.0
MIN_PRIORITY, MAX_PRIORITY = 0, 7


def priority_weight(priority: int) -> float:
    """Relative share of contended issue capacity at a priority level.

    POWER5+ cores allocate decode cycles between threads with a ratio
    that grows geometrically in the priority difference (paper §I:
    "dynamically managed levels of priority for hardware threads");
    weight = base ** (priority - neutral) reproduces that behaviour with
    equal shares at the neutral level.
    """
    if not (MIN_PRIORITY <= priority <= MAX_PRIORITY):
        raise ValueError(
            f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}], got {priority}"
        )
    return float(PRIORITY_WEIGHT_BASE ** (priority - NEUTRAL_PRIORITY))


@dataclass(frozen=True)
class CoreInput:
    """One core's workload at one instant."""

    arch: Architecture
    smt_level: int                       # hardware mode the core is in
    streams: Tuple[StreamParams, ...]    # one per *active* hardware thread
    threads_per_chip: int                # for L3 sharing
    mem_latency_mult: float = 1.0        # from the bandwidth fixed point
    extra_mem_latency: float = 0.0       # from the NUMA model
    priorities: Optional[Tuple[int, ...]] = None  # hw thread priorities (0-7)

    def __post_init__(self):
        self.arch.validate_smt_level(self.smt_level)
        if not self.streams:
            raise ValueError("a core needs at least one active stream")
        if len(self.streams) > self.smt_level:
            raise ValueError(
                f"{len(self.streams)} streams exceed SMT{self.smt_level} contexts"
            )
        if self.mem_latency_mult < 1.0:
            raise ValueError(f"mem_latency_mult must be >= 1, got {self.mem_latency_mult}")
        if self.extra_mem_latency < 0:
            raise ValueError(f"extra_mem_latency must be >= 0, got {self.extra_mem_latency}")
        if self.threads_per_chip < len(self.streams):
            raise ValueError("threads_per_chip cannot be below the core's own threads")
        if self.priorities is not None:
            if len(self.priorities) != len(self.streams):
                raise ValueError(
                    f"{len(self.priorities)} priorities for {len(self.streams)} streams"
                )
            for p in self.priorities:
                priority_weight(p)  # validates the range

    def weights(self) -> np.ndarray:
        if self.priorities is None:
            return np.ones(len(self.streams))
        return np.array([priority_weight(p) for p in self.priorities])


@dataclass(frozen=True)
class CoreOutput:
    """Steady-state solution for one core."""

    ipc: np.ndarray                    # per-thread committed IPC
    port_utilization: np.ndarray       # per-port fraction of capacity used
    port_scale: float                  # structural throttle lambda (1 = no saturation)
    dispatch_held_fraction: float      # of core cycles
    stall_fraction: np.ndarray         # per-thread fraction of cycles stalled (all causes)
    long_stall_fraction: np.ndarray    # per-thread fraction stalled on L3/memory
    miss_rates: Tuple[EffectiveMissRates, ...]
    branch_rate: np.ndarray            # effective mispredicts per branch, per thread
    traffic_bytes_per_cycle: float     # core DRAM traffic

    @property
    def core_ipc(self) -> float:
        return float(self.ipc.sum())


def _water_fill(caps: np.ndarray, weights: np.ndarray, budget: float) -> np.ndarray:
    """Weight-proportional allocation of ``budget``, capped per thread.

    Threads whose weighted share exceeds their unconstrained rate are
    pinned at that rate; the surplus is redistributed among the rest.
    """
    x = np.zeros_like(caps)
    active = np.ones(len(caps), dtype=bool)
    remaining = float(budget)
    for _ in range(len(caps)):
        if not active.any() or remaining <= 0:
            break
        share = remaining * weights[active] / weights[active].sum()
        capped = share >= caps[active] - 1e-15
        idx = np.flatnonzero(active)
        if not capped.any():
            x[idx] = share
            break
        pinned = idx[capped]
        x[pinned] = caps[pinned]
        remaining -= float(caps[pinned].sum())
        active[pinned] = False
    return np.minimum(x, caps)


def solve_core(inp: CoreInput) -> CoreOutput:
    """Solve the steady state of one SMT core."""
    arch = inp.arch
    k = len(inp.streams)
    resources = arch.partition.thread_resources(inp.smt_level)
    cache = CacheModel(arch)
    branch = BranchModel(arch)

    n = len(inp.streams)
    r = np.empty(n)
    stall = np.empty(n)
    long_stall = np.empty(n)
    br_rate = np.empty(n)
    traffic_bpi = np.empty(n)
    rates_list = []

    for t, stream in enumerate(inp.streams):
        # Private-cache pressure is partner-aware: who shares the core
        # matters, not just how many (reduces to the count law for
        # homogeneous SPMD threads).
        others = [s.memory for u, s in enumerate(inp.streams) if u != t]
        sharing = SharingContext(
            threads_per_core=k,
            threads_per_chip=inp.threads_per_chip,
            core_pressure=corunner_pressure(stream.memory, others),
        )
        rates = cache.effective_rates(stream.memory, sharing)
        rates_list.append(rates)
        mem_stall = cache.memory_stall_per_instruction(
            rates, stream, inp.mem_latency_mult, inp.extra_mem_latency
        )
        long_stall[t] = cache.long_stall_per_instruction(
            rates, stream, inp.mem_latency_mult, inp.extra_mem_latency
        )
        br_rate[t] = branch.effective_rate(stream.branch_mispredict_rate, k)
        br_stall = branch.stall_per_instruction(stream.mix, br_rate[t])
        r[t] = min(
            stream.ilp * resources.ilp_scale,
            float(arch.partition.issue_width),
        )
        stall[t] = mem_stall + br_stall
        traffic_bpi[t] = cache.traffic_bytes_per_instruction(rates, stream.memory)

    # Interval model: unconstrained per-thread throughput.
    x_want = 1.0 / (1.0 / r + stall)

    # Structural limits: ports and the shared dispatch width.
    routing = arch.topology.routing_matrix
    demand = np.zeros(arch.topology.n_ports)
    for t, stream in enumerate(inp.streams):
        demand += x_want[t] * (routing @ stream.mix.vector)
    lam_port = arch.topology.saturation_scale(demand)
    lam_fe = min(1.0, arch.partition.core_dispatch_width(inp.smt_level) / max(x_want.sum(), 1e-12))
    lam = min(lam_port, lam_fe)

    if lam >= 1.0:
        x = x_want.copy()
    else:
        # The structural ceiling (lambda * aggregate demand — invariant
        # to uniform demand scaling) is divided among the hardware
        # threads by priority weight, water-filling with each thread
        # capped at its unconstrained rate.  Uniform weights reduce to
        # scaling everyone by lambda.
        x = _water_fill(x_want, inp.weights(), lam * float(x_want.sum()))
    port_util = np.zeros(arch.topology.n_ports)
    for t, stream in enumerate(inp.streams):
        port_util += x[t] * (routing @ stream.mix.vector)
    port_util = port_util / arch.topology.capacities

    # Dispatch-held: queue back-pressure from long stalls, plus the
    # structural component.  Both are per-cycle core-level fractions.
    long_frac = np.clip(x * long_stall, 0.0, 1.0)
    held_queue = float(np.mean(long_frac) * QUEUE_FILL_FACTOR)
    held_port = 1.0 - lam
    dispatch_held = 1.0 - (1.0 - held_queue) * (1.0 - held_port)

    stall_frac = np.clip(x * stall, 0.0, 1.0)
    traffic = float(np.sum(x * traffic_bpi))

    return CoreOutput(
        ipc=x,
        port_utilization=port_util,
        port_scale=float(lam),
        dispatch_held_fraction=float(np.clip(dispatch_held, 0.0, 1.0)),
        stall_fraction=stall_frac,
        long_stall_fraction=long_frac,
        miss_rates=tuple(rates_list),
        branch_rate=br_rate,
        traffic_bytes_per_cycle=traffic,
    )


def effective_smt_mode(arch: Architecture, threads_on_core: int) -> int:
    """Hardware mode a core adopts for a given occupancy.

    Thin wrapper over :meth:`Architecture.effective_smt_mode`, kept here
    because the simulator is where the concept is consumed.
    """
    return arch.effective_smt_mode(threads_on_core)
