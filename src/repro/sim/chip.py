"""Chip- and system-level composition: shared L3, DRAM, NUMA.

Couples the per-core solver to the shared memory system with a damped
fixed-point iteration: core throughputs determine DRAM traffic, traffic
determines the effective memory-latency multiplier, and the multiplier
feeds back into the core solver.  The iteration converges because the
map is monotone (more latency -> less throughput -> less traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.obs import get_tracer
from repro.sim.fast_core import (
    CoreInput,
    CoreOutput,
    effective_smt_mode,
    solve_core,
)
from repro.sim.memory import RHO_CAP, BandwidthModel, numa_extra_latency
from repro.sim.stream import StreamParams
from repro.simos.scheduler import Placement

#: Bisection controls for the bandwidth fixed point.
BISECTION_STEPS = 40
TOLERANCE = 1e-4


@dataclass(frozen=True)
class ChipSolution:
    """Converged steady state for the whole system.

    ``core_outputs[i]`` corresponds to the i-th *occupied* core in
    placement order; all threads of a core share its per-thread values
    (threads are homogeneous within a run).
    """

    core_outputs: Tuple[CoreOutput, ...]
    core_occupancy: Tuple[int, ...]
    mem_latency_mult: float
    traffic_gbps: float
    mem_utilization: float

    @property
    def aggregate_ipc(self) -> float:
        return float(sum(o.core_ipc for o in self.core_outputs))

    def per_thread_ipc(self) -> Tuple[float, ...]:
        values: List[float] = []
        for occ, out in zip(self.core_occupancy, self.core_outputs):
            values.extend(float(v) for v in out.ipc[:occ])
        return tuple(values)

    @property
    def mean_dispatch_held(self) -> float:
        """Thread-weighted dispatch-held fraction across occupied cores."""
        weights = np.array(self.core_occupancy, dtype=float)
        held = np.array([o.dispatch_held_fraction for o in self.core_outputs])
        return float(np.average(held, weights=weights))


def _bandwidth_fixed_point(capacity_gbps, solve_at, traffic_of):
    """Shared bisection over DRAM utilization.

    ``solve_at(mult)`` produces a solution object; ``traffic_of(sol)``
    its offered traffic in GB/s.  Returns ``(solution, mult)`` at the
    self-consistent utilization (see the discussion in
    :func:`solve_chip`).
    """
    bandwidth = BandwidthModel(capacity_gbps)
    tracer = get_tracer()
    tracer.add("chip.fixed_points")

    def offered_utilization(sol) -> float:
        return bandwidth.utilization(traffic_of(sol))

    solution = solve_at(1.0)
    if offered_utilization(solution) <= TOLERANCE:
        return solution, 1.0
    lo, hi = 0.0, RHO_CAP
    hi_mult = bandwidth.latency_multiplier(hi * bandwidth.capacity_gbps)
    hi_sol = solve_at(hi_mult)
    if offered_utilization(hi_sol) >= hi:
        # Demand exceeds capacity even at maximum inflation.
        return hi_sol, hi_mult
    mult = 1.0
    for step in range(BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        mult = bandwidth.latency_multiplier(mid * bandwidth.capacity_gbps)
        solution = solve_at(mult)
        if offered_utilization(solution) > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo < TOLERANCE:
            break
    tracer.add("chip.bisection_steps", step + 1)
    return solution, mult


def solve_chip(placement: Placement, stream: StreamParams) -> ChipSolution:
    """Solve the system fixed point for a homogeneous thread population.

    Every software thread runs ``stream`` (SPMD workloads — the paper's
    benchmarks are data-parallel programs whose threads execute the same
    code); heterogeneity across *cores* still arises from uneven
    occupancy when threads don't fill every context.
    """
    system = placement.system
    arch = system.arch
    occupied = [t for t in placement.threads_per_core if t > 0]
    if not occupied:
        raise ValueError("placement has no occupied cores")
    threads_per_chip = max(placement.threads_per_chip())
    extra_lat = numa_extra_latency(
        system.n_chips, stream.memory.data_sharing, arch.caches.numa_extra_cycles
    )
    bandwidth = BandwidthModel(system.mem_bandwidth_gbps())
    bytes_to_gbps = arch.cycles_per_second() / 1e9

    def solve_at(mult: float) -> Dict[int, CoreOutput]:
        out: Dict[int, CoreOutput] = {}
        for occ in set(occupied):
            mode = effective_smt_mode(arch, occ)
            out[occ] = solve_core(
                CoreInput(
                    arch=arch,
                    smt_level=mode,
                    streams=tuple([stream] * occ),
                    threads_per_chip=max(threads_per_chip, occ),
                    mem_latency_mult=mult,
                    extra_mem_latency=extra_lat,
                )
            )
        return out

    def traffic_of(sol: Dict[int, CoreOutput]) -> float:
        return sum(sol[occ].traffic_bytes_per_cycle * bytes_to_gbps for occ in occupied)

    # The self-consistent utilization solves offered(mult(rho)) == rho.
    # ``offered`` is non-increasing in rho (longer latency -> slower
    # cores -> less traffic) and the identity is increasing, so the
    # crossing is unique: bisect on rho instead of damped iteration,
    # which limit-cycles around the capacity knee.
    solutions, mult = _bandwidth_fixed_point(
        system.mem_bandwidth_gbps(), solve_at, traffic_of
    )

    final_traffic = sum(
        solutions[occ].traffic_bytes_per_cycle * bytes_to_gbps for occ in occupied
    )
    return ChipSolution(
        core_outputs=tuple(solutions[occ] for occ in occupied),
        core_occupancy=tuple(occupied),
        mem_latency_mult=mult,
        traffic_gbps=final_traffic,
        mem_utilization=bandwidth.utilization(bandwidth.achievable_traffic(final_traffic)),
    )


@dataclass(frozen=True)
class SystemSolution:
    """Steady state for a heterogeneous (per-thread stream) population.

    Unlike :class:`ChipSolution`, values are indexed back to *thread*
    order so co-scheduling experiments can attribute throughput to the
    job each thread belongs to.
    """

    core_outputs: Tuple[CoreOutput, ...]    # one per occupied core
    core_indices: Tuple[int, ...]           # placement core index per output
    thread_core: Tuple[int, ...]            # thread -> position in core_outputs
    thread_slot: Tuple[int, ...]            # thread -> slot within its core
    mem_latency_mult: float
    traffic_gbps: float
    mem_utilization: float

    def thread_ipc(self, thread: int) -> float:
        out = self.core_outputs[self.thread_core[thread]]
        return float(out.ipc[self.thread_slot[thread]])

    def per_thread_ipc(self) -> Tuple[float, ...]:
        return tuple(self.thread_ipc(t) for t in range(len(self.thread_core)))

    @property
    def aggregate_ipc(self) -> float:
        return float(sum(o.core_ipc for o in self.core_outputs))


def solve_system(placement: Placement, thread_streams) -> SystemSolution:
    """Solve the fixed point with a distinct stream per software thread.

    ``thread_streams[i]`` is the :class:`StreamParams` of thread ``i``;
    threads map to cores via the placement's breadth-first assignment.
    This is the substrate for SMT co-scheduling experiments (related
    work, paper SVI): which single-threaded jobs should share a core?
    """
    system = placement.system
    arch = system.arch
    streams = tuple(thread_streams)
    if len(streams) != placement.n_threads:
        raise ValueError(
            f"need one stream per thread: {len(streams)} streams for "
            f"{placement.n_threads} threads"
        )
    if not placement.assignment:
        raise ValueError("placement lacks a thread assignment")

    occupied_cores = [c for c, n in enumerate(placement.threads_per_core) if n > 0]
    core_pos = {core: i for i, core in enumerate(occupied_cores)}
    core_threads = {core: placement.threads_on_core(core) for core in occupied_cores}
    threads_per_chip = max(placement.threads_per_chip())
    bytes_to_gbps = arch.cycles_per_second() / 1e9

    # NUMA latency from the population's mean sharing degree.
    mean_sharing = float(np.mean([s.memory.data_sharing for s in streams]))
    extra_lat = numa_extra_latency(
        system.n_chips, mean_sharing, arch.caches.numa_extra_cycles
    )

    def solve_at(mult: float) -> Dict[int, CoreOutput]:
        out: Dict[int, CoreOutput] = {}
        for core in occupied_cores:
            members = core_threads[core]
            mode = effective_smt_mode(arch, len(members))
            out[core] = solve_core(
                CoreInput(
                    arch=arch,
                    smt_level=mode,
                    streams=tuple(streams[t] for t in members),
                    threads_per_chip=max(threads_per_chip, len(members)),
                    mem_latency_mult=mult,
                    extra_mem_latency=extra_lat,
                )
            )
        return out

    def traffic_of(sol: Dict[int, CoreOutput]) -> float:
        return sum(sol[c].traffic_bytes_per_cycle * bytes_to_gbps for c in occupied_cores)

    solutions, mult = _bandwidth_fixed_point(
        system.mem_bandwidth_gbps(), solve_at, traffic_of
    )

    thread_core = [0] * placement.n_threads
    thread_slot = [0] * placement.n_threads
    for core in occupied_cores:
        for slot, t in enumerate(core_threads[core]):
            thread_core[t] = core_pos[core]
            thread_slot[t] = slot

    final_traffic = traffic_of(solutions)
    bandwidth = BandwidthModel(system.mem_bandwidth_gbps())
    return SystemSolution(
        core_outputs=tuple(solutions[c] for c in occupied_cores),
        core_indices=tuple(occupied_cores),
        thread_core=tuple(thread_core),
        thread_slot=tuple(thread_slot),
        mem_latency_mult=mult,
        traffic_gbps=final_traffic,
        mem_utilization=bandwidth.utilization(
            bandwidth.achievable_traffic(final_traffic)
        ),
    )
