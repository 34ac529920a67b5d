"""Columnar ScenarioTable engine: whole-sweep simulation without per-run loops.

The scalar reference (:func:`repro.sim.engine.simulate_run`) solves one
run at a time through per-run Python objects — a
:class:`~repro.sim.fast_core.CoreInput` per occupancy class per
bisection step, a fresh :class:`~repro.arch.classes.Mix` per spin
iteration, and one ``Pmu`` with thousands of scalar ``add`` calls per
run.  This module lowers a whole batch of :class:`RunSpec`\\ s into one
struct-of-arrays **scenario table** instead:

* one *run row* per spec (memory-latency multiplier, spin fraction,
  lock cap, bandwidth capacity, noise, seed);
* one *core row* per (run, core-occupancy class) — breadth-first
  placement yields at most two occupancy classes per run, so the core
  table stays within ``2 x runs`` rows regardless of core counts.

Work that repeats across runs is done once per table: one placement
per distinct (chips, SMT level, threads), one parameter row and one
serial rate per distinct stream, one jitter block per distinct RNG
stream.  Everything that does not depend on the bandwidth multiplier or
the spin blend — cache pressure, effective miss rates, branch sharing
penalties, issue capability, port routing — is precomputed once into
column arrays.  Each evaluation of the MVA interval core model, the bandwidth
bisection, and the spin/lock fixed point is then a handful of
whole-table numpy operations; converged runs are masked out rather than
re-dispatched.  The arithmetic mirrors the scalar engine operation for
operation, so results agree with :func:`repro.sim.engine.simulate_run`
to floating-point round-off (the differential pillar pins <= 1e-9
relative error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.classes import SPIN_LOOP_MIX, InstrClass
from repro.counters.events import CLASS_COUNT_EVENTS, arch_event_names
from repro.obs import get_tracer
from repro.sim import engine as _engine
from repro.sim.branch import SHARING_PENALTY_PER_THREAD
from repro.sim.cache import MAX_PRESSURE_SCALE
from repro.sim.chip import BISECTION_STEPS, TOLERANCE
from repro.sim.engine import MAX_SPIN, SPIN_ITERATIONS, RunSpec
from repro.sim.fast_core import QUEUE_FILL_FACTOR, effective_smt_mode
from repro.sim.memory import MAX_LATENCY_MULT, RHO_CAP, numa_extra_latency
from repro.sim.results import RunResult
from repro.sim.stream import REF_L1_KB, REF_L2_KB, REF_L3_MB_PER_THREAD, StreamParams
from repro.simos.scheduler import place_threads
from repro.simos.system import SystemSpec
from repro.simos.timebase import TimeAccounting, account_runs
from repro.util.rng import RngStream

__all__ = ["ScenarioTable", "TableState", "simulate_many_columnar"]

_SPIN_VEC = SPIN_LOOP_MIX.vector  # read-only (5,)
_BRANCH = int(InstrClass.BRANCH)


@dataclass
class TableState:
    """Converged fixed-point state of a :class:`ScenarioTable` drive.

    Per-core-row arrays hold the *reported* solution (the base solve for
    sync-free runs, the last spin iteration otherwise); per-run arrays
    hold the converged bandwidth multiplier, traffic, and spin state.
    """

    x_rows: np.ndarray            # (R,) per-thread IPC of the reported solution
    held_rows: np.ndarray         # (R,) dispatch-held fraction per core row
    mult: np.ndarray              # (J,) converged memory-latency multiplier
    run_traffic: np.ndarray       # (J,) offered DRAM traffic, GB/s
    spin_final: np.ndarray        # (J,) reported spin fraction (after last update)
    useful_rate: np.ndarray       # (J,) useful instructions/s in the parallel phase
    sync_free: np.ndarray         # (J,) bool
    runnable: np.ndarray          # (J,)
    blocked: np.ndarray           # (J,)


class _Sol:
    """One whole-table kernel evaluation.

    ``held`` (the dispatch-held fraction) is only needed for the
    solution a bandwidth phase reports, so :meth:`_View.chip_phase`
    fills it for that one and the bisection steps skip it.
    """

    __slots__ = ("x", "lam", "mult_r", "run_traffic", "util", "held")

    def __init__(self, x, lam, mult_r, run_traffic, util):
        self.x = x
        self.lam = lam
        self.mult_r = mult_r
        self.run_traffic = run_traffic
        self.util = util
        self.held: Optional[np.ndarray] = None


class _Interner:
    """Numbers distinct keys in first-seen order, building each value once.

    ``interner(key, *args)`` returns the key's index into
    :attr:`values`, calling ``make(*args)`` only for a new key.
    """

    def __init__(self, make: Callable[..., Any]):
        self.make = make
        self.index: Dict[Hashable, int] = {}
        self.values: List[Any] = []

    def __call__(self, key: Hashable, *args: Any) -> int:
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.values)
            self.values.append(self.make(*args))
        return i


def _placement_layout(arch, system: SystemSpec, smt_level: int, n: int):
    """Core-row layout of one breadth-first placement.

    Returns ``(classes, core_rows, core_occ, ctx_rows)``: one
    ``(occupancy, cores, threads_per_chip, smt_mode)`` class per distinct
    occupancy, then the class row of every occupied core, every core's
    occupancy, and the class row of every hardware context, all in
    placement order.
    """
    placement = place_threads(system, smt_level, n)
    occupied = [t for t in placement.threads_per_core if t > 0]
    threads_per_chip = max(placement.threads_per_chip())
    row_of: Dict[int, int] = {}
    classes = []
    for occ in set(occupied):
        row_of[occ] = len(classes)
        classes.append((
            occ,
            occupied.count(occ),
            max(threads_per_chip, occ),
            effective_smt_mode(arch, occ),
        ))
    core_rows = [row_of[occ] for occ in occupied]
    ctx_rows = [row_of[occ] for occ in occupied for _ in range(occ)]
    return classes, core_rows, occupied, ctx_rows


def _segments(
    start: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the ranges ``start[j]:start[j + 1]`` for each ``j`` of ``idx``.

    Returns the concatenated positions, each range's length, and each
    range's offset into the concatenation (the ``reduceat`` indices).
    """
    lo = start[idx]
    counts = start[idx + 1] - lo
    seg = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(lo - seg, counts), counts, seg


def _blend_mix(base_mix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Spin-polluted mix per row, renormalized exactly like Mix.blend does."""
    bm = (1.0 - w)[:, None] * base_mix + w[:, None] * _SPIN_VEC[None, :]
    bm = np.clip(bm, 0.0, None)
    return bm / bm.sum(axis=1, keepdims=True)


def _unit_clip(a: np.ndarray) -> np.ndarray:
    """``np.clip(a, 0.0, 1.0)`` without its Python dispatch overhead."""
    return np.minimum(np.maximum(a, 0.0), 1.0)


def _latency_multiplier(traffic: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Vector mirror of :meth:`BandwidthModel.latency_multiplier`."""
    rho = np.minimum(traffic / cap, RHO_CAP)
    return np.minimum(1.0 / (1.0 - rho ** 3), MAX_LATENCY_MULT)


class _View:
    """Gathered column bundle for a subset of a table's runs.

    The bandwidth bisection and the spin fixed point both operate on run
    subsets (only non-converged / non-sync-free runs); a view gathers
    the relevant core rows once so every kernel evaluation works on
    compact contiguous arrays.
    """

    def __init__(self, table: "ScenarioTable", run_idx: np.ndarray):
        self.table = table
        self.run_idx = run_idx
        self.rows, counts, self.seg = _segments(table.run_row_start, run_idx)
        r = self.rows
        # Gather the per-row constant columns once.
        self.occ = table.row_occ[r]
        self.n_cores = table.row_cores[r]
        self.base_mix = table.row_mix[r]
        self.mem_base = table.row_mem_base[r]
        self.mem_coef = table.row_mem_coef[r]
        self.long_base = table.row_long_base[r]
        self.br_rate = table.row_br_rate[r]
        self.inv_r = table.row_inv_r[r]
        self.disp_w = table.row_disp_w[r]
        self.traffic_bpi = table.row_traffic_bpi[r]
        self.cap = table.run_cap[run_idx]
        self.local_run = np.repeat(np.arange(len(run_idx)), counts)

    def __len__(self) -> int:
        return len(self.run_idx)

    def blend(self, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The parts of :meth:`solve` that depend only on the spin blend.

        ``w`` holds per-run (view-local) spin-blend weights.  Returns the
        multiplier-independent stall cycles per instruction (memory base
        plus branch stalls) and the blended mix routed onto the ports.
        """
        t = self.table
        bm = _blend_mix(self.base_mix, w[self.local_run])
        br_stall = bm[:, _BRANCH] * self.br_rate * t.branch_penalty
        return self.mem_base + br_stall, bm @ t.routing_t

    def solve(
        self, mult: np.ndarray, blend: Tuple[np.ndarray, np.ndarray]
    ) -> _Sol:
        """Evaluate the MVA core model for every row of the view.

        ``mult`` holds per-run (view-local) memory-latency multipliers,
        ``blend`` the :meth:`blend` of the spin weights.  Mirrors
        :func:`repro.sim.fast_core.solve_core` specialized to
        homogeneous (SPMD) rows with uniform priorities.
        """
        t = self.table
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.solves")
        mult_r = mult[self.local_run]
        stall_base, port_vec = blend

        stall = stall_base + self.mem_coef * mult_r
        x_want = 1.0 / (self.inv_r + stall)

        # Structural limits: port saturation and the shared dispatch width.
        sum_x = self.occ * x_want
        demand = sum_x[:, None] * port_vec
        ratios = np.where(
            demand > 0, t.port_caps[None, :] / np.maximum(demand, 1e-300), np.inf
        )
        lam_port = np.minimum(1.0, ratios.min(axis=1))
        lam_fe = np.minimum(1.0, self.disp_w / np.maximum(sum_x, 1e-12))
        lam = np.minimum(lam_port, lam_fe)

        # Uniform-priority water-fill over identical threads: everyone
        # throttles by lambda unless the share pins at the cap.
        share = (lam * sum_x) / self.occ
        x_constrained = np.where(share >= x_want - 1e-15, x_want, share)
        x = np.where(lam < 1.0, x_constrained, x_want)
        x = np.minimum(x, x_want)

        traffic_core = self.occ * (x * self.traffic_bpi)
        run_traffic = np.add.reduceat(
            self.n_cores * (traffic_core * t.bytes_to_gbps), self.seg
        )
        util = run_traffic / self.cap
        return _Sol(x, lam, mult_r, run_traffic, util)

    def dispatch_held(self, sol: _Sol) -> np.ndarray:
        """Per-row dispatch-held fraction of a :meth:`solve` result."""
        long_frac = _unit_clip(sol.x * (self.long_base + self.mem_coef * sol.mult_r))
        held_queue = (self.occ * long_frac) / self.occ * QUEUE_FILL_FACTOR
        return _unit_clip(1.0 - (1.0 - held_queue) * sol.lam)

    def chip_phase(self, w: np.ndarray) -> Tuple[_Sol, np.ndarray]:
        """Bandwidth bisection for every run of the view, in lockstep.

        Mirrors :func:`repro.sim.chip.solve_chip`: settle runs at
        unit latency, pin saturated runs at the cap, bisect the rest.
        All active brackets halve together, so the loop exits for every
        run at the same step (~14 of the nominal 40).  The spin blend is
        fixed for the whole bisection, so its part of the kernel is
        evaluated once.
        """
        m = len(self)
        blend = self.blend(w)
        final_mult = np.ones(m)
        sol = self.solve(final_mult, blend)
        undone = sol.util > TOLERANCE
        steps = 0
        if undone.any():
            hi_mult = _latency_multiplier(RHO_CAP * self.cap, self.cap)
            sol_hi = self.solve(np.where(undone, hi_mult, 1.0), blend)
            saturated = undone & (sol_hi.util >= RHO_CAP)
            final_mult = np.where(saturated, hi_mult, final_mult)
            active = undone & ~saturated
            lo = np.zeros(m)
            hi = np.full(m, RHO_CAP)
            for _ in range(BISECTION_STEPS):
                if not active.any():
                    break
                steps += 1
                mid = (lo + hi) / 2.0
                step_mult = _latency_multiplier(mid * self.cap, self.cap)
                step_mult = np.where(active, step_mult, final_mult)
                utils = self.solve(step_mult, blend).util
                above = utils > mid
                lo = np.where(active & above, mid, lo)
                hi = np.where(active & ~above, mid, hi)
                final_mult = np.where(active, step_mult, final_mult)
                active = active & ~((hi - lo) < TOLERANCE)
        sol = self.solve(final_mult, blend)
        sol.held = self.dispatch_held(sol)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.bisection_steps", steps)
        return sol, final_mult

    def thread_ipc_sum(self, sol: _Sol) -> np.ndarray:
        """Per-run sum of per-thread IPC (view-local order)."""
        return np.add.reduceat(self.n_cores * self.occ * sol.x, self.seg)


class ScenarioTable:
    """Struct-of-arrays over every scenario parameter of a spec batch.

    All specs must share one :class:`Architecture` *instance* (group by
    ``id(arch)`` first — :func:`simulate_many_columnar` does); chip
    counts may differ, so ``p7`` and ``p7x2`` runs share a table.  Build
    once, then :meth:`run` drives the full fixed point and finalization
    (:meth:`drive` then :meth:`finalize`).
    """

    def __init__(self, specs: Sequence[RunSpec]):
        specs = list(specs)
        if not specs:
            raise ValueError("ScenarioTable needs at least one RunSpec")
        arch = specs[0].system.arch
        for spec in specs:
            if spec.system.arch is not arch:
                raise ValueError(
                    "all specs in a ScenarioTable must share one Architecture instance"
                )
        self.specs = specs
        self.arch = arch
        self.freq = arch.cycles_per_second()
        self.bytes_to_gbps = self.freq / 1e9
        self.routing_t = np.ascontiguousarray(arch.topology.routing_matrix.T)
        self.port_caps = arch.topology.capacities
        self.branch_penalty = float(arch.branch_penalty)
        self.event_names = self._event_columns()
        self.n_events = len(self.event_names)

        J = len(specs)
        self.n_runs = J
        caches = arch.caches

        # ---- per-run columns ---------------------------------------------
        # A sweep repeats each stream at every SMT level and each
        # placement for every workload, so distinct streams and
        # placements are evaluated once and the runs index into them.
        stream_ix = _Interner(lambda stream: stream)
        place_ix = _Interner(
            lambda system, level, n: _placement_layout(arch, system, level, n)
        )
        run_stream: List[int] = []
        run_layout: List[int] = []
        per_run: List[Tuple[float, ...]] = []
        for spec in specs:
            system, stream, sync = spec.system, spec.stream, spec.sync
            n = spec.resolved_threads()
            run_stream.append(stream_ix(id(stream), stream))
            run_layout.append(
                place_ix((system.n_chips, spec.smt_level, n), system, spec.smt_level, n)
            )
            per_run.append((
                n,
                system.mem_bandwidth_gbps(),
                spec.noise_rel,
                spec.useful_instructions,
                sync.serial_fraction,
                sync.work_inflation(n),
                sync.runnable_fraction(n),
                sync.blocked_fraction(n),
                sync.spin_fraction(n),
                numa_extra_latency(
                    system.n_chips, stream.memory.data_sharing, caches.numa_extra_cycles
                ),
            ))
        (
            self.run_n,
            self.run_cap,
            self.run_noise,
            self.run_work,
            self.run_serial_fraction,
            self.run_inflation,
            self.run_runnable,
            self.run_blocked,
            self.run_spin0,
            run_extra,
        ) = np.asarray(per_run, dtype=float).T
        self.ns: List[int] = self.run_n.astype(int).tolist()
        self.run_stream = np.asarray(run_stream, dtype=int)
        self.streams: List[StreamParams] = stream_ix.values

        # ---- core rows: one per (run, occupancy class) ---------------
        # Concatenate the distinct layouts, then gather each run's
        # segments; core and context rows are layout-local row indices
        # shifted by the run's first row.
        layouts = place_ix.values
        lay_rows = [cls for layout in layouts for cls in layout[0]]
        lay_occ, lay_cores, lay_tpc, lay_mode = (
            np.asarray(col) for col in zip(*lay_rows)
        )
        run_layout_a = np.asarray(run_layout, dtype=int)

        def starts(part: int) -> np.ndarray:
            return np.cumsum([0] + [len(layout[part]) for layout in layouts])

        def flat(part: int) -> np.ndarray:
            return np.asarray([v for layout in layouts for v in layout[part]], dtype=int)

        rows, row_counts, _ = _segments(starts(0), run_layout_a)
        self.run_row_start = np.concatenate(([0], np.cumsum(row_counts)))
        self.row_run = np.repeat(np.arange(J), row_counts)
        first_row = self.run_row_start[:-1]
        core_pos, core_counts, _ = _segments(starts(1), run_layout_a)
        self.core_row = flat(1)[core_pos] + np.repeat(first_row, core_counts)
        self.core_occ = flat(2)[core_pos].astype(float)
        self.core_start = np.concatenate(([0], np.cumsum(core_counts)))
        ctx_pos, ctx_counts, _ = _segments(starts(3), run_layout_a)
        self.ctx_row = flat(3)[ctx_pos] + np.repeat(first_row, ctx_counts)
        self.ctx_start = np.concatenate(([0], np.cumsum(ctx_counts)))

        R = len(rows)
        self.n_rows = R
        occ = lay_occ[rows].astype(float)
        tpc = lay_tpc[rows].astype(float)
        extra = run_extra[self.row_run]
        self.row_occ = occ
        self.row_cores = lay_cores[rows].astype(float)

        # Per-row stream parameters (one stream per run: SPMD threads).
        row_stream = self.run_stream[self.row_run]
        ilp, mlp, br_base, l1, l2, l3, alpha, d, wb = np.asarray(
            [
                (
                    st.ilp,
                    st.mlp,
                    st.branch_mispredict_rate,
                    st.memory.l1_mpki,
                    st.memory.l2_mpki,
                    st.memory.l3_mpki,
                    st.memory.locality_alpha,
                    st.memory.data_sharing,
                    st.memory.writeback_factor,
                )
                for st in self.streams
            ],
            dtype=float,
        ).T[:, row_stream]
        self.stream_mix = np.stack([st.mix.vector for st in self.streams])
        self.row_mix = self.stream_mix[row_stream]
        resources = {
            mode: (
                arch.partition.thread_resources(mode).ilp_scale,
                arch.partition.core_dispatch_width(mode),
            )
            for mode in set(lay_mode.tolist())
        }
        ilp_scale, disp_w = np.asarray(
            [resources[mode] for mode in lay_mode.tolist()], dtype=float
        ).T[:, rows]
        self.row_disp_w = disp_w

        # ---- mult-independent precompute --------------------------------
        # Homogeneous rows: the clipped footprint-heat self-ratio is
        # exactly 1, so each of the occ co-runners contributes (1 - d);
        # the sequential accumulation replicates the padded-axis sum.
        one_minus_d = 1.0 - d
        contrib_sum = np.zeros(R)
        for i in range(int(occ.max())):
            contrib_sum = contrib_sum + np.where(occ > i, one_minus_d, 0.0)
        pressure = 1.0 + contrib_sum - one_minus_d

        inv_max = 1.0 / MAX_PRESSURE_SCALE
        scale_l1 = np.clip(
            (REF_L1_KB / (caches.l1d_kb / pressure)) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        scale_l2 = np.clip(
            (REF_L2_KB / (caches.l2_kb / pressure)) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        k_chip = 1.0 + (tpc - 1.0) * one_minus_d
        c_l3 = caches.l3_mb * 1024.0 / k_chip
        scale_l3 = np.clip(
            (REF_L3_MB_PER_THREAD * 1024.0 / c_l3) ** alpha, inv_max, MAX_PRESSURE_SCALE
        )
        l1e = l1 * scale_l1
        l2e = np.minimum(l2 * scale_l2, l1e)
        l3e = np.minimum(l3 * scale_l3, l2e)
        self.row_l1e, self.row_l2e, self.row_l3e = l1e, l2e, l3e

        l2hit = l1e - l2e
        l3hit = l2e - l3e
        inv_kmlp = 1.0 / (1000.0 * mlp)
        self.row_mem_coef = l3e * caches.lat_mem * inv_kmlp
        self.row_long_base = (l3hit * caches.lat_l3 + l3e * extra) * inv_kmlp
        self.row_mem_base = (
            l2hit * caches.lat_l2 + l3hit * caches.lat_l3 + l3e * extra
        ) * inv_kmlp

        self.row_br_rate = np.minimum(
            br_base * (1.0 + SHARING_PENALTY_PER_THREAD * (occ - 1.0)), 1.0
        )
        r_cap = np.minimum(ilp * ilp_scale, float(arch.partition.issue_width))
        self.row_inv_r = 1.0 / r_cap
        self.row_traffic_bpi = l3e / 1000.0 * caches.line_bytes * wb

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.tables")
            tracer.add("table.runs", J)
            tracer.add("table.rows", R)

    # -- helpers -------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[RunSpec]) -> "ScenarioTable":
        """Build a table from a scenario list (alias of the constructor)."""
        return cls(specs)

    def __len__(self) -> int:
        return self.n_runs

    def _event_columns(self) -> List[str]:
        """Counter columns in the scalar engine's per-context draw order."""
        names = ["CYCLES", "INSTRUCTIONS", "DISP_HELD_RES"]
        names.extend(CLASS_COUNT_EVENTS)
        names.extend(f"PORT_ISSUE_{p}" for p in self.arch.topology.port_names)
        names.extend(["L1_DMISS", "L2_MISS", "L3_MISS", "BR_MISPRED"])
        assert set(names) == set(arch_event_names(self.arch))
        return names

    def view(self, run_idx: Optional[np.ndarray] = None) -> _View:
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        return _View(self, np.asarray(run_idx, dtype=int))

    # -- the fixed-point driver ----------------------------------------

    def drive(self, run_idx: Optional[np.ndarray] = None) -> TableState:
        """Run the full solver fixed point for the selected runs.

        Returns a :class:`TableState` whose per-row arrays are full-table
        sized (rows outside ``run_idx`` are zero) and whose per-run
        arrays are full-length (entries outside ``run_idx`` are zero).
        """
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        run_idx = np.asarray(run_idx, dtype=int)
        J = self.n_runs

        x_rows = np.zeros(self.n_rows)
        held_rows = np.zeros(self.n_rows)
        mult = np.zeros(J)
        run_traffic = np.zeros(J)
        spin_final = np.zeros(J)
        useful_rate = np.zeros(J)
        sync_free = np.zeros(J, dtype=bool)
        runnable_a = np.zeros(J)
        blocked_a = np.zeros(J)

        view = self.view(run_idx)
        base_sol, base_mults = view.chip_phase(np.zeros(len(view)))
        ipc_sum = view.thread_ipc_sum(base_sol)

        # The lock cap depends on the solved holder rate, so it is the one
        # sync-profile call left per run; the fractions came from build.
        runnable_sel = self.run_runnable[run_idx]
        spin0_sel = self.run_spin0[run_idx]
        holder_rate = (ipc_sum / self.run_n[run_idx]) * self.freq
        lock_cap_sel = np.array([
            self.specs[j].sync.lock_throughput_cap(rate, self.ns[j])
            for j, rate in zip(run_idx.tolist(), holder_rate.tolist())
        ])
        free = (spin0_sel == 0.0) & np.isinf(lock_cap_sel)
        free_idx = run_idx[free]
        runnable_a[run_idx] = runnable_sel
        blocked_a[run_idx] = self.run_blocked[run_idx]
        spin_final[run_idx] = spin0_sel
        sync_free[free_idx] = True
        useful_rate[free_idx] = (ipc_sum[free] * self.freq) * runnable_sel[free]
        mult[free_idx] = base_mults[free]
        run_traffic[free_idx] = base_sol.run_traffic[free]
        loop_local = np.flatnonzero(~free)

        # Scatter the base solution into the reported rows (overwritten
        # below for runs that enter the spin loop).
        x_rows[view.rows] = base_sol.x
        held_rows[view.rows] = base_sol.held

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add("table.sync_free_runs", len(run_idx) - len(loop_local))
            if len(loop_local):
                tracer.add("table.spin_iterations", SPIN_ITERATIONS * len(loop_local))

        if len(loop_local):
            loop_idx = run_idx[loop_local]
            lview = self.view(loop_idx)
            spin0 = spin0_sel[loop_local]
            spins = spin0
            runnable = runnable_sel[loop_local]
            lock_cap = lock_cap_sel[loop_local]
            sol = None
            mults = None
            for _ in range(SPIN_ITERATIONS):
                sol, mults = lview.chip_phase(spins)
                raw_rate = lview.thread_ipc_sum(sol) * self.freq
                available = raw_rate * runnable
                useful = np.minimum(available * (1.0 - spin0), lock_cap)
                spins = np.minimum(MAX_SPIN, 1.0 - useful / available)
            x_rows[lview.rows] = sol.x
            held_rows[lview.rows] = sol.held
            mult[loop_idx] = mults
            run_traffic[loop_idx] = sol.run_traffic
            spin_final[loop_idx] = spins
            useful_rate[loop_idx] = useful

        return TableState(
            x_rows=x_rows,
            held_rows=held_rows,
            mult=mult,
            run_traffic=run_traffic,
            spin_final=spin_final,
            useful_rate=useful_rate,
            sync_free=sync_free,
            runnable=runnable_a,
            blocked=blocked_a,
        )

    # -- finalization --------------------------------------------------

    def finalize(
        self, state: TableState, run_idx: Optional[np.ndarray] = None
    ) -> List[RunResult]:
        """Vectorized time accounting, jitter, and counters.

        Mirrors :func:`repro.sim.engine._finalize_run` for every run of
        ``run_idx`` at once.  Serial rates are looked up once per
        stream; time accounting, wall/CPU jitter and counters are array
        expressions in the scalar engine's operation order.  The per-run
        Python left is the seeded RNG stream of each noisy run (one
        ``standard_normal`` block, replicating the scalar draw order
        bit-for-bit) and building the validated :class:`TimeAccounting`
        and :class:`RunResult` objects.
        """
        if run_idx is None:
            run_idx = np.arange(self.n_runs)
        run_idx = np.asarray(run_idx, dtype=int)
        arch = self.arch
        E = self.n_events
        m = len(run_idx)
        runs = run_idx.tolist()

        # Flattened context axis over the selected runs.
        ctx_sel, ctx_counts, ctx_seg = _segments(self.ctx_start, run_idx)
        ctx_row = self.ctx_row[ctx_sel]
        ctx_run = np.repeat(np.arange(m), ctx_counts)         # view-local

        # Jitter draws: one block per noisy run, in the scalar order
        # (wall factor, CPU factor, then per context every event).  The
        # stream is keyed by (seed, level, threads) only, so every
        # workload of a sweep at one level draws the same block; each
        # distinct block is drawn once.
        noise = self.run_noise[run_idx]
        noisy = noise > 0
        z_wall = np.zeros(m)
        z_cpu = np.zeros(m)
        Z = np.zeros((len(ctx_sel), E))
        seg = ctx_seg.tolist()
        blocks: Dict[Tuple[int, int, int], np.ndarray] = {}
        for pos in np.flatnonzero(noisy).tolist():
            spec = self.specs[runs[pos]]
            n = self.ns[runs[pos]]
            key = (spec.seed, spec.smt_level, n)
            z = blocks.get(key)
            if z is None:
                rng = RngStream(spec.seed, ("run", arch.name, spec.smt_level, n))
                z = blocks[key] = rng.gen.standard_normal(2 + n * E)
            z_wall[pos] = z[0]
            z_cpu[pos] = z[1]
            Z[seg[pos]:seg[pos] + n] = z[2:].reshape(n, E)

        # Times: account_run, then _jitter_times (noise-free runs keep
        # their accounted times exactly).
        stream_sel = self.run_stream[run_idx]
        serial_rates = np.zeros(len(self.streams))
        used, first = np.unique(stream_sel, return_index=True)
        for s, pos in zip(used.tolist(), first.tolist()):
            serial_rates[s] = _engine._serial_rate(
                self.specs[runs[pos]].system, self.streams[s]
            )
        n_sel = self.run_n[run_idx]
        runnable = state.runnable[run_idx]
        wall, serial, parallel, cpu = account_runs(
            useful_instructions=self.run_work[run_idx] * self.run_inflation[run_idx],
            parallel_useful_rate=state.useful_rate[run_idx],
            serial_rate=serial_rates[stream_sel],
            serial_fraction=self.run_serial_fraction[run_idx],
            runnable=runnable,
            n_threads=n_sel,
        )
        wall_factor = np.maximum(0.5, 1.0 + noise * z_wall)
        cpu_factor = np.maximum(0.5, 1.0 + (noise * 0.5) * z_cpu)
        cpu = np.where(
            noisy,
            np.minimum(cpu * wall_factor * cpu_factor, wall * wall_factor * n_sel),
            cpu,
        )
        wall, serial, parallel = (
            np.where(noisy, t * wall_factor, t) for t in (wall, serial, parallel)
        )

        # Final blended mix (reported spin) and derived port fractions.
        spin = state.spin_final[run_idx]
        bm = _blend_mix(self.stream_mix[stream_sel], spin)
        port_fracs = bm @ self.routing_t                      # (m, P)
        par_cycles = parallel * self.freq * runnable

        cyc = par_cycles[ctx_run]
        instr = state.x_rows[ctx_row] * cyc
        V = np.empty((len(ctx_sel), E))
        V[:, 0] = cyc
        V[:, 1] = instr
        V[:, 2] = state.held_rows[ctx_row] * cyc
        V[:, 3:8] = instr[:, None] * bm[ctx_run]
        n_ports = port_fracs.shape[1]
        V[:, 8:8 + n_ports] = instr[:, None] * port_fracs[ctx_run]
        base = 8 + n_ports
        V[:, base + 0] = instr * self.row_l1e[ctx_row] / 1000.0
        V[:, base + 1] = instr * self.row_l2e[ctx_row] / 1000.0
        V[:, base + 2] = instr * self.row_l3e[ctx_row] / 1000.0
        V[:, base + 3] = (instr * bm[ctx_run, _BRANCH]) * self.row_br_rate[ctx_row]

        # Counter jitter: one factor per (context, event), drawn in the
        # scalar per-context order; noise-free runs multiply by exactly 1.
        # In place: Z becomes max(0.05, 1 + noise * Z).
        Z *= noise[ctx_run][:, None]
        Z += 1.0
        np.maximum(Z, 0.05, out=Z)
        V *= Z
        sums = np.add.reduceat(V, ctx_seg, axis=0)            # (m, E)

        # Occupancy-weighted dispatch-held per run (mirrors np.average).
        core_sel, _, core_seg = _segments(self.core_start, run_idx)
        held_core = state.held_rows[self.core_row[core_sel]]
        occ_core = self.core_occ[core_sel]
        mdh = (
            np.add.reduceat(held_core * occ_core, core_seg)
            / np.add.reduceat(occ_core, core_seg)
        )

        cap = self.run_cap[run_idx]
        traffic = state.run_traffic[run_idx]
        mem_util = np.minimum(traffic, cap) / cap

        names = self.event_names
        thread_ipc = state.x_rows[ctx_row].tolist()
        bounds = np.concatenate((ctx_seg, [len(ctx_sel)])).tolist()
        columns = zip(
            runs,
            sums.tolist(),
            wall.tolist(),
            serial.tolist(),
            parallel.tolist(),
            cpu.tolist(),
            spin.tolist(),
            state.blocked[run_idx].tolist(),
            state.mult[run_idx].tolist(),
            mem_util.tolist(),
            mdh.tolist(),
        )
        results: List[RunResult] = []
        for pos, (j, counts, wall_s, serial_s, parallel_s, cpu_s,
                  spin_j, blocked, mult, util, held) in enumerate(columns):
            spec = self.specs[j]
            n = self.ns[j]
            results.append(
                RunResult(
                    arch=arch,
                    smt_level=spec.smt_level,
                    n_threads=n,
                    n_chips=spec.system.n_chips,
                    useful_instructions=spec.useful_instructions,
                    times=TimeAccounting(
                        wall_time_s=wall_s,
                        serial_time_s=serial_s,
                        parallel_time_s=parallel_s,
                        total_cpu_s=cpu_s,
                        n_threads=n,
                    ),
                    events=dict(zip(names, counts)),
                    spin_fraction=spin_j,
                    blocked_fraction=blocked,
                    mem_latency_mult=mult,
                    mem_utilization=util,
                    per_thread_ipc=tuple(thread_ipc[bounds[pos]:bounds[pos + 1]]),
                    dispatch_held_fraction=held,
                )
            )
        return results

    def run(self, run_idx: Optional[np.ndarray] = None) -> List[RunResult]:
        """Drive the fixed point and finalize, columnar end to end."""
        state = self.drive(run_idx)
        return self.finalize(state, run_idx)


def simulate_many_columnar(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Simulate many runs: ``[simulate_run(s) for s in specs]``, columnar.

    Groups specs by architecture instance, lowers each group into one
    :class:`ScenarioTable`, and returns results in input order.  Agrees
    with the serial reference to floating-point round-off (<= 1e-9
    relative, pinned by the ``columnar_vs_serial`` differential check).
    """
    specs = list(specs)
    if not specs:
        return []
    results: List[Optional[RunResult]] = [None] * len(specs)
    groups: Dict[int, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec.system.arch), []).append(i)
    with get_tracer().span(
        "table.simulate_many", runs=len(specs), arch_groups=len(groups)
    ):
        for indices in groups.values():
            table = ScenarioTable([specs[i] for i in indices])
            for i, result in zip(indices, table.run()):
                results[i] = result
    return results  # type: ignore[return-value]
