"""The fleet's performance model: one mega-batch solve, reused everywhere.

A 1000-chip x 100k-job simulation cannot afford a chip-solver call per
job.  It does not need one: every node is one chip of a registered
architecture and every job is a catalog workload at some SMT level, so
the full space of distinct steady states is just ``arch x workload x
level`` — about 140 rows for the reference fleet.  This module lowers
that whole space onto the columnar :class:`~repro.sim.table.ScenarioTable`
engine as **one mega-batch**, then serves
the discrete-event loop from the precomputed results:

* job service times — ``size * wall_time(arch, workload, level)``;
* per-arch :class:`~repro.core.predictor.SmtPredictor` thresholds,
  fitted from the same runs (metric at the max level vs. measured
  speedup), feeding each node's
  :class:`~repro.core.robust.HardenedController`;
* :class:`NodeMeter` — the online measurable app whose ``advance``
  returns interval counters scaled from the reference run (the same
  linear model :class:`~repro.sim.online.SteadyApp` uses), which
  :class:`~repro.faults.FaultyApp` then corrupts.

Models are memoized per ``(arch set, workload set)``, so the
benchmark's policy x severity grid pays for the solve once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.arch.registry import get_architecture
from repro.core.metric import smtsm_from_run
from repro.core.predictor import Observation, SmtPredictor
from repro.counters.pmu import CounterSample
from repro.obs import get_tracer
from repro.sim.engine import RunSpec
from repro.sim.results import RunResult, speedup
from repro.simos.system import SystemSpec
from repro.util.validation import check_positive
from repro.workloads.catalog import all_workloads

__all__ = ["FleetPerfModel", "NodeMeter", "get_perf_model"]

@dataclass(frozen=True)
class FleetPerfModel:
    """Precomputed reference runs and fitted predictors for one fleet."""

    arch_names: Tuple[str, ...]
    workload_names: Tuple[str, ...]
    systems: Mapping[str, SystemSpec]
    levels: Mapping[str, Tuple[int, ...]]
    #: runs[arch][workload][level] -> the size-1.0 reference run.
    runs: Mapping[str, Mapping[str, Mapping[int, RunResult]]]
    #: predictors[arch][low_level] -> threshold vs. the arch max level.
    predictors: Mapping[str, Mapping[int, SmtPredictor]]

    def max_level(self, arch: str) -> int:
        return self.levels[arch][-1]

    def reference(self, arch: str, workload: str, level: int) -> RunResult:
        return self.runs[arch][workload][level]

    def wall_s(self, arch: str, workload: str, level: int) -> float:
        """Service seconds for a size-1.0 job of ``workload`` at ``level``."""
        return self.runs[arch][workload][level].times.wall_time_s

    def mean_service_s(
        self, arch: str, mix_weights: Mapping[str, float], mean_size: float
    ) -> float:
        """Expected max-level service time under the trace's workload mix."""
        level = self.max_level(arch)
        return mean_size * sum(
            weight * self.wall_s(arch, name, level)
            for name, weight in mix_weights.items()
        )


class NodeMeter:
    """Online counters for the job currently running on one node.

    The measurable-app twin of :class:`~repro.sim.online.SteadyApp`,
    but served from the perf model's precomputed reference runs instead
    of a fresh solver call: ``advance(dt)`` scales the reference run's
    per-run counters to ``dt`` seconds of wall time at the current SMT
    level.  A per-node :class:`~repro.faults.FaultyApp` wraps this and
    corrupts what the controller sees.
    """

    def __init__(self, model: FleetPerfModel, arch: str, workload: str, level: int):
        self._model = model
        self._arch = arch
        self.workload = workload
        self.smt_level = level

    @property
    def phase_name(self) -> str:
        return self.workload

    def retarget(self, workload: str, level: int) -> None:
        """Point the meter at the job now running (workload + level)."""
        if level not in self._model.levels[self._arch]:
            raise ValueError(
                f"SMT{level} not valid on {self._arch}: "
                f"{self._model.levels[self._arch]}"
            )
        self.workload = workload
        self.smt_level = level

    def switch_level(self, level: int) -> None:
        self.retarget(self.workload, level)

    def advance(self, wall_seconds: float) -> CounterSample:
        check_positive("wall_seconds", wall_seconds)
        ref = self._model.reference(self._arch, self.workload, self.smt_level)
        scale = wall_seconds / ref.times.wall_time_s
        return CounterSample(
            arch=ref.arch,
            smt_level=self.smt_level,
            events={name: value * scale for name, value in ref.events.items()},
            wall_time_s=wall_seconds,
            avg_thread_cpu_s=wall_seconds
            * (ref.times.avg_thread_cpu_s / ref.times.wall_time_s),
            n_software_threads=ref.n_threads,
        )


def _build(
    arch_names: Tuple[str, ...],
    workload_names: Tuple[str, ...],
) -> FleetPerfModel:
    catalog = all_workloads()
    unknown = [n for n in workload_names if n not in catalog]
    if unknown:
        raise KeyError(f"unknown workloads {unknown}; known: {sorted(catalog)}")

    systems: Dict[str, SystemSpec] = {}
    levels: Dict[str, Tuple[int, ...]] = {}
    for arch in arch_names:
        system = SystemSpec(get_architecture(arch), n_chips=1)
        systems[arch] = system
        levels[arch] = tuple(sorted(system.arch.smt_levels))

    # One mega-batch over the whole (arch x workload x level) space.
    specs: List[RunSpec] = []
    index: List[Tuple[str, str, int]] = []
    for arch in arch_names:
        for name in workload_names:
            spec = catalog[name]
            for level in levels[arch]:
                specs.append(
                    RunSpec(
                        system=systems[arch],
                        smt_level=level,
                        stream=spec.stream,
                        sync=spec.sync,
                        seed=0,
                        noise_rel=0.0,
                    )
                )
                index.append((arch, name, level))

    from repro.sim.table import simulate_many_columnar

    with get_tracer().span("fleet.perfmodel", rows=len(specs)):
        results = simulate_many_columnar(specs)

    runs: Dict[str, Dict[str, Dict[int, RunResult]]] = {
        arch: {name: {} for name in workload_names} for arch in arch_names
    }
    for (arch, name, level), result in zip(index, results):
        runs[arch][name][level] = result

    predictors: Dict[str, Dict[int, SmtPredictor]] = {}
    for arch in arch_names:
        high = levels[arch][-1]
        fitted: Dict[int, SmtPredictor] = {}
        for low in levels[arch][:-1]:
            observations = [
                Observation(
                    name=name,
                    metric=smtsm_from_run(runs[arch][name][high]).value,
                    speedup=speedup(runs[arch][name][high], runs[arch][name][low]),
                )
                for name in workload_names
            ]
            fitted[low] = SmtPredictor.fit(
                observations, high_level=high, low_level=low
            )
        predictors[arch] = fitted

    return FleetPerfModel(
        arch_names=arch_names,
        workload_names=workload_names,
        systems=systems,
        levels=levels,
        runs=runs,
        predictors=predictors,
    )


_MODELS: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], FleetPerfModel] = {}


def get_perf_model(
    arch_names: Tuple[str, ...],
    workload_names: Tuple[str, ...],
) -> FleetPerfModel:
    """Memoized :func:`_build`; keys are the exact name tuples."""
    key = (tuple(arch_names), tuple(workload_names))
    model = _MODELS.get(key)
    if model is None:
        model = _build(*key)
        _MODELS[key] = model
    return model
