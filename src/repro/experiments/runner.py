"""Shared measurement protocol for the evaluation experiments.

"In all of the experiments conducted, the number of software threads
used is chosen to be the same as the number of available hardware
threads/contexts" (§IV) — so a POWER7 chip runs 8/16/32 threads at
SMT1/2/4, and speedups compare completion of the *same work*.

:func:`run_catalog` executes a benchmark set once per SMT level and
caches the runs; every scatter figure (6, 8-15) is then a cheap
projection: pick the measurement level for the metric and a level pair
for the speedup.  One entry point covers every execution strategy:
``run_catalog(arch_or_system, ..., strategy="columnar"|"serial")`` —
the columnar scenario-table engine (default) or the scalar reference
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.success import SuccessSummary, success_summary
from repro.core.metric import SmtsmResult, smtsm_from_run
from repro.obs import get_tracer
from repro.core.predictor import Observation, SmtPredictor
from repro.sim.engine import DEFAULT_WORK, RunSpec, simulate_run
from repro.sim.results import RunResult, speedup
from repro.sim.runcache import RunCache, cache_enabled_by_default
from repro.simos.system import SystemSpec
from repro.util.enums import ValidatedStrEnum
from repro.util.tables import format_table
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "DEFAULT_WORK",  # re-exported; the engine owns the single definition
    "CatalogRuns",
    "STRATEGIES",
    "Strategy",
    "resolve_system",
    "run_catalog",
    "ScatterPoint",
    "ScatterResult",
    "scatter_from_runs",
]


class Strategy(ValidatedStrEnum):
    """Execution strategies the unified :func:`run_catalog` accepts.

    Members are their literal strings (``Strategy.COLUMNAR ==
    "columnar"``), so both the typed constants and the historical bare
    strings are valid everywhere a ``strategy=`` parameter appears; a
    typo raises a ``ValueError`` listing the valid options.
    """

    COLUMNAR = "columnar"
    SERIAL = "serial"


#: The strategies as plain literals (kept for existing callers).
STRATEGIES = Strategy.options()

#: Named systems accepted wherever a :class:`SystemSpec` is expected:
#: alias -> (architecture registry name, chip count).
_SYSTEM_ALIASES = {
    "p7": ("power7", 1),
    "power7": ("power7", 1),
    "p7x2": ("power7", 2),
    "nehalem": ("nehalem", 1),
}


def resolve_system(system: Union[str, SystemSpec],
                   n_chips: Optional[int] = None) -> SystemSpec:
    """Resolve a system alias (``"p7"``/``"p7x2"``/``"nehalem"``/any
    registered architecture name) or pass a :class:`SystemSpec` through.

    ``n_chips`` overrides the alias's default chip count; it is an
    error combined with an explicit :class:`SystemSpec` (the spec
    already fixes the chip count).
    """
    if isinstance(system, SystemSpec):
        if n_chips is not None and n_chips != system.n_chips:
            raise ValueError(
                f"n_chips={n_chips} conflicts with SystemSpec(n_chips="
                f"{system.n_chips}); pass one or the other"
            )
        return system
    from repro.arch import get_architecture

    try:
        arch_name, default_chips = _SYSTEM_ALIASES[system]
    except KeyError:
        arch_name, default_chips = system, 1
    return SystemSpec(get_architecture(arch_name), n_chips or default_chips)


def _default_catalog(system: SystemSpec):
    """The paper's benchmark set and levels for a named system."""
    from repro.workloads.catalog import (
        NEHALEM_SET,
        NEHALEM_SMT1_SET,
        all_workloads,
        armsmt_catalog,
        power7_catalog,
    )

    name = system.arch.name.lower()
    if name.startswith("nehalem"):
        specs = all_workloads()
        names = sorted(set(NEHALEM_SET) | set(NEHALEM_SMT1_SET))
        return {n: specs[n] for n in names}, (1, 2)
    if name.startswith("power7"):
        return power7_catalog(), tuple(system.arch.smt_levels)
    if name.startswith("arm"):
        return armsmt_catalog(), tuple(system.arch.smt_levels)
    # Any other registered architecture (custom or hetero-cluster):
    # workload streams are architecture-independent, so the POWER7
    # 28-benchmark catalog swept over the chip's own SMT levels is a
    # sensible default; pass catalog= to narrow it.
    return power7_catalog(), tuple(system.arch.smt_levels)


@dataclass(frozen=True)
class CatalogRuns:
    """All runs of one benchmark set on one system.

    ``failures`` records runs the sweep could not produce (keyed
    ``"name@SMT<level>"`` with the error text); a partially-failed
    sweep reports them here instead of aborting, and downstream
    projections skip the incomplete workloads.
    """

    system: SystemSpec
    runs: Mapping[str, Mapping[int, RunResult]]
    seed: int
    failures: Mapping[str, str] = field(default_factory=dict)

    def levels(self) -> Tuple[int, ...]:
        any_runs = next(iter(self.runs.values()))
        return tuple(sorted(any_runs))

    def names(self) -> Tuple[str, ...]:
        return tuple(self.runs)

    def complete_names(self, levels: Sequence[int]) -> Tuple[str, ...]:
        """Workloads that have a run at every requested level."""
        return tuple(
            name for name, by_level in self.runs.items()
            if all(level in by_level for level in levels)
        )


def _catalog_specs(
    system: SystemSpec,
    catalog: Mapping[str, WorkloadSpec],
    levels: Sequence[int],
    seed: int,
    work: float,
) -> List[Tuple[str, int, RunSpec]]:
    for level in levels:
        system.arch.validate_smt_level(level)
    return [
        (
            name,
            level,
            RunSpec(
                system=system,
                smt_level=level,
                stream=spec.stream,
                sync=spec.sync,
                useful_instructions=work,
                seed=seed,
            ),
        )
        for name, spec in catalog.items()
        for level in levels
    ]


def run_catalog(
    system: Union[str, SystemSpec],
    catalog: Optional[Mapping[str, WorkloadSpec]] = None,
    levels: Optional[Sequence[int]] = None,
    *,
    strategy: str = "columnar",
    n_chips: Optional[int] = None,
    seed: int = 11,
    work: float = DEFAULT_WORK,
    cache: Optional[RunCache] = None,
    use_cache: Optional[bool] = None,
) -> CatalogRuns:
    """Run every workload at every requested SMT level — one entry point.

    ``system`` is a :class:`SystemSpec` or a named alias (``"p7"``,
    ``"p7x2"``, ``"nehalem"``, or any registered architecture name,
    with ``n_chips`` overriding the alias's chip count).  ``catalog``
    defaults to the paper's benchmark set for the system's architecture
    (Table I for POWER7, the Fig. 10/12 set for Nehalem), ``levels`` to
    the architecture's SMT levels.

    ``strategy`` selects how the runs execute; all of them produce the
    same :class:`CatalogRuns` (to floating-point round-off):

    * ``"columnar"`` (default) — the whole sweep lowered into one
      struct-of-arrays :class:`repro.sim.table.ScenarioTable` per
      architecture and solved with whole-table numpy ops
      (:func:`repro.sim.table.simulate_many_columnar`);
    * ``"serial"`` — the scalar reference loop, one
      :func:`simulate_run` per spec with a nested ``run`` span each
      (the source of ``repro stats``' slowest-runs table).

    ``use_cache``/``cache`` control the persistent run cache: hits skip
    simulation entirely, misses are simulated and stored.  For the
    columnar strategy the default honours the
    ``REPRO_RUNCACHE`` environment switch; the serial strategy is the
    uncached reference path unless a ``cache`` is passed explicitly.

    A run that fails to simulate does not abort the sweep: the batch
    is salvaged run-by-run, the failure lands in
    :attr:`CatalogRuns.failures` and the ``runner.failed_runs`` obs
    counter, and projections skip the incomplete workload.

    Telemetry: one ``runner.run_catalog`` span covers the sweep
    (attrs: system, run count, strategy, cache hits/misses), with
    nested ``cache_lookup`` and ``simulate`` phases; the run cache
    itself accumulates ``runcache.hits`` / ``runcache.misses``.
    """
    strategy = Strategy.parse(strategy).value
    system = resolve_system(system, n_chips)
    if catalog is None:
        catalog, default_levels = _default_catalog(system)
        if levels is None:
            levels = default_levels
    if levels is None:
        levels = system.arch.smt_levels
    keyed = _catalog_specs(system, catalog, levels, seed, work)
    specs = [spec for _, _, spec in keyed]
    if use_cache is None:
        use_cache = cache is not None or (
            strategy != "serial" and cache_enabled_by_default()
        )
    if use_cache and cache is None:
        cache = RunCache()

    tracer = get_tracer()
    with tracer.span(
        "runner.run_catalog",
        system=f"{system.arch.name} x{system.n_chips}",
        runs=len(specs),
        strategy=strategy,
        cached=bool(use_cache and cache is not None),
    ) as sweep:
        results: List[Optional[RunResult]] = [None] * len(specs)
        missing: List[int] = []
        if use_cache and cache is not None:
            with tracer.span("cache_lookup", runs=len(specs)):
                for i, spec in enumerate(specs):
                    results[i] = cache.get(spec)
                    if results[i] is None:
                        missing.append(i)
        else:
            missing = list(range(len(specs)))

        sweep.set(cache_hits=len(specs) - len(missing), cache_misses=len(missing))
        failed: Dict[int, str] = {}
        if missing:
            with tracer.span("simulate", runs=len(missing)):
                todo = [specs[i] for i in missing]
                fresh: List[Optional[RunResult]]
                if strategy == "serial":
                    fresh = []
                    for idx, (spec, (name, level, _)) in enumerate(
                        zip(todo, (keyed[i] for i in missing))
                    ):
                        with tracer.span("run", workload=name, level=level):
                            try:
                                fresh.append(simulate_run(spec))
                            except Exception as exc:
                                fresh.append(None)
                                failed[missing[idx]] = f"{type(exc).__name__}: {exc}"
                                tracer.add("runner.failed_runs")
                else:
                    try:
                        from repro.sim.table import simulate_many_columnar

                        fresh = list(simulate_many_columnar(todo))
                    except Exception:
                        # One bad spec must not abort the whole sweep:
                        # salvage run-by-run and report the casualties.
                        fresh = []
                        for idx, spec in zip(missing, todo):
                            try:
                                fresh.append(simulate_run(spec))
                            except Exception as exc:
                                fresh.append(None)
                                failed[idx] = f"{type(exc).__name__}: {exc}"
                                tracer.add("runner.failed_runs")
                for i, result in zip(missing, fresh):
                    results[i] = result
                    if result is not None and use_cache and cache is not None:
                        cache.put(specs[i], result)
        if failed:
            sweep.set(failed_runs=len(failed))

    all_runs: Dict[str, Dict[int, RunResult]] = {}
    failures: Dict[str, str] = {}
    for i, ((name, level, _), result) in enumerate(zip(keyed, results)):
        if result is None:
            failures[f"{name}@SMT{level}"] = failed.get(i, "unknown failure")
            continue
        all_runs.setdefault(name, {})[level] = result
    return CatalogRuns(system=system, runs=all_runs, seed=seed, failures=failures)


@dataclass(frozen=True)
class ScatterPoint:
    """One benchmark in a speedup-vs-metric figure."""

    name: str
    metric: float
    speedup: float
    metric_detail: SmtsmResult

    def observation(self) -> Observation:
        return Observation(name=self.name, metric=self.metric, speedup=self.speedup)


@dataclass(frozen=True)
class ScatterResult:
    """A full speedup-vs-metric experiment (one paper scatter figure)."""

    title: str
    system_name: str
    measure_level: int
    high_level: int
    low_level: int
    points: Tuple[ScatterPoint, ...]
    #: Workloads dropped because their catalog runs were incomplete
    #: (partially-failed sweep) or their metric could not be evaluated.
    skipped: Tuple[str, ...] = ()

    def observations(self) -> List[Observation]:
        return [p.observation() for p in self.points]

    def metrics(self) -> List[float]:
        return [p.metric for p in self.points]

    def speedups(self) -> List[float]:
        return [p.speedup for p in self.points]

    def fit_predictor(self, method: str = "gini") -> SmtPredictor:
        return SmtPredictor.fit(
            self.observations(),
            high_level=self.high_level,
            low_level=self.low_level,
            method=method,
        )

    def success(self, threshold: Optional[float] = None,
                method: str = "gini") -> SuccessSummary:
        """Prediction outcome at a fixed threshold or a fitted one."""
        if threshold is None:
            predictor = self.fit_predictor(method)
        else:
            predictor = SmtPredictor(
                threshold=threshold,
                high_level=self.high_level,
                low_level=self.low_level,
                method="fixed",
            )
        return success_summary(predictor, self.observations())

    def render(self, threshold: Optional[float] = None) -> str:
        """The figure as rows (sorted by metric), plus the summary."""
        rows = [
            [p.name, p.metric, p.speedup, "higher" if p.speedup >= 1 else "lower"]
            for p in sorted(self.points, key=lambda p: p.metric)
        ]
        table = format_table(
            ["benchmark", f"SMTsm@SMT{self.measure_level}",
             f"SMT{self.high_level}/SMT{self.low_level} speedup", "prefers"],
            rows,
            title=self.title,
        )
        summary = self.success(threshold)
        lines = [
            table,
            "",
            f"threshold = {summary.threshold:.4f}  "
            f"success = {summary.n_correct}/{summary.n_total} "
            f"({100 * summary.success_rate:.0f}%)",
        ]
        if summary.misses:
            lines.append(f"mispredicted: {', '.join(summary.misses)}")
        if self.skipped:
            lines.append(f"skipped (incomplete runs): {', '.join(self.skipped)}")
        return "\n".join(lines)


def scatter_from_runs(
    catalog_runs: CatalogRuns,
    *,
    title: str,
    measure_level: int,
    high_level: int,
    low_level: int,
    names: Optional[Iterable[str]] = None,
) -> ScatterResult:
    """Project cached runs into one speedup-vs-metric figure.

    Workloads whose runs are incomplete (a partially-failed sweep left
    holes at one of the requested levels) or whose metric cannot be
    evaluated are *skipped and reported* — listed in
    :attr:`ScatterResult.skipped` and counted in the
    ``runner.scatter_skipped`` obs counter — rather than aborting the
    figure with a bare ``KeyError``.  Asking for a name the catalog
    never contained is still a programming error and raises.
    """
    if high_level <= low_level:
        raise ValueError(f"high_level {high_level} must exceed low_level {low_level}")
    tracer = get_tracer()
    points: List[ScatterPoint] = []
    skipped: List[str] = []
    if names is not None:
        selected = list(names)
    else:
        # A workload every one of whose runs failed is absent from
        # ``runs`` entirely; surface it in the skip report rather than
        # letting it vanish from the figure silently.
        all_failed = {
            key.split("@SMT", 1)[0] for key in catalog_runs.failures
        } - set(catalog_runs.runs)
        selected = list(catalog_runs.runs) + sorted(all_failed)
    for name in selected:
        try:
            runs = catalog_runs.runs[name]
        except KeyError:
            if names is not None and not any(
                key.startswith(f"{name}@SMT") for key in catalog_runs.failures
            ):
                raise KeyError(f"workload {name!r} not in catalog runs") from None
            skipped.append(name)
            tracer.add("runner.scatter_skipped")
            continue
        try:
            metric = smtsm_from_run(runs[measure_level])
            point = ScatterPoint(
                name=name,
                metric=metric.value,
                speedup=speedup(runs[high_level], runs[low_level]),
                metric_detail=metric,
            )
        except (KeyError, ValueError):
            skipped.append(name)
            tracer.add("runner.scatter_skipped")
            continue
        points.append(point)
    if not points:
        raise ValueError(
            f"no complete workloads to plot (skipped: {', '.join(skipped) or 'none'})"
        )
    return ScatterResult(
        title=title,
        system_name=f"{catalog_runs.system.arch.name} x{catalog_runs.system.n_chips}",
        measure_level=measure_level,
        high_level=high_level,
        low_level=low_level,
        points=tuple(points),
        skipped=tuple(skipped),
    )
