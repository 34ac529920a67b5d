"""The in-process workloads, ``sweep`` and ``fleet``, and the loop that runs them.

Both run in the benchmark's own process.  A run is a sequence of
*units* (one pass over every architecture, or one fleet simulation),
each on its own seed drawn from the workload seed, repeated until the
run length is used up.

Host-time figures come from the slowest fifth of a run's units.  The
2-core virtual host the benchmark was built on switches between a slow
and a fast speed regime (sweep passes ran at about 2.5k or 4.5k runs/s,
fleet simulations at about 7.2k or 10-12k jobs/s), in spells from under
a second to minutes, so the share of slow time in a 30-s run ranged
from none to all of it.  Over sets of ten runs or 30-s windows the
median of the slowest fifth spread by 5-9% of its median (31% in one
set whose runs mostly held no slow spell at all), the median of all
units by 7-43%, and the fastest unit by 9-20%.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from benchlib import layers, stats
from benchlib.record import self_peak_rss_mb
from benchlib.trace import Instrumentation, SpanRecorder, write_spans

#: Relative tolerance of the columnar-vs-scalar oracle check.
ORACLE_RTOL = 1e-9

#: Share of a run's units, slowest first, that host-time figures use.
SLOW_SHARE = 0.2


@dataclass
class Unit:
    seed: int
    elapsed: float
    ops: int
    failed: int
    result: Any = None
    #: Seconds of each user-visible operation inside the unit.
    latencies: List[float] = field(default_factory=list)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def close(a: float, b: float, rtol: float = ORACLE_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def rate(unit: Unit) -> float:
    return unit.ops / unit.elapsed


def slowest(units: Sequence[Unit], share: float = SLOW_SHARE) -> List[Unit]:
    """The ``share`` of units with the lowest rate (at least one)."""
    ranked = sorted(units, key=rate)
    return ranked[:max(1, math.ceil(share * len(ranked)))]


class Sweep:
    """``run_catalog(arch, strategy="columnar", use_cache=False)`` over
    every registered architecture plus the two-chip ``p7x2``."""

    name = "sweep"
    MIN_UNITS = 1
    #: The slowest fifth of a run holds 160-350 calls, depending on host
    #: speed: enough for a p90 in every run, for a p95 only in the faster
    #: ones.
    TAIL_LADDER = stats.ladder_from(90.0)
    #: Only the first pass's runs are kept (for the oracle check); keeping
    #: every pass would grow the heap and slow the collector.
    KEEP_RESULTS = 1
    #: A traced run measures at most this many units (None: no cap).
    TRACED_UNITS = None
    #: Runs of the first pass checked against the scalar oracle.
    ORACLE_SAMPLES = 8

    def __init__(self):
        from repro.arch import list_architectures
        from repro.experiments import runner
        from repro.experiments.systems import DEFAULT_SEED

        self.runner = runner
        self.canonical_seed = DEFAULT_SEED
        self.systems = list(list_architectures()) + ["p7x2"]

    def setup(self) -> None:
        """Memo fill: one pass at the canonical seed."""
        self.unit(self.canonical_seed)

    def unit(self, seed: int) -> Unit:
        catalogs, calls = [], []
        for system in self.systems:
            start = time.perf_counter()
            catalogs.append(self.runner.run_catalog(system, strategy="columnar",
                                             use_cache=False, seed=seed))
            calls.append(time.perf_counter() - start)
        runs = sum(len(by_level) for c in catalogs for by_level in c.runs.values())
        failed = sum(len(c.failures) for c in catalogs)
        return Unit(seed, sum(calls), runs + failed, failed, catalogs, calls)

    def latencies(self, units: Sequence[Unit]) -> List[float]:
        """Host seconds of every ``run_catalog`` call of the slow passes."""
        return [t for u in slowest(units) for t in u.latencies]

    def results(self, units: Sequence[Unit]) -> Dict[str, float]:
        return {
            "sweep.runs_per_s": statistics.median([rate(u) for u in units]),
            "sweep.success_rate": self.success_rate(),
        }

    def success_rate(self) -> float:
        """Pooled predicted-vs-best success of Fig. 6 (POWER7) and
        Fig. 10 (Nehalem) at the canonical seed."""
        from repro.experiments import fig06_smt4v1_at4, fig10_nehalem

        correct = total = 0
        for figure, system in ((fig06_smt4v1_at4, "p7"),
                               (fig10_nehalem, "nehalem")):
            runs = self.runner.run_catalog(system, strategy="columnar",
                                    use_cache=False, seed=self.canonical_seed)
            summary = figure.run(runs=runs).success()
            correct += summary.n_correct
            total += summary.n_total
        return correct / total

    def checks(self, units: Sequence[Unit], rng: random.Random) -> List[Check]:
        """A seeded sample of the first pass against scalar ``simulate_run``."""
        from repro.core.metric import smtsm_from_run
        from repro.workloads.catalog import all_workloads

        first = units[0]
        picks = []
        for catalog in first.result:
            for name, by_level in catalog.runs.items():
                for level, run in by_level.items():
                    picks.append((catalog, name, level, run))
        out = []
        for catalog, name, level, run in rng.sample(
                picks, min(self.ORACLE_SAMPLES, len(picks))):
            oracle = self.runner.run_catalog(
                catalog.system, {name: all_workloads()[name]}, (level,),
                strategy="serial", use_cache=False, seed=first.seed,
            ).runs[name][level]
            ok = (close(run.wall_time_s, oracle.wall_time_s)
                  and close(smtsm_from_run(run).value,
                            smtsm_from_run(oracle).value))
            out.append(Check(
                f"oracle {catalog.system.arch.name}x{catalog.system.n_chips} "
                f"{name}@SMT{level}", ok,
                "" if ok else f"wall {run.wall_time_s!r} vs {oracle.wall_time_s!r}"))
        return out


class Fleet:
    """``simulate_fleet`` with the smtsm policy at severity 0.2 on a
    64-chip ``power7:2,nehalem:1,armsmt:1`` fleet, 12k jobs per unit."""

    name = "fleet"
    TAIL_LADDER = stats.TAIL_LADDER
    CONFIG = dict(chips=64, jobs=12_000, arch_mix="power7:2,nehalem:1,armsmt:1",
                  policy="smtsm", severity=0.2)
    #: Simulated outputs are medians over the first units: a fixed count,
    #: so they depend on the workload seed alone, not on host speed.
    SIM_UNITS = 12
    MIN_UNITS = SIM_UNITS
    KEEP_RESULTS = None
    #: A simulation records ~60k spans; the cap keeps the span list small.
    TRACED_UNITS = 3

    def __init__(self):
        from repro.fleet import FleetConfig, FleetScheduler, simulate_fleet

        self.config = FleetConfig
        self.scheduler = FleetScheduler
        self.simulate = simulate_fleet

    def setup(self) -> None:
        """Perf-model lowering and threshold fits (memoized by the program)."""
        self.scheduler(self.config(**self.CONFIG, seed=0))

    def unit(self, seed: int) -> Unit:
        config = self.config(**self.CONFIG, seed=seed)
        start = time.perf_counter()
        try:
            scheduler = self.scheduler(config)
            result = scheduler.run()
        except RuntimeError:        # settlement broken
            return Unit(seed, time.perf_counter() - start, config.jobs,
                        config.jobs)
        elapsed = time.perf_counter() - start
        failed = 0 if result.settled else result.jobs_submitted
        return Unit(seed, elapsed, result.jobs_submitted, failed, result,
                    scheduler.latencies)

    def latencies(self, units: Sequence[Unit]) -> List[float]:
        """Simulated latency of every completed job of the first units."""
        return [t for u in units[:self.SIM_UNITS] for t in u.latencies]

    def results(self, units: Sequence[Unit]) -> Dict[str, float]:
        ok = [u for u in units if u.failed == 0]
        sims = [u.result for u in ok[:self.SIM_UNITS]]
        return {
            "fleet.jobs_per_s": statistics.median([rate(u) for u in ok]),
            "fleet.sim_throughput_jobs_s": statistics.median(
                [r.throughput_jobs_s for r in sims]),
            "fleet.sim_p95_s": statistics.median([r.latency_p95_s for r in sims]),
        }

    def checks(self, units: Sequence[Unit], rng: random.Random) -> List[Check]:
        """Every simulation settled; the first one replays bit-identically."""
        unsettled = sum(1 for u in units
                        if u.result is None or not u.result.settled)
        out = [Check("every simulation settled", unsettled == 0,
                     f"{unsettled} of {len(units)} unsettled")]
        first = units[0]
        if first.result is not None:
            again = self.simulate(self.config(**self.CONFIG, seed=first.seed))
            same = again.payload() == first.result.payload()
            out.append(Check(f"determinism seed={first.seed}", same,
                             "" if same else "payloads differ"))
        return out


WORKLOADS = {"sweep": Sweep, "fleet": Fleet}

@dataclass
class InProcessRun:
    units: List[Unit] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)


def _unit_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def _loop(workload, seeds, seconds: float, min_units: int = 1,
          max_units: Optional[int] = None) -> List[Unit]:
    units: List[Unit] = []
    start = time.perf_counter()
    for seed in seeds:
        unit = workload.unit(seed)
        if workload.KEEP_RESULTS is not None and len(units) >= workload.KEEP_RESULTS:
            unit.result = None
        units.append(unit)
        if max_units is not None and len(units) >= max_units:
            break
        if len(units) >= min_units and time.perf_counter() - start >= seconds:
            break
    return units


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_s: Optional[List[float]], spans_path) -> InProcessRun:
    """One benchmark run of an in-process workload.

    Untraced: set up (untimed; ``setup_s`` holds the child-process
    set-up probes), then measure units for ``seconds``.  Traced: set up
    under tracing, measure units untraced for half the run, then the
    same units again under tracing; the two walls give the overhead.
    """
    workload = WORKLOADS[name]()
    out = InProcessRun()
    if not trace:
        workload.setup()
        out.units = _loop(workload, _unit_seeds(seed), seconds,
                          workload.MIN_UNITS)
        ok = [u for u in out.units if u.failed == 0]
        latency = stats.summarize_ms(workload.latencies(ok),
                                     ladder=workload.TAIL_LADDER)
        out.metrics.update({
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": self_peak_rss_mb(),
            "throughput_per_s": statistics.median([rate(u) for u in slowest(ok)]),
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
        })
        out.details.update(setup_samples_s=setup_s, latency=latency,
                           results=workload.results(ok),
                           unit_rates=[rate(u) for u in out.units])
    else:
        recorder = SpanRecorder()
        shims = Instrumentation(recorder)
        with shims.install(layers.TARGETS), recorder.span("bench.setup"):
            workload.setup()
        plain = _loop(workload, _unit_seeds(seed), seconds / 2,
                      max_units=workload.TRACED_UNITS)
        with shims.install(layers.TARGETS), recorder.span("bench.measure"):
            traced = _loop(workload, _unit_seeds(seed), 0, len(plain),
                           len(plain))
        out.units = plain + traced
        spans = recorder.spans
        out.metrics.update(layers.layer_metrics(spans))
        out.metrics["trace_overhead_share"] = (
            sum(u.elapsed for u in traced) / sum(u.elapsed for u in plain) - 1.0)
        share = layers.attributed_share(spans, ("bench.setup", "bench.measure"))
        out.metrics["trace.attributed_share"] = share
        out.metrics["fleet.smt_switches"] = sum(
            u.result.smt_switches for u in traced
            if name == "fleet" and u.result is not None)
        out.details.update(spans=write_spans(spans_path, spans),
                           traced_units=len(traced))
        out.checks.append(Check(
            "layer self times account for the traced wall",
            0.9 <= share <= 1.0 + 1e-9, f"attributed share {share:.4f}"))
    out.checks.extend(workload.checks(out.units, random.Random(seed)))
    out.details["units"] = len(out.units)
    return out
