"""Benchmark the full catalog sweep across every execution strategy.

Times the complete POWER7 (28 workloads x SMT1/2/4) plus Nehalem
(22 workloads x SMT1/2) sweeps through four paths:

* ``scalar``    — the reference engine, one ``simulate_run`` per spec;
* ``columnar``  — ``run_catalog(strategy="columnar")``: the whole sweep
  lowered into one ``ScenarioTable`` per architecture, cache disabled;
* ``surrogate`` — ``run_catalog(strategy="surrogate")``: the calibrated
  fast path answers in-bound scenarios directly, the rest fall back to
  the table solver (models are fit/loaded untimed first — calibration
  is an offline step);
* ``cached``    — the columnar strategy against a freshly populated
  run cache (warm rerun; no simulation at all).

The warm phase is then re-run once with in-process telemetry enabled
(``repro.obs``) so the cache hit/miss counts are *measured*, not
inferred from timing: every run must be a ``runcache.hits`` increment
and none a miss, or the warm speedup is mislabelled.

Writes ``BENCH_sweep.json`` at the repo root with per-phase wall times,
per-scenario latencies (seconds / n_runs), the headline speedups
(each strategy vs scalar), and the telemetry-verified warm-cache hit
and surrogate hit counts.

    PYTHONPATH=src python scripts/bench_sweep.py [--repeats N]
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.runner import run_catalog
from repro.experiments.systems import nehalem_system, p7_system
from repro.obs import configure
from repro.sim import engine
from repro.sim.runcache import RunCache
from repro.workloads.catalog import (
    NEHALEM_SET,
    NEHALEM_SMT1_SET,
    all_workloads,
    power7_catalog,
)

SEED = 11


def sweeps():
    specs = all_workloads()
    nehalem_names = sorted(set(NEHALEM_SET) | set(NEHALEM_SMT1_SET))
    return (
        ("p7", p7_system(), power7_catalog(), (1, 2, 4)),
        ("nehalem", nehalem_system(),
         {n: specs[n] for n in nehalem_names}, (1, 2)),
    )


def reset_memo_state():
    # The serial-rate memo survives across calls; clear it so every
    # timed phase starts from the same cold state.  Surrogate models
    # are deliberately NOT cleared: calibration is an offline step.
    engine._SERIAL_RATE_CACHE.clear()


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        reset_memo_state()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_strategy(strategy):
    for _, system, catalog, levels in sweeps():
        run_catalog(system, catalog, levels, strategy=strategy, seed=SEED,
                    use_cache=False)


def run_with_cache(cache):
    for _, system, catalog, levels in sweeps():
        run_catalog(system, catalog, levels, seed=SEED, cache=cache)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per phase (min is reported)")
    parser.add_argument("--output", default=None,
                        help="output path (default: <repo>/BENCH_sweep.json)")
    args = parser.parse_args(argv)

    parts = [(name, len(catalog) * len(levels))
             for name, _, catalog, levels in sweeps()]
    n_runs = sum(count for _, count in parts)
    detail = " + ".join(f"{name} {count}" for name, count in parts)
    print(f"sweep size: {n_runs} runs ({detail}), repeats={args.repeats}")

    def report(label, seconds, baseline=None):
        rel = "" if baseline is None else f" ({baseline / seconds:.2f}x vs scalar)"
        print(f"{label:22}{seconds * 1e3:9.1f} ms "
              f"({seconds / n_runs * 1e6:7.1f} us/run){rel}")

    scalar_s = timed(lambda: run_strategy("serial"), args.repeats)
    report("scalar engine:", scalar_s)

    columnar_s = timed(lambda: run_strategy("columnar"), args.repeats)
    report("columnar table (cold):", columnar_s, scalar_s)

    # Fit/load the surrogate models untimed, then time steady-state use.
    run_strategy("surrogate")
    tracer = configure(enabled=True)
    tracer.reset()
    reset_memo_state()
    run_strategy("surrogate")
    surrogate_counters = tracer.counters()
    configure(enabled=False)
    tracer.reset()
    surrogate_s = timed(lambda: run_strategy("surrogate"), args.repeats)
    sur_hits = int(surrogate_counters.get("surrogate.hits", 0))
    sur_falls = int(surrogate_counters.get("surrogate.fallbacks", 0))
    report("surrogate (steady):", surrogate_s, scalar_s)
    print(f"{'':22}surrogate answered {sur_hits}/{sur_hits + sur_falls} "
          f"runs directly")

    with tempfile.TemporaryDirectory() as tmp:
        cache = RunCache(Path(tmp))
        reset_memo_state()
        start = time.perf_counter()
        run_with_cache(cache)
        populate_s = time.perf_counter() - start
        print(f"{'columnar + cache fill:':22}{populate_s * 1e3:9.1f} ms "
              f"({len(cache)} entries)")
        warm_s = timed(lambda: run_with_cache(cache), args.repeats)

        # Counted (untimed) warm pass: telemetry reports what the cache
        # actually did, instead of inferring it from the speedup.
        tracer = configure(enabled=True)
        tracer.reset()
        reset_memo_state()
        run_with_cache(cache)
        warm_counters = tracer.counters()
        configure(enabled=False)
        tracer.reset()

    hits = int(warm_counters.get("runcache.hits", 0))
    misses = int(warm_counters.get("runcache.misses", 0))
    report("warm cache rerun:", warm_s, scalar_s)
    print(f"{'':22}{hits}/{hits + misses} cache hits")
    if hits != n_runs or misses != 0:
        print(f"WARNING: warm pass expected {n_runs} hits / 0 misses, "
              f"telemetry saw {hits} hits / {misses} misses")

    seconds = {
        "scalar": scalar_s,
        "columnar_cold": columnar_s,
        "surrogate": surrogate_s,
        "columnar_cache_fill": populate_s,
        "warm_cache": warm_s,
    }
    payload = {
        "n_runs": n_runs,
        "repeats": args.repeats,
        "seconds": seconds,
        "per_run_seconds": {k: v / n_runs for k, v in seconds.items()},
        "speedup": {
            "columnar_vs_scalar": scalar_s / columnar_s,
            "surrogate_vs_scalar": scalar_s / surrogate_s,
            "warm_cache_vs_scalar": scalar_s / warm_s,
        },
        "surrogate_telemetry": {
            "hits": sur_hits,
            "fallbacks": sur_falls,
            "hit_rate": sur_hits / max(sur_hits + sur_falls, 1),
        },
        "warm_cache_telemetry": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / max(hits + misses, 1),
        },
    }
    out = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "BENCH_sweep.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
