"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep|serve|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is a separate run that wraps the program's layers
with timing spans and reports per-layer self times and counts.  Both
check the program's outputs.  The second-to-last stdout line is the full
record (source identity, host, sample counts, checks); the last line is
the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits 1 when a check or an operation failed, 2 when the checkout holds
no program to measure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Every workload reports every end-to-end metric (``BENCHMARK.json``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
WORKLOADS = ("sweep", "serve", "fleet")
#: Cold-interpreter set-up samples per in-process run (median reported).
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0


def setup_probes(workload: str) -> list:
    """Seconds from spawning a fresh interpreter to workload-ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    from benchlib import layers, record

    trace = bool(args.trace)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    rec = record.stamp(ROOT, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=trace)
    ticks = record.cpu_ticks()
    if args.workload == "serve":
        from benchlib import serve

        result = serve.run(ROOT, OUT, args.seed, args.seconds, trace, spans_path)
        attempted, failed_ops = result.attempted, result.failed
    else:
        from benchlib import inproc

        probes = None if trace else setup_probes(args.workload)
        result = inproc.run(args.workload, args.seed, args.seconds, trace,
                            probes, spans_path)
        attempted = sum(u.ops for u in result.units)
        failed_ops = sum(u.failed for u in result.units)

    failed_checks = [c for c in result.checks if not c.ok]
    attempted += len(result.checks)
    failed = failed_ops + len(failed_checks)
    metrics = dict(result.metrics)
    if trace:
        units = layers.per_layer_units()
        # A layer the workload never reaches reports zero time and calls.
        for name in units:
            metrics.setdefault(name, 0.0)
    else:
        units = END_TO_END
        metrics["ok_share"] = 1.0 - failed / attempted
    rec.update(
        # Time the hypervisor gave to other guests: slow runs show it.
        host_steal_share=record.steal_share(ticks, record.cpu_ticks()),
        attempted=attempted, failed_ops=failed_ops,
        checks=[{"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in result.checks],
        details=result.details,
    )
    print(json.dumps(rec, default=str))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
