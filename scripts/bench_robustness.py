"""Record the robustness acceptance evidence (signal + serving planes).

Phase 1 — **signal robustness**: the full noise-ablation sweep
(``repro.experiments.noise_ablation``) for both architectures: per-
severity decision accuracy for the naive single-sample controller vs
the hardened EWMA+hysteresis controller, with the pinned claim on
POWER7 at the documented severity:

* the naive controller mispredicts at least 20% of its readings;
* the hardened controller's accuracy stays within 5 points of its own
  zero-noise accuracy.

Phase 2 — **serving robustness**: the serving-chaos sweep.  A live
2-worker server is driven at chaos severities 0.0/0.2/0.4
(:func:`repro.faults.chaos_profile`: hangs, crashes, slow jobs,
response corruption) by two clients: the *naive* baseline (single-shot
:class:`ServeClient` against a server with dispatch retries disabled —
no supervision anywhere) and the *resilient* stack (the pool's hang
kill + crash respawn, server retries and :class:`ResilientClient`).  The pinned claim: at severity
0.4 the resilient stack keeps availability >= 0.95 while the naive
baseline is recorded (and documented) worse; the settlement invariant
``serve.admitted == serve.settled`` holds at every severity; and no
worker process outlives its server.

Writes ``BENCH_robustness.json`` at the repo root;
``tests/experiments/test_noise_ablation.py`` and
``tests/serve/test_chaos.py`` assert the same claims live — this
artifact is the committed record of the numbers.

    PYTHONPATH=src python scripts/bench_robustness.py
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import noise_ablation

NAIVE_MISPREDICT_FLOOR = 0.20
HARDENED_DROP_CEILING = 0.05

SERVING_SEVERITIES = (0.0, 0.2, 0.4)
SERVING_REQUESTS = 40
SERVING_AVAILABILITY_FLOOR = 0.95
SERVING_WORKLOADS = ("EP", "CG", "IS", "BT", "LU_MPI", "FT_MPI")


def _drive_naive(host, port, n):
    """Single-shot client, one attempt per request, reconnect on EOF."""
    from repro.serve import ServeClient, ServeError

    answered = 0
    client = ServeClient(host, port, timeout_s=60.0)
    try:
        for i in range(n):
            workload = SERVING_WORKLOADS[i % len(SERVING_WORKLOADS)]
            try:
                result = client.predict(workload, seed=i)
                if result.get("workload") == workload:
                    answered += 1
            except ServeError:
                pass
            except (ConnectionError, OSError):
                try:
                    client.close()
                except OSError:
                    pass
                client = ServeClient(host, port, timeout_s=60.0)
    finally:
        client.close()
    return answered


def _drive_resilient(host, port, n):
    """The survival kit: retries + breaker, same traffic."""
    from repro.serve import (
        CircuitBreaker,
        ClientRetryPolicy,
        ResilientClient,
    )

    answered = 0
    client = ResilientClient(
        host, port,
        policy=ClientRetryPolicy(
            max_attempts=8, base_backoff_ms=10.0, max_backoff_ms=200.0,
        ),
        breaker=CircuitBreaker(failure_threshold=50),
        timeout_s=60.0, seed=1,
    )
    try:
        for i in range(n):
            workload = SERVING_WORKLOADS[i % len(SERVING_WORKLOADS)]
            try:
                result = client.predict(workload, seed=i)
                if result.get("workload") == workload:
                    answered += 1
            except Exception:
                pass
    finally:
        client.close()
    return answered


def _serving_run(severity, mode, seed):
    """One (severity, client-mode) cell: availability + invariants."""
    import multiprocessing

    from repro.faults import chaos_profile
    from repro.faults.retry import RetryPolicy
    from repro.obs import configure
    from repro.serve import BackgroundServer, ServeConfig

    tracer = configure(enabled=True)
    tracer.reset()
    chaos = chaos_profile(severity)
    kwargs = dict(
        workers=2, max_batch=8, max_linger_ms=10.0,
        hang_timeout_s=0.5,
        # The sweep measures availability, not quarantine policy: a big
        # budget keeps a crashy run from benching half the 2-worker
        # fleet (quarantine has its own tests).
        restart_budget=1000,
        hot_cache_size=0,               # every request must reach a worker
        chaos=chaos if chaos.any_chaos else None,
        session={"seed": seed, "use_cache": False, "threshold": 0.07},
    )
    if mode == "naive":
        # The documented-worse baseline: no dispatch retries either —
        # every injected fault that reaches a job reaches the client.
        kwargs["retry_policy"] = RetryPolicy(
            task_timeout_s=300.0, max_retries=0, backoff_s=0.01
        )
    bg = BackgroundServer(ServeConfig(**kwargs)).start()
    try:
        if mode == "naive":
            answered = _drive_naive(bg.host, bg.port, SERVING_REQUESTS)
        else:
            answered = _drive_resilient(bg.host, bg.port, SERVING_REQUESTS)
    finally:
        bg.stop()
    counters = tracer.counters()
    admitted = int(counters.get("serve.admitted", 0))
    settled = int(counters.get("serve.settled", 0))
    if admitted != settled:
        raise RuntimeError(
            f"settlement broken at severity {severity} ({mode}): "
            f"admitted={admitted} settled={settled}"
        )
    leftover = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-serve")
    ]
    if leftover:
        raise RuntimeError(
            f"worker processes outlived the server at severity "
            f"{severity} ({mode}): {leftover}"
        )
    configure(enabled=False)
    tracer.reset()
    return {
        "availability": answered / SERVING_REQUESTS,
        "answered": answered,
        "admitted": admitted,
        "settled": settled,
        "restarts": counters.get("serve.worker.restarts", 0.0),
        "hangs": counters.get("serve.watchdog.hangs", 0.0),
        "corrupt_responses": counters.get(
            "serve.worker.corrupt_responses", 0.0),
        "client_retries": counters.get("client.retries", 0.0),
    }


def serving_chaos_sweep(seed):
    """Phase 2: naive vs resilient availability across chaos severities."""
    rows = []
    for severity in SERVING_SEVERITIES:
        start = time.perf_counter()
        naive = _serving_run(severity, "naive", seed)
        resilient = _serving_run(severity, "resilient", seed)
        elapsed = time.perf_counter() - start
        rows.append({
            "severity": severity,
            "naive": naive,
            "resilient": resilient,
        })
        print(f"severity {severity:.1f}: "
              f"naive {100 * naive['availability']:.1f}% vs "
              f"resilient {100 * resilient['availability']:.1f}% "
              f"(restarts {naive['restarts']:g}/{resilient['restarts']:g}, "
              f"hangs {naive['hangs']:g}/{resilient['hangs']:g}; "
              f"{elapsed:.1f}s)")
    pinned = rows[-1]
    assert pinned["severity"] == SERVING_SEVERITIES[-1]
    acceptance = {
        "severity": pinned["severity"],
        "requests_per_run": SERVING_REQUESTS,
        "resilient_availability": pinned["resilient"]["availability"],
        "availability_floor": SERVING_AVAILABILITY_FLOOR,
        "resilient_ok": (
            pinned["resilient"]["availability"] >= SERVING_AVAILABILITY_FLOOR
        ),
        "naive_availability": pinned["naive"]["availability"],
        "naive_documented_worse": (
            pinned["naive"]["availability"]
            <= pinned["resilient"]["availability"]
        ),
        # The hard invariants raised on violation above, so reaching
        # this record means they held at every severity.
        "settlement_ok": True,
        "no_leaked_processes": True,
    }
    print(f"serving acceptance (severity {acceptance['severity']}): "
          f"resilient {100 * acceptance['resilient_availability']:.1f}% "
          f"(floor {100 * SERVING_AVAILABILITY_FLOOR:.0f}%) -> "
          f"{'OK' if acceptance['resilient_ok'] else 'FAIL'}; "
          f"naive {100 * acceptance['naive_availability']:.1f}%")
    return {"severities": rows, "acceptance": acceptance}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--skip-serving", action="store_true",
                        help="record only the signal-robustness phase")
    parser.add_argument("--output", default=None,
                        help="output path (default: <repo>/BENCH_robustness.json)")
    args = parser.parse_args(argv)

    sweeps = {}
    for arch in ("p7", "nehalem"):
        start = time.perf_counter()
        result = noise_ablation.run(seed=args.seed, arch=arch)
        elapsed = time.perf_counter() - start
        print(f"=== {arch} ({elapsed:.1f}s) ===")
        print(result.render())
        print()
        sweeps[arch] = result

    pinned = sweeps["p7"]
    doc = pinned.cell(noise_ablation.DOCUMENTED_SEVERITY)
    zero = pinned.zero_noise()
    hardened_drop = zero.hardened_accuracy - doc.hardened_accuracy
    acceptance = {
        "arch": "p7",
        "documented_severity": noise_ablation.DOCUMENTED_SEVERITY,
        "naive_mispredict_rate": doc.naive_mispredict_rate,
        "naive_mispredict_floor": NAIVE_MISPREDICT_FLOOR,
        "naive_ok": doc.naive_mispredict_rate >= NAIVE_MISPREDICT_FLOOR,
        "hardened_accuracy": doc.hardened_accuracy,
        "hardened_zero_noise_accuracy": zero.hardened_accuracy,
        "hardened_drop": hardened_drop,
        "hardened_drop_ceiling": HARDENED_DROP_CEILING,
        "hardened_ok": hardened_drop <= HARDENED_DROP_CEILING,
    }
    print(f"acceptance (p7 @ severity {acceptance['documented_severity']}): "
          f"naive mispredicts {100 * doc.naive_mispredict_rate:.1f}% "
          f"(floor {100 * NAIVE_MISPREDICT_FLOOR:.0f}%) -> "
          f"{'OK' if acceptance['naive_ok'] else 'FAIL'}; "
          f"hardened drop {100 * hardened_drop:.1f}pt "
          f"(ceiling {100 * HARDENED_DROP_CEILING:.0f}pt) -> "
          f"{'OK' if acceptance['hardened_ok'] else 'FAIL'}")

    payload = {
        "seed": args.seed,
        "acceptance": acceptance,
        "sweeps": {arch: r.payload() for arch, r in sweeps.items()},
    }
    ok = acceptance["naive_ok"] and acceptance["hardened_ok"]

    if not args.skip_serving:
        print()
        print("=== serving chaos ===")
        serving = serving_chaos_sweep(args.seed)
        payload["serving"] = serving
        ok = ok and serving["acceptance"]["resilient_ok"]

    out = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "BENCH_robustness.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
