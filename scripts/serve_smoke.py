"""CI smoke test: boot ``python -m repro serve``, round-trip, drain.

Launches the real CLI entry point as a subprocess (ephemeral port),
parses the ``serving on host:port`` line, performs a ``ping`` and a
handful of ``predict`` round-trips through
:class:`repro.serve.ServeClient`, then sends SIGINT and requires a
graceful, zero-exit shutdown whose settlement line balances
(``admitted == settled`` — no admitted request may leak through a
drain).  ``--workers N`` runs the same smoke against the sharded
worker pool; CI exercises both the in-process and ``--workers 2``
shapes.

``--chaos SPEC`` arms the serving-chaos harness in the server under
test (e.g. ``--chaos worker_hang``) and drives it with the
:class:`repro.serve.ResilientClient` instead: the smoke then *gates*
on availability >= 0.95 across the predict storm and on the same
settlement balance — the CI-facing acceptance of the supervision
plane (hang kill + crash respawn + dispatch retries) in one
subprocess round-trip.

    PYTHONPATH=src python scripts/serve_smoke.py [--workers N] [--chaos SPEC]
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60.0

WORKLOADS = ("EP", "CG", "IS", "BT")
CHAOS_PREDICTS = 40          # storm size under --chaos
CHAOS_AVAILABILITY_FLOOR = 0.95


def drive_healthy(host, port):
    """The classic smoke: naive client, every request must succeed."""
    from repro.serve import ServeClient

    with ServeClient(host, port, timeout_s=TIMEOUT_S) as client:
        assert client.ping() is True
        for workload in WORKLOADS:
            prediction = client.predict(workload)
            assert prediction["workload"] == workload
            assert prediction["recommended_level"] in (
                prediction["high_level"], prediction["low_level"]
            )
        print(f"predict {WORKLOADS[-1]} -> "
              f"SMT{prediction['recommended_level']} "
              f"(SMTsm {prediction['smtsm']:.5f})")


def drive_chaos(host, port):
    """The chaos smoke: resilient client, gate availability >= 0.95."""
    from repro.serve import CircuitBreaker, ClientRetryPolicy, ResilientClient

    client = ResilientClient(
        host, port,
        policy=ClientRetryPolicy(
            max_attempts=8, base_backoff_ms=10.0, max_backoff_ms=200.0,
        ),
        breaker=CircuitBreaker(failure_threshold=50),
        timeout_s=TIMEOUT_S, seed=1,
    )
    answered = 0
    try:
        assert client.ping() is True
        for i in range(CHAOS_PREDICTS):
            workload = WORKLOADS[i % len(WORKLOADS)]
            try:
                prediction = client.predict(workload, seed=i)
            except Exception as exc:
                print(f"predict #{i} ({workload}) failed: {exc!r}")
                continue
            assert prediction["workload"] == workload
            answered += 1
    finally:
        client.close()
    availability = answered / CHAOS_PREDICTS
    print(f"chaos storm: {answered}/{CHAOS_PREDICTS} answered "
          f"(availability {availability:.3f})")
    if availability < CHAOS_AVAILABILITY_FLOOR:
        raise RuntimeError(
            f"availability {availability:.3f} below the "
            f"{CHAOS_AVAILABILITY_FLOOR} floor under chaos"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the server under test")
    parser.add_argument("--chaos", default="",
                        help="chaos spec to arm in the server under test "
                             "(preset, severity=S, or knob=value list); "
                             "switches the smoke to the resilient client "
                             "and gates availability >= 0.95")
    args = parser.parse_args(argv)
    if args.chaos and args.workers <= 1:
        parser.error("--chaos requires --workers > 1 (pool-mode only)")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "repro", "serve", "--no-cache",
           "--workers", str(args.workers)]
    if args.chaos:
        # A short hang timeout so the pool kills and respawns hung
        # workers well inside the smoke budget.
        cmd += ["--chaos", args.chaos, "--hang-timeout-s", "0.5"]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.match(r"serving on (\S+):(\d+)", line)
        if not match:
            raise RuntimeError(f"unexpected first line: {line!r}")
        host, port = match.group(1), int(match.group(2))
        print(f"server up at {host}:{port} (workers={args.workers}"
              + (f", chaos={args.chaos}" if args.chaos else "") + ")")

        if args.chaos:
            drive_chaos(host, port)
        else:
            drive_healthy(host, port)

        proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + TIMEOUT_S
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        output = proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(
                f"server exited {proc.returncode}; output: {output!r}"
            )
        settle = re.search(r"stopped admitted=(\d+) settled=(\d+)", output)
        if not settle:
            raise RuntimeError(f"no graceful-stop marker in: {output!r}")
        admitted, settled = int(settle.group(1)), int(settle.group(2))
        if admitted != settled:
            raise RuntimeError(
                f"drain leaked requests: admitted={admitted} "
                f"settled={settled}; output: {output!r}"
            )
        print(f"graceful shutdown ok (admitted={admitted} settled={settled})")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
