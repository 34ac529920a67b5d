"""The ``serve`` workload: open-loop predict traffic against a child server.

The program under test is ``python -m repro serve`` in its default
configuration (one worker, micro-batching on, run cache on) with the
run cache pointed at a fresh directory.  One asyncio generator drives
it over two connections through three phases: *light* and *heavy*
open-loop rates, then a *saturated* closed loop.  The traced run
starts the server through ``perfbench/serve_launcher.py`` instead,
which wraps the layers inside the server process and writes its spans
when the server exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchlib import layers, loadgen, stats
from benchlib.inproc import Check
from benchlib.record import proc_peak_rss_mb
from benchlib.trace import read_spans

CONNECTIONS = 2
LIGHT_RPS = 50.0
HEAVY_RPS = 300.0
SATURATED_CALLERS = 32
#: Shares of the run length per phase.  The light phase is the longest
#: because its p99 needs >= 1000 requests at 50 req/s; saturated
#: throughput is the noisiest figure, so it gets most of the rest.
PHASE_SHARES = {"light": 0.70, "heavy": 0.06, "saturated": 0.24}
#: The phases run in this many rounds (light, heavy, saturated, light,
#: ...), so each phase samples the whole run: a 2-core host's speed
#: wanders by tens of percent over seconds.
ROUNDS = 6
#: The gated light-phase tail stops at p90.  With a quarter of the
#: requests fresh, p95 and p99 (both in the record) sit in the sparse
#: upper end of the fresh mode: under a fifth of the CPU taken by other
#: load the p95 grew 1.39x and the p50 1.24x, and ten runs that straddled
#: the host's slow spells spread the p95 by 41%.  p90 sits in the body of
#: the fresh mode and grew 1.25x, like the p50.
GATED_LADDER = stats.ladder_from(90.0)
#: How long after a phase ends an answer may still arrive.
GRACE_S = 10.0
#: The simulation seed of ``repro serve`` (its ``--seed`` default).
SERVER_SEED = 11
SETUP_SPAWNS = 5
ORACLE_SAMPLES = 24
READY_TIMEOUT_S = 60.0

ARCHS = ("p7", "nehalem")
#: Share of requests drawn from the hot set.  Hot answers (run-cache
#: reads) and fresh ones (a solve plus a cache write) form two latency
#: modes; at a 50/50 mix the median falls in the gap between them and
#: jumps between runs.  Three quarters hot puts the median inside the hot
#: mode and the tail inside the fresh one, and keeps the light phase's
#: executor below ~10% busy, where a slower host does not yet multiply
#: queueing delay (at a quarter hot, the light p95 spread 23% over ten
#: seeds).
HOT_SHARE = 0.75
#: A small hot set per batch key, requested at the server seed: after
#: the warm-up these are run-cache reads.
HOT = {
    "p7": ("EP", "SSCA2", "Blackscholes", "Swim"),
    "nehalem": ("EP", "SSCA2", "x264", "Streamcluster"),
}


class Mix:
    """Seeded request stream: hot-set repeats and fresh seeds."""

    def __init__(self, seed: int):
        from repro.workloads.catalog import NEHALEM_SET, POWER7_SET

        self.rng = random.Random(seed)
        self.fresh = {"p7": POWER7_SET, "nehalem": NEHALEM_SET}

    def __call__(self, i: int) -> loadgen.Request:
        arch = self.rng.choice(ARCHS)
        if self.rng.random() < HOT_SHARE:
            return ("predict", {"workload": self.rng.choice(HOT[arch]),
                                "arch": arch})
        return ("predict", {"workload": self.rng.choice(self.fresh[arch]),
                            "arch": arch,
                            "seed": self.rng.randrange(1000, 2 ** 31)})


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    cache_dir: str
    log: Any
    stdout: str = ""


def _env(root: Path, cache_dir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_RUNCACHE_DIR"] = cache_dir
    return env


def spawn(root: Path, out_dir: Path, spans_path: Optional[Path]) -> Server:
    """Start a server and wait for its ``serving on host:port`` line."""
    cache_dir = tempfile.mkdtemp(prefix="runcache-", dir=out_dir)
    if spans_path is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve().parents[1]
                                   / "serve_launcher.py"),
               "--spans", str(spans_path), "serve"]
    log = open(out_dir / "server.log", "ab")
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root, cache_dir),
                            stdout=subprocess.PIPE, stderr=log)
    server = Server(proc, "", 0, cache_dir, log)
    deadline = time.monotonic() + READY_TIMEOUT_S
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, left))
        chunk = os.read(proc.stdout.fileno(), 1) if ready else b""
        if not chunk:
            stop(server)
            raise RuntimeError(f"server did not start: {line!r}")
        line += chunk
    text = line.decode()
    if not text.startswith("serving on "):
        stop(server)
        raise RuntimeError(f"unexpected server banner: {text!r}")
    server.host, port = text.split()[2].rsplit(":", 1)
    server.port = int(port)
    return server


def stop(server: Server) -> None:
    """SIGINT (graceful drain), then wait; kill if it will not exit."""
    proc = server.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    server.stdout = out.decode(errors="replace")
    server.log.close()
    shutil.rmtree(server.cache_dir, ignore_errors=True)


async def _first_ok(server: Server, warm: bool) -> None:
    """One ok answer per batch key (threshold fits), optionally the hot set."""
    client = await loadgen.NdjsonClient().connect(server.host, server.port, 1)
    try:
        for arch in ARCHS:
            names = HOT[arch] if warm else HOT[arch][:1]
            for name in names:
                answer = await client.call(0, "predict", {"workload": name,
                                                          "arch": arch}, 120)
                if not answer.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {answer}")
    finally:
        await client.close()


def start_ready(root: Path, out_dir: Path,
                spans_path: Optional[Path] = None) -> Tuple[Server, float]:
    """Spawn a server; seconds from spawn to the first ok answer on every
    batch key.  The hot set is warmed afterwards, outside that time."""
    start = time.perf_counter()
    server = spawn(root, out_dir, spans_path)
    try:
        asyncio.run(_first_ok(server, warm=False))
        elapsed = time.perf_counter() - start
        asyncio.run(_first_ok(server, warm=True))
    except BaseException:
        stop(server)
        raise
    return server, elapsed


def phase_seconds(seconds: float) -> Dict[str, float]:
    """Total seconds of each phase (split evenly over the rounds)."""
    return {name: share * seconds for name, share in PHASE_SHARES.items()}


async def _drive(server: Server, mix: Mix, durations: Dict[str, float],
                 phases: Tuple[str, ...]) -> Dict[str, List[loadgen.PhaseResult]]:
    client = await loadgen.NdjsonClient().connect(
        server.host, server.port, CONNECTIONS)
    rounds: Dict[str, List[loadgen.PhaseResult]] = {name: [] for name in phases}
    try:
        for _ in range(ROUNDS):
            for name in phases:
                seconds = durations[name] / ROUNDS
                if name == "saturated":
                    result = await loadgen.closed_loop(
                        client, name, SATURATED_CALLERS, seconds, mix,
                        CONNECTIONS, GRACE_S)
                else:
                    rate = LIGHT_RPS if name == "light" else HEAVY_RPS
                    result = await loadgen.open_loop(
                        client, name, rate, seconds, mix, CONNECTIONS, GRACE_S)
                rounds[name].append(result)
    finally:
        await client.close()
    return rounds


def _round_rps(rounds: List[loadgen.PhaseResult]) -> List[float]:
    """Saturated answers per second of each round.  The benchmark reports
    their median, so a slow spell of the host inside a run does not move
    it."""
    return [loadgen.completed_in(r) / r.seconds for r in rounds]


def _tail(phase: loadgen.PhaseResult,
          ladder=stats.TAIL_LADDER) -> Dict[str, Any]:
    """p50 and tail latency of an open-loop phase, in ms.

    A failed request is an infinite latency; it is reported at the
    phase's time-out, the longest the client waited for it.
    """
    longest = max(end - start for start, end in phase.windows)
    summary = stats.summarize_ms(
        phase.latencies(), cap_ms=1000.0 * (longest + GRACE_S), ladder=ladder)
    summary["failed"] = phase.failed
    return summary


def _oracle_checks(phases: Dict[str, loadgen.PhaseResult],
                   rng: random.Random) -> List[Check]:
    """Sampled ok answers against an untimed in-process ``predict_many``."""
    from repro.api import PredictQuery, Session

    answered = [o for p in phases.values() for o in p.outcomes if o.ok]
    hot = list({json.dumps(o.request, sort_keys=True): o for o in answered
                if "seed" not in o.request[1]}.values())
    fresh = [o for o in answered if "seed" in o.request[1]]
    sample = (rng.sample(hot, min(ORACLE_SAMPLES // 2, len(hot)))
              + rng.sample(fresh, min(ORACLE_SAMPLES // 2, len(fresh))))
    sessions: Dict[str, Any] = {}
    checks = []
    for outcome in sample:
        params = outcome.request[1]
        arch = params["arch"]
        if arch not in sessions:
            sessions[arch] = Session(arch, seed=SERVER_SEED, use_cache=False)
        local = sessions[arch].predict_many([PredictQuery(
            workload=params["workload"], seed=params.get("seed"))])[0]
        expected = json.loads(json.dumps(local.payload()))
        ok = outcome.response["result"] == expected
        checks.append(Check(
            f"predict {arch} {params['workload']} seed={params.get('seed')}",
            ok, "" if ok else f"{outcome.response['result']} != {expected}"))
    return checks


def _settlement_check(server: Server) -> Check:
    line = next((l for l in server.stdout.splitlines()
                 if l.startswith("stopped ")), "")
    fields = dict(part.split("=", 1) for part in line.split()[1:])
    ok = bool(fields) and fields.get("admitted") == fields.get("settled")
    return Check("server admitted == settled", ok, line or "no stop line")


def _server_share(spans: List[list], name: str,
                  windows: List[Tuple[float, float]]) -> List[float]:
    """Per-request seconds of one server span inside the client's windows."""
    out = []
    for span in spans:
        if span[0] == name and any(s <= span[1] <= e for s, e in windows):
            size = (span[4] or {}).get("size", 1)
            out.append((span[2] - span[1]) / size)
    return out


@dataclass
class ServeRun:
    metrics: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def run(root: Path, out_dir: Path, seed: int, seconds: float, trace: bool,
        spans_path: Path) -> ServeRun:
    out = ServeRun()
    durations = phase_seconds(seconds)
    mix = Mix(seed)
    if not trace:
        setups = []
        server = None
        for _ in range(SETUP_SPAWNS):
            if server is not None:
                stop(server)
            server, elapsed = start_ready(root, out_dir)
            setups.append(elapsed)
        try:
            rounds = asyncio.run(_drive(server, mix, durations, tuple(PHASE_SHARES)))
            rss = proc_peak_rss_mb(server.proc.pid)
        finally:
            stop(server)
        out.metrics["setup_s"] = statistics.median(setups)
        out.metrics["peak_rss_mb"] = rss
        out.details["setup_samples_s"] = setups
    else:
        plain, _ = start_ready(root, out_dir)
        try:
            base = asyncio.run(_drive(plain, mix, durations, ("saturated",)))
        finally:
            stop(plain)
        server, _ = start_ready(root, out_dir, spans_path)
        try:
            rounds = asyncio.run(_drive(server, mix, durations, tuple(PHASE_SHARES)))
        finally:
            stop(server)
        out.checks.append(_settlement_check(plain))
        base_sat = loadgen.merge(base["saturated"])
        out.attempted += base_sat.attempted
        out.failed += base_sat.failed

    phases = {name: loadgen.merge(results) for name, results in rounds.items()}
    tails = {name: _tail(phases[name]) for name in ("light", "heavy")}
    sat = phases["saturated"]
    round_rps = _round_rps(rounds["saturated"])
    rps = statistics.median(round_rps)
    late = loadgen.lateness_ms([phases["light"], phases["heavy"]])
    out.details["phases"] = {
        **tails,
        "saturated": {"samples": sat.attempted, "failed": sat.failed,
                      "rps": rps, "seconds": sat.seconds,
                      "round_rps": round_rps},
        "generator_late_p50_ms": stats.percentile(late, 50.0),
        "generator_late_p99_ms": stats.percentile(
            late, stats.tail_percentile(len(late)) or 50.0),
        "phase_seconds": durations,
    }
    out.details["results"] = {
        "serve.light_p50_ms": tails["light"]["p50_ms"],
        "serve.light_tail_ms": tails["light"]["tail_ms"],
        "serve.light_p95_ms": _tail(phases["light"], (95.0,))["tail_ms"],
        "serve.heavy_p50_ms": tails["heavy"]["p50_ms"],
        "serve.heavy_tail_ms": tails["heavy"]["tail_ms"],
        "serve.saturated_rps": rps,
    }
    if not trace:
        gated = _tail(phases["light"], GATED_LADDER)
        out.details["phases"]["light_gated"] = gated
        out.metrics.update({
            "throughput_per_s": rps,
            "latency_p50_ms": gated["p50_ms"],
            "latency_tail_ms": gated["tail_ms"],
        })
    else:
        spans = read_spans(spans_path)
        out.metrics.update(layers.layer_metrics(spans))
        served_ms = 1000.0 * sum(
            statistics.median(_server_share(spans, name, phases["light"].windows)
                         or [0.0])
            for name in ("serve.protocol.parse", "serve.handler",
                         "serve.protocol.encode"))
        unattributed = tails["light"]["p50_ms"] - served_ms
        out.metrics["serve.unattributed_ms"] = unattributed
        out.metrics["serve.generator_late_ms"] = \
            out.details["phases"]["generator_late_p99_ms"]
        out.metrics["trace_overhead_share"] = statistics.median(
            _round_rps(base["saturated"])) / rps - 1.0
        light_p50 = tails["light"]["p50_ms"]
        out.metrics["trace.attributed_share"] = served_ms / light_p50
        out.details["spans"] = len(spans)
        out.details["light_served_ms"] = served_ms
        out.checks.append(Check(
            "parse + handler + encode + unattributed = light p50",
            unattributed >= 0.0,
            f"served {served_ms:.3f} ms of p50 {light_p50:.3f} ms"))

    out.checks.append(_settlement_check(server))
    out.checks.extend(_oracle_checks(phases, random.Random(seed)))
    for phase in phases.values():
        out.attempted += phase.attempted
        out.failed += phase.failed
    return out
