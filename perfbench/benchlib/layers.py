"""The program's layers as the benchmark times them.

Each :class:`~benchlib.trace.Target` names one public callable of a
``repro`` module; a traced run wraps all of them (whether or not the
workload reaches them) and turns the spans into the per-layer metrics
of ``BENCHMARK.json``.  Which end-to-end metric each layer should move
is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from benchlib.trace import Target, self_times


def _drive(args, kwargs, state):
    table = args[0]
    run_idx = args[1] if len(args) > 1 else kwargs.get("run_idx")
    if run_idx is None:
        runs, sync_free = table.n_runs, int(state.sync_free.sum())
    else:
        runs, sync_free = len(run_idx), int(state.sync_free[run_idx].sum())
    return {"runs": runs, "rows": table.n_rows, "sync_free": sync_free}


def _cache_get(args, kwargs, result):
    return {"hit": result is not None}


def _batch(args, kwargs, result):
    return {"size": len(args[0])}


TARGETS: Tuple[Target, ...] = (
    # sweep path: repro.experiments.runner -> repro.sim.table
    Target("repro.experiments.runner", "run_catalog", "runner.run_catalog"),
    Target("repro.sim.table", "simulate_many_columnar", "sim.table.simulate_many"),
    Target("repro.sim.table", "ScenarioTable.__init__", "sim.table.build"),
    Target("repro.sim.table", "ScenarioTable.drive", "sim.table.drive", _drive),
    Target("repro.sim.table", "ScenarioTable.finalize", "sim.table.finalize"),
    Target("repro.core.predictor", "SmtPredictor.fit", "core.threshold_fit"),
    Target("repro.sim.runcache", "RunCache.get", "runcache.get", _cache_get),
    Target("repro.sim.runcache", "RunCache.put", "runcache.put"),
    # serve path: repro.serve -> repro.api
    Target("repro.api", "Session.predict_many", "api.predict_many"),
    Target("repro.serve.protocol", "parse_request", "serve.protocol.parse"),
    Target("repro.serve.protocol", "encode", "serve.protocol.encode"),
    Target("repro.serve.handlers", "handle_predict_batch", "serve.handler", _batch),
    # fleet path: repro.fleet -> repro.faults / repro.counters / repro.core
    Target("repro.fleet.perfmodel", "get_perf_model", "fleet.perfmodel"),
    Target("repro.fleet.trace", "generate_trace", "fleet.trace"),
    Target("repro.fleet.scheduler", "FleetScheduler.__init__", "fleet.scheduler.init"),
    Target("repro.fleet.scheduler", "FleetScheduler.run", "fleet.event_loop"),
    Target("repro.fleet.policy", "SmtsmPolicy.place", "fleet.policy.place"),
    Target("repro.fleet.node", "Node.measure", "fleet.node.measure"),
    Target("repro.faults.app", "FaultyApp.advance", "faults.advance"),
    Target("repro.fleet.scheduler", "ControllerBank.observe", "fleet.bank.observe"),
    Target("repro.core.robust", "robust_smtsm", "core.robust_smtsm"),
)

#: Span name -> name of its self-seconds metric (calls: ``<span>.calls``).
SELF_METRICS: Dict[str, str] = {
    "runner.run_catalog": "runner.run_catalog.self_s",
    "fleet.event_loop": "fleet.event_loop.self_s",
}
for _target in TARGETS:
    SELF_METRICS.setdefault(_target.name, _target.name + "_s")

#: Per-layer metrics derived from span attributes or the client side.
DERIVED: Dict[str, str] = {
    "sim.table.runs": "count",
    "sim.table.rows": "count",
    "sim.table.sync_free_share": "share",
    "runcache.hit_share": "share",
    "serve.batch_size_mean": "count",
    "serve.generator_late_ms": "ms",
    "serve.unattributed_ms": "ms",
    "fleet.smt_switches": "count",
    "trace_overhead_share": "share",
    "trace.attributed_share": "share",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for span, metric in SELF_METRICS.items():
        units[metric] = "s"
        units[span + ".calls"] = "count"
    units.update(DERIVED)
    return units


def _attr_sum(spans: Iterable[list], name: str, key: str) -> float:
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Self time and calls of every target, plus the span-derived counts.

    Spans not produced by a target (the benchmark's own root spans) are
    ignored here.  Client-side metrics are filled in by the caller.
    """
    times = self_times(spans)
    out: Dict[str, float] = {}
    for span, metric in SELF_METRICS.items():
        self_s, calls, _ = times.get(span, (0.0, 0, 0.0))
        out[metric] = self_s
        out[span + ".calls"] = calls
    runs = _attr_sum(spans, "sim.table.drive", "runs")
    out["sim.table.runs"] = runs
    out["sim.table.rows"] = _attr_sum(spans, "sim.table.drive", "rows")
    out["sim.table.sync_free_share"] = (
        _attr_sum(spans, "sim.table.drive", "sync_free") / runs if runs else 0.0)
    gets = times.get("runcache.get", (0.0, 0, 0.0))[1]
    out["runcache.hit_share"] = (
        _attr_sum(spans, "runcache.get", "hit") / gets if gets else 0.0)
    batches = times.get("serve.handler", (0.0, 0, 0.0))[1]
    out["serve.batch_size_mean"] = (
        _attr_sum(spans, "serve.handler", "size") / batches if batches else 0.0)
    return out


def attributed_share(spans: List[list], roots: Iterable[str]) -> float:
    """Share of the benchmark's root spans covered by layer spans.

    The roots are the benchmark's own spans around the traced regions;
    their self time is what no layer accounts for.
    """
    roots = set(roots)
    times = self_times(spans)
    wall = sum(times[r][2] for r in roots if r in times)
    unattributed = sum(times[r][0] for r in roots if r in times)
    return 1.0 - unattributed / wall if wall > 0 else 0.0
