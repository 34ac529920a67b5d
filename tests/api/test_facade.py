"""Tests for the stable public facade (:mod:`repro.api`)."""

import inspect
import json

import pytest

import repro
import repro.api as api
from repro.core.metric import smtsm_from_run
from repro.experiments.runner import run_catalog
from repro.sim.results import speedup

EVENTS = {
    "CYCLES": 1e9, "INSTRUCTIONS": 6e8, "DISP_HELD_RES": 2e8,
    "LD_CMPL": 2.2e8, "ST_CMPL": 1.1e8, "BR_CMPL": 9e7,
    "FX_CMPL": 1.5e8, "VS_CMPL": 3e7,
}


@pytest.fixture(scope="module")
def session():
    return api.Session("p7", seed=11)


class TestPredict:
    def test_prediction_shape(self, session):
        p = session.predict("EP")
        assert p.workload == "EP"
        assert p.arch == "POWER7"
        assert p.measure_level == 4          # default: the max SMT level
        assert p.recommended_level in (p.high_level, p.low_level)
        assert (p.high_level, p.low_level) == (4, 1)
        assert p.smtsm >= 0.0
        assert p.wall_time_s > 0.0

    def test_payload_is_json_able(self, session):
        payload = session.predict("EP").payload()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["workload"] == "EP"
        assert set(round_tripped["factors"]) == {
            "mix_deviation", "dispatch_held", "scalability_ratio"
        }

    def test_recommendation_matches_threshold_rule(self, session):
        p = session.predict("EP")
        expected = p.high_level if p.smtsm <= p.threshold else p.low_level
        assert p.recommended_level == expected

    def test_predict_many_matches_singles(self, session):
        queries = [
            api.PredictQuery("EP"),
            api.PredictQuery("SSCA2", level=2),
            api.PredictQuery("CG", seed=13),
        ]
        batch = session.predict_many(queries)
        singles = [
            session.predict("EP"),
            session.predict("SSCA2", level=2),
            session.predict("CG", seed=13),
        ]
        for got, want in zip(batch, singles):
            assert got.workload == want.workload
            assert got.measure_level == want.measure_level
            assert got.smtsm == pytest.approx(want.smtsm, rel=1e-9)
            assert got.recommended_level == want.recommended_level

    def test_predict_many_accepts_dicts(self, session):
        (p,) = session.predict_many([{"workload": "EP", "level": 2}])
        assert p.measure_level == 2

    def test_unknown_workload_raises(self, session):
        with pytest.raises(KeyError):
            session.predict("doom")

    def test_fixed_threshold_skips_fitting(self):
        fixed = api.Session("p7", threshold=0.5)
        p = fixed.predict("EP")
        assert p.threshold == 0.5
        assert fixed._fit_runs is None       # no catalog sweep happened

    def test_fitted_predictor_matches_paper_fit(self, session):
        # The session's lazily fitted predictor reproduces what fitting
        # directly on the same catalog observations yields.
        from repro.core.predictor import Observation, SmtPredictor

        runs = run_catalog("p7", seed=11)
        observations = [
            Observation(
                name=name,
                metric=smtsm_from_run(runs.runs[name][4]).value,
                speedup=speedup(runs.runs[name][4], runs.runs[name][1]),
            )
            for name in runs.complete_names((1, 4))
        ]
        direct = SmtPredictor.fit(observations, high_level=4, low_level=1)
        assert session.predictor().threshold == pytest.approx(
            direct.threshold, rel=1e-12
        )


class TestSweep:
    def test_sweep_summary_shape(self, session):
        summary = session.sweep_summary(["EP", "CG"], (1, 4))
        assert summary["arch"] == "POWER7"
        assert summary["levels"] == [1, 4]
        assert set(summary["workloads"]) == {"EP", "CG"}
        cell = summary["workloads"]["EP"]["4"]
        assert cell["wall_time_s"] > 0
        assert cell["instructions_per_second"] > 0
        assert cell["smtsm"] >= 0
        json.dumps(summary)                  # wire-format safe

    def test_sweep_returns_catalog_runs(self, session):
        runs = session.sweep(["EP"], (1, 4))
        assert set(runs.runs) == {"EP"}
        assert set(runs.runs["EP"]) == {1, 4}


class TestSweepDefaultStrategy:
    """A sweep without ``strategy`` runs on ``run_catalog``'s default."""

    @staticmethod
    def swept_strategies(sweep):
        from repro.obs import configure

        tracer = configure(enabled=True)
        tracer.reset()
        try:
            sweep()
            return [record.attrs["strategy"] for record in tracer.spans()
                    if record.name == "runner.run_catalog"]
        finally:
            configure(enabled=False)
            tracer.reset()

    def test_api_and_serve_default_is_run_catalog_default(self):
        from repro.serve.client import ServeClient
        from repro.serve.handlers import handle_sweep

        default = inspect.signature(run_catalog).parameters["strategy"].default
        no_cache = {"use_cache": False}
        assert self.swept_strategies(
            lambda: api.Session("p7", **no_cache).sweep(["EP"], (1,))
        ) == [default]
        assert self.swept_strategies(
            lambda: api.sweep_summary("p7", ["EP"], (1,), **no_cache)
        ) == [default]
        assert self.swept_strategies(
            lambda: handle_sweep({"workloads": ["EP"], "levels": [1]},
                                 no_cache)
        ) == [default]
        # The client leaves the choice to the server.
        client = object.__new__(ServeClient)
        client.request = lambda op, params, deadline_ms=None: params
        assert "strategy" not in client.sweep(workloads=["EP"])

    def test_wire_unknown_strategy_is_invalid_request(self):
        from repro.serve import (
            BackgroundServer, InvalidRequestError, ServeClient, ServeConfig,
        )

        config = ServeConfig(session={"use_cache": False})
        with BackgroundServer(config) as bg, \
                ServeClient(bg.host, bg.port) as client:
            with pytest.raises(InvalidRequestError, match="surrogate"):
                client.sweep(workloads=["EP"], levels=[1],
                             strategy="surrogate")


class TestScoreCounters:
    def test_matches_direct_metric(self, session):
        result = session.score_counters(
            EVENTS, smt_level=2, wall_time_s=1.0,
            avg_thread_cpu_s=0.9, n_software_threads=8,
        )
        assert result.value == pytest.approx(
            result.mix_deviation * result.dispatch_held
            * result.scalability_ratio
        )
        assert result.smt_level == 2

    def test_missing_events_raise(self, session):
        with pytest.raises((KeyError, ValueError)):
            session.score_counters(
                {"CYCLES": 1e9}, smt_level=2, wall_time_s=1.0,
                avg_thread_cpu_s=0.9, n_software_threads=8,
            )


class TestModuleLevel:
    def test_shared_session_is_reused(self):
        assert api.get_session("p7", seed=11) is api.get_session("p7", seed=11)
        assert api.get_session("p7", seed=11) is not api.get_session("p7", seed=12)

    def test_top_level_reexports(self):
        assert repro.Session is api.Session
        assert repro.predict is api.predict
        assert repro.sweep is api.sweep
        assert repro.score_counters is api.score_counters

    def test_module_level_predict(self):
        p = api.predict("EP", "p7")
        assert p.workload == "EP"
        assert p.recommended_level in (1, 4)
