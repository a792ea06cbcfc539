"""Request-tracing tests: sampler, span trees, anatomy, bit-identity.

The tracing contract has three legs:

* **sampling is deterministic and RNG-free** — the splitmix64 decision
  is a pure function of ``(seed, session, seq)``, with the vectorized
  form bit-equal to the scalar form (so both engines sample the same
  request set);
* **span trees are physical** — per-hop queue / pure-service /
  virtualization-ready components are non-negative, time-ordered and
  sum (with the network hops) to the request's response time;
* **tracing never perturbs the physics** — a run's fingerprint is
  identical with sampling off and on, on either engine.
"""

import json

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.experiments.baseline import result_fingerprint
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import scenario
from repro.monitoring.export import (
    request_traces_to_chrome_json,
    request_traces_to_jsonl,
    trace_set_sha256,
)
from repro.obs.tracing import (
    RequestTracer,
    TraceSampler,
    critical_path,
    latency_anatomy,
    render_anatomy,
    render_tail_attribution,
    render_trace,
    slowest_traces,
    tail_attribution,
    traces_in_window,
)

from dataclasses import replace


def _traced_run(engine, rate=0.05, duration_s=60.0, seed=7, clients=None):
    spec = scenario(
        "virtualized", "browsing", duration_s=duration_s, seed=seed,
        clients=clients,
    )
    spec = replace(spec, engine=engine, trace_sample=rate)
    return run_scenario(spec)


@pytest.fixture(scope="module")
def classic_result():
    return _traced_run("classic")


@pytest.fixture(scope="module")
def batched_result():
    return _traced_run("batched")


class TestSampler:
    def test_scalar_and_array_bit_equal(self):
        sampler = TraceSampler(seed=42, rate=0.1)
        sids = np.arange(0, 4000, dtype=np.int64)
        seqs = (sids * 7 + 3) % 211
        vector = sampler.sample_array(sids, seqs)
        scalar = np.array(
            [sampler.sample(int(s), int(q)) for s, q in zip(sids, seqs)]
        )
        assert np.array_equal(vector, scalar)

    def test_rate_hits_expected_fraction(self):
        sampler = TraceSampler(seed=3, rate=0.05)
        sids = np.arange(0, 50_000)
        picked = sampler.sample_array(sids, np.ones_like(sids))
        assert 0.04 < picked.mean() < 0.06

    def test_deterministic_across_instances(self):
        a = TraceSampler(seed=9, rate=0.2)
        b = TraceSampler(seed=9, rate=0.2)
        assert [a.sample(i, 1) for i in range(100)] == [
            b.sample(i, 1) for i in range(100)
        ]
        c = TraceSampler(seed=10, rate=0.2)
        assert [a.sample(i, 1) for i in range(200)] != [
            c.sample(i, 1) for i in range(200)
        ]

    def test_edge_rates(self):
        assert TraceSampler(1, 0.0).sample(5, 5) is False
        assert TraceSampler(1, 1.0).sample(5, 5) is True
        assert TraceSampler(1, 1.0).sample_array(
            np.arange(4), np.arange(4)
        ).all()
        with pytest.raises(ConfigurationError):
            TraceSampler(1, 1.5)


def _assert_physical(trace, engine):
    assert trace.engine == engine
    assert trace.spans, "trace without spans"
    assert trace.end_s > trace.start_s
    previous_start = trace.start_s
    for span in trace.spans:
        assert span.queue_s >= 0.0
        assert span.service_s >= 0.0
        assert span.ready_s >= 0.0
        assert span.start_s >= previous_start - 1e-9
        previous_start = span.start_s
        assert span.device in ("cpu", "disk", "net")
    # hop durations tile the request: summed components equal the
    # response time (hops are sequential in both engines).
    total = sum(s.queue_s + s.service_s + s.ready_s for s in trace.spans)
    assert total == pytest.approx(trace.total_s, rel=1e-9, abs=1e-12)


class TestClassicEngineSpans:
    def test_sampled_requests_have_physical_span_trees(
        self, classic_result
    ):
        traces = classic_result.request_traces
        assert len(traces) > 50
        for trace in traces:
            _assert_physical(trace, "classic")

    def test_sampled_set_matches_sampler_decision(self, classic_result):
        sampler = TraceSampler(seed=7, rate=0.05)
        for trace in classic_result.request_traces:
            assert sampler.sample(trace.session_id, trace.seq)

    def test_contended_run_accrues_ready_time(self):
        # Ready time needs CPU contention: consolidate with a
        # CPU-bound tenant and arm the scheduler's contention
        # refinement (a controller-bearing testbed does).
        from repro.config import ExperimentConfig
        from repro.workloads.base import TenantSpec

        config = ExperimentConfig(
            environment="virtualized",
            composition="browsing",
            duration_s=60.0,
            seed=7,
            clients=40,
            controller="static",
            tenants=(
                TenantSpec(
                    job="grep",
                    input_mb=24.0,
                    tasks=32,
                    arrival_rate_per_s=0.3,
                ),
            ),
        )
        spec = replace(config.to_scenario(), trace_sample=0.3)
        result = run_scenario(spec)
        ready = sum(
            s.ready_s
            for t in result.request_traces
            for s in t.spans
        )
        assert ready > 0.0

    def test_web_and_db_hops_present(self, classic_result):
        names = {
            s.name
            for t in classic_result.request_traces
            for s in t.spans
        }
        assert "cpu.web" in names
        assert "cpu.db" in names
        assert "net.request" in names


class TestBatchedEngineSpans:
    def test_sampled_requests_have_physical_span_trees(
        self, batched_result
    ):
        traces = batched_result.request_traces
        assert len(traces) > 50
        for trace in traces:
            _assert_physical(trace, "batched")

    def test_sampled_set_matches_sampler_decision(self, batched_result):
        sampler = TraceSampler(seed=7, rate=0.05)
        for trace in batched_result.request_traces:
            assert sampler.sample(trace.session_id, trace.seq)

    def test_trace_volume_comparable_across_engines(
        self, classic_result, batched_result
    ):
        classic = len(classic_result.request_traces)
        batched = len(batched_result.request_traces)
        assert batched == pytest.approx(classic, rel=0.25)


class TestPhysicsUnperturbed:
    """Fingerprints are identical with sampling off and on."""

    @pytest.mark.parametrize("engine", ["classic", "batched"])
    def test_traced_run_bit_identical_to_untraced(self, engine):
        base = scenario(
            "virtualized", "browsing", duration_s=40.0, seed=11
        )
        untraced = run_scenario(replace(base, engine=engine))
        traced = run_scenario(
            replace(base, engine=engine, trace_sample=0.1)
        )
        assert traced.request_traces
        # The fingerprint hashes span trees when a run has them; set
        # them aside so the digest covers the physics alone.
        physics = replace(traced, request_traces=None)
        assert result_fingerprint(physics) == result_fingerprint(untraced)

    def test_classic_bot_flood_traced_run_keeps_trace_sha(self):
        # Bot sessions are one-request visits; the tracer must sample
        # them without touching the physics.
        base = ExperimentConfig(
            duration_s=30.0, clients=100, faults="bot_flood@10:10"
        ).to_scenario()
        untraced = run_scenario(base)
        traced = run_scenario(replace(base, trace_sample=0.05))
        assert traced.request_traces
        assert trace_set_sha256(traced.traces) == trace_set_sha256(
            untraced.traces
        )

    def test_zero_rate_collects_nothing(self):
        base = scenario(
            "virtualized", "browsing", duration_s=20.0, seed=11
        )
        result = run_scenario(base)
        assert result.request_traces is None


class TestAnatomyAndAttribution:
    def test_latency_anatomy_decomposes_each_percentile(
        self, classic_result
    ):
        anatomy = latency_anatomy(
            classic_result.request_traces, percentiles=(50.0, 95.0, 99.0)
        )
        assert anatomy.percentiles == (50.0, 95.0, 99.0)
        assert anatomy.totals[99.0] >= anatomy.totals[50.0]
        for p in anatomy.percentiles:
            decomposed = sum(row[p] for row in anatomy.rows.values())
            assert decomposed == pytest.approx(
                anatomy.totals[p], rel=1e-6
            )
        assert "p99" in render_anatomy(anatomy)

    def test_tail_attribution_names_a_channel(self, classic_result):
        attribution = tail_attribution(
            classic_result.request_traces, tail_percentile=99.0
        )
        assert attribution.gap_s > 0
        assert attribution.contributions[0][:2] == attribution.channel
        # per-channel deltas account for the whole gap
        assert sum(
            delta for _, _, delta in attribution.contributions
        ) == pytest.approx(attribution.gap_s, rel=1e-6)
        name, component = attribution.channel
        assert component in ("queue", "service", "ready")
        assert name in render_tail_attribution(attribution)

    def test_critical_path_covers_total(self, classic_result):
        trace = slowest_traces(classic_result.request_traces, count=1)[0]
        path = critical_path(trace)
        assert sum(seconds for _, seconds in path) == pytest.approx(
            trace.total_s, rel=1e-6
        )
        assert "| path" in render_trace(trace)

    def test_window_and_slowest_helpers(self, classic_result):
        traces = classic_result.request_traces
        window = traces_in_window(traces, 10.0, 40.0)
        assert all(10.0 <= t.end_s <= 40.0 for t in window)
        slowest = slowest_traces(traces, count=5)
        assert len(slowest) == 5
        assert slowest[0].total_s >= slowest[-1].total_s


class TestExports:
    def test_jsonl_round_trips(self, batched_result):
        text = request_traces_to_jsonl(batched_result.request_traces)
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == len(batched_result.request_traces)
        first = lines[0]
        assert first["engine"] == "batched"
        assert first["spans"][0]["device"] in ("cpu", "disk", "net")

    def test_chrome_trace_is_loadable(self, classic_result):
        document = json.loads(
            request_traces_to_chrome_json(classic_result.request_traces)
        )
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        complete = [e for e in events if e["ph"] == "X"]
        # one envelope event per trace plus one per span
        expected = len(classic_result.request_traces) + sum(
            len(t.spans) for t in classic_result.request_traces
        )
        assert len(complete) == expected
        for event in complete:
            assert event["dur"] >= 0.0


class TestTracerBookkeeping:
    def test_tracer_counts_decisions(self):
        tracer = RequestTracer(seed=5, rate=0.5, engine="classic")
        assert tracer.sampler.rate == 0.5
        assert tracer.traces == []
