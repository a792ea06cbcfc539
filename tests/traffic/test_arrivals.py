"""Property tests for the arrival processes.

Every process must satisfy the open-loop generator contract:

* empirical rate within tolerance of the nominal rate,
* identical streams for identical seeds (bit-exact),
* disjoint streams for distinct stream names (distinct spawn keys),
* nondecreasing arrival times.

Every process is buffered, so ``take_through`` (a drain tick's
arrivals at once) must take exactly what a ``next_arrival`` loop takes,
and batched thinning must keep exactly what the one-arrival-at-a-time
Lewis-Shedler walk keeps.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams
from repro.traffic.arrivals import (
    BModelProcess,
    MMPPProcess,
    ModulatedProcess,
    PoissonProcess,
    drain_process,
)
from repro.traffic.shapes import (
    CompositeShape,
    ConstantShape,
    DiurnalShape,
    FlashCrowdShape,
    RampShape,
)
from repro.traffic.trace import RateTrace, TraceReplayProcess

RATE = 40.0
HORIZON = 500.0


def _make(kind: str, streams: RandomStreams, name: str = "traffic"):
    rng = streams.stream(name)
    if kind == "poisson":
        return PoissonProcess(RATE, rng)
    if kind == "mmpp":
        # Time-weighted average (0.5*3 + 2.5*1) / 4 = 1.0 x RATE.
        return MMPPProcess((RATE * 0.5, RATE * 2.5), (3.0, 1.0), rng)
    if kind == "bmodel":
        return BModelProcess(RATE, rng, bias=0.72, window_s=32.0, levels=5)
    if kind == "trace":
        trace = RateTrace(
            np.full(int(HORIZON), RATE), interval_s=1.0
        )
        return TraceReplayProcess(trace, rng)
    raise AssertionError(kind)


KINDS = ("poisson", "mmpp", "bmodel", "trace")


class TestArrivalProperties:
    @pytest.mark.parametrize("kind", KINDS)
    def test_empirical_rate_near_nominal(self, kind):
        process = _make(kind, RandomStreams(seed=11))
        times = drain_process(process, HORIZON)
        empirical = len(times) / HORIZON
        # MMPP averages over regime cycles, so give it the widest band.
        tolerance = 0.15 if kind == "mmpp" else 0.10
        assert empirical == pytest.approx(RATE, rel=tolerance)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nominal_rate_attribute(self, kind):
        process = _make(kind, RandomStreams(seed=11))
        assert process.rate_rps == pytest.approx(RATE, rel=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_times_nondecreasing(self, kind):
        process = _make(kind, RandomStreams(seed=7))
        times = drain_process(process, 100.0)
        assert len(times) > 0
        assert np.all(np.diff(times) >= 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_seeds_identical_streams(self, kind):
        a = drain_process(_make(kind, RandomStreams(seed=5)), 50.0)
        b = drain_process(_make(kind, RandomStreams(seed=5)), 50.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_distinct_seeds_distinct_streams(self, kind):
        a = drain_process(_make(kind, RandomStreams(seed=5)), 50.0)
        b = drain_process(_make(kind, RandomStreams(seed=6)), 50.0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_distinct_stream_names_disjoint(self, kind):
        """Distinct spawn keys must decorrelate the arrival streams."""
        streams = RandomStreams(seed=5)
        a = drain_process(_make(kind, streams, name="traffic"), 50.0)
        b = drain_process(_make(kind, streams, name="traffic.alt"), 50.0)
        assert not np.array_equal(a, b)


class TestPoisson:
    def test_interarrival_mean_and_cv(self):
        process = PoissonProcess(10.0, RandomStreams(seed=3).stream("t"))
        times = drain_process(process, 2000.0)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(0.1, rel=0.05)
        # Exponential gaps: coefficient of variation 1.
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_rejects_nonpositive_rate(self):
        rng = RandomStreams(seed=1).stream("t")
        with pytest.raises(ConfigurationError):
            PoissonProcess(0.0, rng)


class TestMMPP:
    def test_burstier_than_poisson(self):
        """Index of dispersion of counts must exceed the Poisson 1.0."""
        streams = RandomStreams(seed=9)
        mmpp = MMPPProcess((10.0, 160.0), (8.0, 2.0), streams.stream("m"))
        times = drain_process(mmpp, 4000.0)
        counts = np.histogram(times, bins=np.arange(0.0, 4000.0, 2.0))[0]
        dispersion = counts.var() / counts.mean()
        assert dispersion > 2.0

    def test_stationary_rate_weights_sojourns(self):
        rng = RandomStreams(seed=1).stream("m")
        mmpp = MMPPProcess((10.0, 40.0), (3.0, 1.0), rng)
        # (10*3 + 40*1) / 4 = 17.5 for the alternating default chain.
        assert mmpp.rate_rps == pytest.approx(17.5)

    def test_stationary_rate_on_periodic_three_cycle(self):
        """Exact pi for a periodic embedded chain (not power-iterable)."""
        rng = RandomStreams(seed=1).stream("m")
        cycle = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        mmpp = MMPPProcess(
            (10.0, 40.0, 100.0), (4.0, 2.0, 1.0), rng, transition=cycle
        )
        # pi = 1/3 each; time-weighted: (10*4+40*2+100*1)/(4+2+1).
        assert mmpp.rate_rps == pytest.approx(220.0 / 7.0)

    def test_validates_configuration(self):
        rng = RandomStreams(seed=1).stream("m")
        with pytest.raises(ConfigurationError):
            MMPPProcess((10.0,), (1.0,), rng)
        with pytest.raises(ConfigurationError):
            MMPPProcess((10.0, 20.0), (1.0, -1.0), rng)
        with pytest.raises(ConfigurationError):
            MMPPProcess(
                (10.0, 20.0), (1.0, 1.0), rng,
                transition=((0.5, 0.4), (1.0, 0.0)),
            )


class TestBModel:
    def test_burstier_with_higher_bias(self):
        def dispersion(bias):
            rng = RandomStreams(seed=21).stream("b")
            process = BModelProcess(
                50.0, rng, bias=bias, window_s=64.0, levels=6
            )
            times = drain_process(process, 1000.0)
            counts = np.histogram(
                times, bins=np.arange(0.0, 1000.0, 1.0)
            )[0]
            return counts.var() / counts.mean()

        assert dispersion(0.85) > dispersion(0.55) > 0.5

    def test_bias_half_is_poisson_like(self):
        rng = RandomStreams(seed=2).stream("b")
        process = BModelProcess(50.0, rng, bias=0.5, window_s=32.0)
        times = drain_process(process, 1000.0)
        counts = np.histogram(times, bins=np.arange(0.0, 1000.0, 1.0))[0]
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.25)

    def test_validates_bias(self):
        rng = RandomStreams(seed=1).stream("b")
        with pytest.raises(ConfigurationError):
            BModelProcess(10.0, rng, bias=0.4)
        with pytest.raises(ConfigurationError):
            BModelProcess(10.0, rng, bias=1.0)


class TestModulated:
    def test_identity_shape_preserves_rate(self):
        streams = RandomStreams(seed=13)
        base = PoissonProcess(RATE, streams.stream("base"))
        process = ModulatedProcess(
            base, ConstantShape(1.0), streams.stream("thin")
        )
        times = drain_process(process, HORIZON)
        assert len(times) / HORIZON == pytest.approx(RATE, rel=0.1)

    def test_ramp_shifts_mass_to_the_end(self):
        streams = RandomStreams(seed=13)
        shape = RampShape(0.0, 200.0, start_factor=0.2, end_factor=1.0)
        base = PoissonProcess(
            RATE * shape.max_factor(), streams.stream("base")
        )
        process = ModulatedProcess(base, shape, streams.stream("thin"))
        times = drain_process(process, 200.0)
        first_half = int((times < 100.0).sum())
        second_half = len(times) - first_half
        # Mean factor 0.4 early vs 0.9 late: expect roughly 2.25x.
        assert second_half > 1.7 * first_half

    def test_exhaustion_propagates(self):
        streams = RandomStreams(seed=4)
        trace = RateTrace([20.0, 20.0], interval_s=1.0)
        base = TraceReplayProcess(trace, streams.stream("r"))
        process = ModulatedProcess(
            base, ConstantShape(1.0), streams.stream("thin")
        )
        drain_process(process, 10.0)
        assert process.next_arrival() is None


def _scalar_ticks(process, edges):
    """Per tick, the arrivals a ``next_arrival`` loop holding one
    pending arrival takes (the reference for ``take_through``)."""
    ticks = []
    pending = process.next_arrival()
    for edge in edges:
        taken = []
        while pending is not None and pending <= edge:
            taken.append(pending)
            pending = process.next_arrival()
        ticks.append(np.asarray(taken, dtype=float))
    return ticks, pending


def _take_ticks(process, edges):
    return [process.take_through(edge) for edge in edges]


def _tick_kinds():
    """Fresh-process factories for every process kind, on one seed."""

    def replay(streams):
        # A zero-rate interval, then exhaustion at t = 12 s.
        trace = RateTrace([30.0, 0.0, 0.0, 45.0, 60.0, 5.0], interval_s=2.0)
        return TraceReplayProcess(trace, streams.stream("r"))

    def modulated_shared(streams):
        shape = FlashCrowdShape(peak_time_s=12.0, rise_s=3.0, decay_s=5.0)
        rng = streams.stream("traffic.arrivals")
        base = PoissonProcess(RATE * shape.max_factor(), rng)
        return ModulatedProcess(base, shape, rng)

    def modulated_separate(streams):
        shape = DiurnalShape(period_s=8.0, amplitude=0.9)
        base = MMPPProcess(
            (RATE, 4 * RATE), (2.0, 1.0), streams.stream("base")
        )
        return ModulatedProcess(base, shape, streams.stream("thin"))

    def modulated_replay(streams):
        rng = streams.stream("traffic.arrivals")
        base = TraceReplayProcess(
            RateTrace([50.0, 0.0, 80.0], interval_s=3.0), rng
        )
        return ModulatedProcess(base, RampShape(0.0, 9.0, 0.1, 1.0), rng)

    factories = {kind: (lambda s, k=kind: _make(k, s)) for kind in KINDS}
    factories.update(
        replay=replay,
        modulated_shared=modulated_shared,
        modulated_separate=modulated_separate,
        modulated_replay=modulated_replay,
    )
    return factories


TICK_KINDS = _tick_kinds()


class TestTakeThrough:
    """``take_through`` on a tick grid equals the ``next_arrival`` loop."""

    HORIZON_S = 20.0

    def _edges(self, factory, seed):
        """Half the edges on a 0.25 s grid, half on arrival times."""
        grid = np.arange(0.25, self.HORIZON_S, 0.25)
        arrivals = drain_process(factory(RandomStreams(seed=seed)), 20.0)
        picks = np.random.default_rng(seed).choice(
            arrivals, size=min(grid.size, arrivals.size), replace=False
        )
        return np.unique(np.concatenate((grid, picks))), picks

    @pytest.mark.parametrize("kind", sorted(TICK_KINDS))
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_next_arrival_loop(self, kind, seed):
        factory = TICK_KINDS[kind]
        edges, picks = self._edges(factory, seed)
        expected, pending = _scalar_ticks(
            factory(RandomStreams(seed=seed)), edges
        )
        process = factory(RandomStreams(seed=seed))
        got = _take_ticks(process, edges)
        assert len(got) == len(expected)
        for tick, (a, b) in enumerate(zip(got, expected)):
            np.testing.assert_array_equal(a, b, err_msg=f"tick {tick}")
        # A tick whose edge is an arrival time ends with that arrival.
        assert picks.size > 0
        for tick in np.flatnonzero(np.isin(edges, picks)):
            assert got[tick][-1] == edges[tick]
        # Both walks stop at the same next arrival.
        assert process.next_arrival() == pending

    def test_exhausted_replay_returns_empty(self):
        factory = TICK_KINDS["replay"]
        process = factory(RandomStreams(seed=1))
        everything = process.take_through(100.0)
        assert everything.size > 0
        assert everything.max() <= 12.0
        assert process.take_through(200.0).size == 0
        assert process.next_arrival() is None

    def test_mixed_consumers_share_one_cursor(self):
        a = _make("poisson", RandomStreams(seed=4))
        b = _make("poisson", RandomStreams(seed=4))
        first = a.next_arrival()
        rest = a.take_through(30.0)
        np.testing.assert_array_equal(
            np.concatenate(([first], rest)), drain_process(b, 30.0)
        )


def _scalar_thinning(base, shape, rng, horizon_s):
    """The one-arrival-at-a-time Lewis-Shedler walk (reference)."""
    bound = shape.max_factor()
    kept = []
    while True:
        t = base.next_arrival()
        if t is None or t > horizon_s:
            return np.asarray(kept, dtype=float)
        if rng.random() * bound < shape.factor(t):
            kept.append(t)


THINNING_SHAPES = {
    "flash_crowd": FlashCrowdShape(
        peak_time_s=40.0, magnitude=20.0, rise_s=8.0, decay_s=25.0
    ),
    "diurnal": DiurnalShape(period_s=30.0, amplitude=0.8, phase_s=3.0),
    "composite": CompositeShape((
        DiurnalShape(period_s=25.0, amplitude=0.5),
        FlashCrowdShape(peak_time_s=30.0, magnitude=6.0),
    )),
}


class TestBatchedThinning:
    """Batched thinning keeps exactly the arrivals the scalar walk keeps."""

    @pytest.mark.parametrize("shape", sorted(THINNING_SHAPES))
    @pytest.mark.parametrize("base_kind", ["poisson", "mmpp", "bmodel"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_equals_scalar_walk(self, shape, base_kind, shared):
        envelope = THINNING_SHAPES[shape]
        horizon = 100.0

        def build(streams):
            rng = streams.stream("traffic.arrivals")
            thin = rng if shared else streams.stream("thin")
            base = _make(base_kind, streams, "traffic.arrivals")
            return base, thin

        base, thin = build(RandomStreams(seed=31))
        expected = _scalar_thinning(base, envelope, thin, horizon)
        base, thin = build(RandomStreams(seed=31))
        process = ModulatedProcess(base, envelope, thin)
        got = process.take_through(horizon)
        assert expected.size > 100
        np.testing.assert_array_equal(got, expected)
