"""Unit tests for demand scaling and sampling."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.requests import ResourceDemand
from repro.errors import ConfigurationError
from repro.rubis.database import BufferPool, RubisDatabase
from repro.rubis.demand import DemandSampler, DemandScaling
from repro.rubis.interactions import INTERACTIONS, get_interaction
from repro.rubis.transitions import bidding_matrix, browsing_matrix
from repro.units import MB


def _pool():
    return BufferPool(
        capacity_bytes=384 * MB,
        database=RubisDatabase(),
        hot_fraction=0.05,
        hot_access_probability=0.99,
    )


@pytest.fixture
def sampler():
    return DemandSampler(DemandScaling(), _pool(), np.random.default_rng(5))


class TestDemandScaling:
    def test_negative_field_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandScaling(web_cycles_per_unit=-1.0)

    def test_rescaled_returns_modified_copy(self):
        scaling = DemandScaling()
        updated = scaling.rescaled(response_scale=2.0)
        assert updated.response_scale == 2.0
        assert scaling.response_scale == 1.0


class TestSampling:
    def test_static_page_has_no_db_demand(self, sampler):
        demand = sampler.sample("Home")
        assert demand.db_queries == 0
        assert demand.db_cycles == 0.0
        assert demand.query_bytes == 0.0
        assert demand.result_bytes == 0.0
        assert demand.commit is False

    def test_search_page_touches_db(self, sampler):
        demand = sampler.sample("SearchItemsInCategory")
        assert demand.db_queries == 2
        assert demand.db_cycles > 0
        assert demand.query_bytes > 0

    def test_write_interaction_commits(self, sampler):
        demand = sampler.sample("StoreBid")
        assert demand.commit is True
        assert demand.db_disk_write_bytes > 0

    def test_demands_always_non_negative(self, sampler):
        for name in ("Home", "ViewItem", "StoreBid", "AboutMe"):
            for _ in range(50):
                demand = sampler.sample(name)
                assert demand.web_cycles >= 0
                assert demand.db_disk_read_bytes >= 0
                assert demand.response_bytes >= 0

    def test_noise_produces_variation(self, sampler):
        cycles = {sampler.sample("ViewItem").web_cycles for _ in range(20)}
        assert len(cycles) > 1

    def test_spill_applies_above_threshold(self, sampler):
        # SearchItemsInCategory touches 120 rows > default threshold 50.
        scaling = sampler.scaling
        demand = sampler.sample("SearchItemsInCategory")
        expected_spill = 120 * scaling.spill_bytes_per_row
        assert demand.db_disk_write_bytes >= expected_spill * 0.5


class TestExpectedDemand:
    def test_expectation_matches_sampling_mean(self, sampler):
        matrix = browsing_matrix()
        expected = sampler.expected_demand(matrix)
        # Monte-Carlo over the stationary chain.
        rng = np.random.default_rng(17)
        state = matrix.initial_state
        totals = np.zeros(3)
        n = 6000
        for _ in range(n):
            state = matrix.next_state(rng, state)
            demand = sampler.sample(state)
            totals += (
                demand.web_cycles,
                demand.response_bytes,
                demand.web_disk_write_bytes,
            )
        means = totals / n
        assert means[0] == pytest.approx(expected.web_cycles, rel=0.05)
        assert means[1] == pytest.approx(expected.response_bytes, rel=0.05)
        assert means[2] == pytest.approx(
            expected.web_disk_write_bytes, rel=0.05
        )

    def test_expectation_linear_in_cycle_scale(self, sampler):
        matrix = browsing_matrix()
        base = sampler.expected_demand(matrix)
        doubled_sampler = DemandSampler(
            sampler.scaling.rescaled(
                web_cycles_per_unit=2 * sampler.scaling.web_cycles_per_unit
            ),
            sampler.buffer_pool,
            np.random.default_rng(0),
        )
        doubled = doubled_sampler.expected_demand(matrix)
        assert doubled.web_cycles == pytest.approx(2 * base.web_cycles)

    def test_bid_mix_has_write_bytes(self, sampler):
        expected = sampler.expected_demand(bidding_matrix())
        browse_expected = sampler.expected_demand(browsing_matrix())
        # rows_written flow exists only in the bidding mix; both mixes
        # spill on searches, so compare the written component.
        assert expected.db_disk_write_bytes > 0
        assert browse_expected.web_cycles > expected.web_cycles


def _seven_call_sample(sampler, name):
    """One request's demand drawn with one generator call per factor.

    The sampler's earlier formulation: a response lognormal, the
    buffer-pool binomial, then five lognormals (web, db and write noise,
    the log noise, the request noise).  It reads the same precomputed
    bases, so only the draws can differ from ``DemandSampler.sample``.
    """
    (response_base, response_params, web_base, db_base, db_queries,
     rows_touched, db_write_base, web_log_base, request_base,
     query_bytes, result_bytes, writes, demand_params, log_params,
     req_params) = sampler._build_profile(name)
    rng = sampler.rng
    response_noise = (
        float(rng.lognormal(*response_params))
        if response_params is not None else 1.0
    )
    db_read = sampler.buffer_pool.access(
        rng, rows_touched, sampler._row_bytes
    )
    if demand_params is not None:
        web_noise = float(rng.lognormal(*demand_params))
        db_noise = float(rng.lognormal(*demand_params))
        write_noise = float(rng.lognormal(*demand_params))
    else:
        web_noise = db_noise = write_noise = 1.0
    log_noise = float(rng.lognormal(*log_params))
    req_noise = float(rng.lognormal(*req_params))
    return ResourceDemand(
        web_base * web_noise,
        db_base * db_noise,
        db_queries,
        db_read,
        db_write_base * write_noise,
        web_log_base * log_noise,
        request_base * req_noise,
        response_base * response_noise,
        query_bytes,
        result_bytes,
        writes,
    )


class TestDrawIdentity:
    """``sample`` equals one lognormal call per factor, bit for bit.

    Three generator calls replace seven: the noise factors are
    ``exp(mu + sigma * z)`` on the same standard normals, so every field
    and the generator state afterwards must match exactly.
    """

    def _assert_identical(self, scaling, names, seed, draws):
        shipped = DemandSampler(scaling, _pool(), np.random.default_rng(seed))
        reference = DemandSampler(
            scaling, _pool(), np.random.default_rng(seed)
        )
        order = np.random.default_rng(seed + 1).integers(
            0, len(names), draws
        )
        for index in order:
            name = names[index]
            assert shipped.sample(name) == _seven_call_sample(
                reference, name
            ), name
        assert (
            shipped.rng.bit_generator.state
            == reference.rng.bit_generator.state
        )
        assert shipped.buffer_pool.misses == reference.buffer_pool.misses

    @pytest.mark.parametrize("seed", [1, 5, 42])
    def test_every_interaction_matches_seven_calls(self, seed):
        names = sorted(INTERACTIONS)
        assert len(names) == 26
        self._assert_identical(DemandScaling(), names, seed, 4000)

    def test_zero_demand_cv_still_draws_log_and_request_noise(self):
        self._assert_identical(
            DemandScaling(demand_cv=0.0), sorted(INTERACTIONS), 7, 2000
        )

    def test_zero_response_cv_draws_no_response_noise(self, monkeypatch):
        flat = replace(get_interaction("ViewItem"), name="Flat",
                       response_cv=0.0)
        monkeypatch.setitem(INTERACTIONS, "Flat", flat)
        self._assert_identical(
            DemandScaling(), ["Flat", "ViewItem"], 11, 1000
        )
