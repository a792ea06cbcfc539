"""ControllerSpec validation, serialization and scenario integration."""

import pytest

from repro.config import ExperimentConfig
from repro.control.spec import CONTROLLER_KINDS, ControllerSpec
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    autoscaled_consolidated_scenario,
    autoscaled_flash_crowd_scenario,
    scenario,
)
from repro.workloads.base import TenantSpec

from dataclasses import replace


class TestValidation:
    def test_default_spec_valid(self):
        spec = ControllerSpec()
        assert spec.kind == "threshold"
        assert spec.active

    def test_static_is_inactive(self):
        assert not ControllerSpec(kind="static").active

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(kind="magic")

    def test_empty_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(domains=())

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(domains=("web-vm", "web-vm"))

    def test_cap_band_ordering(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(min_cap_cores=2.0, max_cap_cores=1.0)
        with pytest.raises(ConfigurationError):
            ControllerSpec(min_cap_cores=0.0)

    def test_vcpu_band_ordering(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(min_vcpus=4, max_vcpus=2)

    def test_balloon_band_must_be_paired(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(balloon_min_mb=512.0)
        with pytest.raises(ConfigurationError):
            ControllerSpec(balloon_min_mb=2048.0, balloon_max_mb=1024.0)

    def test_sessions_per_gb_needs_balloon_band(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(sessions_per_gb=100.0)
        ControllerSpec(
            sessions_per_gb=100.0,
            balloon_min_mb=1024.0,
            balloon_max_mb=2048.0,
        )

    def test_threshold_ordering(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(p95_low_ms=100.0, p95_high_ms=50.0)

    def test_history_must_cover_ar_fit(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec(ar_order=8, history_windows=10)

    def test_history_must_cover_predictive_activation(self):
        # The predictive policy activates at max(12, 4*order + lead)
        # windows; a spec below that would silently never predict.
        with pytest.raises(ConfigurationError):
            ControllerSpec(ar_order=2, history_windows=10)
        ControllerSpec(ar_order=2, lead_windows=2, history_windows=12)

    def test_every_kind_constructs(self):
        for kind in CONTROLLER_KINDS:
            assert ControllerSpec(kind=kind).kind == kind


class TestSerialization:
    def test_dict_round_trip(self):
        spec = ControllerSpec(
            kind="pid",
            domains=("web-vm",),
            balloon_min_mb=1024.0,
            balloon_max_mb=2048.0,
            sessions_per_gb=300.0,
        )
        assert ControllerSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ControllerSpec.from_dict({"kind": "pid", "warp": 9})

    def test_from_dict_coerces_domain_lists(self):
        spec = ControllerSpec.from_dict({"domains": ["web-vm"]})
        assert spec.domains == ("web-vm",)

    def test_spec_is_hashable(self):
        assert hash(ControllerSpec()) == hash(ControllerSpec())

    def test_for_domain_retargets(self):
        spec = ControllerSpec().for_domain("batch-vm")
        assert spec.domains == ("batch-vm",)


class TestScenarioIntegration:
    def test_controller_requires_virtualized(self):
        base = scenario("bare-metal", "browsing", duration_s=40.0)
        with pytest.raises(ConfigurationError):
            replace(base, controller=ControllerSpec())

    def test_cache_key_distinguishes_controllers(self):
        base = scenario("virtualized", "browsing", duration_s=40.0)
        static = replace(base, controller=ControllerSpec(kind="static"))
        threshold = replace(base, controller=ControllerSpec())
        keys = {base.cache_key, static.cache_key, threshold.cache_key}
        assert len(keys) == 3

    def test_autoscaled_factories_build(self):
        flash = autoscaled_flash_crowd_scenario(duration_s=60.0, clients=200)
        assert flash.controller.kind == "threshold"
        assert flash.traffic.retry_max == 2
        # Capacity bands scale with the client population.
        assert flash.controller.min_cap_cores == pytest.approx(0.05)
        assert flash.controller.max_cap_cores == pytest.approx(0.4)
        static = autoscaled_flash_crowd_scenario(
            duration_s=60.0, clients=200, controller="static"
        )
        assert static.name.endswith("_static")
        cons = autoscaled_consolidated_scenario(duration_s=60.0)
        assert cons.controller.weight_boost > 0

    def test_controlled_property(self):
        base = scenario("virtualized", "browsing", duration_s=40.0)
        assert not base.controlled
        assert replace(base, controller=ControllerSpec()).controlled
        tenant = TenantSpec(controller=ControllerSpec(kind="static"))
        assert replace(base, tenants=(tenant,)).controlled


class TestTenantSpecController:
    def test_tenant_controller_round_trips_through_dict(self):
        tenant = TenantSpec(
            controller=ControllerSpec(kind="threshold", invert=True)
        )
        config = ExperimentConfig(tenants=(tenant,))
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.tenants[0].controller == tenant.controller
        assert rebuilt == config

    def test_tenant_controller_coerced_from_dict(self):
        tenant = TenantSpec.from_dict(
            {"controller": {"kind": "static", "domains": ["web-vm"]}}
        )
        assert isinstance(tenant.controller, ControllerSpec)


class TestExperimentConfig:
    def test_controller_token_round_trip(self):
        config = ExperimentConfig(controller="threshold")
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.controller == "threshold"
        spec = rebuilt.to_scenario()
        assert spec.controller.kind == "threshold"
        assert spec.name.endswith("@threshold")

    def test_controller_token_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(controller="magic")

    def test_controller_rejected_on_bare_metal(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                environment="bare-metal", controller="threshold"
            )

    def test_none_token_means_no_controller(self):
        assert ExperimentConfig(controller="none").to_scenario().controller \
            is None
