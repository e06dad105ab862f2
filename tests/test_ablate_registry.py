"""The declarative component registry: schema, invariants, coverage."""

import pytest

from repro.ablate import (
    ANSWER_AFFECTING,
    ANSWER_EXACT,
    BASELINE_KNOBS,
    Component,
    all_components,
    get_component,
    register_component,
)
from repro.errors import ConfigurationError

#: The components the acceptance criteria name explicitly.
REQUIRED = {
    "checksums", "wal", "buffer-policy", "buffer-size", "hash-family",
    "firing-probability", "alternation", "plan-cache", "parallel-backend",
}


class TestBuiltinRegistry:
    def test_required_components_registered(self):
        names = {component.name for component in all_components()}
        assert REQUIRED <= names

    def test_at_least_eight_components(self):
        assert len(all_components()) >= 8

    def test_components_sorted_by_name(self):
        names = [component.name for component in all_components()]
        assert names == sorted(names)

    def test_invariance_classes(self):
        for component in all_components():
            assert component.invariance in (ANSWER_EXACT, ANSWER_AFFECTING)
        # Partitioning knobs legitimately move x/y; storage/engine must not.
        assert get_component("alternation").invariance == ANSWER_AFFECTING
        assert get_component("wal").invariance == ANSWER_EXACT
        assert get_component("parallel-backend").invariance == ANSWER_EXACT

    def test_every_variant_overrides_known_knobs(self):
        for component in all_components():
            for overrides in component.variants.values():
                assert set(overrides) <= set(BASELINE_KNOBS)

    def test_every_variant_differs_from_baseline(self):
        for component in all_components():
            for variant, overrides in component.variants.items():
                assert any(
                    BASELINE_KNOBS[knob] != value
                    for knob, value in overrides.items()
                ), f"{component.name}:{variant} is a no-op"

    def test_get_component_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown ablation"):
            get_component("flux-capacitor")


class TestRegistration:
    def test_rejects_unknown_invariance(self):
        with pytest.raises(ConfigurationError, match="invariance"):
            Component(name="x", layer="y", description="",
                      invariance="sometimes", variants={"off": {}})

    def test_rejects_unknown_knob(self):
        with pytest.raises(ConfigurationError, match="unknown knobs"):
            Component(name="x", layer="y", description="",
                      invariance=ANSWER_EXACT,
                      variants={"off": {"warp_drive": False}})

    def test_rejects_empty_variants(self):
        with pytest.raises(ConfigurationError, match="no variants"):
            Component(name="x", layer="y", description="",
                      invariance=ANSWER_EXACT, variants={})

    def test_identical_reregistration_is_idempotent(self):
        existing = get_component("checksums")
        assert register_component(existing) is existing

    def test_conflicting_reregistration_rejected(self):
        clone = Component(
            name="checksums", layer="storage", description="different",
            invariance=ANSWER_EXACT, variants={"off": {"durable": False}},
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            register_component(clone)

    def test_to_dict_round_trips_schema(self):
        data = get_component("alternation").to_dict()
        assert data["name"] == "alternation"
        assert data["invariance"] == ANSWER_AFFECTING
        assert set(data["variants"]) == {"alpha-only", "beta-only"}
