"""The ``ablation-components`` component table: coverage and invariance
classes."""

from repro.experiments.ablations import (
    ANSWER_AFFECTING,
    ANSWER_EXACT,
    BASELINE_KNOBS,
    COMPONENTS,
)

#: The components the acceptance criteria name explicitly.
REQUIRED = {
    "checksums", "wal", "buffer-policy", "buffer-size", "hash-family",
    "firing-probability", "alternation", "plan-cache", "parallel-backend",
}

BY_NAME = {component.name: component for component in COMPONENTS}


class TestBuiltinRegistry:
    def test_required_components_registered(self):
        assert REQUIRED <= set(BY_NAME)

    def test_at_least_eight_components(self):
        assert len(COMPONENTS) >= 8

    def test_components_sorted_by_name(self):
        names = [component.name for component in COMPONENTS]
        assert names == sorted(names)

    def test_invariance_classes(self):
        for component in COMPONENTS:
            assert component.invariance in (ANSWER_EXACT, ANSWER_AFFECTING)
            assert component.variants, component.name
        # Partitioning knobs legitimately move x/y; storage/engine must not.
        assert BY_NAME["alternation"].invariance == ANSWER_AFFECTING
        assert BY_NAME["wal"].invariance == ANSWER_EXACT
        assert BY_NAME["parallel-backend"].invariance == ANSWER_EXACT

    def test_every_variant_overrides_known_knobs(self):
        for component in COMPONENTS:
            for overrides in component.variants.values():
                assert set(overrides) <= set(BASELINE_KNOBS)

    def test_every_variant_differs_from_baseline(self):
        for component in COMPONENTS:
            for variant, overrides in component.variants.items():
                assert any(
                    BASELINE_KNOBS[knob] != value
                    for knob, value in overrides.items()
                ), f"{component.name}:{variant} is a no-op"
