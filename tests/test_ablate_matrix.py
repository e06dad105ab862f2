"""The ``ablation-components`` configurations: baseline plus one
component off per run."""

from repro.experiments.ablations import (
    BASELINE_KNOBS,
    COMPONENTS,
    configurations,
)


class TestMatrixShape:
    def test_baseline_plus_one_variant_per_run(self):
        runs = list(configurations())
        variants = sum(len(component.variants) for component in COMPONENTS)
        assert len(runs) == 1 + variants
        assert runs[0] == (None, None, BASELINE_KNOBS)
        for component, variant, knobs in runs[1:]:
            overrides = {
                knob for knob, value in knobs.items()
                if BASELINE_KNOBS[knob] != value
            }
            assert overrides == set(component.variants[variant]), (
                f"{component.name}:{variant} is not a clean "
                "one-component diff"
            )
