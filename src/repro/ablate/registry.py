"""Declarative component registry for the ablation harness.

Every separable design choice in the system — the paper's (alternation
heuristic, optimal firing probability, hash-family construction) and the
repo's own (WAL, checksums, buffer policy and size, plan cache,
parallel backend) — registers here as a :class:`Component`:
a name, the layer it lives in, the knob it toggles, one or more ablated
variants, and an **invariance class**:

* ``answer-exact`` — turning the component off must not change the join
  answer *or* the paper's x/y accounting.  The harness pins pairs, x and
  y bit-identical against the baseline run; any drift fails the CI
  tripwire.  (Storage/engine components: checksums, WAL, buffer pool,
  plan cache, parallel backend.)
* ``answer-affecting`` — the component legitimately changes the physical
  plan, so x/y may move (that movement *is* its importance), but the
  join answer itself is still unique: pairs must stay bit-identical.
  (Partitioning components: hash family, firing probability,
  alternation.)

Components toggle through :data:`BASELINE_KNOBS` — a flat dict of knob
name → baseline value that :mod:`repro.ablate.bench` interprets when
assembling a run.  A variant is just a partial override of that dict, so
registering a new component is one :func:`register_component` call; the
matrix generator, executor, scorer, CLI and CI tripwire pick it up with
no further wiring (see ``docs/ablation.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "ANSWER_AFFECTING",
    "ANSWER_EXACT",
    "BASELINE_KNOBS",
    "Component",
    "all_components",
    "get_component",
    "register_component",
]

ANSWER_EXACT = "answer-exact"
ANSWER_AFFECTING = "answer-affecting"

_INVARIANCE_CLASSES = (ANSWER_EXACT, ANSWER_AFFECTING)

#: The baseline configuration every ablation run is a one-knob deviation
#: from.  Values must be plain JSON data — run IDs hash them.
BASELINE_KNOBS: dict = {
    # storage
    "durable": True,            # WAL-wrapped disk manager
    "verify_checksums": True,   # CRC check on every page read
    "buffer_pages": 128,        # buffer-pool capacity (frames)
    "buffer_policy": "lru",     # replacement policy
    # partitioning (the paper's knobs)
    "family_kind": "bitstring", # monotone hash-family construction
    "firing_scale": 1.0,        # multiplier on the optimal bit-string length b
    "pattern": "alternating",   # α/β operator alternation
    # service
    "plan_cache": True,         # reuse plans across repeat executions
    # engine
    "workers": 2,               # partition-parallel workers
    "backend": "thread",        # parallel backend
}


@dataclass(frozen=True)
class Component:
    """One registered, ablatable design choice.

    ``variants`` maps a variant name to the knob overrides that disable
    or perturb the component; the scorer reports the max-impact variant.
    """

    name: str
    layer: str
    description: str
    invariance: str
    variants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.invariance not in _INVARIANCE_CLASSES:
            raise ConfigurationError(
                f"component {self.name!r}: invariance must be one of "
                f"{_INVARIANCE_CLASSES}, got {self.invariance!r}"
            )
        if not self.variants:
            raise ConfigurationError(
                f"component {self.name!r} registers no variants"
            )
        for variant, overrides in self.variants.items():
            unknown = set(overrides) - set(BASELINE_KNOBS)
            if unknown:
                raise ConfigurationError(
                    f"component {self.name!r} variant {variant!r} overrides "
                    f"unknown knobs {sorted(unknown)}"
                )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "description": self.description,
            "invariance": self.invariance,
            "variants": {name: dict(ov) for name, ov in self.variants.items()},
        }


_COMPONENTS: dict[str, Component] = {}


def register_component(component: Component) -> Component:
    """Add one component to the registry (idempotent re-registration of
    an identical definition is allowed; conflicting names are not)."""
    existing = _COMPONENTS.get(component.name)
    if existing is not None and existing != component:
        raise ConfigurationError(
            f"component {component.name!r} already registered with a "
            "different definition"
        )
    _COMPONENTS[component.name] = component
    return component


def get_component(name: str) -> Component:
    component = _COMPONENTS.get(name)
    if component is None:
        known = ", ".join(sorted(_COMPONENTS))
        raise ConfigurationError(
            f"unknown ablation component {name!r}; registered: {known}"
        )
    return component


def all_components() -> list[Component]:
    """Every registered component, name-sorted (stable matrix order)."""
    return [_COMPONENTS[name] for name in sorted(_COMPONENTS)]


# ---------------------------------------------------------------------------
# Built-in components.  Layer names mirror the package layout.
# ---------------------------------------------------------------------------

register_component(Component(
    name="checksums",
    layer="storage",
    description="CRC32 verification on every page read (PR 1); off skips "
    "the check so torn writes and bit rot decode as garbage",
    invariance=ANSWER_EXACT,
    variants={"off": {"verify_checksums": False}},
))

register_component(Component(
    name="wal",
    layer="storage",
    description="write-ahead logging of catalog-changing transactions "
    "(PR 1); off reverts to best-effort mutate-then-flush",
    invariance=ANSWER_EXACT,
    variants={"off": {"durable": False}},
))

register_component(Component(
    name="buffer-policy",
    layer="storage",
    description="buffer-pool replacement policy (paper §5 holds it "
    "constant; the pool also implements clock and fifo)",
    invariance=ANSWER_EXACT,
    variants={"clock": {"buffer_policy": "clock"},
              "fifo": {"buffer_policy": "fifo"}},
))

register_component(Component(
    name="buffer-size",
    layer="storage",
    description="buffer-pool capacity; tight pools evict partition pages "
    "mid-join and pay re-reads",
    invariance=ANSWER_EXACT,
    variants={"tight": {"buffer_pages": 16}},
))

register_component(Component(
    name="hash-family",
    layer="core",
    description="monotone hash-family construction: the paper's §3 "
    "bit-string family vs the [MGM01] disjoint-prime groups",
    invariance=ANSWER_AFFECTING,
    variants={"primes": {"family_kind": "primes"}},
))

register_component(Component(
    name="firing-probability",
    layer="core",
    description="optimal firing probability q* = λ/(1+λ) via the optimal "
    "bit-string length b (§3); variants detune b by 4x either way",
    invariance=ANSWER_AFFECTING,
    variants={"quarter-b": {"firing_scale": 0.25},
              "4x-b": {"firing_scale": 4.0}},
))

register_component(Component(
    name="alternation",
    layer="core",
    description="the §2.3 α/β operator alternation (split whichever side "
    "the previous step replicated) vs all-α or all-β trees",
    invariance=ANSWER_AFFECTING,
    variants={"alpha-only": {"pattern": "alpha"},
              "beta-only": {"pattern": "beta"}},
))

register_component(Component(
    name="plan-cache",
    layer="service",
    description="statistics-fingerprint plan cache (PR 7): repeat "
    "executions reuse the plan instead of re-sampling and re-costing",
    invariance=ANSWER_EXACT,
    variants={"off": {"plan_cache": False}},
))

register_component(Component(
    name="parallel-backend",
    layer="engine",
    description="partition-parallel execution (PR 2); results and x/y "
    "are pinned backend-identical, so its importance is wall time",
    invariance=ANSWER_EXACT,
    variants={"serial": {"workers": 1, "backend": "serial"}},
))
