"""``ablation-components``: ledger billing, invariance pinning, ranking,
the claim checks, and the numbers pinned at scale 0.5, seed 11.

The experiment runs once per module at its default scale (a few seconds);
the tests that break an invariant on purpose rerun it there too, since
below it the tight buffer pool holds the whole working set and the
buffer-size check fails untampered.
"""

import itertools

import pytest

from repro.errors import SetJoinError
from repro.obs.ledger import QueryLedger
from repro.obs.registry import get_registry
from repro.experiments import ablations
from repro.experiments.ablations import (
    ANSWER_AFFECTING,
    ANSWER_EXACT,
    BASELINE_KNOBS,
    COMPONENTS,
    run_components,
)

#: x, y, pages, WAL bytes and plan pages of every configuration, measured
#: by the harness this experiment replaced (scale 0.5, seed 11).
PINNED = {
    "baseline:-": (37689, 1472, 73, 102664, 19),
    "alternation:alpha-only": (37689, 1808, 79, 102664, 19),
    "alternation:beta-only": (37689, 1969, 91, 102664, 19),
    "buffer-policy:clock": (37689, 1472, 73, 102664, 19),
    "buffer-policy:fifo": (37689, 1472, 73, 102664, 19),
    # Domain 150 < 160 bits, so no run fetches its candidates back
    # through the tight pool (DESIGN.md §1.20).  Pages 101 → 130 once
    # stores took their size from the catalog (DESIGN.md §1.19): no
    # uncounted walk of S's keys warms the pool before the join.
    "buffer-size:tight": (37689, 1472, 130, 102664, 19),
    "checksums:off": (37689, 1472, 73, 102664, 19),
    "firing-probability:4x-b": (40255, 1237, 64, 102664, 19),
    "firing-probability:quarter-b": (41140, 1994, 76, 102664, 19),
    "hash-family:primes": (38002, 1519, 79, 102664, 19),
    "parallel-backend:serial": (37689, 1472, 73, 102664, 19),
    "plan-cache:off": (37689, 1472, 73, 102664, 38),
    "wal:off": (37689, 1472, 147, 0, 19),
}

#: Each component's max-impact variant: (variant, d_x, d_y, d_pages,
#: d_wal_bytes, d_plan_pages, importance_det), as the replaced harness
#: reported them.
PINNED_MAX_DELTAS = {
    "wal": ("off", 0.0, 0.0, 1.0137, -1.0, 0.0, 1.0137),
    "plan-cache": ("off", 0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
    "buffer-size": ("tight", 0.0, 0.0, 0.7808, 0.0, 0.0, 0.7808),
    "firing-probability": ("quarter-b", 0.0916, 0.3546, 0.0411, 0.0, 0.0,
                           0.3546),
    "alternation": ("beta-only", 0.0, 0.3376, 0.2466, 0.0, 0.0, 0.3376),
    "hash-family": ("primes", 0.0083, 0.0319, 0.0822, 0.0, 0.0, 0.0822),
    "buffer-policy": ("clock", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "checksums": ("off", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "parallel-backend": ("serial", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

AXES = ("x", "y", "pages", "wal_bytes", "plan_pages")


@pytest.fixture(scope="module")
def billed():
    """The default run plus the registry's movement over all of it."""
    registry = get_registry()
    before = registry.snapshot()
    result = run_components(scale=0.5, seed=11)
    return result, QueryLedger.from_delta(registry.delta(before), 0.0, 0.0)


@pytest.fixture(scope="module")
def result(billed):
    return billed[0]


def _variants(result):
    return result.rows[1:]


def _baseline(result):
    assert result.rows[0]["component"] == "baseline"
    return result.rows[0]


def _run_tampered(monkeypatch, tamper):
    """Rerun at the default scale 0.5 with ``tamper(knobs, outcome)`` applied to
    every configuration's suite outcome."""
    real = ablations._run_suite

    def tampered(knobs, scale, seed):
        outcome = real(knobs, scale, seed)
        tamper(knobs, outcome)
        return outcome

    monkeypatch.setattr(ablations, "_run_suite", tampered)
    return run_components(scale=0.5)


def _failed(result):
    return [description for description, ok in result.checks if not ok]


class TestPinnedNumbers:
    def test_every_configuration_reproduces_the_replaced_harness(self, result):
        measured = {
            f"{row['component']}:{row['variant']}":
            tuple(row[axis] for axis in AXES)
            for row in result.rows
        }
        assert measured == PINNED
        assert {row["pairs_digest"] for row in result.rows} == {
            "afd4d00b2d2c1d9a"}

    def test_max_variant_deltas_match_the_replaced_report(self, result):
        best = {}
        for row in _variants(result):
            if row["component"] not in best:   # rows are ranked
                best[row["component"]] = (
                    row["variant"],
                    *(row[f"d_{axis}"] for axis in AXES),
                    row["importance_det"],
                )
        assert best == PINNED_MAX_DELTAS


class TestLedgerBilling:
    def test_reconciliation_is_exact(self, billed):
        """Every page and WAL byte the experiment moved is billed to one
        of its rows: no storage work happens outside a run's window."""
        result, total = billed
        resources = total.resources
        assert sum(row["pages"] for row in result.rows) == (
            resources["pages_read"] + resources["pages_written"])
        assert sum(row["wal_bytes"] for row in result.rows) == (
            resources["wal_bytes"])

    def test_every_run_billed_nonzero_work(self, result):
        for row in result.rows:
            assert row["x"] > 0, row["component"]
            assert row["pages"] > 0, row["component"]
            assert row["t_total_s"] > 0

    def test_wal_bytes_billed_only_to_durable_runs(self, result):
        for row in result.rows:
            if (row["component"], row["variant"]) == ("wal", "off"):
                assert row["wal_bytes"] == 0
            else:
                assert row["wal_bytes"] > 0, row["component"]


class TestInvariancePinning:
    def test_all_runs_agree_on_pairs(self, result):
        """The containment join's answer is unique: every configuration
        must produce the identical pair set."""
        assert len({row["pairs_digest"] for row in result.rows}) == 1

    def test_answer_exact_runs_pin_x_and_y(self, result):
        baseline = _baseline(result)
        for row in _variants(result):
            if row["invariance"] == ANSWER_EXACT:
                assert row["x"] == baseline["x"], row["component"]
                assert row["y"] == baseline["y"], row["component"]

    def test_answer_affecting_components_move_accounting(self, result):
        """The partitioning knobs must actually change x or y somewhere —
        otherwise their ablation measures nothing."""
        baseline = _baseline(result)
        moved = {
            row["component"] for row in _variants(result)
            if row["invariance"] == ANSWER_AFFECTING
            and (row["x"], row["y"]) != (baseline["x"], baseline["y"])
        }
        assert moved == {"alternation", "firing-probability", "hash-family"}

    def test_repeats_are_deterministic(self, monkeypatch):
        """A workload whose repeats disagree raises instead of reaching a
        row."""
        counter = itertools.count()
        monkeypatch.setattr(ablations, "_pairs_digest",
                            lambda pairs: f"{next(counter):016x}")
        with pytest.raises(SetJoinError, match="nondeterministic"):
            ablations._run_suite(BASELINE_KNOBS, 0.25, 11)


class TestScoring:
    def test_every_component_ranked(self, result):
        variants = sum(len(component.variants) for component in COMPONENTS)
        assert len(result.rows) == 1 + variants
        ranks = {}
        for row in _variants(result):
            ranks.setdefault(row["component"], set()).add(row["rank"])
        assert set(ranks) == {component.name for component in COMPONENTS}
        assert all(len(rank) == 1 for rank in ranks.values())
        assert sorted(rank.pop() for rank in ranks.values()) == list(
            range(1, len(COMPONENTS) + 1))

    def test_rank_order_follows_deterministic_importance(self, result):
        ranks = [row["rank"] for row in _variants(result)]
        assert ranks == sorted(ranks)
        firsts = {}
        for row in _variants(result):
            firsts.setdefault(row["rank"], row["importance_det"])
        dets = [firsts[rank] for rank in sorted(firsts)]
        assert dets == sorted(dets, reverse=True)

    def test_wal_and_plan_cache_have_deterministic_importance(self, result):
        best = {}
        for row in _variants(result):
            best.setdefault(row["component"], row["importance_det"])
        assert best["wal"] > 0.5           # all WAL bytes
        assert best["plan-cache"] > 0.5    # replans

    def test_all_answer_invariants_hold(self, result):
        assert all(row["answer_ok"] == "yes" for row in result.rows)


class TestTripwire:
    def test_self_check_passes(self, result):
        assert len(result.checks) == 7
        assert result.all_checks_pass, _failed(result)

    def test_answer_exactness_violation_fails(self, monkeypatch):
        def move_x(knobs, outcome):
            if not knobs["verify_checksums"]:
                outcome["x"] += 1

        tampered = _run_tampered(monkeypatch, move_x)
        assert _failed(tampered) == ["every answer-exact variant keeps x and y"]
        verdicts = {row["component"]: row["answer_ok"]
                    for row in tampered.rows}
        assert verdicts["checksums"] == "NO"
        assert verdicts["wal"] == "yes"

    def test_importance_collapse_fails(self, monkeypatch):
        """A component that stops doing its work fails its direction
        check: here the plan cache stays on when it is switched off."""
        real = ablations._run_suite
        monkeypatch.setattr(
            ablations, "_run_suite",
            lambda knobs, scale, seed: real(dict(knobs, plan_cache=True),
                                            scale, seed))
        tampered = run_components(scale=0.5)
        assert _failed(tampered) == ["plan-cache:off raises plan pages"]
