"""Tests for the Section 6 implementation options and space reclamation."""

import pytest

from repro.core.operator import SetContainmentJoin, Testbed, run_disk_join
from repro.core.psj import PSJPartitioner
from repro.core.sets import containment_pairs_nested_loop
from repro.core.signatures import recommend_signature_bits
from repro.errors import ConfigurationError
from repro.parallel.executor import Execution


class TestResidentPartitions:
    def test_result_unchanged(self, small_workload):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        for resident in (1, 4, 8):
            result, __ = run_disk_join(
                lhs, rhs, PSJPartitioner(8, seed=1),
                resident_partitions=resident,
            )
            assert result == expected, resident

    def test_resident_entries_not_written(self, small_workload):
        lhs, rhs = small_workload
        __, baseline = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))
        __, resident = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), resident_partitions=4
        )
        # Total partition entries are conserved; part move to memory.
        assert (
            resident.replicated_signatures + resident.resident_signatures
            == baseline.replicated_signatures
        )
        assert resident.resident_signatures > 0
        assert resident.replicated_signatures < baseline.replicated_signatures
        # Fewer partition entries written -> fewer page writes.
        assert resident.total_page_writes <= baseline.total_page_writes

    def test_all_partitions_resident(self, small_workload):
        """resident >= k degenerates to a pure in-memory partition join."""
        lhs, rhs = small_workload
        result, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(4, seed=1), resident_partitions=99
        )
        assert result == containment_pairs_nested_loop(lhs, rhs)
        assert metrics.replicated_signatures == 0
        assert metrics.resident_signatures > 0

    def test_negative_rejected(self, paper_r, paper_s):
        with Testbed() as testbed:
            testbed.load(paper_r, paper_s)
            with pytest.raises(ConfigurationError):
                SetContainmentJoin(
                    testbed, PSJPartitioner(4), resident_partitions=-1
                )


class TestSpilledCandidates:
    def test_result_unchanged(self, small_workload):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        result, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), spill_candidates=True
        )
        assert result == expected
        assert metrics.candidates >= len(expected)

    def test_candidate_counts_match_in_memory_path(self, small_workload):
        lhs, rhs = small_workload
        __, in_memory = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))
        __, spilled = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), spill_candidates=True
        )
        assert spilled.candidates == in_memory.candidates
        assert spilled.false_positives == in_memory.false_positives

    def test_combined_with_resident(self, small_workload):
        lhs, rhs = small_workload
        result, __ = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            spill_candidates=True, resident_partitions=3,
        )
        assert result == containment_pairs_nested_loop(lhs, rhs)


class TestSpaceReclamation:
    def test_partition_pages_freed_after_join(self, small_workload):
        """Partitions are temporary: their pages return to the free list."""
        lhs, rhs = small_workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            live_before = testbed.disk.num_live_pages
            join = SetContainmentJoin(testbed, PSJPartitioner(8, seed=1))
            join.run()
            # Only the relations remain live; partition pages were freed.
            assert testbed.disk.num_free_pages > 0
            assert testbed.disk.num_live_pages == live_before

    def test_repeated_joins_reuse_pages(self, small_workload):
        """Running many joins must not grow the store without bound."""
        lhs, rhs = small_workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(testbed, PSJPartitioner(8, seed=1))
            join.run()
            pages_after_first = testbed.disk.num_pages
            for __ in range(3):
                join.run()
            assert testbed.disk.num_pages <= pages_after_first + 2


class TestSignatureAdvisor:
    def test_wider_for_more_comparisons(self):
        few = recommend_signature_bits(50, 100, pairs_compared=1e4)
        many = recommend_signature_bits(50, 100, pairs_compared=1e10)
        assert many > few

    def test_paper_scale_within_papers_choice(self):
        """For the case study's θ and comparison volume, the advisor's
        minimum (88 bits) is comfortably below the paper's conservative
        160 bits — consistent with 'the exact choice ... is less
        critical' — and 160 bits indeed leaves ≪ 1 expected false
        positive."""
        pairs = 0.5 * 10_000 * 10_000
        bits = recommend_signature_bits(50, 100, pairs_compared=pairs)
        assert 64 <= bits <= 160
        from repro.core.signatures import false_positive_probability

        assert pairs * false_positive_probability(50, 100, 160) < 1e-6

    def test_byte_aligned(self):
        bits = recommend_signature_bits(10, 20, pairs_compared=1e6)
        assert bits % 8 == 0

    def test_capped_at_max(self):
        bits = recommend_signature_bits(
            1000, 10_000, pairs_compared=1e18, max_bits=512
        )
        assert bits == 512

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            recommend_signature_bits(10, 20, pairs_compared=-1)
        with pytest.raises(ConfigurationError):
            recommend_signature_bits(10, 20, 100, target_false_positives=0)
        with pytest.raises(ConfigurationError):
            recommend_signature_bits(10, 20, 100, domain=0)

    def test_small_domain_gets_the_lossless_width(self):
        """A domain whose byte-rounded width is within the estimate's
        answer gets that width: signatures are then the sets."""
        lossy = recommend_signature_bits(4, 24, pairs_compared=6000 * 9000)
        assert lossy > 152
        assert recommend_signature_bits(
            4, 24, pairs_compared=6000 * 9000, domain=150
        ) == 152
        assert recommend_signature_bits(
            4, 24, pairs_compared=6000 * 9000, domain=1
        ) == 8

    def test_large_domain_keeps_the_estimate(self):
        lossy = recommend_signature_bits(50, 100, pairs_compared=1e8)
        assert recommend_signature_bits(
            50, 100, pairs_compared=1e8, domain=10_000
        ) == lossy
        assert recommend_signature_bits(
            50, 100, pairs_compared=1e8, domain=lossy + 1
        ) == lossy


class TestSignatureWidthValidation:
    """A width the join cannot use fails at construction, before any
    partition store exists, from every entry point."""

    BAD = [2.5, True, False, 0, -8, "160", None]

    @pytest.fixture()
    def relations(self):
        from repro.data.workloads import uniform_workload

        return uniform_workload(
            20, 30, 2, 6, domain_size=50, seed=1
        ).materialize()

    @pytest.mark.parametrize("bits", BAD)
    def test_containment_join(self, relations, bits):
        from repro.core.api import containment_join

        with pytest.raises(ConfigurationError, match="signature_bits"):
            containment_join(*relations, "PSJ", 4, signature_bits=bits)

    @pytest.mark.parametrize("bits", BAD)
    def test_run_disk_join(self, relations, bits):
        with pytest.raises(ConfigurationError, match="signature_bits"):
            run_disk_join(*relations, PSJPartitioner(4), signature_bits=bits)

    @pytest.mark.parametrize("bits", BAD)
    def test_database_join(self, relations, bits):
        from repro.database import SetJoinDatabase

        with SetJoinDatabase.open(None) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            pages = db.disk.num_pages
            with pytest.raises(ConfigurationError, match="signature_bits"):
                db.join("R", "S", "PSJ", 4, signature_bits=bits)
            assert db.disk.num_pages == pages

    @pytest.mark.parametrize("bits", BAD)
    def test_sharded_join(self, relations, bits):
        from repro.dist import ShardedDatabase

        with ShardedDatabase.open(None, shards=2) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            with pytest.raises(ConfigurationError, match="signature_bits"):
                db.join("R", "S", "PSJ", 4, signature_bits=bits)

    def test_integral_widths_run(self, relations):
        import numpy as np

        expected = containment_pairs_nested_loop(*relations)
        for bits in (1, 7, np.int64(64)):
            pairs, metrics = run_disk_join(
                *relations, PSJPartitioner(4), signature_bits=bits
            )
            assert pairs == expected
            assert type(metrics.signature_bits) is int


def _refuse(*args, **kwargs):
    raise AssertionError("reached past option validation")


def _built(options):
    """``options`` as an entry point takes them: an ``execution`` row
    builds its :class:`Execution` here, which is where it fails."""
    options = dict(options)
    if "execution" in options:
        options["execution"] = Execution(**options["execution"])
    return options


#: Shard timeouts and hooks no run can use.  They reach a join as its
#: ``execution``, which rejects them when it is built — before the entry
#: point is even called.  ``run_disk_join`` takes no execution.
EXECUTION_INVALID = [
    pytest.param({"execution": {"timeout": 0}}, "timeout",
                 id="shard_timeout=0"),
    pytest.param({"execution": {"timeout": -1}}, "timeout",
                 id="shard_timeout=-1"),
    pytest.param({"execution": {"timeout": float("nan")}}, "timeout",
                 id="shard_timeout=nan"),
    pytest.param({"execution": {"timeout": float("inf")}}, "timeout",
                 id="shard_timeout=inf"),
    pytest.param({"execution": {"timeout": True}}, "timeout",
                 id="shard_timeout=True"),
    pytest.param({"execution": {"timeout": "5"}}, "timeout",
                 id="shard_timeout='5'"),
    pytest.param({"execution": {"hook": 5}}, "hook", id="shard_hook=5"),
]
#: Values of the remaining options no join runs with, and the option the
#: error names.  ``backend`` is ``run_disk_join``'s and the databases'
#: name for the operator's ``parallel_backend``.
SHARED_INVALID = [
    pytest.param({"workers": 0}, "workers", id="workers=0"),
    pytest.param({"workers": -2}, "workers", id="workers=-2"),
    pytest.param({"workers": 2.5}, "workers", id="workers=2.5"),
    pytest.param({"workers": True}, "workers", id="workers=True"),
    pytest.param({"workers": "2"}, "workers", id="workers='2'"),
    pytest.param({"workers": None}, "workers", id="workers=None"),
    pytest.param({"backend": "gpu"}, "parallel_backend", id="backend=gpu"),
    pytest.param({"backend": None}, "parallel_backend", id="backend=None"),
    pytest.param({"signature_bits": 2.5}, "signature_bits",
                 id="signature_bits=2.5"),
]
#: Options only the one-testbed operator takes.
OPERATOR_INVALID = SHARED_INVALID + [
    pytest.param({"resident_partitions": -1}, "resident_partitions",
                 id="resident_partitions=-1"),
    pytest.param({"resident_partitions": 1.5}, "resident_partitions",
                 id="resident_partitions=1.5"),
    pytest.param({"resident_partitions": True}, "resident_partitions",
                 id="resident_partitions=True"),
    pytest.param({"workers": 2, "spill_candidates": True}, "spill_candidates",
                 id="workers=2+spill_candidates"),
]


class TestOptionValidation:
    """Every option no join runs with fails at construction — before a
    relation, partition store or placement exists — from every entry point
    that takes it, instead of mid-run or silently as a default."""

    @pytest.fixture()
    def relations(self):
        from repro.data.workloads import uniform_workload

        return uniform_workload(
            20, 30, 2, 6, domain_size=50, seed=1
        ).materialize()

    @pytest.mark.parametrize("options, named",
                             OPERATOR_INVALID + EXECUTION_INVALID)
    def test_operator(self, relations, options, named):
        options = dict(options)
        if "backend" in options:
            options["parallel_backend"] = options.pop("backend")
        with Testbed() as testbed:
            testbed.load(*relations)
            pages = testbed.disk.num_pages
            with pytest.raises(ConfigurationError, match=named):
                SetContainmentJoin(testbed, PSJPartitioner(4),
                                   **_built(options))
            assert testbed.disk.num_pages == pages

    @pytest.mark.parametrize("options, named", OPERATOR_INVALID)
    def test_run_disk_join(self, relations, tmp_path, options, named):
        path = tmp_path / "join.db"
        with pytest.raises(ConfigurationError, match=named):
            run_disk_join(*relations, PSJPartitioner(4), path=str(path),
                          **options)
        assert not path.exists()

    @pytest.mark.parametrize("options, named",
                             SHARED_INVALID + EXECUTION_INVALID)
    def test_database_join(self, relations, options, named):
        from repro.database import SetJoinDatabase

        with SetJoinDatabase.open(None) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            pages = db.disk.num_pages
            with pytest.raises(ConfigurationError, match=named):
                db.join("R", "S", "PSJ", 4, **_built(options))
            assert db.disk.num_pages == pages

    @pytest.mark.parametrize("options, named",
                             SHARED_INVALID + EXECUTION_INVALID)
    def test_sharded_join(self, relations, monkeypatch, options, named):
        from repro.dist import ShardedDatabase

        with ShardedDatabase.open(None, shards=2) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            monkeypatch.setattr(db, "_place", _refuse)
            with pytest.raises(ConfigurationError, match=named):
                db.join("R", "S", "PSJ", 4, **_built(options))

    @pytest.mark.parametrize("shards", [0, -1, 1.5, True, "2", None])
    def test_shard_count(self, monkeypatch, shards):
        from repro.dist import Shard, ShardedDatabase

        monkeypatch.setattr(Shard, "open", _refuse)
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedDatabase.open(None, shards=shards)

    def test_valid_edge_values_run(self, relations):
        import numpy as np

        expected = containment_pairs_nested_loop(*relations)
        for options in (
            {"workers": np.int64(2), "backend": "thread"},
            {"resident_partitions": np.int64(9)},
            {"payload_size": 64},
        ):
            pairs, __ = run_disk_join(*relations, PSJPartitioner(4), **options)
            assert pairs == expected, options
        from repro.dist import ShardedDatabase

        with ShardedDatabase.open(None, shards=np.int64(2)) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            # A timeout past what a wait can time (threading.TIMEOUT_MAX)
            # waits without end instead of overflowing.
            for execution in (Execution(timeout=np.float64(30.0)),
                              Execution(timeout=1e300)):
                pairs, __ = db.join("R", "S", "PSJ", 4, workers=2,
                                    backend="thread", execution=execution)
                assert pairs == expected


#: Partition counts no join runs at.  ``None`` is the default, 32.
PARTITION_COUNT_INVALID = [
    pytest.param(0, id="k=0"),
    pytest.param(-3, id="k=-3"),
    pytest.param(True, id="k=True"),
    pytest.param(2.5, id="k=2.5"),
    pytest.param("8", id="k='8'"),
]


class TestPartitionCount:
    """``num_partitions`` is ``None`` or a positive integer, whichever the
    algorithm: every other value raises :class:`ConfigurationError` from
    the one resolver, before a join runs — never a silent 32 or a raw
    ``TypeError``."""

    @pytest.fixture()
    def relations(self):
        from repro.data.workloads import uniform_workload

        return uniform_workload(
            20, 30, 2, 6, domain_size=50, seed=1
        ).materialize()

    @pytest.mark.parametrize("algorithm", ["auto", "DCJ", "PSJ", "LSJ"])
    @pytest.mark.parametrize("k", PARTITION_COUNT_INVALID)
    def test_containment_join(self, relations, algorithm, k):
        from repro.core.api import containment_join

        with pytest.raises(ConfigurationError, match="num_partitions"):
            containment_join(*relations, algorithm, k)

    @pytest.mark.parametrize("k", PARTITION_COUNT_INVALID)
    def test_database_join(self, relations, k):
        from repro.database import SetJoinDatabase

        with SetJoinDatabase.open(None) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            pages = db.disk.num_pages
            with pytest.raises(ConfigurationError, match="num_partitions"):
                db.join("R", "S", "DCJ", k)
            assert db.disk.num_pages == pages

    @pytest.mark.parametrize("k", PARTITION_COUNT_INVALID)
    def test_sharded_join(self, relations, monkeypatch, k):
        from repro.dist import ShardedDatabase

        with ShardedDatabase.open(None, shards=2) as db:
            db.create_relation("R", relations[0])
            db.create_relation("S", relations[1])
            monkeypatch.setattr(db, "_place", _refuse)
            with pytest.raises(ConfigurationError, match="num_partitions"):
                db.join("R", "S", "DCJ", k)

    def test_cli_refuses_k_0(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "r.txt").write_text("1 5\n10 13\n")
        (tmp_path / "s.txt").write_text("1 5 7\n8 10 13\n")
        assert main(["join", str(tmp_path / "r.txt"), str(tmp_path / "s.txt"),
                     "--algorithm", "dcj", "-k", "0"]) == 1
        assert "num_partitions" in capsys.readouterr().err

    def test_default_and_integral_counts_run(self, relations):
        import numpy as np

        from repro.core.api import containment_join

        expected = containment_pairs_nested_loop(*relations)
        for k, ran in ((None, 32), (np.int64(8), 8), (1, 1)):
            pairs, metrics = containment_join(*relations, "DCJ", k)
            assert pairs == expected
            assert metrics.num_partitions == ran


#: Options no join runs with, as the one-relation API entry points take
#: them.
API_INVALID = [
    pytest.param({"signature_bits": -5}, "signature_bits",
                 id="signature_bits=-5"),
    pytest.param({"workers": 0}, "workers", id="workers=0"),
    pytest.param({"backend": "gpu"}, "parallel_backend", id="backend=gpu"),
    pytest.param({"num_partitions": -3}, "num_partitions",
                 id="num_partitions=-3"),
    pytest.param({"algorithm": "NLJ"}, "algorithm", id="algorithm=NLJ"),
]


class TestEmptyInputs:
    """An empty side answers nothing, but only after every option is
    checked: the same call refuses the same option with or without rows."""

    @pytest.fixture()
    def relations(self):
        from repro.core.sets import Relation

        return Relation.from_sets([{1, 2}, {3}]), Relation(name="empty")

    @pytest.mark.parametrize("options, named", API_INVALID)
    @pytest.mark.parametrize("join", ["containment", "superset"])
    def test_two_relation_joins(self, relations, join, options, named):
        from repro.core import api

        rows, empty = relations
        call = getattr(api, f"{join}_join")
        for lhs, rhs in ((rows, empty), (empty, rows), (empty, empty),
                         (rows, rows)):
            with pytest.raises(ConfigurationError, match=named):
                call(lhs, rhs, **options)

    @pytest.mark.parametrize("options, named", API_INVALID)
    def test_self_join(self, relations, options, named):
        from repro.core.api import self_containment_join

        for relation in relations:
            with pytest.raises(ConfigurationError, match=named):
                self_containment_join(relation, **options)

    @pytest.mark.parametrize("options, named", API_INVALID)
    def test_analyze(self, relations, options, named):
        from repro.core.api import analyze_containment_join

        rows, empty = relations
        with pytest.raises(ConfigurationError, match=named):
            analyze_containment_join(rows, empty, **options)

    def test_valid_options_answer_nothing(self, relations):
        from repro.core.api import (
            containment_join,
            self_containment_join,
            superset_join,
        )

        rows, empty = relations
        assert containment_join(rows, empty, "DCJ", 4)[0] == set()
        assert superset_join(empty, rows, signature_bits=8)[0] == set()
        assert self_containment_join(empty, workers=2, backend="thread")[0] == set()
