"""The distributed-join coordinator: N shards behind one database surface.

:class:`ShardedDatabase` mirrors the :class:`~repro.database.SetJoinDatabase`
API (create/drop/join/probe/explain/stats/verify), so the CLI, the query
service and the tests drive either interchangeably.  A distributed join
runs in four steps:

1. **Plan** — the paper's Section 5 optimizer over *exact* global
   statistics (sizes are catalog counts summed over shards; θ is the
   exact integer-sum mean cardinality, so the plan is identical at every
   shard count).  The chosen partitioner is made content-deterministic
   (:func:`~repro.dist.placement.deterministic_partitioner`) so the
   coordinator and every shard agree on each row's partitions.
2. **Summarize + place** — each shard digests its S slice
   (:class:`~repro.dist.placement.ShardSummary`), then the coordinator
   scans R once, a columnar batch at a time, routing the rows to their
   partitions (the logical y share) and, through the
   :class:`~repro.dist.placement.ReplicationPlanner`, to the shards
   whose portions receive the masked slices of the batch.
3. **Fan out** — one :class:`~repro.dist.shard.ShardJoinRequest` per
   shard with work, run through the partition-parallel engine's
   executor (:func:`~repro.parallel.executor.resolve_backend`): on
   threads where shard joins wait, serially otherwise.  Inside each
   shard the ordinary operator runs, including the partition-parallel
   serial/thread/process backends.  Any shard failure (worker death,
   timeout, injected fault) surfaces as the same typed errors the
   single-database engine raises, so the service's retry ladder and
   circuit breakers apply unchanged.
4. **Merge** — the engine's own :func:`~repro.parallel.merge.merge_results`:
   pairs are disjoint across shards (each S row has one home), so the
   result is their sorted union; per-shard
   :class:`~repro.core.metrics.JoinMetrics` fold onto a global header,
   and ``replicated_signatures`` is then restored to the *logical*
   count so the paper's x/y accounting is bit-identical to a
   single-shard run at any shard count.  The
   merged record is published via ``record_join``.
"""

from __future__ import annotations

import copy
import heapq
import json
import os
import time
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..core.metrics import JoinMetrics
from ..core.sets import Relation, take_rows
from ..core.operator import check_join_options
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..database import JoinPlanner
from ..errors import ConfigurationError
from ..obs.trace import current_tracer, use_tracer
from ..parallel.executor import Execution, resolve_backend
from ..parallel.merge import ShardResult, merge_results
from .placement import (
    PlacementReport,
    ReplicationPlanner,
    deterministic_partitioner,
    home_shards,
    publish_placement,
)
from .shard import Shard, ShardJoinRequest

__all__ = ["ShardedDatabase"]

_MANIFEST_SCHEMA = 1


def _manifest_path(path: str) -> str:
    return path + ".shards.json"


def _shard_path(path: "str | None", shard_id: int) -> "str | None":
    return None if path is None else f"{path}.shard{shard_id}"


class _MergedRelationView:
    """Read-only ``RelationStore``-shaped view over all shards' slices.

    Provides the ``scan``/``__len__`` surface callers (e.g. the load
    generator) use on ``db.get_store(name)``; rows come out in global
    tid order via a heap merge of the per-shard tid-ordered scans.
    """

    def __init__(self, name: str, shards: "list[Shard]"):
        self.name = name
        self._shards = shards

    def scan(self) -> Iterator[tuple[int, frozenset, bytes]]:
        scans = [shard.db.get_store(self.name).scan()
                 for shard in self._shards]
        return heapq.merge(*scans, key=lambda row: row[0])

    def __len__(self) -> int:
        return sum(
            shard.db.relation_size(self.name) for shard in self._shards
        )


class ShardedDatabase(JoinPlanner):
    """A coordinator plus N shared-nothing :class:`Shard` databases.

    ``path=None`` keeps every shard in memory; with a path, shard ``i``
    lives in ``<path>.shard<i>`` (each with its own WAL) and the shard-id
    set persists in ``<path>.shards.json`` so reopening without
    ``shards=`` resumes the existing layout.  Shard joins run on threads
    only where they can overlap (see :meth:`_fan_out`); intra-shard
    parallelism is the join call's ``workers``/``backend``.  R rows are
    replicated by partition occupancy (:mod:`repro.dist.placement`), so
    the x/y accounting is bit-identical to single-shard execution.
    """

    def __init__(
        self,
        shards: "list[Shard]",
        path: "str | None" = None,
        model: TimeModel = PAPER_TIME_MODEL,
        model_store=None,
    ):
        if not shards:
            raise ConfigurationError("a sharded database needs >= 1 shard")
        self.shards = sorted(shards, key=lambda shard: shard.shard_id)
        self.path = path
        super().__init__(model, model_store)
        self.last_placement: "PlacementReport | None" = None
        self._closed = False

    # ------------------------------------------------------------------
    # Opening / lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "str | None" = None,
        shards: "int | None" = None,
        *,
        model: TimeModel = PAPER_TIME_MODEL,
        model_store=None,
        **db_kwargs,
    ) -> "ShardedDatabase":
        """Open (creating if needed) a sharded database.

        For an existing on-disk layout the shard-id set comes from the
        manifest and ``shards`` may be omitted; passing a conflicting
        count is an error (use :meth:`reshard` to change the layout).
        ``db_kwargs`` are forwarded to every shard's
        :meth:`SetJoinDatabase.open`.
        """
        if shards is not None and (isinstance(shards, bool)
                                   or not isinstance(shards, Integral)
                                   or shards < 1):
            raise ConfigurationError(
                f"shards must be an integer >= 1, got {shards!r}"
            )
        shard_ids: "list[int] | None" = None
        if path is not None and os.path.exists(_manifest_path(path)):
            with open(_manifest_path(path)) as handle:
                manifest = json.load(handle)
            if manifest.get("schema") != _MANIFEST_SCHEMA:
                raise ConfigurationError(
                    f"shard manifest {_manifest_path(path)!r} has schema "
                    f"{manifest.get('schema')!r}, expected {_MANIFEST_SCHEMA}"
                )
            shard_ids = [int(sid) for sid in manifest["shard_ids"]]
            if shards is not None and shards != len(shard_ids):
                raise ConfigurationError(
                    f"database at {path!r} has {len(shard_ids)} shards; "
                    f"open it without shards= and call reshard({shards})"
                )
        if shard_ids is None:
            if shards is None:
                raise ConfigurationError(
                    "shards=N is required when creating a sharded database"
                )
            shard_ids = list(range(shards))
        opened = [
            Shard.open(sid, _shard_path(path, sid), model=model, **db_kwargs)
            for sid in shard_ids
        ]
        db = cls(opened, path=path, model=model, model_store=model_store)
        db._write_manifest()
        return db

    @property
    def shard_ids(self) -> "list[int]":
        return [shard.shard_id for shard in self.shards]

    def _write_manifest(self) -> None:
        if self.path is None:
            return
        document = {
            "schema": _MANIFEST_SCHEMA,
            "shard_ids": self.shard_ids,
        }
        tmp = _manifest_path(self.path) + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, _manifest_path(self.path))

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("database is closed")

    def close(self) -> None:
        if not self._closed:
            for shard in self.shards:
                shard.close()
            self._closed = True

    def kill(self) -> None:
        """Abandon every shard without flushing (crash simulation)."""
        if not self._closed:
            for shard in self.shards:
                shard.kill()
            self._closed = True

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Relation management
    # ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        rows: "Relation | Iterable[tuple[int, Iterable[int]]]",
    ) -> int:
        """Hash-place a relation's rows across the shards by tuple id
        (:func:`~repro.dist.placement.home_shards` of the ``Relation``'s
        tid array; ``rows`` that are not a ``Relation`` become one, so a
        row it refuses raises :class:`ConfigurationError` first).

        Every shard stores a (possibly empty) slice under the same name,
        so shard catalogs stay congruent and reopening finds the same
        layout everywhere.
        """
        self._check_open()
        self._statistics_memo.pop(name, None)
        relation = rows if isinstance(rows, Relation) else Relation(rows, name)
        homes = home_shards(relation.arrays[0].astype(np.uint64), self.shard_ids)
        return sum(
            shard.create_relation(
                name, relation.take(np.flatnonzero(homes == shard.shard_id)))
            for shard in self.shards
        )

    def drop_relation(self, name: str) -> None:
        self._check_open()
        self._statistics_memo.pop(name, None)
        for shard in self.shards:
            shard.drop_relation(name)

    def relation_names(self) -> "list[str]":
        self._check_open()
        return self.shards[0].db.relation_names()

    def relation_size(self, name: str) -> int:
        self._check_open()
        return sum(shard.db.relation_size(name) for shard in self.shards)

    def get_store(self, name: str) -> _MergedRelationView:
        """A read-only merged view with the ``scan()`` surface callers
        expect from ``SetJoinDatabase.get_store``."""
        self._check_open()
        self.relation_size(name)  # raises per shard if missing
        return _MergedRelationView(name, self.shards)

    def scan_relation(self, name: str):
        """Yield ``(tid, elements)`` across all shards in tid order."""
        for tid, elements, __ in self.get_store(name).scan():
            yield tid, elements

    def read_relation(self, name: str) -> Relation:
        return Relation(self.scan_relation(name), name)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _read_statistics(self, name: str, seed: int = 0) -> tuple[int, float]:
        """(size, exact mean cardinality) aggregated over all shards.

        Exact rather than sampled: the integer cardinality sum is
        order-independent, so statistics — and therefore the plan — are
        identical at every shard count.  Each shard's sum is read off the
        offsets of its columnar scan, a batch at a time.  ``seed`` is
        accepted for interface parity with
        ``SetJoinDatabase._read_statistics`` and ignored.
        """
        del seed
        self._check_open()
        size = self.relation_size(name)
        total = 0
        for shard in self.shards:
            for __, __, offsets in shard.db.get_store(name).scan_batches():
                total += int(offsets[-1])
        return size, total / size if size else 0.0

    def explain(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: "int | None" = None,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        seed: int = 0,
    ):
        """EXPLAIN the plan :meth:`join` runs, with the same arguments as
        :meth:`SetJoinDatabase.explain`, plus a distribution section
        (replication factor, pruning, logical vs physical y) computed from
        a placement dry run of that plan's partitioner — nothing joins."""
        plan = self.plan(r_name, s_name, algorithm, num_partitions)
        partitioner = deterministic_partitioner(plan.build_partitioner(seed))
        placement = self._place(r_name, s_name, partitioner)[0].report()
        report = plan.explain(seed=seed, signature_bits=signature_bits)
        report.header[-1:-1] = [
            "", *placement.explain_lines(), f"  shard ids {self.shard_ids}",
        ]
        return report

    # ------------------------------------------------------------------
    # The distributed join
    # ------------------------------------------------------------------

    def _place(self, r_name: str, s_name: str, partitioner):
        """Summarize S per shard, then scan and route R a batch at a time.

        Returns ``(planner, portions)``: the planner carries the exact
        accounting, ``portions[shard_id]`` the R batch slices it ships.
        """
        planner = ReplicationPlanner([
            shard.summarize(s_name, copy.deepcopy(partitioner))
            for shard in self.shards
        ])
        portions: "dict[int, list]" = {shard.shard_id: [] for shard in self.shards}
        for shard in self.shards:
            for batch in shard.db.get_store(r_name).scan_batches():
                rows, partitions = partitioner.assign_r_batch(*batch[1:])
                masks = planner.targets(rows, partitions, len(batch[0]))
                for summary, mask in zip(planner.summaries, masks):
                    if mask.any():
                        portions[summary.shard_id].append(
                            take_rows(*batch, np.flatnonzero(mask)))
        return planner, portions

    def _fan_out(
        self, requests: "list[ShardJoinRequest]"
    ) -> "list[ShardResult]":
        """Run every shard join through the executor, in shard order."""
        # A shard join gives up the interpreter lock only while it waits:
        # for its file, or for workers of its own.  In-memory shards
        # joining without workers would just take turns on it, every
        # forced hand-off (one per 5 ms switch interval) idle until the
        # other thread is awake — so those run serially.
        waits = self.path is not None or any(
            request.workers > 1 and request.backend != "serial"
            for request in requests
        )
        backend, __ = resolve_backend(
            "thread" if waits else "serial", len(requests)
        )
        by_id = {shard.shard_id: shard for shard in self.shards}
        return backend.run(
            lambda request: by_id[request.shard_id].execute_join(request),
            requests,
        )

    def join(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: "int | None" = None,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        seed: int = 0,
        workers: int = 1,
        backend: str = "serial",
        execution: Execution = Execution(),
        tracer=None,
        partitioner=None,
    ) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Distributed set containment join; same contract as
        :meth:`SetJoinDatabase.join`.

        ``partitioner`` overrides planning with a pre-built partitioner
        (the query service passes its plan's); it is sanitized to a
        content-deterministic equivalent.  The returned pairs *and* the
        x/y accounting are bit-identical to single-shard execution.
        """
        self._check_open()
        # Every shard's operator checks its options too, but only after
        # placement has run and shipped the R portions.
        signature_bits = check_join_options(signature_bits, workers, backend)
        if partitioner is None:
            partitioner = self.plan(
                r_name, s_name, algorithm, num_partitions
            ).build_partitioner(seed)
        partitioner = deterministic_partitioner(partitioner)
        tracer = tracer if tracer is not None else current_tracer()
        with use_tracer(tracer), tracer.span(
            "dist.join",
            shards=len(self.shards),
            algorithm=partitioner.name,
            k=partitioner.num_partitions,
        ) as root:
            placement_started = time.perf_counter()
            planner, portions = self._place(r_name, s_name, partitioner)
            report = planner.report()
            requests = [
                ShardJoinRequest(
                    shard_id=sid,
                    s_name=s_name,
                    r_rows=portion,
                    partitioner=copy.deepcopy(partitioner),
                    signature_bits=signature_bits,
                    workers=workers,
                    backend=backend,
                    execution=execution,
                    trace=dict(tracer.tags) if tracer.enabled else None,
                )
                for sid, portion in sorted(portions.items()) if portion
            ]
            placement_seconds = time.perf_counter() - placement_started

            fanout_started = time.perf_counter()
            results = self._fan_out(requests)
            fanout_seconds = time.perf_counter() - fanout_started

            merge_started = time.perf_counter()
            pairs, metrics = self._merge_shards(
                results, report, partitioner, signature_bits, tracer, root
            )
            # Phase seconds: summed per-shard seconds would overstate a
            # concurrent fan-out, so keep the coordinator's observed wall
            # clock per step (placement / fan-out / merge); each shard's
            # true totals are in shard_joining.
            metrics.partitioning.seconds = placement_seconds
            metrics.joining.seconds = fanout_seconds
            metrics.verification.seconds = time.perf_counter() - merge_started
            self.last_placement = report
            publish_placement(report)
            from ..obs.registry import record_join

            record_join(metrics)
            root.set(
                results=metrics.result_size,
                signature_comparisons=metrics.signature_comparisons,
                replicated_signatures=metrics.replicated_signatures,
                replicated_rows=report.physical_r_rows,
                replication_factor=round(report.replication_factor, 6),
                pruned_shard_visits=report.pruned_occupancy,
            )
        return set(pairs), metrics

    @staticmethod
    def _merge_shards(
        results, report, partitioner, signature_bits, tracer, root
    ) -> "tuple[list[tuple[int, int]], JoinMetrics]":
        """Fold the shard results onto the global header, spans under
        the ``dist.join`` root."""
        header = JoinMetrics(
            algorithm=partitioner.name,
            num_partitions=partitioner.num_partitions,
            r_size=report.r_rows,
            s_size=report.s_rows,
            signature_bits=signature_bits,
        )
        pairs, metrics = merge_results(results, header, tracer, parent=root)
        # Restore the *logical* y: Σ|partitions(row)| counted once per
        # global row during summarize (S side) and placement (R side) —
        # identical to the single-shard partition phase's count.  The
        # physical entries actually shipped live in the placement report
        # and the setjoin_dist_* metrics instead.
        metrics.replicated_signatures = report.logical_entries
        return pairs, metrics

    # ------------------------------------------------------------------
    # Probes, stats, integrity
    # ------------------------------------------------------------------

    def probe(self, name: str, elements: "Iterable[int]") -> "list[int]":
        """Point containment probe fanned to every shard.

        Tids are unique across shards (each row has one home), so the
        sorted concatenation equals the single-database scan order.
        """
        self._check_open()
        query = list(elements)
        out: "list[int]" = []
        for shard in self.shards:
            out.extend(shard.db.probe(name, query))
        return sorted(out)

    def stats(self) -> dict:
        """Aggregated storage statistics plus the distribution state."""
        self._check_open()
        totals: "dict[str, float]" = {}
        for shard in self.shards:
            for key, value in shard.db.stats().items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        names = self.relation_names()
        totals["relations"] = len(names)
        totals["tuples"] = sum(self.relation_size(name) for name in names)
        totals["shards"] = len(self.shards)
        totals["shard_ids"] = self.shard_ids
        if self.last_placement is not None:
            totals["last_placement"] = self.last_placement.as_dict()
        return totals

    def verify_integrity(self) -> "dict[str, int]":
        self._check_open()
        out = {"relations": 0, "tuples": 0, "postings": 0, "pages_read": 0,
               "shards": 0}
        for shard in self.shards:
            report = shard.db.verify_integrity()
            for key in ("tuples", "postings", "pages_read"):
                out[key] += report[key]
            out["shards"] += 1
        out["relations"] = len(self.relation_names())
        return out

    # ------------------------------------------------------------------
    # Resharding (see repro.dist.rebalance)
    # ------------------------------------------------------------------

    def reshard(self, shards: int):
        """Grow or shrink to ``shards`` shards, consistently reassigning
        rows; returns the :class:`~repro.dist.rebalance.RebalanceReport`."""
        from .rebalance import reshard

        return reshard(self, shards)

    def add_shard(self):
        from .rebalance import reshard

        return reshard(self, len(self.shards) + 1)

    def remove_shard(self):
        from .rebalance import reshard

        return reshard(self, len(self.shards) - 1)
