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
   scans R once, computing each row's partitions (the logical y share)
   and its target shards through the
   :class:`~repro.dist.placement.ReplicationPlanner`.
3. **Fan out** — one :class:`~repro.dist.shard.ShardJoinRequest` per
   shard with work, executed serially or on a thread pool; inside each
   shard the ordinary operator runs, including the partition-parallel
   serial/thread/process backends.  Any shard failure (worker death,
   timeout, injected fault) surfaces as the same typed errors the
   single-database engine raises, so the service's retry ladder and
   circuit breakers apply unchanged.
4. **Merge** — pairs are disjoint across shards (each S row has one
   home), so the result is their sorted union; per-shard
   :class:`~repro.core.metrics.JoinMetrics` are aggregated through
   :meth:`JoinMetrics.merge`, with ``replicated_signatures`` restored to
   the *logical* count so the paper's x/y accounting is bit-identical
   to a single-shard run at any shard count (default prune mode).
   Process-backed shard workers ship their metrics-registry deltas
   through the engine's existing :meth:`MetricsRegistry.merge_delta`
   path, and the merged record is published via ``record_join``.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator

from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..core.metrics import JoinMetrics, PhaseMetrics
from ..core.optimizer import JoinPlan, plan_from_statistics
from ..core.sets import Relation, SetTuple
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..database import resolve_partitioner
from ..errors import ConfigurationError
from ..obs.trace import current_tracer, use_tracer
from .placement import (
    DEFAULT_PREFIX_BITS,
    PRUNE_MODES,
    PlacementReport,
    ReplicationPlanner,
    assign_shard,
    deterministic_partitioner,
    publish_placement,
)
from .shard import Shard, ShardJoinRequest

__all__ = ["ShardedDatabase"]

FANOUTS = ("serial", "thread")

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


class ShardedDatabase:
    """A coordinator plus N shared-nothing :class:`Shard` databases.

    ``path=None`` keeps every shard in memory; with a path, shard ``i``
    lives in ``<path>.shard<i>`` (each with its own WAL) and the shard-id
    set persists in ``<path>.shards.json`` so reopening without
    ``shards=`` resumes the existing layout.  ``fanout`` is the
    *coordinator-level* execution mode (``"serial"``/``"thread"``; the
    threads are used only where shard joins can overlap, see
    :meth:`_dispatch`); intra-shard parallelism is the join call's
    ``workers``/``backend``.
    ``prune`` selects the R-replication mode (see
    :mod:`repro.dist.placement`): ``"partitions"`` (default) keeps the
    x/y accounting bit-identical to single-shard execution,
    ``"signature"`` trades that for fewer shipped rows and comparisons.
    """

    def __init__(
        self,
        shards: "list[Shard]",
        path: "str | None" = None,
        model: TimeModel = PAPER_TIME_MODEL,
        model_store=None,
        fanout: str = "thread",
        prune: str = "partitions",
        prefix_bits: int = DEFAULT_PREFIX_BITS,
    ):
        if not shards:
            raise ConfigurationError("a sharded database needs >= 1 shard")
        if fanout not in FANOUTS:
            raise ConfigurationError(
                f"fanout must be one of {FANOUTS}, got {fanout!r}"
            )
        if prune not in PRUNE_MODES:
            raise ConfigurationError(
                f"prune must be one of {PRUNE_MODES}, got {prune!r}"
            )
        self.shards = sorted(shards, key=lambda shard: shard.shard_id)
        self.path = path
        self.fanout = fanout
        self.prune = prune
        self.prefix_bits = prefix_bits
        self.model_store = None
        if model_store is not None:
            from ..obs.adaptive import ModelStore

            self.model_store = (
                model_store if isinstance(model_store, ModelStore)
                else ModelStore(model_store, base_model=model)
            )
            model = self.model_store.active
        self.model = model
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
        fanout: str = "thread",
        prune: str = "partitions",
        prefix_bits: int = DEFAULT_PREFIX_BITS,
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
            if shards < 1:
                raise ConfigurationError(
                    f"shards must be >= 1, got {shards}"
                )
            shard_ids = list(range(shards))
        opened = [
            Shard.open(sid, _shard_path(path, sid), model=model, **db_kwargs)
            for sid in shard_ids
        ]
        db = cls(
            opened, path=path, model=model, model_store=model_store,
            fanout=fanout, prune=prune, prefix_bits=prefix_bits,
        )
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
        """Hash-place a relation's rows across the shards by tuple id.

        Every shard stores a (possibly empty) slice under the same name,
        so shard catalogs stay congruent and reopening finds the same
        layout everywhere.
        """
        self._check_open()
        if isinstance(rows, Relation):
            rows = ((row.tid, row.elements) for row in rows)
        ids = self.shard_ids
        buckets: "dict[int, list[tuple[int, frozenset]]]" = {
            sid: [] for sid in ids
        }
        for tid, elements in rows:
            buckets[assign_shard(tid, ids)].append(
                (tid, frozenset(elements))
            )
        return sum(
            shard.create_relation(name, buckets[shard.shard_id])
            for shard in self.shards
        )

    def drop_relation(self, name: str) -> None:
        self._check_open()
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
        relation = Relation(name=name)
        for tid, elements in self.scan_relation(name):
            relation.add(SetTuple(tid, elements))
        return relation

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _statistics(self, name: str, seed: int = 0) -> tuple[int, float]:
        """(size, exact mean cardinality) aggregated over all shards.

        Exact rather than sampled: the integer cardinality sum is
        order-independent, so statistics — and therefore the plan — are
        identical at every shard count.  ``seed`` is accepted for
        interface parity with ``SetJoinDatabase._statistics`` and
        ignored.
        """
        del seed
        self._check_open()
        size = self.relation_size(name)
        total = 0
        for shard in self.shards:
            for __, elements in shard.scan_relation(name):
                total += len(elements)
        return size, (total / size if size else 0.0)

    def refresh_model(self) -> TimeModel:
        if self.model_store is not None:
            self.model = self.model_store.active
        return self.model

    def plan(self, r_name: str, s_name: str, drift_history=None) -> JoinPlan:
        self._check_open()
        self.refresh_model()
        r_size, theta_r = self._statistics(r_name)
        s_size, theta_s = self._statistics(s_name)
        return plan_from_statistics(
            r_size, s_size, theta_r, theta_s, self.model,
            drift_history=drift_history,
        )

    def explain(self, r_name: str, s_name: str) -> str:
        """EXPLAIN text: the optimizer's decision plus the exact
        distribution section (replication factor, pruning, logical vs
        physical y) computed from a placement dry run — nothing joins."""
        plan = self.plan(r_name, s_name)
        partitioner = deterministic_partitioner(plan.build_partitioner())
        planner = self._place(r_name, s_name, partitioner)[0]
        report = planner.report()
        lines = [plan.explain(), ""]
        lines.extend(report.explain_lines())
        lines.append(f"  coordinator fan-out: {self.fanout}; "
                     f"shard ids {self.shard_ids}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The distributed join
    # ------------------------------------------------------------------

    def _place(
        self, r_name: str, s_name: str, partitioner,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
    ):
        """Summarize S per shard, then scan R and route every row.

        Returns ``(planner, rows_by_shard)``; the planner carries the
        exact logical/physical accounting of the scan.
        """
        summaries = [
            shard.summarize(
                s_name, copy.deepcopy(partitioner),
                signature_bits=signature_bits,
                prefix_bits=self.prefix_bits,
            )
            for shard in self.shards
        ]
        planner = ReplicationPlanner(
            summaries, mode=self.prune,
            signature_bits=signature_bits, prefix_bits=self.prefix_bits,
        )
        rows_by_shard: "dict[int, list[tuple[int, frozenset]]]" = {
            shard.shard_id: [] for shard in self.shards
        }
        for shard in self.shards:
            for tid, elements in shard.scan_relation(r_name):
                partitions = partitioner.assign_r(elements)
                for target in planner.targets(elements, partitions):
                    rows_by_shard[target].append((tid, elements))
        return planner, rows_by_shard

    def _dispatch(self, requests: "list[ShardJoinRequest]"):
        by_id = {shard.shard_id: shard for shard in self.shards}
        # A shard join gives up the interpreter lock only while it waits:
        # for its file, or for workers of its own.  In-memory shards
        # joining without workers would just take turns on it, every
        # forced hand-off (one per 5 ms switch interval) idle until the
        # other thread is awake — so those run in shard order.
        waits = self.path is not None or any(
            request.workers > 1 and request.backend != "serial"
            for request in requests
        )
        if self.fanout == "serial" or len(requests) <= 1 or not waits:
            return [
                by_id[request.shard_id].execute_join(request)
                for request in requests
            ]
        with ThreadPoolExecutor(
            max_workers=len(requests), thread_name_prefix="setjoin-dist"
        ) as pool:
            futures = [
                pool.submit(by_id[request.shard_id].execute_join, request)
                for request in requests
            ]
            responses = []
            errors = []
            for future in futures:
                try:
                    responses.append(future.result())
                except BaseException as error:  # noqa: BLE001 — re-raised
                    errors.append(error)
        if errors:
            # Every shard has finished (the pool exited), so raising the
            # first failure leaves no thread still touching a shard; the
            # service's retry ladder sees the same typed errors the
            # single-database engine raises.
            raise errors[0]
        return responses

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
        shard_timeout: "float | None" = None,
        shard_hook=None,
        tracer=None,
        partitioner=None,
        query_id: "int | None" = None,
    ) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Distributed set containment join; same contract as
        :meth:`SetJoinDatabase.join`.

        ``partitioner`` overrides planning with a pre-built partitioner
        (``run_disk_join(shards=N)`` uses this); it is sanitized to a
        content-deterministic equivalent.  With the default
        ``prune="partitions"`` the returned pairs *and* the x/y
        accounting are bit-identical to single-shard execution.
        """
        self._check_open()
        if partitioner is None:
            partitioner = resolve_partitioner(
                self, r_name, s_name, algorithm, num_partitions, seed
            )
        partitioner = deterministic_partitioner(partitioner)
        tracer = tracer if tracer is not None else current_tracer()
        merge_started = None
        root_attrs = dict(
            shards=len(self.shards),
            algorithm=partitioner.name,
            k=partitioner.num_partitions,
            prune=self.prune,
            fanout=self.fanout,
        )
        if query_id is not None:
            root_attrs["query_id"] = query_id
        with use_tracer(tracer), tracer.span("dist.join", **root_attrs) as root:
            placement_started = time.perf_counter()
            planner, rows_by_shard = self._place(
                r_name, s_name, partitioner, signature_bits
            )
            report = planner.report()
            summaries = {s.shard_id: s for s in planner.summaries}
            requests = [
                ShardJoinRequest(
                    shard_id=sid,
                    s_name=s_name,
                    r_rows=rows,
                    partitioner=copy.deepcopy(partitioner),
                    signature_bits=signature_bits,
                    workers=workers,
                    backend=backend,
                    shard_timeout=shard_timeout,
                    shard_hook=shard_hook,
                    trace=tracer.enabled,
                    query_id=query_id,
                )
                for sid, rows in sorted(rows_by_shard.items())
                if rows and summaries[sid].rows
            ]
            placement_seconds = time.perf_counter() - placement_started

            fanout_started = time.perf_counter()
            responses = sorted(
                self._dispatch(requests), key=lambda resp: resp.shard_id
            )
            fanout_seconds = time.perf_counter() - fanout_started
            if tracer.enabled:
                # Stitch each shard's span tree (built on the shard's own
                # tracer, see Shard.execute_join) under the fan-out root
                # in shard order — one coherent query tree regardless of
                # serial vs. thread fan-out.
                for response in responses:
                    if response.spans:
                        tracer.adopt(response.spans, parent=root)

            merge_started = time.perf_counter()
            pairs: "list[tuple[int, int]]" = []
            for response in responses:
                # Each S row lives on exactly one shard, so the shard
                # answers are disjoint and their sorted concatenation is
                # the deterministic global merge.
                pairs.extend(response.pairs)
            pairs.sort()
            metrics = self._merge_metrics(
                responses, planner, report, partitioner,
                signature_bits, placement_seconds, fanout_seconds,
                time.perf_counter() - merge_started,
            )
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
                pruned_shard_visits=report.pruned_shard_visits,
            )
        return set(pairs), metrics

    def _merge_metrics(
        self, responses, planner, report, partitioner, signature_bits,
        placement_seconds, fanout_seconds, merge_seconds,
    ) -> JoinMetrics:
        header = dict(
            algorithm=partitioner.name,
            num_partitions=partitioner.num_partitions,
            r_size=report.r_rows,
            s_size=report.s_rows,
            signature_bits=signature_bits,
        )
        shares = [
            dataclasses.replace(response.metrics, **header, shard_joining=[])
            for response in responses
        ]
        merged = (
            JoinMetrics.merge(shares) if shares else JoinMetrics(**header)
        )
        # Restore the *logical* y: Σ|partitions(row)| counted once per
        # global row during summarize (S side) and placement (R side) —
        # identical to the single-shard partition phase's count.  The
        # physical entries actually shipped live in the placement report
        # and the setjoin_dist_* metrics instead.
        merged.replicated_signatures = report.logical_entries
        merged.result_size = sum(len(r.pairs) for r in responses)
        # Phase seconds: summed per-shard seconds would overstate a
        # concurrent fan-out, so keep the coordinator's observed wall
        # clock per step (placement / fan-out / merge) and preserve each
        # shard's true totals in shard_joining, as the parallel engine
        # does for workers.
        merged.partitioning.seconds = placement_seconds
        merged.joining.seconds = fanout_seconds
        merged.verification.seconds = merge_seconds
        merged.shard_joining = [
            PhaseMetrics(
                response.metrics.total_seconds,
                response.metrics.total_page_reads,
                response.metrics.total_page_writes,
            )
            for response in responses
        ]
        return merged

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
        totals["fanout"] = self.fanout
        totals["prune"] = self.prune
        if self.last_placement is not None:
            totals["last_placement"] = self.last_placement.as_dict()
        return totals

    def verify_integrity(self) -> "dict[str, int]":
        self._check_open()
        out = {"relations": 0, "tuples": 0, "pages_read": 0, "shards": 0}
        for shard in self.shards:
            report = shard.db.verify_integrity()
            out["tuples"] += report["tuples"]
            out["pages_read"] += report["pages_read"]
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
