"""Local mirrors of the CI source lints.

The observability CI job enforces two AST lints over ``src/repro``:
no bare ``print()`` outside the CLI/experiments, and no direct
``time.time()``/``time.monotonic()`` calls anywhere in library code
(*including* ``src/repro/experiments`` — every latency measurement must
flow through an injected clock seam; storing the function as a default
reference, ``clock=time.monotonic``, is the sanctioned idiom).  Running
the same walks in the tier-1 suite catches violations before a push
instead of in CI.

Two more walks keep the join spine single (DESIGN.md, "The join spine"):
an algorithm name becomes a partitioner only inside ``repro.core``, and
no function but the kernel oracle ``compare_block`` takes an ``engine``
parameter (DESIGN.md, "One kernel").

A last walk keeps the partition path columnar (DESIGN.md, "Columnar batch
path"): ``partition_relation`` makes no per-tuple call, and the B-tree node
codec never sizes an entry by encoding its length.  Its store keeps
portion pages (DESIGN.md, "Portion pages"): ``append_entries`` does not
loop over entry offsets, and nothing but the monolithic ablation inserts
into a B-tree.

One walk keeps the relation pages columnar (DESIGN.md, "Columnar relation
pages"): the loader ``RelationStore.create`` and its batch encoder do not
loop, the leaf packer loops over runs only, the per-tuple
``_chunks``/``_encoded`` stay gone, and ``scan_batches`` does not reach
the per-record ``_records``.  Another keeps that loader the only writer
(DESIGN.md, "One relation loader"): the store inserts into and deletes
from no B-tree, and its per-record write path stays deleted.

Two walks keep verification one forward pass (DESIGN.md, "One-pass
verification"): the fetch-and-verify functions build no set and call no
predicate or one-tuple fetch per pair, and the store's batch fetch never
falls back on the one-tuple API.

Three walks keep the served query's record single (DESIGN.md, "One
record per query"): the service opens at most one registry window, the
retired per-query shapes and helpers stay retired, and every
``setjoin_*`` series has a row — with its reader — in the signal table
of ``docs/observability.md``.

Three walks keep the fan-out single (DESIGN.md, "One fan-out"): executor
pools are built only in ``parallel/executor.py``, metric shares fold only
in ``parallel/merge.py``, and the second fan-out's dispatch, merge and
``fanout`` selection stay gone.

Signature pins keep options nobody set deleted: the keyword options of
``QueryService`` and of ``ShardedDatabase.open`` are exactly the listed
ones, and so are the parameters of the join operator, ``run_disk_join``
and ``join_partition`` and the fields of a worker's ``ShardSpec``.

A text scan keeps the performance record single (DESIGN.md, "One
performance record"): the stack-sampling profiler and its service, HTTP
and Makefile surfaces stay gone, and ``benchmarks/baseline.py`` keeps no
wall-time gate or run history.

One more keeps the ablations single (DESIGN.md, "One ablation system"):
the ``repro.ablate`` package and the ``setjoins ablate`` subcommand stay
deleted; every ablation is an experiment in ``experiments/ablations.py``.

Two keep the plan single (DESIGN.md, "One plan"): the model is priced
only inside ``JoinPlan.prediction``, the plan is rendered only in
``obs/explain.py``, and the second resolvers, ``explain_plan`` and
``rotate_drift_jsonl`` stay deleted.

A last one keeps the distributed join columnar (DESIGN.md, "Columnar
distributed join"): the coordinator's placement, join and load and the
shard's summary and join scan no row, route no tuple and build no set
one at a time, and the shard's join stores no R portion in a B-tree.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY_ROOT = REPO_ROOT / "src" / "repro"

#: Modules allowed to read clocks directly: the process-pool executor
#: computes cross-process deadlines from the real monotonic clock.
CLOCK_ALLOWED = {LIBRARY_ROOT / "parallel" / "executor.py"}

FORBIDDEN_CLOCKS = ("time", "monotonic")


def _walk_library():
    for path in sorted(LIBRARY_ROOT.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_direct_clock_reads_in_library_code():
    bad = []
    for path, tree in _walk_library():
        if path in CLOCK_ALLOWED:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "time"
                    and node.func.attr in FORBIDDEN_CLOCKS):
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not bad, (
        "direct clock reads in library code (inject the clock instead):\n"
        + "\n".join(bad)
    )


def test_no_bare_print_in_library_code():
    bad = []
    for path, tree in _walk_library():
        # The CLI and the experiment harness print by design.
        if (path == LIBRARY_ROOT / "cli.py"
                or (LIBRARY_ROOT / "experiments") in path.parents):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not bad, (
        "bare print() in library code (report via repro.obs instead):\n"
        + "\n".join(bad)
    )


#: Partitioner constructors; an algorithm *name* reaches them only through
#: ``repro.core.modulo.make_partitioner``.
PARTITIONER_CALLS = ("PSJPartitioner", "dcj_with_any_k", "lsj_with_any_k",
                     "for_cardinalities")

#: Outside ``repro/core``: the ablations, which force physical plans by
#: design, and two callers that build from no algorithm name — the PSJ →
#: deterministic-PSJ rebuild and the paper's pinned element choices.
PARTITIONER_CALLS_ALLOWED = {
    LIBRARY_ROOT / "experiments" / "ablations.py",
    LIBRARY_ROOT / "dist" / "placement.py",
    LIBRARY_ROOT / "experiments" / "worked_example.py",
}

def test_partitioners_are_built_from_names_only_in_core():
    bad = []
    for path, tree in _walk_library():
        if ((LIBRARY_ROOT / "core") in path.parents
                or path in PARTITIONER_CALLS_ALLOWED):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in PARTITIONER_CALLS:
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not bad, (
        "partitioner built outside repro.core (call "
        "repro.core.modulo.make_partitioner instead):\n" + "\n".join(bad)
    )


def test_only_compare_block_takes_an_engine():
    bad = []
    for path, tree in _walk_library():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            if any(arg.arg == "engine" for arg in (
                    arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs)) and not (
                    node.name == "compare_block"
                    and path == LIBRARY_ROOT / "core" / "operator.py"):
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not bad, (
        "engine= parameter outside compare_block (every join runs the "
        "blocked kernel; the scalar loop is its test oracle):\n"
        + "\n".join(bad)
    )


#: What the per-tuple partition loop called once per tuple or per replica;
#: inside ``partition_relation`` each has an array counterpart.
PER_TUPLE_NAMES = ("signature_of", "encode_partition_entry")
PER_TUPLE_METHODS = (("store", "append"), ("relation", "scan"))


def test_partition_loop_and_node_codec_stay_columnar():
    bad = []
    operator = ast.parse((LIBRARY_ROOT / "core" / "operator.py").read_text())
    loops = [node for node in ast.walk(operator)
             if isinstance(node, ast.FunctionDef)
             and node.name == "partition_relation"]
    assert len(loops) == 1, "partition_relation must exist exactly once"
    for node in ast.walk(loops[0]):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in PER_TUPLE_NAMES:
            bad.append(f"core/operator.py:{node.lineno}: {func.id}()")
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in PER_TUPLE_METHODS):
            bad.append(
                f"core/operator.py:{node.lineno}: {func.value.id}.{func.attr}()"
            )
    btree = ast.parse((LIBRARY_ROOT / "storage" / "btree.py").read_text())
    for node in ast.walk(btree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "len"
                and node.args and isinstance(node.args[0], ast.Call)
                and getattr(node.args[0].func, "id", None) == "encode_uvarint"):
            bad.append(f"storage/btree.py:{node.lineno}: len(encode_uvarint())")
    assert not bad, (
        "per-tuple or per-key call on the columnar path (use the batch "
        "interface / the length-prefix helpers):\n" + "\n".join(bad)
    )


#: The one partition-store function allowed a B-tree insert: the
#: monolithic ablation's read-modify-write of its record.
MONOLITHIC_PATH = "_append_monolithic"


def test_partition_store_appends_runs_and_inserts_nothing():
    source = LIBRARY_ROOT / "storage" / "partition_store.py"
    store = ast.parse(source.read_text())
    bad = []
    (append_entries,) = _functions(store, ("append_entries",))
    for node in ast.walk(append_entries):
        if isinstance(node, ast.For) and any(
            isinstance(inner, ast.Call)
            and getattr(inner.func, "id", None) == "range"
            for inner in ast.walk(node.iter)
        ):
            bad.append(f"storage/partition_store.py:{node.lineno}: "
                       "append_entries loops over entry offsets")
    for function in ast.walk(store):
        if (not isinstance(function, ast.FunctionDef)
                or function.name == MONOLITHIC_PATH):
            continue
        bad += [
            f"storage/partition_store.py:{node.lineno}: "
            f"{function.name} calls .insert()"
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "insert"
        ]
    assert not bad, (
        "the partition store inserts into a B-tree or appends entry by "
        "entry (write full portions to pages, bulk-build the index at "
        "seal, group a run by partition):\n" + "\n".join(bad)
    )


#: The fetch-and-verify path of ``core/operator.py``.  ``_scalar_hit_counts``
#: — the set-at-a-time fallback and oracle — is the one function allowed
#: what these may not do.
VERIFY_FUNCTIONS = ("verify_pairs", "_fetch_candidates", "_hit_counts")
PER_PAIR_NAMES = ("frozenset", "predicate")
ONE_TUPLE_FETCHES = ("fetch", "fetch_set", "fetch_many")


def _functions(tree, names):
    found = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in names}
    assert sorted(found) == sorted(names), (
        f"expected {sorted(names)}, found {sorted(found)}"
    )
    return found.values()


def test_verification_stays_one_pass():
    operator = ast.parse((LIBRARY_ROOT / "core" / "operator.py").read_text())
    bad = []
    for function in _functions(operator, VERIFY_FUNCTIONS):
        arguments = function.args
        bad += [
            f"core/operator.py:{function.lineno}: {function.name}(predicate)"
            for arg in arguments.posonlyargs + arguments.args
            + arguments.kwonlyargs if arg.arg == "predicate"
        ]
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in PER_PAIR_NAMES:
                bad.append(f"core/operator.py:{node.lineno}: {func.id}()")
            if isinstance(func, ast.Attribute) and func.attr in ONE_TUPLE_FETCHES:
                bad.append(f"core/operator.py:{node.lineno}: .{func.attr}()")
    assert not bad, (
        "per-pair set, predicate or one-tuple fetch on the verification "
        "path (fetch through fetch_batches, test through _hit_counts):\n"
        + "\n".join(bad)
    )


def test_batch_fetch_stays_off_the_one_tuple_api():
    store = ast.parse(
        (LIBRARY_ROOT / "storage" / "relation_store.py").read_text()
    )
    bad = [
        f"storage/relation_store.py:{node.lineno}: "
        f"{function.name} calls .{node.func.attr}()"
        for function in _functions(store, ("fetch_many", "fetch_batches"))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("fetch", "fetch_set")
    ]
    assert not bad, (
        "the batch fetch descends per tid again (go through "
        "BTree.scan_ranges):\n" + "\n".join(bad)
    )


#: The load path: ``create``, the batch encoder and run producer it calls
#: and the B-tree's entry layout may not loop at all; the leaf
#: packer may loop over its runs, never over items or entries.
LOAD_FUNCTIONS = ("create", "_sorted_runs")
ENTRY_LAYOUT = "leaf_entry_run"
PACKER = "_pack_leaves"
#: ``_row_batches``, ``create_batches`` and ``tuple_arrays`` turned rows
#: back into arrays; the store now takes a ``Relation``'s arrays.
RETIRED_PAGE_HELPERS = {
    "_chunks", "_encoded", "_row_batches", "create_batches", "tuple_arrays",
}
SCAN_RETIRED = ("_records", "_decoded")


def _loops(function):
    return [node for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))]


def test_relation_pages_stay_columnar():
    store = ast.parse(
        (LIBRARY_ROOT / "storage" / "relation_store.py").read_text())
    btree = ast.parse((LIBRARY_ROOT / "storage" / "btree.py").read_text())
    bad = [
        f"storage/relation_store.py:{loop.lineno}: {function.name} loops"
        for function in _functions(store, LOAD_FUNCTIONS)
        for loop in _loops(function)
    ]
    (layout,) = _functions(btree, (ENTRY_LAYOUT,))
    bad += [f"storage/btree.py:{loop.lineno}: {ENTRY_LAYOUT} loops"
            for loop in _loops(layout)]
    (packer,) = _functions(btree, (PACKER,))
    bad += [
        f"storage/btree.py:{loop.lineno}: {PACKER} loops over "
        f"{ast.unparse(loop.iter)}"
        for loop in _loops(packer)
        if not (isinstance(loop.iter, ast.Name) and loop.iter.id == "runs")
    ]
    bad += _uses_of(RETIRED_PAGE_HELPERS)
    (scan_batches,) = _functions(store, ("scan_batches",))
    bad += [
        f"storage/relation_store.py:{node.lineno}: scan_batches reaches "
        f"{name}"
        for node in ast.walk(scan_batches)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in SCAN_RETIRED
    ]
    assert not bad, (
        "the relation load or scan makes an object per tuple again (encode "
        "a batch into leaf-entry runs, pack leaves with one searchsorted "
        "each, parse a group of leaves at once):\n" + "\n".join(bad)
    )


#: The relation's second writer — per-record inserts and deletes — and
#: the sorted-only loader the one loader replaced.
RETIRED_RELATION_WRITERS = {
    "create_sorted", "bulk_load", "_insert_record", "_delete_chunks",
    "encode_tuple_records",
}
TREE_WRITES = ("insert", "delete")


def test_relations_have_one_loader():
    store = ast.parse(
        (LIBRARY_ROOT / "storage" / "relation_store.py").read_text())
    bad = [
        f"storage/relation_store.py:{node.lineno}: calls .{node.func.attr}()"
        for node in ast.walk(store)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in TREE_WRITES
    ]
    (relation_store,) = [
        node for node in store.body
        if isinstance(node, ast.ClassDef) and node.name == "RelationStore"
    ]
    bad += [
        f"storage/relation_store.py:{node.lineno}: RelationStore.{node.name}"
        for node in relation_store.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("insert", "bulk_load", "create_sorted")
    ]
    bad += _uses_of(RETIRED_RELATION_WRITERS)
    assert not bad, (
        "a relation has a second writer again (RelationStore.create loads "
        "rows in any tid order, bottom-up, and nothing changes the tree "
        "afterwards):\n" + "\n".join(bad)
    )


#: The keyword options of ``QueryService`` — its breaker, shard-timeout,
#: rng and history-size options, which nothing set, are gone — and of
#: ``ShardedDatabase.open``, whose signature prune mode is gone.
SERVICE_OPTIONS = {
    "workers", "backend", "shards", "plan_cache_size", "queue_depth",
    "default_deadline", "retry_policy", "chaos", "drift_path",
    "recalibrate_every", "model_store", "trace_path", "flight_recorder",
    "postmortem_dir", "slo", "ledger", "capture_path", "clock", "sleep",
    "cpu_clock", "registry",
}
SHARDED_OPEN_OPTIONS = {"path", "shards", "model", "model_store", "db_kwargs"}


def _options(path, class_name, method):
    """The parameter names of ``class_name.method`` in ``path`` (after
    ``self``/``cls``), as written in the source."""
    tree = ast.parse((LIBRARY_ROOT / path).read_text())
    (function,) = [
        item for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == method
    ]
    args = function.args
    names = [arg.arg for arg in args.args[1:] + args.kwonlyargs]
    return names + [arg.arg for arg in (args.vararg, args.kwarg) if arg]


def test_deleted_options_stay_deleted():
    service = _options("service/core.py", "QueryService", "__init__")
    assert service[0] == "database"
    assert set(service[1:]) == SERVICE_OPTIONS and len(service) == 22, (
        "QueryService's keyword options changed; unset ones are constants "
        f"(added {sorted(set(service[1:]) - SERVICE_OPTIONS)}, removed "
        f"{sorted(SERVICE_OPTIONS - set(service[1:]))})"
    )
    sharded = _options("dist/coordinator.py", "ShardedDatabase", "open")
    assert set(sharded) == SHARDED_OPEN_OPTIONS, (
        "ShardedDatabase.open's options changed (R rows replicate by "
        f"partition occupancy only): {sorted(sharded)}"
    )


#: One operator configuration (DESIGN.md, "One kernel"): no ``engine``,
#: ``verify_per_partition``, ``block_entries`` or ``batch_portions``.
OPERATOR_OPTIONS = [
    "testbed", "partitioner", "signature_bits", "monolithic_partitions",
    "resident_partitions", "spill_candidates", "workers", "parallel_backend",
    "execution", "tracer",
]
RUN_DISK_JOIN_OPTIONS = [
    "lhs", "rhs", "partitioner", "signature_bits", "buffer_pages",
    "buffer_policy", "payload_size", "path", "monolithic_partitions",
    "resident_partitions", "spill_candidates", "workers", "backend",
    "tracer",
]
JOIN_PARTITION_PARAMETERS = [
    "signature_bits", "r_source", "s_source", "partition", "add",
]
SHARD_SPEC_FIELDS = [
    "partitions", "signature_bits", "file_source", "inline_r", "inline_s",
    "fail_after", "chaos_delay", "chaos_kill", "parent_pid", "index",
    "trace", "collect_metrics",
]


def _module_function(path, name):
    (function,) = [
        node for node in ast.parse((LIBRARY_ROOT / path).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return [arg.arg for arg in function.args.args + function.args.kwonlyargs]


def _fields(path, class_name):
    """The annotated fields of dataclass ``class_name`` in ``path``."""
    (owner,) = [
        node for node in ast.parse((LIBRARY_ROOT / path).read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return [item.target.id for item in owner.body
            if isinstance(item, ast.AnnAssign)]


def test_operator_knobs_stay_deleted():
    assert _options(
        "core/operator.py", "SetContainmentJoin", "__init__"
    ) == OPERATOR_OPTIONS
    assert _module_function(
        "core/operator.py", "run_disk_join"
    ) == RUN_DISK_JOIN_OPTIONS
    assert _module_function(
        "core/operator.py", "join_partition"
    ) == JOIN_PARTITION_PARAMETERS
    assert _fields("parallel/worker.py", "ShardSpec") == SHARD_SPEC_FIELDS


#: The join does not know it is served (DESIGN.md §1.22): a query's
#: deadline and chaos hook reach the engine as one ``Execution`` and its
#: id rides the tracer's tags.  ``workers``/``backend``/``tracer`` stay
#: keywords while the benchmark calls them by name.
DATABASE_JOIN_OPTIONS = [
    "r_name", "s_name", "algorithm", "num_partitions", "signature_bits",
    "seed", "workers", "backend", "execution", "tracer", "partitioner",
]
SHARD_JOIN_REQUEST_FIELDS = [
    "shard_id", "s_name", "r_rows", "partitioner", "signature_bits",
    "workers", "backend", "execution", "trace",
]
SERVED_NAMES = {"shard_timeout", "shard_hook", "query_id"}
BELOW_THE_SERVICE = ("core", "database.py", "dist", "parallel")


def test_the_join_does_not_know_it_is_served():
    assert _options(
        "database.py", "SetJoinDatabase", "join"
    ) == DATABASE_JOIN_OPTIONS
    assert _options(
        "dist/coordinator.py", "ShardedDatabase", "join"
    ) == DATABASE_JOIN_OPTIONS
    assert _fields(
        "dist/shard.py", "ShardJoinRequest"
    ) == SHARD_JOIN_REQUEST_FIELDS
    assert _fields("parallel/executor.py", "Execution") == ["timeout", "hook"]
    bad = []
    for path, tree in _walk_library():
        if path.relative_to(LIBRARY_ROOT).parts[0] not in BELOW_THE_SERVICE:
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.arg):
                names = [node.arg]
            elif isinstance(node, ast.ClassDef):
                names = [item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name)]
            bad += [f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                    for name in names if name in SERVED_NAMES]
    assert not bad, (
        "a served query's setting is a parameter or field below the "
        "service again (pass an Execution; the query id is a tracer "
        "tag):\n" + "\n".join(bad)
    )


def test_service_opens_at_most_one_registry_window():
    core = ast.parse((LIBRARY_ROOT / "service" / "core.py").read_text())
    snapshots = [
        node.lineno for node in ast.walk(core)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "snapshot"
    ]
    assert len(snapshots) <= 1, (
        "service/core.py snapshots the registry more than once (bill "
        f"through the lane's LedgerWindow): lines {snapshots}"
    )


#: Superseded by ``QueryContext`` / ``WorkloadLedger.attribute(record)`` /
#: ``QueryService._describe`` / ``LedgerWindow`` / ``JsonlSink``.
RETIRED_NAMES = {
    "WorkloadRecord", "attribute_record", "_fingerprint", "_capture_params",
    "_condensed_delta", "_append_trace", "_settle_ledger",
}


def _uses_of(retired):
    """``path:line: name`` for every definition of, or reference to, a
    name in ``retired`` under ``src/repro`` — functions, classes,
    parameters, keyword arguments, imports, names and attributes."""
    found = []
    for path, tree in _walk_library():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [
                    part for alias in node.names
                    for part in (alias.name.rsplit(".", 1)[-1], alias.asname)
                ]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.arg, ast.keyword)):
                names = [node.arg]
            else:
                continue
            found += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                for name in names if name in retired
            ]
    return found


def test_retired_per_query_shapes_stay_retired():
    bad = _uses_of(RETIRED_NAMES)
    assert not bad, (
        "a retired per-query record shape or helper is back (there is one "
        "record type, one describe step, one window, one sink):\n"
        + "\n".join(bad)
    )


def _series_literals():
    """Every ``"setjoin_…"`` string under ``src/``; an f-string keeps its
    placeholders, e.g. ``setjoin_phase_{phase}_seconds_total``."""
    found = {}
    for path, tree in _walk_library():
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(
                    part.value if isinstance(part, ast.Constant)
                    else "{" + ast.unparse(part.value) + "}"
                    for part in node.values
                )
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if re.fullmatch(r"setjoin_[a-z0-9_{}]*[a-z0-9}]", text):
                found.setdefault(text, f"{path.relative_to(REPO_ROOT)}")
    return found


def test_every_series_has_a_row_in_the_signal_table():
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    section = doc.split("## Signal table", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(setjoin_[^`]+)` \|", section, re.M))
    series = _series_literals()
    missing = sorted(set(series) - rows)
    stale = sorted(rows - set(series))
    assert not missing and not stale, (
        "docs/observability.md signal table out of step with src/ — every "
        "series needs a row naming its reader:\n"
        + "\n".join(f"missing: {name} ({series[name]})" for name in missing)
        + "\n".join(f"stale row: {name}" for name in stale)
    )


POOL_CLASSES = ("ThreadPoolExecutor", "ProcessPoolExecutor")


def _calls(tree, matches):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and matches(node.func)]


def test_pools_are_built_only_in_the_executor():
    bad = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path, tree in _walk_library()
        if path != LIBRARY_ROOT / "parallel" / "executor.py"
        for node in _calls(tree, lambda func: getattr(
            func, "id", getattr(func, "attr", None)) in POOL_CLASSES)
    ]
    assert not bad, (
        "executor pool built outside parallel/executor.py (fan out through "
        "resolve_backend(...).run):\n" + "\n".join(bad)
    )


def test_metric_shares_fold_only_in_the_merge():
    sites = [
        f"{path.relative_to(LIBRARY_ROOT)}:{node.lineno}"
        for path, tree in _walk_library()
        for node in _calls(tree, lambda func: (
            isinstance(func, ast.Attribute) and func.attr == "merge"
            and getattr(func.value, "id", None) == "JoinMetrics"))
    ]
    assert len(sites) == 1 and sites[0].startswith("parallel/merge.py:"), (
        "JoinMetrics.merge( must be called exactly once, in "
        f"parallel/merge.py (fold through merge_results): {sites}"
    )


#: The coordinator's own dispatch, merge and fan-out selection.
RETIRED_FANOUT_NAMES = {
    "FANOUTS", "shard_fanout", "ShardJoinResponse", "merge_worker_metrics",
    "_merge_metrics", "_dispatch",
}


def test_second_fanout_stays_retired():
    bad = _uses_of(RETIRED_FANOUT_NAMES)
    assert not bad, (
        "the coordinator's private fan-out is back (dispatch through "
        "parallel/executor.py, merge through parallel/merge.py):\n"
        + "\n".join(bad)
    )


#: Text of the retired stack-sampling profiler and of baseline.py's
#: wall-time gate, per file set.
RETIRED_PROFILER_TEXT = (
    (sorted(LIBRARY_ROOT.rglob("*.py")),
     ("sys._current_frames", "SamplingProfiler", "profile_hz",
      "profile_report", "/debug/profile")),
    ([REPO_ROOT / "benchmarks" / "baseline.py"],
     ("rolling_medians", "--history", "--time-threshold")),
)


def test_sampling_profiler_stays_retired():
    bad = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {needle}"
        for paths, needles in RETIRED_PROFILER_TEXT
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for needle in needles if needle in line
    ]
    makefile = (REPO_ROOT / "Makefile").read_text()
    if re.search(r"^profile-baseline\s*:", makefile, re.M):
        bad.append("Makefile: profile-baseline target")
    assert not bad, (
        "the sampling profiler or baseline.py's wall-time gate is back "
        "(time is bench/run.py, counters are baseline.py, one query is its "
        "span tree, function-level digging is cProfile):\n" + "\n".join(bad)
    )


#: Text of the retired per-algorithm drift correction and of the EXPLAIN
#: plans for the SHJ/HYBRID joins that containment_join does not run.
RETIRED_DRIFT_CORRECTION_TEXT = (
    "drift_history", "drift_corrections", "resolve_drift_corrections",
    "raw_seconds", "SYNTHETIC_DRIFT", "_build_shj_plan", "_build_hybrid_plan",
    "shj_bits", "lattice_levels", ".corrected",
)


def test_drift_corrections_stay_retired():
    bad = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {needle}"
        for path in sorted(LIBRARY_ROOT.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for needle in RETIRED_DRIFT_CORRECTION_TEXT if needle in line
    ]
    assert not bad, (
        "a second route from observed time to the plan is back (drift "
        "reaches the planner only as a refitted c1/c2/c3), or EXPLAIN "
        "describes a join containment_join does not run:\n" + "\n".join(bad)
    )


def test_second_ablation_runner_stays_deleted():
    from repro.cli import build_parser

    bad = []
    if (LIBRARY_ROOT / "ablate").exists():
        bad.append("src/repro/ablate/ exists")
    for path, tree in _walk_library():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[-1] == "ablate":
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: "
                           f"import from {node.module}")
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction))
    if "ablate" in subcommands.choices:
        bad.append("setjoins ablate subcommand")
    assert not bad, (
        "a second ablation runner is back (add a component to "
        "ablation-components in experiments/ablations.py instead):\n"
        + "\n".join(bad)
    )


#: The distributed join's entry points and the per-row calls they may not
#: make: a per-record scan, a per-tuple route, a set built per row.
DIST_COLUMNAR = {
    "coordinator.py": ("ShardedDatabase", ("_place", "join", "create_relation")),
    "shard.py": ("Shard", ("summarize", "execute_join")),
}
PER_ROW_CALLS = ("scan", "scan_relation", "assign_r", "assign_s", "frozenset")
#: What ``Shard.execute_join`` may not call either: the shipped R portion
#: is joined as arrays, never loaded into a B-tree and read back.
PORTION_STORE_CALLS = ("create", "BTree")


def test_distributed_join_is_columnar():
    bad = []
    for module, (class_name, methods) in DIST_COLUMNAR.items():
        tree = ast.parse((LIBRARY_ROOT / "dist" / module).read_text())
        (owner,) = [node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == class_name]
        functions = [node for node in owner.body
                     if isinstance(node, ast.FunctionDef) and node.name in methods]
        assert sorted(f.name for f in functions) == sorted(methods)
        bad += [
            f"dist/{module}:{node.lineno}: {class_name}.{function.name} "
            f"calls {name}()"
            for function in functions
            for node in _calls(function, lambda func: True)
            for name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))
            if name in PER_ROW_CALLS or (
                function.name == "execute_join" and name in PORTION_STORE_CALLS)
        ]
    assert not bad, (
        "the distributed join makes an object or a call per row again, or "
        "stores the R portion (scan_batches, route with assign_r_batch/"
        "assign_s_batch, ship (tids, elements, offsets) arrays and join "
        "them as a Relation in tid order):\n" + "\n".join(bad)
    )


#: The joins of held relations, and the calls that would store them: the
#: loading join, a testbed load, a relation store's create.
HELD_JOINS = ("core/api.py", "obs/explain.py")
STORING_CALLS = ("run_disk_join", "load", "create")


def test_held_joins_store_nothing():
    bad = [
        f"src/repro/{module}:{node.lineno}: calls {name}()"
        for module in HELD_JOINS
        for node in _calls(ast.parse((LIBRARY_ROOT / module).read_text()),
                           lambda func: True)
        for name in (getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))
        if name in STORING_CALLS
    ]
    bad += [f"{path.relative_to(REPO_ROOT)}: names ArrayRelation"
            for path, __ in _walk_library()
            if "ArrayRelation" in path.read_text()]
    assert not bad, (
        "an in-memory join stores its relations again, or a second "
        "in-memory relation type is back (hand the held Relations to "
        "SetContainmentJoin through the testbed; a shard portion is a "
        "Relation):\n" + "\n".join(bad)
    )


#: The model's two pricing calls: a plan's x, y and time terms.
PRICING_CALLS = ("predict_quantities", "predict_terms")
#: Text of the second resolvers, the second EXPLAIN entry and the drift
#: wrapper over the shared rotation.
RETIRED_PLAN_TEXT = (
    "def resolve_configuration", "explain_plan", "rotate_drift_jsonl",
)


#: Where a plan may be resolved from statistics, and where a relation's
#: statistics may be read: the optimizer, and the databases that plan.
RESOLVE_CALLERS = ("core/optimizer.py",)
STATISTICS_READERS = ("database.py", "dist/")


def test_one_plan_is_priced_once_and_rendered_once():
    bad = []
    for path, tree in _walk_library():
        where = path.relative_to(LIBRARY_ROOT).as_posix()
        for node in _calls(tree, lambda func: True):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (name == "plan_from_statistics"
                    and not where.startswith(RESOLVE_CALLERS)) or (
                    name == "_statistics"
                    and isinstance(node.func, ast.Attribute)
                    and not where.startswith(STATISTICS_READERS)):
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: "
                           f"{name}() (plan through db.plan)")
        allowed = range(0)
        if path == LIBRARY_ROOT / "core" / "optimizer.py":
            (prediction,) = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "prediction"
            ]
            allowed = range(prediction.lineno, prediction.end_lineno + 1)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in PRICING_CALLS and node.lineno not in allowed:
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: "
                           f"{name}()")
        text = path.read_text()
        if ("closest candidates" in text
                and path != LIBRARY_ROOT / "obs" / "explain.py"):
            bad.append(f"{path.relative_to(REPO_ROOT)}: a second renderer "
                       "of the optimizer's decision")
        for lineno, line in enumerate(text.splitlines(), 1):
            for needle in RETIRED_PLAN_TEXT:
                if needle in line:
                    bad.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                               f"{needle}")
    assert _module_function(
        "obs/explain.py", "build_plan_from_statistics"
    )[0] == "plan", "build_plan_from_statistics renders a JoinPlan"
    assert not bad, (
        "a plan is priced, resolved or rendered a second time (price in "
        "JoinPlan.prediction, resolve in core.optimizer.resolve_plan, "
        "render through JoinPlan.explain):\n" + "\n".join(bad)
    )
