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
the serving side takes no ``engine`` parameter.

A last walk keeps the partition path columnar (DESIGN.md, "Columnar batch
path"): ``partition_relation`` makes no per-tuple call, and the B-tree node
codec never sizes an entry by encoding its length.

Two walks keep verification one forward pass (DESIGN.md, "One-pass
verification"): the fetch-and-verify functions build no set and call no
predicate or one-tuple fetch per pair, and the store's batch fetch never
falls back on the one-tuple API.

Three walks keep the served query's record single (DESIGN.md, "One
record per query"): the service opens at most one registry window, the
retired per-query shapes and helpers stay retired, and every
``setjoin_*`` series has a row — with its reader — in the signal table
of ``docs/observability.md``.
"""

from __future__ import annotations

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
    LIBRARY_ROOT / "ablate" / "bench.py",
    LIBRARY_ROOT / "dist" / "placement.py",
    LIBRARY_ROOT / "experiments" / "worked_example.py",
}

#: Where nobody selects a comparison engine (see DESIGN.md).
ENGINE_FREE = ("database.py", "dist", "service", "obs", "cli.py")


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


def test_serving_side_takes_no_engine_parameter():
    bad = []
    for path, tree in _walk_library():
        if path.relative_to(LIBRARY_ROOT).parts[0] not in ENGINE_FREE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            if any(arg.arg == "engine" for arg in (
                    arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs)):
                bad.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert not bad, (
        "engine= parameter outside the operator and the figure experiments "
        "(the serving side runs the blocked kernel):\n" + "\n".join(bad)
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


def test_retired_per_query_shapes_stay_retired():
    bad = []
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
            else:
                continue
            bad += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}"
                for name in names if name in RETIRED_NAMES
            ]
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
