"""One plan (DESIGN.md §1.21): every shell joins, explains and analyzes
the one :class:`~repro.core.optimizer.JoinPlan` that
:func:`~repro.core.optimizer.resolve_plan` returns.

* EXPLAIN names what runs: in memory, in a database and across two
  shards, for the optimizer's plan and four named ones, the explained
  root's algorithm and k are the join's, its predicted values are the
  plan's :meth:`~repro.core.optimizer.JoinPlan.prediction`, and its
  partition phase names the partitioner the plan builds.
* ANALYZE records what it renders: the drift record's errors are the
  annotated root's, under a fake tracer clock and under real clocks.
* A sharded ``--explain`` explains the named plan it would run, not the
  optimizer's, and ``db FILE explain`` prints one report.
* A served auto join plans through the database: with the plan cache on,
  the plan it runs is ``db.plan``'s, a hit returns an equal plan, and
  churn plans again.
"""

import re

import pytest

from repro.cli import main
from repro.core.api import containment_join
from repro.core.optimizer import resolve_plan
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.obs.drift import DRIFT_KEYS
from repro.obs.explain import analyze_join, explain_join
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import QueryService

PLANS = [("auto", None), ("DCJ", 8), ("DCJ", 48), ("PSJ", 8), ("LSJ", 16)]
SHELLS = ("memory", "database", "sharded")


@pytest.fixture(scope="module")
def relations():
    return uniform_workload(300, 400, 4, 12, 200, seed=3).materialize()


def _explain_and_join(shell, lhs, rhs, algorithm, k):
    """``(plan, report, metrics)`` of one shell: the plan it resolves, the
    report it explains and the metrics of the join it runs."""
    if shell == "memory":
        plan = resolve_plan(
            algorithm, k, len(lhs), lhs.average_cardinality(),
            len(rhs), rhs.average_cardinality(),
        )
        report = explain_join(lhs, rhs, algorithm, k)
        return plan, report, containment_join(lhs, rhs, algorithm, k)[1]
    if shell == "database":
        db = SetJoinDatabase.open(None)
    else:
        db = ShardedDatabase.open(None, shards=2)
    with db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        plan = db.plan("R", "S", algorithm, k)
        report = db.explain("R", "S", algorithm, k)
        return plan, report, db.join("R", "S", algorithm, k)[1]


@pytest.mark.parametrize("algorithm, k", PLANS)
@pytest.mark.parametrize("shell", SHELLS)
def test_explain_names_what_runs(relations, shell, algorithm, k):
    plan, report, metrics = _explain_and_join(shell, *relations, algorithm, k)
    root = report.root
    name, partitions = root.detail.split(" k=")
    assert (name, int(partitions)) == (plan.algorithm, plan.k)
    # A k that is not a power of two runs DCJ/LSJ folded ("DCJ-mod").
    assert metrics.algorithm in (name, f"{name}-mod")
    assert metrics.num_partitions == plan.k
    if algorithm != "auto":
        assert (plan.algorithm, plan.k) == (algorithm, k)
    assert root.predicted == plan.prediction()
    assert root.children[0].detail == plan.build_partitioner().describe()
    decided = any(line.startswith("chosen:") for line in report.header)
    assert decided == (algorithm == "auto")


def test_prediction_is_priced_once_per_plan(relations):
    """The root carries the prediction; the phases split its two time
    terms, and a one-candidate plan prices its candidate with the same
    model."""
    lhs, rhs = relations
    report = explain_join(lhs, rhs, "PSJ", 8)
    prediction = report.root.predicted
    phases = {node.name: node.predicted for node in report.root.children}
    assert phases["phase.partition"]["seconds"] == (
        prediction["replication_seconds"])
    assert phases["phase.join"]["seconds"] == prediction["cpu_seconds"]
    assert phases["phase.join"]["comparisons"] == prediction["comparisons"]
    plan = resolve_plan("PSJ", 8, len(lhs), lhs.average_cardinality(),
                        len(rhs), rhs.average_cardinality())
    (candidate,) = plan.candidates
    assert plan.predicted_seconds == candidate.predicted_seconds
    assert candidate.predicted_seconds == pytest.approx(prediction["seconds"])


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per call."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.mark.parametrize("clock", ["fake", "real"])
def test_analyze_records_what_it_renders(relations, clock):
    tracer = (Tracer(clock=FakeClock(0.001), wall=lambda: 0.0)
              if clock == "fake" else None)
    analysis = analyze_join(
        *relations, tracer=tracer, registry=MetricsRegistry(),
        wall=lambda: 0.0,
    )
    root = analysis.report.root
    rendered = root.errors()
    for key in DRIFT_KEYS:
        assert analysis.drift.errors[key] == rendered[key], key
        assert analysis.drift.observed[key] == root.observed[key], key
        assert analysis.drift.predicted[key] == root.predicted[key], key


@pytest.fixture()
def set_files(tmp_path, relations):
    paths = []
    for name, relation in zip("rs", relations):
        rows = sorted((row.tid, sorted(row.elements)) for row in relation)
        assert [tid for tid, __ in rows] == list(range(len(rows)))
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(
            " ".join(map(str, elements)) + "\n" for __, elements in rows))
        paths.append(str(path))
    return paths


def test_sharded_explain_explains_the_plan_that_runs(set_files, capsys):
    request = ["join", *set_files, "--shards", "2", "--algorithm", "psj",
               "-k", "8"]
    assert main(request) == 0
    y = int(re.search(r"(\d+) replicated signatures",
                      capsys.readouterr().err).group(1))
    assert main([*request, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "[PSJ k=8]" in out
    assert "chosen:" not in out  # a named plan compared no candidates
    assert f"logical y (paper accounting): {y} " in out
    assert "distribution: 2 shards" in out


def test_db_explain_prints_one_report(set_files, capsys, tmp_path):
    db_path = str(tmp_path / "one.db")
    assert main(["db", db_path, "load", "R", set_files[0]]) == 0
    assert main(["db", db_path, "load", "S", set_files[1]]) == 0
    capsys.readouterr()
    assert main(["db", db_path, "explain", "R", "S"]) == 0
    out = capsys.readouterr().out
    with SetJoinDatabase.open(db_path) as db:
        assert out == str(db.explain("R", "S")) + "\n"
    assert out.count("chosen:") == 1


@pytest.mark.parametrize("shell", ["database", "sharded"])
def test_served_auto_join_plans_through_the_database(relations, shell,
                                                     monkeypatch):
    lhs, rhs = relations
    db = (SetJoinDatabase.open(None) if shell == "database"
          else ShardedDatabase.open(None, shards=2))
    served = []
    resolve = type(db).plan

    def recording(self, *args, **kwargs):
        plan = resolve(self, *args, **kwargs)
        if kwargs.get("cache") is not None:
            served.append(plan)
        return plan

    monkeypatch.setattr(type(db), "plan", recording)
    with db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        with QueryService(db, workers=1, plan_cache_size=4,
                          registry=MetricsRegistry()) as service:
            service.join("R", "S")
            service.join("R", "S")
            cache = service.stats()["plan_cache"]
            assert (cache["misses"], cache["hits"]) == (1, 1)
            first, hit = served
            assert first == db.plan("R", "S")
            assert hit == first
            service.drop_relation("S")
            service.create_relation(
                "S", [(row.tid, row.elements) for row in rhs][:150])
            service.join("R", "S")
            assert service.stats()["plan_cache"]["misses"] == 2
            assert served[-1] == db.plan("R", "S") != first
