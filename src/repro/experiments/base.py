"""Shared experiment infrastructure: results, table rendering, registry."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ConfigurationError

__all__ = ["ExperimentResult", "format_table", "register", "get_experiment",
           "experiment_ids", "scale_kwargs", "EXPERIMENTS"]


@dataclass
class ExperimentResult:
    """Output of one reproduced figure/table.

    ``rows`` are plain dicts sharing the keys in ``columns``; ``series``
    optionally groups rows for figure-like output (one series per curve).
    ``paper_claims`` records what the paper states for the same artifact so
    reports can show paper-vs-measured side by side.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    paper_claims: list[str] = field(default_factory=list)
    #: machine-checkable claim verdicts: (short description, passed)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, description: str, passed: bool) -> bool:
        """Record one claim verdict; returns it (as bool) for chaining."""
        verdict = bool(passed)
        self.checks.append((description, verdict))
        return verdict

    @property
    def all_checks_pass(self) -> bool:
        return all(passed for __, passed in self.checks)

    def render(self) -> str:
        """Human-readable report: title, table, paper claims, notes."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.append(format_table(self.columns, self.rows))
        if self.paper_claims:
            parts.append("Paper claims:")
            parts.extend(f"  * {claim}" for claim in self.paper_claims)
        if self.checks:
            parts.append("Checks:")
            parts.extend(
                f"  [{'PASS' if passed else 'FAIL'}] {description}"
                for description, passed in self.checks
            )
        if self.notes:
            parts.append("Notes:")
            parts.extend(f"  * {note}" for note in self.notes)
        return "\n".join(parts)

    def to_tsv(self) -> str:
        """Machine-readable tab-separated rows (header + data)."""
        lines = ["\t".join(str(column) for column in self.columns)]
        for row in self.rows:
            lines.append(
                "\t".join(str(row.get(column, "")) for column in self.columns)
            )
        return "\n".join(lines) + "\n"

    def save(self, directory: str) -> tuple[str, str]:
        """Write ``<id>.txt`` (report) and ``<id>.tsv`` (data) into
        ``directory``; returns the two paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        txt_path = os.path.join(directory, f"{self.experiment_id}.txt")
        tsv_path = os.path.join(directory, f"{self.experiment_id}.tsv")
        with open(txt_path, "w") as handle:
            handle.write(self.render() + "\n")
        with open(tsv_path, "w") as handle:
            handle.write(self.to_tsv())
        return txt_path, tsv_path


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """Render rows as a fixed-width text table."""
    table = [[str(column) for column in columns]]
    for row in rows:
        table.append([_format_cell(row.get(column, "")) for column in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    rendered = []
    for line_index, line in enumerate(table):
        rendered.append(
            "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        )
        if line_index == 0:
            rendered.append("  ".join("-" * width for width in widths))
    return "\n".join(rendered)


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator registering an experiment's ``run`` function by id."""

    def wrap(function: Callable[..., ExperimentResult]):
        if experiment_id in EXPERIMENTS:
            raise ConfigurationError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = function
        return function

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment by id.

    The returned callable runs the experiment under an
    ``experiment:<id>`` span on the ambient tracer (a no-op unless one
    is active — see :mod:`repro.obs.trace`), so harness runs traced via
    ``setjoins experiment <id> --trace`` get every join's span tree
    grouped per experiment.
    """
    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        ) from None

    @functools.wraps(function)
    def traced(*args, **kwargs) -> ExperimentResult:
        from ..obs.trace import current_tracer

        with current_tracer().span(f"experiment:{experiment_id}"):
            return function(*args, **kwargs)

    return traced


def scale_kwargs(experiment_id: str, run: Callable, scale) -> dict:
    """The keyword arguments that hand ``scale`` to ``run``: none when
    ``scale`` is None, and a :class:`ConfigurationError` when ``run``
    takes no ``scale`` parameter."""
    if scale is None:
        return {}
    if "scale" not in inspect.signature(run).parameters:
        raise ConfigurationError(
            f"experiment {experiment_id!r} takes no scale")
    return {"scale": scale}


def experiment_ids() -> list[str]:
    return sorted(EXPERIMENTS)
