"""Plain-text persistence for relations with set-valued attributes.

Format: one set per line, whitespace-separated non-negative integer
elements.  Lines may be blank or start with ``#`` (comments); tuple
identifiers are explicit with ``tid: elements...`` or implicit (the
0-based line number).  This is the format the ``setjoins`` CLI consumes.
"""

from __future__ import annotations

import os
from typing import Iterable

from ..core.sets import Relation
from ..errors import ConfigurationError

__all__ = ["load_relation", "save_relation"]


def load_relation(path: str, name: str = "") -> Relation:
    """Read a relation from a set-per-line text file."""
    rows = []
    with open(path) as handle:
        for line_number, raw in enumerate(handle):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line:
                tid_text, __, elements_text = line.partition(":")
                try:
                    tid = int(tid_text)
                except ValueError as error:
                    raise ConfigurationError(
                        f"{path}:{line_number + 1}: bad tid {tid_text!r}"
                    ) from error
            else:
                tid = line_number
                elements_text = line
            try:
                elements = frozenset(int(tok) for tok in elements_text.split())
            except ValueError as error:
                raise ConfigurationError(
                    f"{path}:{line_number + 1}: non-integer element"
                ) from error
            rows.append((tid, elements))
    return Relation(rows, name or os.path.basename(path))


def save_relation(relation: Relation, path: str, explicit_tids: bool = True) -> int:
    """Write a relation to a text file; returns the tuple count.

    ``explicit_tids=False`` writes bare element lists, which only
    round-trips when tids are the consecutive line numbers.
    """
    count = 0
    with open(path, "w") as handle:
        handle.write(f"# relation {relation.name or '?'} — one set per line\n")
        for row in relation:
            elements = " ".join(str(e) for e in sorted(row.elements))
            if explicit_tids:
                handle.write(f"{row.tid}: {elements}\n")
            else:
                handle.write(f"{elements}\n")
            count += 1
    return count
