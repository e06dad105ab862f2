"""Answers the benchmark checks the program against.

Nothing here imports from ``repro``: the functions only iterate rows that
expose ``.tid`` and ``.elements``, so a bug in the signature/partition
lineage cannot hide in its own oracle.  The join is an inverted index over
the superset side intersected rarest-posting-first (the PRETTI idea without
the prefix tree); the probe is a plain scan.
"""

from __future__ import annotations

import hashlib


def containment_pairs(lhs, rhs) -> set[tuple[int, int]]:
    """All ``(r.tid, s.tid)`` with ``r.elements ⊆ s.elements``."""
    postings: dict[int, set[int]] = {}
    all_s = set()
    for s in rhs:
        all_s.add(s.tid)
        for element in s.elements:
            postings.setdefault(element, set()).add(s.tid)
    pairs: set[tuple[int, int]] = set()
    empty: set[int] = set()
    for r in lhs:
        lists = sorted(
            (postings.get(element, empty) for element in r.elements), key=len
        )
        if not lists:
            hosts = all_s  # ∅ ⊆ every set
        else:
            hosts = lists[0]
            for posting in lists[1:]:
                if not hosts:
                    break
                hosts = hosts & posting
        for s_tid in hosts:
            pairs.add((r.tid, s_tid))
    return pairs


def probe_tids(relation, elements) -> list[int]:
    """Tids of stored sets ⊇ ``elements``, ascending."""
    query = set(elements)
    return sorted(row.tid for row in relation if query <= row.elements)


def pair_digest(pairs) -> str:
    """Order-independent fingerprint of a pair set, for diffing two runs."""
    digest = hashlib.sha256()
    for r_tid, s_tid in sorted(pairs):
        digest.update(b"%d,%d;" % (r_tid, s_tid))
    return digest.hexdigest()[:16]
