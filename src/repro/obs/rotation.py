"""Size-capped JSONL rotation with environment-fingerprint sidecars.

Long-lived services append JSONL histories — drift records, per-query
span traces, postmortems — that would otherwise grow without bound.
:func:`rotate_jsonl` is the one rotation discipline; a drift history
rotates through it with ``parse=``:func:`repro.obs.drift.drift_line`:

* **Fingerprint check** — a sidecar ``<path>.meta.json`` records the
  environment that produced the history.  When the stored fingerprint
  differs from the current one the whole file is moved aside to
  ``<path>.stale``: a history carried over from another machine or
  interpreter describes timings and stacks that no longer apply.
* **Compaction** — when the file exceeds ``max_bytes``, only the newest
  ``keep`` records survive, rewritten atomically via ``os.replace``.
  Lines the ``parse`` hook rejects are dropped during compaction.

Clocks are injectable (``wall``) so the sidecar stamp is deterministic
under test.

:class:`JsonlSink` is the long-lived writer on top — rotate on open,
then one JSON line per record; the query service's trace, drift and
capture histories are three instances.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ..errors import ConfigurationError

__all__ = ["JsonlSink", "rotate_jsonl", "environment_fingerprint"]


def environment_fingerprint() -> dict:
    """Identity of the environment producing a JSONL history.

    Captures the dimensions that invalidate accumulated measurements:
    a history of timings or stack samples from another host, machine
    architecture, interpreter, or core count is worse than no data.
    """
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def rotate_jsonl(
    path: str,
    max_bytes: int = 4 * 1024 * 1024,
    keep: int = 2000,
    fingerprint: dict | None = None,
    parse=None,
    wall=None,
) -> dict:
    """Size-cap and environment-stamp one JSONL history file in place.

    ``parse(line) -> dict`` validates one line during compaction and
    returns the canonical record to keep; raising ``ValueError``,
    ``TypeError``, ``KeyError`` or :class:`ConfigurationError` drops the
    line.  The default parser keeps any line that is a JSON object.

    Returns ``{"archived": bool, "rotated": bool, "kept": int,
    "dropped": int}``.  A missing file is a no-op apart from writing the
    meta sidecar.
    """
    fingerprint = (
        fingerprint if fingerprint is not None else environment_fingerprint()
    )
    wall = wall if wall is not None else time.time
    if parse is None:
        def parse(line: str) -> dict:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("JSONL record must be an object")
            return record

    meta_path = path + ".meta.json"
    out = {"archived": False, "rotated": False, "kept": 0, "dropped": 0}

    stored = None
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as handle:
                stored = json.load(handle).get("fingerprint")
        except (OSError, ValueError):
            stored = None  # unreadable meta: treat as foreign history

    if os.path.exists(path) and stored is not None and stored != fingerprint:
        os.replace(path, path + ".stale")
        out["archived"] = True

    if os.path.exists(path) and os.path.getsize(path) > max_bytes:
        records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(parse(line))
                except (ValueError, TypeError, KeyError, ConfigurationError):
                    continue  # compaction sheds malformed lines
        kept = records[-keep:] if keep > 0 else []
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            for record in kept:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
        out["rotated"] = True
        out["kept"] = len(kept)
        out["dropped"] = len(records) - len(kept)

    with open(meta_path, "w") as handle:
        json.dump(
            {"fingerprint": fingerprint, "stamped": wall()},
            handle, sort_keys=True,
        )
    return out


class JsonlSink:
    """Append-only JSONL history, rotated (:func:`rotate_jsonl`) once
    at :meth:`open_`-time.  Appends come from the service's execution
    lane while :meth:`close` comes from whoever stops the service, hence
    the lock.
    """

    def __init__(self, path: str, max_bytes: int = 4 * 1024 * 1024,
                 keep: int = 2000, parse=None):
        if not path:
            raise ConfigurationError("JSONL sink path must be non-empty")
        self.path = path
        self.max_bytes = max_bytes
        self.keep = keep
        self._parse = parse
        self._lock = threading.Lock()
        self._open = False
        self._handle = None

    def open_(self) -> dict:
        """Rotate the existing history and accept appends.  The file
        itself is created by the first append, so a history that never
        gets a record leaves no empty file behind."""
        with self._lock:
            if self._open:
                raise ConfigurationError(
                    f"JSONL sink {self.path!r} is already open"
                )
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            rotation = rotate_jsonl(
                self.path, max_bytes=self.max_bytes, keep=self.keep,
                parse=self._parse,
            )
            self._open = True
            return rotation

    def append(self, *records: dict) -> None:
        """Write one line per record and flush, under one lock hold."""
        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        with self._lock:
            if not self._open:
                raise ConfigurationError(
                    f"JSONL sink {self.path!r} is not open"
                )
            if self._handle is None:
                self._handle = open(self.path, "a")
            self._handle.write(lines)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._open = False
            if self._handle is not None:
                self._handle.close()
                self._handle = None
