"""Sealed-record logs and atomic file replacement.

The one durability primitive under the service journal
(:mod:`repro.service.journal`) and the perf ledger
(:mod:`repro.perf.ledger`).  A log is a JSON-lines file of *sealed*
records::

    {"format": "<tag>", ..., "checksum": "<sha256[:16]>"}

where ``checksum`` covers the canonical (sorted-key) JSON of every
other field and the line itself is the sorted-key JSON of the whole
record.  Each user keeps its own format tag and file layout; this
module owns the bytes:

* :func:`seal` stamps the checksum and returns the record's line;
* :func:`open_log` + :func:`append` add lines durably — flushed and
  ``fsync``'d before returning — and always start at a line boundary:
  a torn last line (a crash mid-append) is terminated first, so the
  next record is never glued onto it and lost;
* :func:`read` returns the intact records, counts the lines that fail
  to parse or verify (skipped, never trusted) and reports where the
  torn tail — the bad lines after the last intact record — begins, so
  a caller that owns the file can cut it;
* :func:`write_atomic` replaces a whole file via a staged tmp file,
  ``fsync`` and ``os.replace``: readers see the old file or the new
  one, never a torn mix.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

__all__ = [
    "LogScan",
    "append",
    "checksum",
    "open_log",
    "read",
    "seal",
    "write_atomic",
]

_CHECKSUM_CHARS = 16


def checksum(record: dict) -> str:
    """sha256[:16] of the canonical JSON of every field but ``checksum``."""
    payload = json.dumps(
        {k: v for k, v in record.items() if k != "checksum"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:_CHECKSUM_CHARS]


def seal(record: dict) -> str:
    """Set ``record["checksum"]`` and return the record's line (no newline)."""
    record["checksum"] = checksum(record)
    return json.dumps(record, sort_keys=True)


def open_log(path: str):
    """Open ``path`` for :func:`append`, positioned at a line boundary.

    A last line without its newline is torn; it is terminated (not
    removed) so :func:`read` still skips and counts it.
    """
    handle = open(path, "a+b")
    try:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
    except BaseException:
        handle.close()
        raise
    return handle


def append(handle, line: str) -> None:
    """Write one line to a log from :func:`open_log`; durable on return."""
    handle.write(line.encode() + b"\n")
    handle.flush()
    os.fsync(handle.fileno())


@dataclass
class LogScan:
    """What one :func:`read` of a log recovered.

    ``corrupt`` counts every skipped line, the torn tail's included;
    ``torn`` is how many of them follow the last intact record, and
    ``tail`` the byte offset where they begin (``size`` when none do).
    """

    records: list[dict] = field(default_factory=list)
    corrupt: int = 0
    torn: int = 0
    tail: int = 0
    size: int = 0


def _verified(raw: bytes, fmt: str, valid) -> dict | None:
    try:
        record = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if (
        not isinstance(record, dict)
        or record.get("format") != fmt
        or (valid is not None and not valid(record))
        or record.get("checksum") != checksum(record)
    ):
        return None
    return record


def read(path: str, fmt: str, valid=None) -> LogScan:
    """Every intact ``fmt`` record in ``path``, oldest first.

    A record is intact when it parses, carries ``fmt``, passes the
    optional ``valid(record)`` predicate and verifies its checksum.
    Blank lines are ignored.  A missing file reads empty; any other
    ``OSError`` propagates.
    """
    scan = LogScan()
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                scan.size += len(raw)
                if not raw.strip():
                    continue
                record = _verified(raw, fmt, valid)
                if record is None:
                    scan.corrupt += 1
                    scan.torn += 1
                    continue
                scan.records.append(record)
                scan.torn = 0
                scan.tail = scan.size
    except FileNotFoundError:
        pass
    if not scan.torn:
        scan.tail = scan.size
    return scan


def write_atomic(path: str, chunks) -> None:
    """Replace ``path`` with the concatenated text ``chunks``.

    Staged in ``<path>.tmp-<pid>``, ``fsync``'d, then renamed over
    ``path``.  If anything raises before the rename (``chunks`` may be
    a generator), the stage is removed and ``path`` is left whole.
    """
    stage = f"{path}.tmp-{os.getpid()}"
    try:
        with open(stage, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(stage, path)
    except BaseException:
        try:
            os.unlink(stage)
        except OSError:
            pass
        raise
