"""The durable campaign journal: an append-only JSONL record log.

One directory per campaign::

    <journal-dir>/journal.jsonl   the record log (source of truth)
    <journal-dir>/.lock           advisory flock serialising mutations
    <journal-dir>/results/        default local result store (fabric)

The repo's one journal format, ``repro.campaign_journal`` version 2:
``campaign`` (config), ``submit``, ``lease``, ``heartbeat``,
``requeue``, ``reopen``, ``quarantine``, the ``done``/``failed``
terminal records, and ``worker`` lifecycle records — enough to
reconstruct the full scheduler state by replay
(:func:`repro.sched.state.load_state`).  ``repro fuzz --journal`` adds
``seed`` records, which replay ignores.

Durability contract:

* Appends are single ``write()`` calls of one newline-terminated line to
  a file opened in append mode, flushed per record — a killed writer
  loses at most its in-flight line.
* ``REPRO_JOURNAL_FSYNC=1`` (routed through
  :func:`repro.envutil.env_flag`) additionally ``fsync`` s every append:
  records then survive power loss, not just process death, at a
  per-record syscall cost (order-of-magnitude: ~100µs on SSDs, ~10ms on
  spinning disks — leave it off unless the journal outlives the host).
* Replay (:func:`read_records`) skips torn, corrupt or non-UTF-8 lines
  instead of raising; later records are independent.
* A writer opening a journal whose last byte is not a newline (a torn
  tail left by a killed writer) appends a repair newline first, so the
  next record cannot concatenate with the torn fragment and corrupt
  *two* records.

Mutating multi-record operations (claiming a task, reclaiming expired
leases) must run under :func:`lock_journal`, which serialises writers
across processes with an advisory ``flock``.  Plain appends from a lease
holder (heartbeats, completion) also take the lock — they are rare
enough that simplicity wins over O_APPEND cleverness.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.envutil import env_flag

try:  # POSIX advisory locking; the fallback degrades to lockless.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

JOURNAL_SCHEMA = "repro.campaign_journal"
#: v2: scheduler records (campaign/submit/lease/heartbeat/requeue/
#: reopen/quarantine/worker) joined the v1 done/failed/seed set.  v1
#: journals replay fine — the new events simply never occur in them.
JOURNAL_SCHEMA_VERSION = 2

JOURNAL_NAME = "journal.jsonl"
LOCK_NAME = ".lock"


def journal_fsync_enabled() -> bool:
    """Whether appends are fsync'd (``REPRO_JOURNAL_FSYNC``)."""
    return env_flag("REPRO_JOURNAL_FSYNC")


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


def lock_path(directory: str) -> str:
    return os.path.join(directory, LOCK_NAME)


@contextmanager
def lock_journal(directory: str) -> Iterator[None]:
    """Hold the campaign's advisory lock (blocking, process-exclusive).

    Every read-modify-write against the journal (claim scans, reclaim
    passes) runs inside this; the lock is released even if the holder
    raises.  On platforms without ``fcntl`` the lock degrades to a
    no-op — single-process use stays correct.
    """
    os.makedirs(directory, exist_ok=True)
    handle = open(lock_path(directory), "a+")
    try:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


def _encode(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class JournalWriter:
    """Append records to a campaign journal, one flushed line each.

    Opening a fresh journal writes the schema header; opening an
    existing one repairs a torn tail (missing trailing newline) so the
    first new record starts on its own line.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = journal_path(directory)
        fresh = (not os.path.exists(self.path)
                 or os.path.getsize(self.path) == 0)
        if not fresh:
            self._repair_torn_tail()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._fsync = journal_fsync_enabled()
        if fresh:
            self.append({"schema": JOURNAL_SCHEMA,
                         "schema_version": JOURNAL_SCHEMA_VERSION})

    def _repair_torn_tail(self) -> None:
        """Ensure the file ends in a newline before appending.

        A writer killed mid-append leaves a torn final line; replay
        skips it, but a subsequent append would concatenate with the
        fragment and corrupt an otherwise-good record too.  One repair
        newline isolates the fragment."""
        with open(self.path, "rb") as handle:
            try:
                handle.seek(-1, os.SEEK_END)
            except OSError as exc:  # pragma: no cover - empty race
                if exc.errno != errno.EINVAL:
                    raise
                return
            if handle.read(1) != b"\n":
                with open(self.path, "a", encoding="utf-8") as repair:
                    repair.write("\n")

    def append(self, record: Dict[str, Any]) -> None:
        self._handle.write(_encode(record))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close failures are benign
            pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One journal line as a record, or ``None`` for a torn, corrupt,
    non-UTF-8 or non-dict line.  Every replay parses through here."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is a ValueError too
        return None
    return record if isinstance(record, dict) else None


def read_records(directory: str, path: Optional[str] = None,
                 start: int = 0,
                 stop: Optional[int] = None) -> List[Dict[str, Any]]:
    """Replay a journal into its record list, tolerating damage.

    Torn lines (a writer killed mid-append), garbage bytes, and non-dict
    JSON are skipped, never raised — every surviving record is
    independent of its neighbours.  A missing journal is an empty
    campaign.  ``start``/``stop`` bound the byte range read (a line
    boundary each); the incremental reader of
    :func:`repro.sched.state.load_state` reads only what was appended.
    """
    target = path or journal_path(directory)
    try:
        handle = open(target, "rb")
    except (FileNotFoundError, NotADirectoryError):
        return []
    with handle:
        handle.seek(start)
        data = handle.read(-1 if stop is None else stop - start)
    records = []
    for line in data.split(b"\n"):
        if line:
            record = parse_line(line)
            if record is not None:
                records.append(record)
    return records
