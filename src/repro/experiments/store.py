"""Persistent, append-only result store for campaign trials.

Every completed trial is one JSON line keyed by the trial's content
hash, in the spirit of an accountable append-only log: a campaign run
never mutates history, it only appends.  Loading tolerates blank and
corrupt lines (e.g. a run killed mid-write), so a store is always
resumable; for duplicate keys the last record wins.

A store constructed with ``path=None`` is purely in-memory — used by
``repro sweep`` and by tests that do not need persistence.

**Concurrent writers.**  ``repro serve`` turns one store into a shared
database for several daemon worker threads — and for daemon restarts
racing campaign runs over the same file.  Appends are therefore a
single ``O_APPEND`` ``write(2)`` of one complete line (the kernel
serializes the offset, so two processes never interleave mid-line),
taken under a *shared* advisory lock on a ``<path>.lock`` sidecar;
:meth:`compact` takes the *exclusive* lock, re-reads the file so lines
appended by other processes survive the rewrite, and replaces the file
atomically.  On platforms without ``fcntl`` the appends stay atomic and
compaction degrades to best-effort (documented, Linux is the serving
platform).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


class ResultStore:
    """Dict-like view over a JSONL file of trial records.

    Records are plain dicts that must carry a ``"key"`` entry (the
    trial content hash, see :meth:`TrialSpec.key`).
    """

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, dict] = {}
        #: Superseded/unreadable lines seen at load time (duplicate keys
        #: from re-runs, torn writes): the difference between the file's
        #: line count and the live record count.  :meth:`compact` can
        #: reclaim them.
        self.superseded_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        self._records, lines = self._read_file()
        self.superseded_lines = lines - len(self._records)

    def _read_file(self) -> "tuple[Dict[str, dict], int]":
        """Parse the backing file: (records by key, parseable lines)."""
        records: Dict[str, dict] = {}
        lines = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines += 1
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from an interrupted run
                if isinstance(record, dict) and "key" in record:
                    # Normalize exactly like add(): a non-string key must
                    # index under the same string before and after a
                    # restart, or resume silently re-runs finished trials.
                    record["key"] = str(record["key"])
                    records[record["key"]] = record
        return records, lines

    @contextlib.contextmanager
    def _lock(self, exclusive: bool) -> Iterator[None]:
        """Advisory inter-process lock on the ``<path>.lock`` sidecar.

        Shared for appends (many writers may interleave whole lines),
        exclusive for compaction (no writer may append between the
        re-read and the atomic replace).  A no-op without ``fcntl``.
        """
        assert self.path is not None
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return str(key) in self._records

    def has(self, key: str) -> bool:
        """Whether a result for this trial key is already recorded.

        Keys are normalized to ``str``, matching :meth:`add`/loading.
        """
        return str(key) in self._records

    def get(self, key: str) -> Optional[dict]:
        """The recorded result for ``key`` (a copy), or ``None``."""
        record = self._records.get(str(key))
        return dict(record) if record is not None else None

    def keys(self) -> List[str]:
        """All recorded trial keys."""
        return list(self._records)

    def records(self, scenario: Optional[str] = None) -> List[dict]:
        """All records (copies), optionally filtered by scenario name."""
        out = (dict(r) for r in self._records.values())
        if scenario is None:
            return list(out)
        return [r for r in out if r.get("scenario") == scenario]

    def scenarios(self) -> List[str]:
        """Distinct scenario names present, sorted."""
        return sorted(
            {str(r.get("scenario")) for r in self._records.values() if "scenario" in r}
        )

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records())

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add(self, record: Mapping[str, object]) -> None:
        """Record one trial result, appending to the backing file.

        The trial key is normalized to ``str`` both in memory and on
        disk, so lookups behave identically before and after a reload.
        """
        if "key" not in record:
            raise ValueError("trial record must carry a 'key'")
        record = dict(record)
        record["key"] = str(record["key"])
        if self.path is not None and record["key"] in self._records:
            # The old record's line is now superseded on disk.
            self.superseded_lines += 1
        self._records[record["key"]] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            with self._lock(exclusive=False):
                # One O_APPEND write of one complete line: concurrent
                # writers (daemon workers, parallel campaigns) can never
                # interleave mid-record, and a crash can tear at most
                # the final line — which loading already tolerates.
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)

    def compact(self) -> int:
        """Rewrite the JSONL file with one line per trial key.

        Long-lived stores grow a superseded line for every ``--fresh``
        re-run and every resumed duplicate; compaction drops them
        (last record per key wins — exactly the in-memory view).
        Under the exclusive sidecar lock the file is re-read first, so
        records appended by *other* processes since our load are merged
        into this store's view instead of being dropped by the rewrite;
        the rewrite then goes through a temporary file in the same
        directory and an atomic replace, so a crash mid-compaction
        never loses the store.  Returns the number of lines reclaimed
        (0 when the file is already minimal, in which case nothing is
        rewritten).
        """
        if self.path is None:
            return 0
        with self._lock(exclusive=True):
            if not self.path.exists():
                return 0
            disk, lines = self._read_file()
            # Other processes' records merge in; for keys we both hold,
            # the on-disk line is at least as new as our memory (add()
            # writes through), so disk wins.
            self._records.update(disk)
            reclaimed = lines - len(disk)
            self.superseded_lines = 0
            if reclaimed <= 0:
                return 0
            tmp = self.path.with_name(self.path.name + ".compact")
            with tmp.open("w", encoding="utf-8") as handle:
                for record in self._records.values():
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        return reclaimed
