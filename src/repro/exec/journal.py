"""Crash-safe campaign checkpoint journal.

A campaign is a long sequence of independent simulation tasks.  The run
cache already makes completed work content-addressed and reusable; the
journal adds an explicit, append-only record of *which* task keys have
finished, so an interrupted campaign can report precisely how much it
resumed and a monitoring tool can watch progress without parsing cache
filenames.

Format: one JSON object per line (JSONL), one record shape:
``{"key": K, "cached": bool}`` — task ``K`` finished.  Journals written
by older multi-worker versions also hold ``{"lease": op, "key": K, ...}``
coordination records; their ``key`` names a task that was being worked
on, not one that finished, so any record carrying a ``lease`` field is
skipped and such a journal still resumes with the right count.

Each append is a **single** ``os.write`` to a file descriptor opened
with ``O_APPEND``, followed by an fsync.  POSIX makes each such append
land at the end of the file as one contiguous span, so two campaigns
sharing a cache dir never interleave *bytes* of two records.  A
``kill -9`` between appends loses nothing, and one *during* an append
loses at most the final, truncated line.  :meth:`CampaignJournal._load`
therefore tolerates — and drops — malformed lines instead of failing
the resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def _open_journal(path: Path) -> int:
    """Open (creating) a journal for atomic appends; returns the fd.

    When the existing file does not end in a newline (a writer died
    mid-append), the first thing written is a bare newline so the next
    record starts on a fresh line instead of gluing onto the tear.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        torn = False
        if size:
            with open(path, "rb") as fh:
                fh.seek(size - 1)
                torn = fh.read(1) != b"\n"
        if torn:
            os.write(fd, b"\n")
    except OSError:  # pragma: no cover - repair is best-effort
        pass
    return fd


def _append_record(fd: int, record: dict) -> None:
    """Durably append one compact, key-sorted line: one write + fsync."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    os.write(fd, line.encode())
    os.fsync(fd)


class CampaignJournal:
    """Append-only JSONL checkpoint of completed campaign task keys.

    Parameters
    ----------
    path:
        Journal file location; parent directories are created on the
        first append.  An existing file is *resumed*: previously recorded
        keys are loaded and new entries are appended after them.

    Every ``mark`` is one atomic ``O_APPEND`` write followed by an
    fsync, so a record is either wholly on disk or absent.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._done: set[str] = set()
        self._fd: int | None = None
        self._load()

    def _load(self) -> None:
        """Read back prior done records, dropping torn or lease lines.

        A dropped record is always safe: its task re-runs idempotently
        from the cache.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        for line in raw.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict) or "lease" in entry:
                continue
            key = entry.get("key")
            if isinstance(key, str):
                self._done.add(key)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def mark(self, key: str, cached: bool = False) -> None:
        """Record one completed task, durably, as soon as it finishes."""
        if key in self._done:
            return
        self._done.add(key)
        if self._fd is None:
            self._fd = _open_journal(self.path)
        _append_record(self._fd, {"key": key, "cached": cached})

    def done(self, key: str) -> bool:
        """Whether ``key`` completed in this or a previous attempt."""
        return key in self._done

    def __contains__(self, key: str) -> bool:
        return self.done(key)

    def __len__(self) -> int:
        return len(self._done)

    def close(self) -> None:
        """Release the append handle (safe to call repeatedly)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
