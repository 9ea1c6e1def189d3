"""Pluggable object backends for the experiment store.

:class:`~repro.store.store.ExperimentStore` owns the cache *semantics*
(key scheme, hit/miss accounting, manifest events, gc policy); a backend
owns the *bytes* — where cached objects and the manifest live.  The
protocol is deliberately small:

``get(key)``
    The stored payload dict, or ``None`` for a missing **or corrupt**
    entry (corruption is a cache miss, never an error — the recompute
    overwrites it).
``put(key, payload)``
    Store a payload atomically under its key (idempotent: concurrent
    writers of the same content-addressed key may race freely).
``delete(key)``
    Remove one entry; returns the bytes freed (0 when absent).
``entries()``
    ``ObjectEntry(key, size, mtime)`` for every stored object (gc and
    stats walk this).
``append_manifest(line)`` / ``manifest_lines()`` / ``rewrite_manifest``
    The append-only event log and its gc-time compaction.

Two implementations ship:

:class:`DirBackend`
    The historical layout — ``objects/<key[:2]>/<key>.json.gz`` plus a
    ``manifest.jsonl``.  Manifest appends are a **single O_APPEND
    write** of one fully formed line, so concurrent writers (process
    pools, service workers) can never interleave torn lines — POSIX
    appends the whole buffer atomically.
:class:`SqliteBackend`
    One ``store.sqlite`` database (WAL mode) holding objects and the
    manifest — the shared-result database concurrent service workers
    write without directory-tree races.  Payloads round-trip through
    the exact same canonical-JSON text as the dir backend, so results
    are bit-identical across backends.

:func:`resolve_backend` picks a backend for a store root: an explicit
name wins; otherwise a root that already contains ``store.sqlite`` opens
as sqlite (so workers reopening a store by its directory path land on
the same backend the daemon created), and anything else is a dir store.
"""

from __future__ import annotations

import gzip
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Union

__all__ = [
    "BACKENDS",
    "DirBackend",
    "ObjectBackend",
    "ObjectEntry",
    "SQLITE_FILENAME",
    "SqliteBackend",
    "resolve_backend",
]

#: The database filename that marks a store root as sqlite-backed.
SQLITE_FILENAME = "store.sqlite"


class ObjectEntry(NamedTuple):
    """One stored object, as gc/stats see it."""

    key: str
    size: int
    mtime: float


class ObjectBackend:
    """Protocol base (documented above); concrete backends override all."""

    name = "abstract"

    def get(self, key: str) -> Optional[dict]:
        raise NotImplementedError

    def put(self, key: str, payload: dict) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> int:
        raise NotImplementedError

    def entries(self) -> List[ObjectEntry]:
        raise NotImplementedError

    def append_manifest(self, line: str) -> None:
        raise NotImplementedError

    def manifest_lines(self) -> List[str]:
        raise NotImplementedError

    def rewrite_manifest(self, lines: List[str]) -> None:
        raise NotImplementedError


class DirBackend(ObjectBackend):
    """Gzip'd JSON objects in a sharded directory tree (the seed layout)."""

    name = "dir"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_path = self.root / "manifest.jsonl"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json.gz"

    def get(self, key: str) -> Optional[dict]:
        path = self._object_path(key)
        if not path.exists():
            return None
        try:
            with gzip.open(path, "rt") as handle:
                return json.load(handle)
        except (OSError, EOFError, ValueError):
            # Corrupt or truncated gzip/JSON reads as a miss (gzip raises
            # EOFError on truncation); the recompute overwrites it.
            return None

    def put(self, key: str, payload: dict) -> None:
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            # Level 6, not gzip's default 9: on a 1.1 MB sample-bearing
            # entry it compresses ~4x faster for a ~3% larger object.
            tmp.write_bytes(
                gzip.compress(json.dumps(payload).encode(), compresslevel=6)
            )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                tmp.unlink()

    def delete(self, key: str) -> int:
        path = self._object_path(key)
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return 0
        return size

    def entries(self) -> List[ObjectEntry]:
        out: List[ObjectEntry] = []
        for path in self.objects_dir.glob("*/*.json.gz"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent gc
                continue
            out.append(
                ObjectEntry(
                    key=path.name.removesuffix(".json.gz"),
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return out

    def append_manifest(self, line: str) -> None:
        # One O_APPEND write of the whole line: concurrent appenders
        # (pool workers, service shards) each land a complete line —
        # POSIX O_APPEND writes are atomic, so torn/interleaved records
        # cannot occur the way buffered ``open(..., "a")`` allowed.
        data = (line + "\n").encode()
        fd = os.open(
            self.manifest_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def manifest_lines(self) -> List[str]:
        if not self.manifest_path.exists():
            return []
        return self.manifest_path.read_text().splitlines()

    def rewrite_manifest(self, lines: List[str]) -> None:
        tmp = self.manifest_path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp, self.manifest_path)


class SqliteBackend(ObjectBackend):
    """Objects + manifest in one WAL-mode SQLite database.

    Built for many concurrent writer *processes* sharing one consistent
    result database (the service's worker fabric): WAL allows readers
    during writes, ``busy_timeout`` rides out writer bursts, and every
    statement here is a single autocommitted transaction.  Connections
    are per-thread (SQLite connections are not thread-safe), opened
    lazily so a backend object can cross ``fork()`` safely as long as it
    was not used before the fork — exactly how pool workers receive
    store paths today (they reopen by path, never inherit a handle).

    Payloads are stored as the same canonical JSON text the dir backend
    gzips, so a result read back is bit-identical regardless of backend.
    """

    name = "sqlite"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / SQLITE_FILENAME
        self._local = threading.local()
        with self._cursor() as cur:
            cur.execute(
                "CREATE TABLE IF NOT EXISTS objects ("
                "  key TEXT PRIMARY KEY,"
                "  payload TEXT NOT NULL,"
                "  size INTEGER NOT NULL,"
                "  mtime REAL NOT NULL)"
            )
            cur.execute(
                "CREATE TABLE IF NOT EXISTS manifest ("
                "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  line TEXT NOT NULL)"
            )

    def _connect(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != os.getpid():
            conn = sqlite3.connect(self.db_path, timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._local.conn = conn
            self._local.pid = os.getpid()
        return conn

    @contextmanager
    def _cursor(self) -> Iterator[sqlite3.Cursor]:
        """``with self._cursor() as cur`` — commit on success, rollback
        on error (every call is one transaction)."""
        conn = self._connect()
        try:
            yield conn.cursor()
        except BaseException:
            conn.rollback()
            raise
        else:
            conn.commit()

    def get(self, key: str) -> Optional[dict]:
        with self._cursor() as cur:
            row = cur.execute(
                "SELECT payload FROM objects WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            # A corrupt payload (partial write, manual tampering) is a
            # miss, matching the dir backend's corrupt-gzip semantics.
            return None

    def put(self, key: str, payload: dict) -> None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._cursor() as cur:
            cur.execute(
                "INSERT OR REPLACE INTO objects (key, payload, size, mtime) "
                "VALUES (?, ?, ?, ?)",
                (key, text, len(text.encode()), time.time()),
            )

    def delete(self, key: str) -> int:
        with self._cursor() as cur:
            row = cur.execute(
                "SELECT size FROM objects WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return 0
            cur.execute("DELETE FROM objects WHERE key = ?", (key,))
        return int(row[0])

    def entries(self) -> List[ObjectEntry]:
        with self._cursor() as cur:
            rows = cur.execute(
                "SELECT key, size, mtime FROM objects"
            ).fetchall()
        return [ObjectEntry(key, int(size), float(mtime)) for key, size, mtime in rows]

    def append_manifest(self, line: str) -> None:
        with self._cursor() as cur:
            cur.execute("INSERT INTO manifest (line) VALUES (?)", (line,))

    def manifest_lines(self) -> List[str]:
        with self._cursor() as cur:
            rows = cur.execute(
                "SELECT line FROM manifest ORDER BY id"
            ).fetchall()
        return [row[0] for row in rows]

    def rewrite_manifest(self, lines: List[str]) -> None:
        with self._cursor() as cur:
            cur.execute("DELETE FROM manifest")
            cur.executemany(
                "INSERT INTO manifest (line) VALUES (?)",
                [(line,) for line in lines],
            )


#: Registered backend names -> constructors.
BACKENDS = {
    DirBackend.name: DirBackend,
    SqliteBackend.name: SqliteBackend,
}


def resolve_backend(
    root: Union[str, Path], backend: Optional[str] = None
) -> ObjectBackend:
    """A backend for ``root``: explicit name, or auto-detect.

    Auto-detection keys on the presence of ``store.sqlite`` under the
    root, so a path flattened by :func:`repro.store.store_dir` reopens
    on whatever backend created the store — pool and service workers
    need no backend plumbing of their own.
    """
    if backend is not None:
        try:
            return BACKENDS[backend](root)
        except KeyError:
            known = ", ".join(sorted(BACKENDS))
            raise ValueError(
                f"unknown store backend {backend!r}; known: {known}"
            ) from None
    if (Path(root) / SQLITE_FILENAME).exists():
        return SqliteBackend(root)
    return DirBackend(root)
