"""Cache storage backends: a bounded in-memory LRU and a pickle disk store.

The LRU is the first level: recently used entries stay hot and eviction is
strictly bounded by entry count (IR modules dominate the footprint, and the
entry count maps directly to the number of distinct specializations kept
warm).  The disk store is an optional second level for the
position-independent stages (lifted / post-O3 IR): those survive process
restarts, so a service that re-specializes the same kernels on every boot
skips straight past decode+lift+O3.

Both backends are thread-safe: the tiered execution engine compiles in
background workers that hit the same stores as foreground dispatch, so
every compound operation (put+evict, check-then-move) holds a lock.  The
``OrderedDict`` operations underneath are *not* individually atomic —
``move_to_end`` during ``popitem`` or iteration during ``put`` corrupts or
raises — which is exactly what tests/tier/test_thread_safety.py hammers.

The disk store is additionally *multi-process* safe (the compile farm
shares one directory across a worker pool): publication is always
temp-file + atomic ``os.replace``, so a concurrent reader in any process
sees either the old entry or the new one, never a torn pickle; with
``durable=True`` the data and the directory entry are fsynced before the
rename commits, so a machine crash cannot leave a renamed-but-empty file
behind.  Crashed writers leak only ``.tmp`` files, which every store
construction sweeps.

**Record integrity**: atomic rename protects against *torn* reads, not
against bytes damaged after publication (a partially synced page after
power loss, bit rot, an operator truncating a file).  The farm dispatches
machine code derived from store contents, so a silently corrupt record is
the one cache failure that could violate the paper's never-diverge
contract.  Every record therefore carries a 16-byte header — magic, CRC32
and payload length — verified on every read; a record that fails the check
is **quarantined** (moved into ``<root>/quarantine/``, counted, and never
served — a miss, so the pipeline recompiles) rather than deleted, keeping
the evidence for post-mortems.  A record without the header is damaged
too: no byte is unpickled that no checksum covers.  Construction runs a
recovery sweep that reaps stale ``.tmp`` debris and expires old quarantine
evidence.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import struct
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from typing import Any, Iterator

from repro.obs import metrics as _metrics

try:  # POSIX advisory locks; farm coordination degrades gracefully without
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: a ``.tmp`` file this old was leaked by a crashed writer, not in-flight
_STALE_TMP_SECONDS = 300.0
#: quarantined evidence older than this is reaped by the recovery sweep
_STALE_QUARANTINE_SECONDS = 86400.0
#: checksummed record header: magic, CRC32 of payload, payload length
_MAGIC = b"RPS1"
_HEADER = struct.Struct("<4sIQ")
#: subdirectory corrupt records are moved into (never served from)
QUARANTINE_DIR = "quarantine"
#: unpickle errors that mean "not loadable here", not "not a pickle"
_UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError, TypeError,
                    MemoryError)


class LRUStore:
    """Ordered-dict LRU with a hard entry capacity.

    All operations hold an internal lock; ``keys`` returns a snapshot list
    so callers can iterate while other threads mutate the store.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be >= 1")
        self.capacity = capacity
        self.evictions = 0
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> Any | None:
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def discard(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._data.keys()))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


@contextlib.contextmanager
def advisory_lock(path: str, *, shared: bool = False,
                  blocking: bool = True) -> Iterator[bool]:
    """Hold a POSIX advisory lock on ``path`` for the ``with`` body.

    Yields True when the lock is held.  ``blocking=False`` yields False
    instead of waiting when another process holds it.  The lock file is
    created if missing and *never unlinked* — unlinking would let a later
    locker acquire a fresh inode while an earlier one still holds the old
    file, silently breaking mutual exclusion.  ``flock`` locks die with
    their holder, so a killed process can never wedge the others.

    On platforms without ``fcntl`` this is a no-op that yields True: the
    callers (disk store, single-flight) are coordination optimizations
    layered over atomic-rename publication, never correctness.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield True
        return
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        flags = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        if not blocking:
            flags |= fcntl.LOCK_NB
        try:
            fcntl.flock(fd, flags)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class DiskStore:
    """One pickle file per cache entry under ``root``.

    Best-effort by design: a corrupt, unreadable or unwritable entry is a
    miss, never an error — the compile pipeline is always available as the
    slow path.  Writes go through a temp file + ``os.replace`` so a
    concurrent reader (another thread *or* another process sharing the
    directory) can never observe a torn entry; the rename is atomic on
    POSIX, so no additional lock is needed for readers.

    ``durable=True`` adds crash durability on top of atomicity: the temp
    file is fsynced before the rename and the directory after it, so a
    published entry survives power loss.  The compile farm leaves it off —
    a lost cache entry after a crash is just a future miss — but a store
    used as a build-artifact channel can opt in.
    """

    def __init__(self, root: str, *, durable: bool = False) -> None:
        self.root = root
        self.durable = durable
        #: per-instance integrity accounting (global counters mirror these)
        self.integrity_failures = 0
        self.quarantined = 0
        self._integrity_ctr = _metrics.counter("cache.store.integrity_failures")
        self._quarantined_ctr = _metrics.counter("cache.store.quarantined")
        self._qseq = itertools.count()
        os.makedirs(root, exist_ok=True)
        self._recover()

    # -- startup recovery --------------------------------------------------

    def _recover(self) -> None:
        """Startup sweep: reap crashed-writer tmp files and old quarantine
        evidence (both best-effort; a sweep failure is never an error)."""
        self._sweep_stale_tmp()
        self._sweep_stale_quarantine()

    def _sweep_stale_tmp(self) -> None:
        """Reap temp files leaked by crashed writers (best-effort).

        Only files older than :data:`_STALE_TMP_SECONDS` go: a young
        ``.tmp`` may be another process's in-flight write whose rename has
        not landed yet.
        """
        try:
            cutoff = time.time() - _STALE_TMP_SECONDS
            for name in os.listdir(self.root):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(self.root, name)
                try:
                    if os.path.getmtime(path) < cutoff:
                        os.unlink(path)
                except OSError:
                    pass
        except OSError:  # pragma: no cover - unreadable root
            pass

    def _sweep_stale_quarantine(self) -> None:
        """Expire quarantine evidence older than a day — long enough for a
        post-mortem, short enough that a flaky disk does not fill the cache
        directory with corpses."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            cutoff = time.time() - _STALE_QUARANTINE_SECONDS
            for name in os.listdir(qdir):
                path = os.path.join(qdir, name)
                try:
                    if os.path.getmtime(path) < cutoff:
                        os.unlink(path)
                except OSError:
                    pass
        except OSError:  # no quarantine dir yet (the common case)
            pass

    # -- integrity ---------------------------------------------------------

    def _quarantine(self, path: str) -> None:
        """Move a checksum-failing record aside so it is never served again.

        The move is an ``os.replace`` into ``<root>/quarantine/`` — atomic,
        so a concurrent reader sees either the (corrupt) record or a miss,
        and a racing quarantine from another process simply loses the
        rename and counts the failure without the move.
        """
        self.integrity_failures += 1
        self._integrity_ctr.value += 1
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        dest = os.path.join(
            qdir, f"{os.path.basename(path)}.{os.getpid()}."
                  f"{next(self._qseq)}.corrupt")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return
        self.quarantined += 1
        self._quarantined_ctr.value += 1

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def get(self, key: str) -> Any | None:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if data.startswith(_MAGIC) and len(data) >= _HEADER.size:
            _magic, crc, length = _HEADER.unpack_from(data)
            payload = data[_HEADER.size:]
            if len(payload) == length and zlib.crc32(payload) == crc:
                try:
                    return pickle.loads(payload)
                except _UNPICKLE_ERRORS:
                    # checksum passed: the bytes are exactly what the
                    # writer published, they just do not load in this
                    # environment (schema drift) — a miss, not damage
                    return None
        self._quarantine(path)
        return None

    def put(self, key: str, value: Any) -> bool:
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError):
            return False
        header = _HEADER.pack(_MAGIC, zlib.crc32(payload), len(payload))
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(header)
                    fh.write(payload)
                    if self.durable:
                        fh.flush()
                        os.fsync(fh.fileno())
                os.replace(tmp, self._path(key))
                if self.durable:
                    self._fsync_dir()
            except BaseException:
                os.unlink(tmp)
                raise
            return True
        except OSError:
            return False

    def _fsync_dir(self) -> None:
        try:
            dfd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass

    def discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def keys(self) -> list[str]:
        """Snapshot of every published key (entries only, no locks/tmp)."""
        try:
            return [n[:-4] for n in os.listdir(self.root)
                    if n.endswith(".pkl")]
        except OSError:
            return []

    def __contains__(self, key: str) -> bool:
        """Cheap existence probe: one ``stat``, no read, no checksum.  A
        corrupt record still counts as present here; the checksum verdict
        belongs to the reader that actually loads it."""
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for n in os.listdir(self.root) if n.endswith(".pkl"))

    def snapshot(self) -> dict[str, int]:
        return {"integrity_failures": self.integrity_failures,
                "quarantined": self.quarantined}
