"""DiskStore under concurrent multi-process writers.

The store's publication discipline is temp-file + atomic rename, so a
reader in any process sharing the directory can never observe a
half-written entry.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle

from repro.cache.store import DiskStore

WRITERS = 8
ROUNDS = 40


def _hammer_main(root: str, worker: int, rounds: int) -> None:
    """Each process writes its own stamped payloads over shared keys and
    reads back arbitrary ones; every read must be a complete payload."""
    store = DiskStore(root)
    for i in range(rounds):
        key = f"shared-{i % 5}"
        payload = {"worker": worker, "round": i, "blob": bytes(256) * (i % 7)}
        store.put(key, payload)
        got = store.get(key)
        # torn writes would surface as pickle errors inside get();
        # a successful read must be some writer's complete payload
        assert got is None or set(got) == {"worker", "round", "blob"}
    os._exit(0)  # skip interpreter teardown races in the child


def test_eight_process_hammer(tmp_path):
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
    root = str(tmp_path / "store")
    procs = [ctx.Process(target=_hammer_main, args=(root, w, ROUNDS))
             for w in range(WRITERS)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    store = DiskStore(root)
    # every surviving entry is complete and readable
    entries = store.keys()
    assert entries, "hammer left no entries"
    for key in entries:
        got = store.get(key)
        assert set(got) == {"worker", "round", "blob"}
    # atomic publication leaves no temp litter behind
    leftovers = [n for n in os.listdir(root) if n.endswith(".tmp")]
    assert leftovers == []


def test_torn_entry_reads_as_miss(tmp_path):
    store = DiskStore(str(tmp_path))
    store.put("good", {"x": 1})
    path = os.path.join(str(tmp_path), "good.pkl")
    blob = pickle.dumps({"x": 1})
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # simulate a torn write
    assert store.get("good") is None


def test_stale_tmp_swept_on_open(tmp_path):
    root = str(tmp_path)
    os.makedirs(root, exist_ok=True)
    stale = os.path.join(root, "dead-writer.tmp")
    with open(stale, "wb") as fh:
        fh.write(b"junk")
    os.utime(stale, (0, 0))  # ancient mtime
    fresh = os.path.join(root, "live-writer.tmp")
    with open(fresh, "wb") as fh:
        fh.write(b"junk")
    DiskStore(root)
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)  # a live writer's temp file survives
