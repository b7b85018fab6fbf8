"""Farm-level record integrity: a bit-flipped ``farmres-`` record in the
shared store is quarantined and the job recompiled — corrupt bytes are
never executed (acceptance bar, counter-verified)."""

from __future__ import annotations

import os

from repro import FarmClient, FarmPool, Simulator
from repro.cache.store import QUARANTINE_DIR
from repro.farm.protocol import result_key
from repro.ir.codegen import JITEngine
from repro.obs.metrics import MetricsRegistry
from tests.farm.conftest import expected
from tests.farm.test_pool import _job_for


def _flip_byte(path: str, offset: int = 12) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x5A]))


def test_bitflipped_result_quarantined_counted_then_recompiled(prog,
                                                               tmp_path):
    """Client-side read path: the checksum catches the flip, the record is
    moved into quarantine (counted), and the next farm compile is a fresh
    recompile whose module matches the oracle."""
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool)
    try:
        job = _job_for(prog, fixes={1: 7})
        first = client.compile(job, timeout=120.0)
        assert first is not None and first.ok

        rkey = result_key(job.key)
        path = pool.store._path(rkey)
        _flip_byte(path)

        # counter-verified: the corrupt record is never served
        assert pool.store.get(rkey) is None
        assert pool.store.integrity_failures == 1
        assert pool.store.quarantined == 1
        assert not os.path.exists(path)
        qdir = os.path.join(pool.store.root, QUARANTINE_DIR)
        assert any(n.endswith(".corrupt") for n in os.listdir(qdir))

        # the recompile: a fresh farm compile, not a cache hit
        res = client.compile(job, timeout=120.0)
        assert res is not None and res.ok
        assert res.cache_stage is None
        main = res.module.functions[res.main_name]
        addr = JITEngine(prog.image).compile_function(
            main, name="integ.client")
        assert Simulator(prog.image).call(addr, (10, 99)).rax \
            == expected(10, 7)
        # and the store is healthy again
        assert pool.store.get(rkey) is not None
    finally:
        pool.close()


def test_worker_warm_path_never_serves_corrupt_record(prog, tmp_path):
    """Worker-side read path: the worker's warm probe hits the flipped
    record, quarantines it in the *shared* on-disk quarantine and
    recompiles instead of serving it."""
    pool = FarmPool(workers=1, disk_dir=str(tmp_path / "farm"),
                    registry=MetricsRegistry())
    client = FarmClient(pool)
    try:
        job = _job_for(prog, fixes={1: 4}, name="integ.f")
        first = client.compile(job, timeout=120.0)
        assert first is not None and first.ok

        rkey = result_key(job.key)
        _flip_byte(pool.store._path(rkey))

        res = client.compile(job, timeout=120.0)
        assert res is not None and res.ok
        assert res.cache_stage is None  # recompiled, not served warm
        qdir = os.path.join(pool.store.root, QUARANTINE_DIR)
        assert any(n.endswith(".corrupt") for n in os.listdir(qdir))
        main = res.module.functions[res.main_name]
        addr = JITEngine(prog.image).compile_function(
            main, name="integ.worker")
        assert Simulator(prog.image).call(addr, (10, 99)).rax \
            == expected(10, 4)
    finally:
        pool.close()
