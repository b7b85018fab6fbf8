"""Use lists across the three places a shared value could leak users:
validator rollback, pickle / deepcopy, and modules written before use lists.

``golden_pickles.json`` was captured at the commit *before* use lists by
running this file as a script::

    PYTHONPATH=<parent>/src python tests/ir/test_use_list_snapshots.py --capture

It holds, for every IR module the 24 ``compile_cold`` cells hand to the
specialization cache (the ``lifted`` and ``module`` stage of each LLVM
cell), the length of its ``pickle.dumps`` and, for three of them, the
pickle itself as the parent wrote it.  The tests demand that today's pickle
of the same module is no longer, that a load or deepcopy comes back with
verifier-clean use lists, and that the parent's bytes still load.

The kept DBrew+LLVM pickle was ``flat.elem``'s until DBrew learnt to count
a fork only against its own loop and to emit known source registers as
immediates: that cell's DBrew output changed, so a fresh lift no longer
compiles to what the old pickle does.  It was replaced by
``direct.elem.dbrew+llvm/lifted``, whose DBrew output did not change,
captured the same way at the same commit (the capture reproduced the old
``flat.elem`` pickle byte for byte).  The lengths were kept: every one of
today's pickles is still no longer than the parent's.
"""

from __future__ import annotations

import base64
import copy
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.analysis import PassValidator
from repro.bench import modes as M
from repro.cache import SpecializationCache
from repro.ir import (
    I64, Function, FunctionType, IRBuilder, Interpreter, Module,
)
from repro.ir.passes import O3Options, replay_o3, run_o3
from repro.ir.verifier import verify_module
from repro.stencil.jacobi import JacobiSetup, StencilWorkspace
from repro.testing.faults import inject_faults

GOLDEN = Path(__file__).with_name("golden_pickles.json")
SETUP = JacobiSetup(sz=17, sweeps=1)
TRANSFORMS = ("llvm", "llvm-fix", "dbrew", "dbrew+llvm")
#: the cells whose parent-written pickles are kept whole
KEPT = ("direct.elem.llvm/module", "flat.line.llvm-fix/module",
        "direct.elem.dbrew+llvm/lifted")


def _dumps(module: Module) -> bytes:
    return pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)


def cached_pickles() -> dict[str, bytes]:
    """The pickle of every module a compile_cold round stores, taken as it
    is stored (the pipeline goes on to transform it), by ``cell/stage``."""
    ws = StencilWorkspace(SETUP)
    out: dict[str, bytes] = {}
    for code in M.CODES:
        for line in (False, True):
            for mode in TRANSFORMS:
                cell = f"{code}.{'line' if line else 'elem'}.{mode}"
                cache = SpecializationCache()
                for stage in ("lifted", "module"):
                    put = getattr(cache, f"put_{stage}")

                    def noting(key, module, name, put=put, stage=stage):
                        out.setdefault(f"{cell}/{stage}", _dumps(module))
                        put(key, module, name)

                    setattr(cache, f"put_{stage}", noting)
                M.prepare_kernel(ws, code, mode, line=line, cache=cache,
                                 uid=".p")
    return out


def capture() -> dict:
    blobs = cached_pickles()
    return {
        "lengths": {k: len(b) for k, b in blobs.items()},
        "pickles": {k: base64.b64encode(blobs[k]).decode() for k in KEPT},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def blobs() -> dict[str, bytes]:
    return cached_pickles()


def _shape(module: Module) -> list:
    return [(f.name, [(b.name, [i.opcode for i in b.instructions])
                      for b in f.blocks])
            for f in module.functions.values()]


def test_pickles_are_no_larger_than_the_parents(golden, blobs):
    assert sorted(blobs) == sorted(golden["lengths"])
    longer = {k: (len(b), golden["lengths"][k]) for k, b in blobs.items()
              if len(b) > golden["lengths"][k]}
    assert longer == {}


def test_no_use_list_reaches_a_pickle(blobs):
    for blob in blobs.values():
        assert b"uses" not in blob and b"OperandList" not in blob \
            and b"_preds" not in blob


def test_loads_and_deepcopy_rebuild_clean_use_lists(blobs):
    for key, blob in blobs.items():
        module = pickle.loads(blob)
        verify_module(module)
        for twin in (pickle.loads(_dumps(module)), copy.deepcopy(module)):
            verify_module(twin)
            assert _shape(twin) == _shape(module), key
            # and the copy's users are its own: nothing of the original
            for func in twin.functions.values():
                for arg in func.args:
                    assert all(u.block.function is func for u, _ in arg.uses)


def test_a_stored_copy_keeps_no_use_lists_and_copies_back_live(blobs):
    module = pickle.loads(blobs["flat.line.llvm-fix/lifted"])
    stored = module.detached_copy()  # what the cache keeps
    verify_module(stored)
    for func in stored.functions.values():
        assert not any(arg.uses for arg in func.args)
        assert all(i.operands.user is None and not i.uses
                   for i in func.instructions())
    cache = SpecializationCache()
    cache.put_lifted("k", module, "f")
    for live in (copy.deepcopy(stored), cache.get_lifted("k")[0]):
        verify_module(live)
        assert _shape(live) == _shape(module)
        assert all(i.operands.user is i
                   for f in live.functions.values() for i in f.instructions())


def test_a_pickle_written_before_use_lists_loads_and_compiles(golden, blobs):
    """A stored lifted-stage entry stays a valid input: the parent's
    pickles (eagerly lifted, dead phis and flags included) load, and
    compile to the same code as a fresh lift of the same cell."""
    def compiled(module: Module) -> list:
        verify_module(module)
        for func in module.functions.values():
            if not func.is_declaration:
                run_o3(func)
        verify_module(module)
        return _shape(module)

    for key, text in golden["pickles"].items():
        assert compiled(pickle.loads(base64.b64decode(text))) \
            == compiled(pickle.loads(blobs[key])), key


def test_rollback_leaves_only_live_users_on_shared_values():
    m = Module("rb")
    f = Function("f", FunctionType(I64, (I64, I64)))
    m.add_function(f)
    b = IRBuilder(f.add_block("entry"))
    x, y = f.args
    dead = b.mul(x, y)  # what dce removes (and the fault then corrupts)
    b.ret(b.add(b.add(x, b.const(I64, 0)), y))
    assert dead.uses == {}

    def miscompile(result, func):
        for ins in func.instructions():
            if ins.opcode == "ret":
                ins.operands[0] = func.args[0]
        return True

    with inject_faults("pass:dce", every=True, corrupt=miscompile):
        report = replay_o3(f, O3Options(), None, PassValidator())
    assert report.rejected_passes == ["dce"]
    assert any(v.rolled_back for v in report.pass_log)
    verify_module(m)
    live = {id(i) for i in f.instructions()}
    for arg in f.args:
        assert arg.uses and all(id(u) in live for u, _ in arg.uses)
    assert Interpreter(m).run(f, [3, 4]) == 7


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: test_use_list_snapshots.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
