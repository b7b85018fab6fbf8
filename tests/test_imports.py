"""``src/repro`` imports the standard library and itself, nothing else.

``pyproject.toml`` declares no runtime dependency; this is what holds it to
that.  Run in a fresh interpreter so nothing the test session imported
(pytest, hypothesis) is mistaken for the package's own.
"""

import ast
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
# __mp_main__ is the alias multiprocessing gives __main__ on import
print(*sorted(tops - {"repro", "__mp_main__"} - set(sys.stdlib_module_names)))
"""


def test_repro_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"})
    assert proc.stdout.split() == []


#: the ISA and the simulator sit under everything that rewrites, lifts or
#: verifies; of ``repro`` they may import only each other and the leaves
_LOW_LAYERS = ("x86", "cpu")
_ALLOWED_BELOW = {"x86", "cpu", "mem", "arith", "errors"}


def _repro_imports(path: Path) -> set[str]:
    """Second-level names of every ``repro`` import in ``path``, function-
    level ones included (an ``ast`` walk, not an import)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found |= {m.split(".")[1] for m in modules
                  if m.startswith("repro.")}
    return found


def test_isa_and_simulator_import_nothing_above_them():
    offenders = {
        str(path.relative_to(_SRC)): sorted(above)
        for layer in _LOW_LAYERS
        for path in sorted((_SRC / "repro" / layer).rglob("*.py"))
        if (above := _repro_imports(path) - _ALLOWED_BELOW)
    }
    assert offenders == {}
