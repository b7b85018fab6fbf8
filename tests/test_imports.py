"""``src/repro`` imports the standard library and itself, nothing else.

``pyproject.toml`` declares no runtime dependency; this is what holds it to
that.  Run in a fresh interpreter so nothing the test session imported
(pytest, hypothesis) is mistaken for the package's own.
"""

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
