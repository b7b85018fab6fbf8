"""Reachability census: every ``def`` under ``src/repro`` runs in tier-1 or is declared.

Load it with ``python -m pytest -p tests.reachability``.  It installs a
global trace function that records the first line of every code object that
runs (no line tracing: the function returns ``None``).  At the end of a full,
green run it walks ``src/repro`` with ``ast`` and compares the defs that never
ran with ``tests/reachability_allowlist.txt``.  The session fails when

* a def that never ran is not listed (test it, delete it, or declare it), or
* a listed def ran or no longer exists (the list may only shrink).

An allowlist line reads ``path::Qual.name  # <class>: <reason>``, with the
path relative to ``src/repro``.  ``CLASSES`` names the accepted classes.
A run narrowed by a path, ``-k`` or ``-m``, or one with failures, is not
judged.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reachability_allowlist.txt"
CLASSES = ("subprocess", "example", "protocol", "diagnostic", "rule")

_seen: set[tuple[str, int, str]] = set()


def _trace(frame, event, arg):
    code = frame.f_code
    _seen.add((code.co_filename, code.co_firstlineno, code.co_name))
    return None


def defs_of(path: Path, rel: str) -> dict[tuple[int, str], str]:
    """``(first line, name) -> "rel::Qual.name"`` for every def in ``path``.

    A decorated def starts at its first decorator, as its code object does.
    Nesting in a class or a function both join with a dot; the second and
    later defs of one name in one scope (the branches of a closure factory)
    are ``name[2]``, ``name[3]``, ... in source order.
    """
    out: dict[tuple[int, str], str] = {}
    seen: dict[str, int] = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qual = prefix + child.name
                seen[qual] = n = seen.get(qual, 0) + 1
                out[(first, child.name)] = f"{rel}::{qual}" + (f"[{n}]" if n > 1 else "")
                walk(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return out


def all_defs(root: Path = SRC) -> dict[tuple[str, int, str], str]:
    """``(real path, first line, name) -> key`` for every def under ``root``."""
    out = {}
    for path in sorted(root.rglob("*.py")):
        real = os.path.realpath(path)
        rel = path.relative_to(root).as_posix()
        for (line, name), key in defs_of(path, rel).items():
            out[(real, line, name)] = key
    return out


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``key -> "class: reason"``; raises on a line without a known class."""
    out = {}
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, note = line.partition("#")
        cls, _, reason = note.strip().partition(":")
        if not sep or cls.strip() not in CLASSES or not reason.strip():
            raise ValueError(f"{path.name}:{n}: want 'path::name  # <class>: <reason>', "
                             f"class one of {', '.join(CLASSES)}")
        if "no caller" in reason.lower():
            raise ValueError(f"{path.name}:{n}: a def with no caller is deleted, not listed")
        out[key.strip()] = note.strip()
    return out


def judge(ran: set[tuple[str, int, str]], defs, allowed: dict[str, str]) -> list[str]:
    """The census's complaints, one line each; empty when the run agrees."""
    real = {f: os.path.realpath(f) for f in {f for f, _, _ in ran}}
    ran_real = {(real[f], line, name) for f, line, name in ran}
    unrun = {key for site, key in defs.items() if site not in ran_real}
    known = set(defs.values())
    errors = [f"never runs and is not listed: {k}" for k in sorted(unrun - set(allowed))]
    errors += [f"listed but ran (delete its line): {k}"
               for k in sorted(set(allowed) & known - unrun)]
    errors += [f"listed but no such def (delete its line): {k}"
               for k in sorted(set(allowed) - known)]
    return errors


def _narrowed(config) -> str | None:
    if config.option.keyword:
        return "-k"
    if config.option.markexpr:
        return "-m"
    if config.args_source != config.ArgsSource.TESTPATHS:
        return "explicit paths"
    if config.getoption("deselect", None) or config.getoption("lf", False):
        return "deselection"
    return None


def pytest_configure(config):
    _seen.clear()
    threading.settrace(_trace)
    sys.settrace(_trace)
    config._reachability = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    config = session.config
    why = _narrowed(config)
    if why is None and (exitstatus != 0 or session.testsfailed):
        why = "the run is not green"
    if why is not None:
        config._reachability = [f"reachability: not judged ({why})"]
        return
    defs, allowed = all_defs(), read_allowlist()
    errors = judge(_seen, defs, allowed)
    if errors:
        session.exitstatus = 1
        config._reachability = ["reachability: FAILED"] + ["  " + e for e in errors]
    else:
        config._reachability = [f"reachability: ok ({len(set(defs.values()))} defs, "
                                f"{len(allowed)} listed as never run)"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in getattr(config, "_reachability", []):
        terminalreporter.write_line(line)
