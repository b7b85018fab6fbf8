"""The reachability census's own mapping from source to keys (tests/reachability.py)."""

import textwrap

import pytest

from tests.reachability import all_defs, defs_of, judge, read_allowlist

SOURCE = textwrap.dedent('''\
    import functools


    @functools.lru_cache(maxsize=None)
    def cached(x):
        return x


    def outer(flag):
        if flag:
            def helper():
                return 1
        else:
            def helper():
                return 2
        return helper()


    class Outer:
        @property
        def value(self):
            return 2

        def inner(self):
            return 3
''')


def test_keys_use_the_decorator_line_and_a_dotted_qualname(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    assert defs_of(path, "pkg/mod.py") == {
        (4, "cached"): "pkg/mod.py::cached",
        (9, "outer"): "pkg/mod.py::outer",
        (11, "helper"): "pkg/mod.py::outer.helper",
        (14, "helper"): "pkg/mod.py::outer.helper[2]",
        (20, "value"): "pkg/mod.py::Outer.value",
        (24, "inner"): "pkg/mod.py::Outer.inner",
    }


def test_the_keys_match_the_code_objects_python_compiles(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    compiled = set()
    todo = [compile(SOURCE, str(path), "exec")]
    while todo:
        code = todo.pop()
        compiled.add((code.co_firstlineno, code.co_name))
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    assert set(defs_of(path, "mod.py")) <= compiled


def test_both_failure_modes(tmp_path):
    (tmp_path / "m.py").write_text("def ran():\n    pass\n\n\ndef idle():\n    pass\n")
    defs = all_defs(tmp_path)
    ran = {(str(tmp_path / "m.py"), 1, "ran")}
    assert judge(ran, defs, {"m.py::idle": "rule: x"}) == []
    assert judge(ran, defs, {}) == ["never runs and is not listed: m.py::idle"]
    assert judge(ran, defs, {"m.py::idle": "rule: x", "m.py::ran": "rule: x"}) == [
        "listed but ran (delete its line): m.py::ran"]
    assert judge(ran, defs, {"m.py::idle": "rule: x", "m.py::gone": "rule: x"}) == [
        "listed but no such def (delete its line): m.py::gone"]


def test_an_allowlist_line_needs_a_known_class_and_a_reason(tmp_path):
    allow = tmp_path / "allow.txt"
    allow.write_text("# comment\n\nm.py::f  # rule: reached by item 1's table\n")
    assert read_allowlist(allow) == {"m.py::f": "rule: reached by item 1's table"}
    for bad in ("m.py::f\n", "m.py::f  # unused: idle\n", "m.py::f  # rule:\n",
                "m.py::f  # protocol: no caller yet\n"):
        allow.write_text(bad)
        with pytest.raises(ValueError):
            read_allowlist(allow)


def test_the_committed_allowlist_parses():
    assert all(note.split(":")[0] for note in read_allowlist().values())
