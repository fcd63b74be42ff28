"""Source policy: no catch-all exception handler, no unbounded cache and
no graph built around Graph's validation anywhere in the library."""
import ast
import pathlib

import pytest

import grwalk

_CATCH_ALL = {"Exception", "BaseException"}


def _name(node):
    """The last name of ``x`` or ``a.b.x``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _violations(source):
    """(line, what) for every bare ``except:``, ``except Exception`` or
    ``except BaseException`` (also inside a tuple), ``functools.cache``
    and ``lru_cache(maxsize=None)`` in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = ([_name(e) for e in caught.elts]
                     if isinstance(caught, ast.Tuple) else [_name(caught)])
            if caught is None:
                out.append((node.lineno, "bare except"))
            elif _CATCH_ALL.intersection(names):
                out.append((node.lineno, "catch-all except"))
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and _name(node.value) == "functools"):
            out.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                out.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"]
            size += node.args[:1]
            if any(isinstance(s, ast.Constant) and s.value is None
                   for s in size):
                out.append((node.lineno, "unbounded lru_cache"))
    return out


@pytest.mark.parametrize("source, what", [
    ("try:\n    pass\nexcept:\n    pass\n", "bare except"),
    ("try:\n    pass\nexcept Exception:\n    pass\n", "catch-all except"),
    ("try:\n    pass\nexcept (ValueError, BaseException) as e:\n    pass\n",
     "catch-all except"),
    ("import functools\n@functools.cache\ndef f():\n    pass\n",
     "functools.cache"),
    ("from functools import cache\n", "functools.cache"),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\n"
     "def f():\n    pass\n", "unbounded lru_cache"),
    ("import functools\n@functools.lru_cache(None)\ndef f():\n    pass\n",
     "unbounded lru_cache"),
])
def test_policy_check_flags_each_rule(source, what):
    assert [w for _, w in _violations(source)] == [what]


def test_policy_check_passes_typed_handlers_and_bounded_caches():
    source = ("import functools\n@functools.lru_cache(maxsize=32)\n"
              "def f():\n    try:\n        pass\n"
              "    except (ValueError, LookupError):\n        pass\n")
    assert _violations(source) == []


def test_library_has_no_catch_all_handler_or_unbounded_cache():
    files = sorted(pathlib.Path(grwalk.__file__).parent.glob("*.py"))
    assert len(files) >= 9
    found = [(f.name, line, what) for f in files
             for line, what in _violations(f.read_text())]
    assert found == []


def _unvalidated_graphs(source):
    """Lines of ``source`` that build a Graph without Graph.__init__:
    ``Graph.__new__(...)``, ``object.__new__(Graph)`` or any use of the
    private slot-filling step ``_fill_slots``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_fill_slots":
            out.append(node.lineno)
        elif (isinstance(node, ast.Call) and _name(node.func) == "__new__"
              and "Graph" in [_name(node.func.value)]
              + [_name(a) for a in node.args[:1]]):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("source", [
    "g = Graph.__new__(Graph)\n",
    "g = graphs.Graph.__new__(graphs.Graph)\n",
    "g = object.__new__(Graph)\n",
    "Graph._fill_slots(g, 2, ((1, 2),), adj)\n",
    "g._fill_slots(2, ((1, 2),), adj)\n",
])
def test_unvalidated_graph_check_flags_each_form(source):
    assert _unvalidated_graphs(source) == [1]


def test_unvalidated_graph_check_passes_validated_construction():
    assert _unvalidated_graphs("g = Graph(2, [(1, 2)])\n"
                               "x = object.__new__(Other)\n") == []


def test_only_graphs_builds_graphs_without_validation():
    # Not even graphs.py: every Graph goes through Graph.__init__.
    files = sorted(pathlib.Path(grwalk.__file__).parent.glob("*.py"))
    found = {f.name: _unvalidated_graphs(f.read_text()) for f in files}
    assert "graphs.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}
