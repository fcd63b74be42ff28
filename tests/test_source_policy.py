"""Source policy: no catch-all exception handler and no unbounded cache
anywhere in the library."""
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
