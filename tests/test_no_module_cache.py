"""The package keeps no hidden module-level caches.

A memo that lives as long as the process makes a result depend on what ran
before it and grows with every distinct input.  Memos belong to a call or to
the object they describe.  The two cyclotomic tables are the known
exceptions: both are keyed by the modulus, and their bound is planned with
the input limits.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equibundle"
CACHE_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONSTRUCTORS = {"dict", "list", "set", "OrderedDict", "defaultdict"}
ALLOWED = {("cyclotomic.py", "cyclotomic_polynomial"), ("cyclotomic.py", "_context")}


def _module_statements(body):
    """Statements that run at import, inside if/try/with/loop blocks too."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_statements(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_statements(handler.body)


def _name(node: ast.expr):
    """The last name of a reference such as cache or functools.cache."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_cache_decorator(node: ast.expr) -> bool:
    return _name(node.func if isinstance(node, ast.Call) else node) in CACHE_DECORATORS


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call) or node.keywords:
        return False
    name = _name(node.func)
    return name in EMPTY_CONSTRUCTORS and len(node.args) <= (name == "defaultdict")


def _module_caches(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level cache decorator and empty container."""
    found = []
    for node in _module_statements(tree.body):
        functions = [node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
        if isinstance(node, ast.ClassDef):
            functions = [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in functions:
            if any(_is_cache_decorator(d) for d in func.decorator_list):
                found.append((func.lineno, func.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return found


def test_rule_finds_each_module_cache_form():
    src = """
import functools
from functools import cache, lru_cache
POOL = {}
SEEN: list = []
KEYS = set()
BY_GROUP = collections.defaultdict(list)
if True:
    LATE = dict()
@lru_cache(maxsize=None)
def a(n): pass
@functools.lru_cache
def b(n): pass
@cache
def c(n): pass
class K:
    @functools.cache
    def d(self): pass
"""
    assert _module_caches(ast.parse(src)) == [
        (4, "POOL"), (5, "SEEN"), (6, "KEYS"), (7, "BY_GROUP"), (9, "LATE"),
        (11, "a"), (13, "b"), (15, "c"), (18, "d"),
    ]
    allowed = """
NAMES = ("x", "y")
TABLE = {1: 2}
ORDER = [3]
def f(m):
    memo = {}
    power = lru_cache(maxsize=None)(m.__pow__)
    return memo, power
class K:
    def __init__(self):
        self.cache = {}
@property
def g(self): pass
"""
    assert _module_caches(ast.parse(allowed)) == []


def test_no_module_cache_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, name in _module_caches(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, name) not in ALLOWED:
                found.append(f"{path.name}:{line} {name}")
    assert not found, found
