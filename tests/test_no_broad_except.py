"""The package catches typed errors only.

Every CLI input must end in exit 0, 1 or 2 through a typed error; a broad
handler would turn a programming fault into a wrong verdict instead of a
traceback the tests can see.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equibundle"
BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD for c in caught):
            lines.append(node.lineno)
    return lines


def test_rule_finds_each_broad_form():
    src = "\n".join(
        f"try:\n    pass\nexcept {caught}:\n    pass"
        for caught in ("", "Exception", "BaseException as e", "(KeyError, Exception)")
    )
    assert _broad_handlers(ast.parse(src)) == [3, 7, 11, 15]
    assert _broad_handlers(ast.parse("try:\n    pass\nexcept KeyError:\n    pass")) == []


def test_no_broad_except_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in _broad_handlers(ast.parse(path.read_text(encoding="utf-8"))):
            found.append(f"{path.name}:{line}")
    assert not found, found
