"""The package stays importable on the oldest Python it declares (3.9).

No 3.9 interpreter needs to be at hand: both checks read the sources.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "repro").rglob("*.py"))


def _is_class_name(name: str, classes: set[str]) -> bool:
    """True for a module's own classes, CapWords names and builtin types."""
    if name in classes or isinstance(getattr(builtins, name, None), type):
        return True
    return name[:1].isupper() and not name.isupper()


def _leaves(node: ast.expr):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _leaves(node.left)
        yield from _leaves(node.right)
    else:
        yield node


def _is_type_union(value: ast.expr, classes: set[str]) -> bool:
    """True for ``A | B | ...`` where every operand is a class or ``None``."""
    if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr)):
        return False
    names = []
    for leaf in _leaves(value):
        if isinstance(leaf, ast.Constant) and leaf.value is None:
            continue
        if isinstance(leaf, ast.Attribute):
            names.append(leaf.attr)
        elif isinstance(leaf, ast.Name):
            names.append(leaf.id)
        else:
            return False
    return bool(names) and all(_is_class_name(name, classes) for name in names)


def _module_level_statements(body):
    """Statements executed at import time, through module-level if/try blocks."""
    for statement in body:
        yield statement
        if isinstance(statement, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level_statements(getattr(statement, block, []))
            for handler in getattr(statement, "handlers", []):
                yield from _module_level_statements(handler.body)


def runtime_type_unions(source: str) -> list[int]:
    """Line numbers of module-level assignments whose value is a ``|`` of classes.

    Annotations are not evaluated under ``from __future__ import
    annotations`` and are not looked at; the value of an annotated
    assignment is.
    """
    tree = ast.parse(source)
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    return [
        statement.lineno
        for statement in _module_level_statements(tree.body)
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        and statement.value is not None
        and _is_type_union(statement.value, classes)
    ]


def test_scanner_flags_class_unions_only():
    source = (
        "class A: pass\n"
        "class B: pass\n"
        "Alias = A | B\n"
        "Maybe: object = A | None\n"
        "Builtin = int | str\n"
        "FLAGS = SET_ONE | SET_TWO\n"
        "mask = left | right\n"
        "if True:\n"
        "    Nested = A | B\n"
        "def f(x: A | B) -> A | None:\n"
        "    local = A | B\n"
    )
    assert runtime_type_unions(source) == [3, 4, 5, 9]


def test_no_runtime_pep604_unions():
    offenders = {
        str(path.relative_to(SRC)): lines
        for path in SOURCES
        if (lines := runtime_type_unions(path.read_text()))
    }
    assert not offenders, f"`A | B` of classes evaluated at import: {offenders}"


def test_sources_parse_with_python39_grammar():
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 9))
