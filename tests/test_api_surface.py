"""Every public name of the package has a caller outside the tests.

A static scan that imports nothing from polygrad. Each name in a
``polygrad`` module's ``__all__`` must be read by the library itself: by
another module under ``src/polygrad``, by its own module's code, or by
``perfbench/*.py`` (as an identifier, or as a traced span name such as
``"train.evaluate_accuracy"``, which the tracer finds through ``__all__``).
A name only tests reach is deleted, or listed in ``KEEP`` with the
reason it stays. The package root ``__init__`` holds only its docstring,
so each name has one import path: its module.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polygrad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

KEEP: dict[str, str] = {}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(path: Path) -> list[str]:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@functools.cache
def _reads(path: Path) -> frozenset[str]:
    """Identifiers the code reads: loaded names and attributes, imported names."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return frozenset(out)


@functools.cache
def _span_names(path: Path) -> frozenset[str]:
    """``module.name`` prefixes of the dotted string constants."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
            out.add(".".join(node.value.split(".")[:2]))
    return frozenset(out)


def _unused_exports(module: Path) -> list[str]:
    """``module.name`` of each export nothing outside the tests reads."""
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    readers = set(MODULES) | set(bench)  # the module's own code counts too
    names = set().union(*(_reads(path) for path in readers))
    spans = set().union(*(_span_names(path) for path in bench))
    return [
        f"{module.stem}.{name}"
        for name in _exports(module)
        if name not in names and f"{module.stem}.{name}" not in spans
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_export_has_a_library_caller(module):
    unused = [name for name in _unused_exports(module) if name not in KEEP]
    assert unused == [], f"exported but reached only from tests (delete, or add to KEEP): {unused}"


def test_keep_lists_only_test_only_names():
    unused = {name for module in MODULES for name in _unused_exports(module)}
    stale = sorted(set(KEEP) - unused)
    assert stale == [], f"KEEP names an export that is gone or now has a library caller: {stale}"


def test_package_root_exports_nothing():
    module = _tree(SRC / "__init__.py")
    extra = [f"line {node.lineno}: {ast.unparse(node)[:60]}" for node in module.body[1:]]
    assert ast.get_docstring(module) and extra == [], f"the package root holds more than its docstring: {extra}"
