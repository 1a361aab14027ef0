"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bipartite_tsg"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    """Every annotation in the module: arguments, returns and variables."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code or in a quoted annotation, and the
    names it exports through ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_checker_sees_an_unused_import():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "x: 'Sequence' = dataclass\n"
        "'Mapping'\n"
        "__all__ = ['exported']\n"
        "from .somewhere import exported, Mapping, Sequence\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"field", "os", "Mapping"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    }
    assert not unused, f"{path.name} imports unused names: {unused}"
