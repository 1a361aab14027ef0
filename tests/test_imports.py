"""Every name a module of the package, a test or a demo imports is used in
that file, every import sits at a module's top level, only the package's
``__getattr__`` imports a module by name, every private name a module or one
of its classes defines is read by some module, every public one is read or
exported by some module unless it is kept, with its reason, for a reader
outside the package, every local name a function binds is read, each module
imports only modules below it in one fixed order, and the package reads each
exported name from the module that defines it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bipartite_tsg"
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


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


def quoted_names(tree: ast.Module) -> set[str]:
    """Names read in the module's quoted annotations."""
    out = set()
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code or in a quoted annotation, and the
    names it exports through ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= quoted_names(tree)
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


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)),
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    }
    assert not unused, f"{path.name} imports unused names: {unused}"


def local_imports(tree: ast.Module) -> list[int]:
    """The lines of the module's imports that are not at its top level."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


def test_the_checker_sees_a_function_local_import():
    tree = ast.parse(
        "import os\n"
        "from functools import cache\n"
        "def f():\n"
        "    import functools\n"
        "    return functools\n"
        "class C:\n"
        "    def g(self):\n"
        "        if self:\n"
        "            from os import path\n"
    )
    assert local_imports(tree) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_the_top_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not local_imports(tree), f"{path.name} imports inside a body"


_IMPORTERS = {"import_module", "__import__"}


def dynamic_imports(tree: ast.Module) -> list[tuple[str | None, int]]:
    """Each call of ``import_module`` or ``__import__`` in the module, by any
    name or alias, as the innermost function that makes it (``None`` at the
    top level) and its line."""
    importers = _IMPORTERS | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in _IMPORTERS and alias.asname
    }
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                called = child.func
                if getattr(called, "attr", getattr(called, "id", None)) in importers:
                    out.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return out


def test_the_checker_sees_a_dynamic_import():
    tree = ast.parse(
        "import importlib\n"
        "from importlib import import_module as load\n"
        "importlib.import_module('os')\n"
        "def __getattr__(name):\n"
        "    return load('.' + name, __name__)\n"
        "class C:\n"
        "    def f(self):\n"
        "        return [__import__(m) for m in 'ab']\n"
        "def g():\n"
        "    def h():\n"
        "        return importlib.__import__('os')\n"
        "    return import_module\n"
    )
    assert dynamic_imports(tree) == [
        (None, 3), ("__getattr__", 5), ("f", 8), ("h", 11)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_package_getattr_imports_by_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {"__getattr__"} if path.stem == "__init__" else set()
    calls = dynamic_imports(tree)
    assert all(function in allowed for function, _ in calls), (
        f"{path.name} imports a module by name: {calls}"
    )


def top_level_definitions(tree: ast.Module | ast.ClassDef) -> dict[str, int]:
    """Each name the module or class binds at its top level by a ``def``, a
    ``class`` or an assignment, not by an import, with the line that binds
    it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update(dict.fromkeys(names, node.lineno))
    return out


def private_definitions(tree: ast.Module | ast.ClassDef) -> dict[str, int]:
    """Each private name the module or class binds at its top level, a
    ``_def``, a ``_Class`` or a ``_CONSTANT`` (in a class, a method, a
    property or a class attribute), with the line that binds it."""
    return {
        name: line
        for name, line in top_level_definitions(tree).items()
        if name.startswith("_") and not name.startswith("__")
    }


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names, attribute names (so
    ``module._helper`` counts), imported names and quoted annotations."""
    out = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    out.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return out | set(imported_names(tree)) | quoted_names(tree)


def test_the_checker_sees_an_orphaned_private_name():
    defining = ast.parse(
        "def _helper(): pass\n"
        "class _Record: pass\n"
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "def _read() -> '_Shape': return _LIMIT\n"
        "class _Shape: pass\n"
        "def __getattr__(name): pass\n"
        "public = 1\n"
    )
    reading = ast.parse("from .defining import _read\nprint(defining._Record)\n")
    unread = set(private_definitions(defining)) - read_names(defining) - read_names(
        reading
    )
    assert unread == {"_helper", "_TABLE"}


def private_members(tree: ast.Module) -> dict[str, int]:
    """Each private name a top-level class of the module binds in its body,
    as ``Class._name``, with the line that binds it."""
    return {
        f"{node.name}.{name}": line
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for name, line in private_definitions(node).items()
    }


def test_the_checker_sees_an_orphaned_private_member():
    defining = ast.parse(
        "class Record:\n"
        "    _size: int = 0\n"
        "    _LIMIT = 3\n"
        "    def __len__(self): return self._size\n"
        "    def _check(self): pass\n"
        "    @cached_property\n"
        "    def _table(self): return {}\n"
        "    @property\n"
        "    def _shown(self): return 1\n"
        "    def public(self): return self._shown\n"
        "    class _Inner: pass\n"
    )
    reading = ast.parse("print(record._table)\n")
    read = read_names(defining) | read_names(reading)
    unread = {m for m in private_members(defining) if m.split(".")[1] not in read}
    assert unread == {"Record._LIMIT", "Record._check", "Record._Inner"}


def test_every_private_name_is_read_by_some_module():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES
    }
    read = set().union(*map(read_names, trees.values()))
    orphans = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert not orphans, f"private names no module reads: {orphans}"


def test_every_private_class_member_is_read_by_some_module():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    read = set().union(*map(read_names, trees))
    orphans = [
        f"{path.name}:{line} {member}"
        for path, tree in zip(MODULES, trees)
        for member, line in private_members(tree).items()
        if member.split(".")[1] not in read
    ]
    assert not orphans, f"private class members no module reads: {orphans}"


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public function or class the module defines at its top level,
    and each public method or property of its top-level classes as
    ``Class.name``, with the line that defines it."""
    out = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not member.name.startswith("_"):
                    out[f"{node.name}.{member.name}"] = member.lineno
    return out


def exported_names(tree: ast.Module) -> set[str]:
    """The names the module lists in its ``__all__``."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unread_public(trees: list[ast.Module], kept=frozenset()) -> set[str]:
    """The public definitions of ``trees`` that none of them reads or
    exports, less those in ``kept``; a member counts as read when any
    module reads an attribute of its name."""
    seen = set().union(*map(read_names, trees), *map(exported_names, trees))
    return {
        name
        for tree in trees
        for name in public_definitions(tree)
        if name.rsplit(".", 1)[-1] not in seen and name not in kept
    }


def test_the_checker_sees_an_orphaned_public_name():
    defining = ast.parse(
        "def helper(): pass\n"
        "def used(): return Shape\n"
        "class Shape:\n"
        "    def area(self): return 1\n"
        "    @property\n"
        "    def size(self): return self.area()\n"
        "    def __len__(self): return 0\n"
        "    def _hidden(self): pass\n"
        "class Record:\n"
        "    def dump(self): pass\n"
        "def exported(): pass\n"
        "def kept(): pass\n"
        "__all__ = ['exported']\n"
    )
    reading = ast.parse("from .defining import used\nprint(Record)\n")
    unread = unread_public([defining, reading], kept={"kept"})
    assert unread == {"helper", "Shape.size", "Record.dump"}


#: Public names that no module of the package reads, each kept for a
#: reader outside it.
KEPT_PUBLIC = {
    "build_assignment": "builds a placement for the benchmark, a demo and "
    "the tests; to be folded into place once the benchmark builds through it",
    "VertexAssignment.induced_aut": "the tests' automorphism of all 2n "
    "vertices per element, kept until decide checks every class's profile",
    "s4_n6_analysis": "the octahedral n = 6 demo's branches; a denial that "
    "explains itself is to read it",
    "Perm.from_cycles": "the permutation's cycle-form constructor, read by "
    "the tests; the benchmark builds its check-aut inputs with its own copy",
    "FixedCountReport.discrepancies": "the benchmark's discrepancy counter "
    "reads it, and verdicts are to show it",
}


def test_every_public_name_is_read_by_some_module():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    unread = unread_public(trees, kept=frozenset(KEPT_PUBLIC))
    assert not unread, f"public names no module reads or exports: {sorted(unread)}"
    assert unread_public(trees) == set(KEPT_PUBLIC), "a kept name is now read"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_scope(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """The nodes of a function's body that lie outside its nested functions
    and classes; each nested definition itself is included."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module) -> list[str]:
    """Each name a function binds in its own scope (an assignment or loop
    target, a nested function or class) that no code of the function reads,
    as ``function:line name``.  A read in a nested function counts, names
    declared global or nonlocal are not locals, and names that start with
    ``_`` are skipped."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        skip = {
            name
            for node in ast.walk(func)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        skip |= {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        bound = []
        for node in own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.append((node.lineno, node.id))
            elif isinstance(node, _SCOPES) and not isinstance(node, ast.Lambda):
                bound.append((node.lineno, node.name))
        out.extend(
            f"{func.name}:{line} {name}"
            for line, name in sorted(set(bound))
            if name not in skip and not name.startswith("_")
        )
    return out


def test_the_checker_sees_an_unused_local():
    tree = ast.parse(
        "def f(arg):\n"
        "    one, zero = 1, 0\n"
        "    _skipped = 2\n"
        "    total = 0\n"
        "    for i, x in enumerate(arg):\n"
        "        total += x\n"
        "    def inner():\n"
        "        return total\n"
        "    def unused(): pass\n"
        "    class Shape: pass\n"
        "    global g\n"
        "    g = 3\n"
        "    return [y for y in inner()] + [0 for k in arg]\n"
    )
    assert unused_locals(tree) == [
        "f:2 one", "f:2 zero", "f:5 i", "f:9 unused", "f:10 Shape", "f:13 k"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = unused_locals(tree)
    assert not unused, f"{path.name} binds locals it never reads: {unused}"


#: The package's modules from the bottom of the import graph up: each one
#: imports only modules earlier in this order.  ``__init__`` is exempt.
IMPORT_ORDER = (
    "perms",
    "polyhedra",
    "bipartite",
    "notation",
    "realizability",
    "necessity",
    "assignments",
    "hypotheses",
    "decision",
    "cli",
)


def package_imports(tree: ast.Module) -> set[str]:
    """The modules of the package that a module of it imports, relatively
    (``from .x import y``, ``from . import x``) or by the package's name."""
    package = SRC.name
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module
            elif node.level == 0 and (node.module or "").startswith(package + "."):
                path = node.module[len(package) + 1:]
            else:
                continue
            if path is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(path.split(".")[0])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith(package + ".")
            )
    return out


def upward_imports(trees: dict[str, ast.Module], order: tuple[str, ...]) -> list[str]:
    """Each import of a module that is not earlier in ``order``, as
    ``module -> imported``."""
    return [
        f"{module} -> {imported}"
        for module, tree in trees.items()
        for imported in sorted(package_imports(tree))
        if imported not in order[: order.index(module)]
    ]


def test_the_checker_sees_an_upward_import():
    trees = {
        "low": ast.parse("from .mid import f\nimport os\n"),
        "mid": ast.parse("from .low import g\nfrom . import top\n"),
        "top": ast.parse(
            "from .low import g\nfrom .mid.sub import h\n"
            "import bipartite_tsg.top\nfrom bipartite_tsg.low import k\n"
        ),
    }
    assert upward_imports(trees, ("low", "mid", "top")) == [
        "low -> mid",
        "mid -> top",
        "top -> top",
    ]


def test_each_module_imports_only_modules_below_it():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in MODULES
        if path.stem != "__init__"
    }
    assert sorted(trees) == sorted(IMPORT_ORDER)
    assert upward_imports(trees, IMPORT_ORDER) == []


def assigned(tree: ast.Module, name: str):
    """The value the module assigns to ``name`` at its top level."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def test_each_exported_name_is_read_from_the_module_that_defines_it():
    init = ast.parse((SRC / "__init__.py").read_text())
    table = assigned(init, "_EXPORTS")
    assert set(table) == exported_names(init) - {"__version__"}
    assert set(table.values()) <= set(IMPORT_ORDER)
    trees = {
        module: ast.parse((SRC / f"{module}.py").read_text())
        for module in set(table.values())
    }
    misplaced = {
        name: module
        for name, module in table.items()
        if name not in top_level_definitions(trees[module])
        or name in imported_names(trees[module])
    }
    assert not misplaced, f"names not defined in their table module: {misplaced}"
