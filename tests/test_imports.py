"""Every module of the package uses each name it imports, and imports only
from the standard library, numpy and the package itself; every error type
is caught somewhere, every random stream has an id of its own, and no
module but `numkit` binds a mutable container at its top level."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from seqrisk import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqrisk"


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, each with the line
    of its import; `from __future__ import ...` binds no name and is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Sequence, Iterable\n"
              "def f(x: Sequence) -> int:\n    return np.size(x)\n")
    assert unused_imports(source) == ["Iterable (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names that the top level of `tree` binds by `def`, `class` or
    assignment, each with the line that binds it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node.lineno) for name in names]
    return found


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (`_x`, not dunders) that the modules in
    `sources` (module name to source) define and none of them reads, each
    with its module and line; an import or an attribute of that name counts
    as a read."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, line in top_level_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = f"{module}:{line}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{name} ({where})" for name, where in sorted(defined.items())
            if name not in read]


def test_the_scan_finds_unread_private_names():
    sources = {"a": "_LIMIT = 3\n_Left: int = 1\ndef _helper():\n    return _LIMIT\n"
                    "class _Box:\n    pass\n__all__ = []\n",
               "b": "from .a import _helper\n"}
    assert unread_private_names(sources) == ["_Box (a:5)", "_Left (a:2)"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONTAINER_TYPES = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "OrderedDict",
                   "Counter"}


def mutable_globals(source: str) -> list[str]:
    """The names that the top level of `source` binds to a mutable container:
    a list, dict or set display or comprehension, or a call of a container
    type, bare or as a module's attribute."""
    found = []
    for node in ast.parse(source).body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, DISPLAYS) or (isinstance(value, ast.Call) and ast.unparse(
                value.func).rsplit(".", 1)[-1] in CONTAINER_TYPES):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def test_the_scan_finds_mutable_globals():
    source = ("import collections\n_CACHE = {}\nSTACK: list[int] = []\nSEEN = set()\n"
              "BY_NAME = collections.defaultdict(list)\nSQUARES = [i * i for i in range(3)]\n"
              "SIZES = (1, 4)\nNAMES = frozenset({'a'})\nIds = list[int]\nLIMIT: int\n"
              "def f():\n    local = []\n    return local\n")
    assert mutable_globals(source) == ["_CACHE", "STACK", "SEEN", "BY_NAME", "SQUARES"]


def test_no_module_binds_mutable_state():
    """Tests run `cli.main` in one process hundreds of times, so a module-level
    container would carry one run's state into the next; the tape stack alone
    is pushed and popped in pairs."""
    found = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in mutable_globals(path.read_text(encoding="utf-8"))]
    assert found == ["numkit._GRAPH_STACK"]


def foreign_imports(source: str) -> list[str]:
    """The modules that `source` imports from outside the standard library,
    numpy and `seqrisk` (a relative import is the package's), each with the
    line of its import."""
    allowed = sys.stdlib_module_names | {"numpy", "seqrisk"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def test_the_scan_finds_foreign_imports():
    source = ("from __future__ import annotations\nimport os.path, fcntl\n"
              "import numpy as np\nimport scipy.stats\nfrom . import numkit\n"
              "from seqrisk.errors import ContractError\nfrom pandas import DataFrame\n")
    assert foreign_imports(source) == ["scipy.stats (line 4)", "pandas (line 7)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def caught_names(source: str) -> set[str]:
    """The exception names that the `except` clauses of `source` catch,
    alone or in a tuple, bare or as a module's attribute."""
    caught = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return caught


def test_the_scan_finds_caught_names():
    source = ("try:\n    f()\nexcept (ContractError, TypeError) as exc:\n    g(exc)\n"
              "except errors.NumericsError:\n    pass\nexcept:\n    raise\n"
              "Refusal = ValueError\n")
    assert caught_names(source) == {"ContractError", "TypeError", "NumericsError"}


def test_every_error_type_is_caught_somewhere():
    """An error type that no handler tells apart from the others would only
    repeat what its message says; a refusal of any kind is a ContractError."""
    types = {name for name, value in vars(errors).items()
             if isinstance(value, type) and value.__module__ == errors.__name__}
    caught = set().union(*(caught_names(path.read_text(encoding="utf-8"))
                           for path in sorted(PACKAGE.glob("*.py"))))
    assert "ContractError" in types
    assert sorted(types - caught) == []


def test_random_stream_ids_are_distinct():
    """Each random stream draws from `[seed, id]`, so two streams sharing an
    id would draw the same numbers."""
    streams = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = [name for name, _ in top_level_names(ast.parse(path.read_text(encoding="utf-8")))
                 if name.startswith("STREAM_")]
        if names:
            module = importlib.import_module(f"seqrisk.{path.stem}")
            streams.update((f"{path.stem}.{name}", getattr(module, name)) for name in names)
    assert {"objectives.STREAM_INIT", "analysis.STREAM_DISTRACTOR",
            "datagen.STREAM_TRAIN"} <= streams.keys()
    assert all(type(value) is int for value in streams.values()), streams
    assert len(set(streams.values())) == len(streams), streams
