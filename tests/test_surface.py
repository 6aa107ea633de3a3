"""Every public definition of ``rbsde_lab`` must be used by the program itself.

A public function, class or method counts as used when its name appears as
an ``ast`` Name or Attribute in the package sources outside its own body,
in a bench script, or in the acceptance suite. A definition that only the
other tests reach is dead weight: move it into ``tests/helpers.py`` as an
oracle, or delete it.

Every name a module imports must be referenced in that module, unless
``bench/tracing.py`` hooks it there: its ``PATCHES`` swap a function under
the name by which a module imported it, so such an import stays while its
hook does. No module imports a ``_``-prefixed name from another module of
the package: what two modules share is public.

The branch law lives in ``lattice.py``: no other module reads a lattice's
``up_prob``, except the oracle in ``diagnostics.py``, which re-derives the
law on purpose.

Every exception class of the package derives from ``ValueError`` or
``RuntimeError``, which ``cli.main`` turns into one stderr line and exit 1,
so no error of a command ends in a traceback.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rbsde_lab"
USERS = (*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")
TRACING = ROOT / "bench" / "tracing.py"


def _names(tree) -> Counter:
    """How often each name appears as a Name or as an Attribute in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function, class and method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_names(src=SRC, users=USERS) -> list:
    """The qualified names of public definitions in ``src`` that nothing but tests references."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(Path(src).glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    everywhere += sum((_names(ast.parse(path.read_text())) for path in users), Counter())
    unused = []
    for tree in trees.values():
        for qualname, node in _public_definitions(tree):
            if everywhere[node.name] <= _names(node)[node.name]:
                unused.append(qualname)
    return unused


def test_every_public_definition_is_used_outside_the_tests():
    unused = unused_public_names()
    assert not unused, f"public, but referenced only by tests: {', '.join(unused)}"


def test_the_guard_names_definitions_reached_only_from_their_own_body(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def _private():\n"
        "    return 0\n"
        "class Box:\n"
        "    def open(self):\n"
        "        return 2\n"
        "    def size(self):\n"
        "        return self.size()\n"
        "    def _hidden(self):\n"
        "        return 3\n"
    )
    user = tmp_path / "bench.py"
    user.write_text("from pkg.mod import Box, used\nused()\nBox().open()\n")
    assert unused_public_names(src, (user,)) == ["recursive", "Box.size"]
    assert unused_public_names(src, ()) == ["used", "recursive", "Box", "Box.open", "Box.size"]


def hooked_names(tracing=TRACING) -> set:
    """The (module, name) pairs whose imported function ``PATCHES`` in ``tracing`` replaces."""
    for node in ast.parse(Path(tracing).read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "PATCHES" for target in node.targets
        ):
            return {(target, attr) for target, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"{tracing} assigns no PATCHES")


def unused_imports(src=SRC, hooked=frozenset()) -> list:
    """``<module>.<name>`` of each name a module of ``src`` imports and never references.

    A name counts as referenced when it appears as an ``ast`` Name in its
    module. An import that ``hooked`` names as (module, name) is exempt.
    """
    unused = []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text())
        module = f"{Path(src).name}.{path.stem}"
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in referenced and (module, name) not in hooked:
                    unused.append(f"{module}.{name}")
    return unused


def test_every_import_is_referenced_or_hooked():
    unused = unused_imports(hooked=hooked_names())
    assert not unused, f"imported, but never referenced: {', '.join(unused)}"


def test_the_import_guard_names_imports_nothing_references(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import NamedTuple, Optional\n"
        "from .other import dead, hooked, used\n"
        "def f(x: np.ndarray) -> Optional[int]:\n"
        "    return math.floor(used(x))\n"
    )
    tracing = tmp_path / "tracing.py"
    tracing.write_text(
        "PATCHES = (\n"
        "    ('pkg.mod', 'hooked', 'layer'),\n"
        "    ('pkg.other:Box', 'open', 'layer'),\n"
        ")\n"
    )
    hooked = hooked_names(tracing)
    assert hooked == {("pkg.mod", "hooked"), ("pkg.other:Box", "open")}
    assert unused_imports(src, hooked) == ["pkg.mod.os", "pkg.mod.NamedTuple", "pkg.mod.dead"]
    assert unused_imports(src) == [
        "pkg.mod.os",
        "pkg.mod.NamedTuple",
        "pkg.mod.dead",
        "pkg.mod.hooked",
    ]


def private_imports(src=SRC) -> list:
    """``<module>.<name>`` of each ``_``-prefixed name a module of ``src`` imports relatively."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        module = f"{Path(src).name}.{path.stem}"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_name():
    found = private_imports()
    assert not found, f"private names imported from another module: {', '.join(found)}"


def test_the_private_import_guard_names_relative_imports_of_private_names(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import numpy as _np\n"
        "from numpy import _globals\n"
        "from .other import _hidden, public\n"
        "from . import _sibling\n"
        "def f():\n"
        "    from .deep.inner import _late as late, shown\n"
        "    return _hidden, public, _sibling, late, shown, _np, _globals\n"
    )
    assert private_imports(src) == ["pkg.mod._hidden", "pkg.mod._sibling", "pkg.mod._late"]


BRANCH_LAW_READERS = ("lattice.py", "diagnostics.py")


def branch_law_readers(src=SRC, allowed=BRANCH_LAW_READERS) -> list:
    """The modules of ``src`` outside ``allowed`` that read the attribute ``up_prob``."""
    readers = []
    for path in sorted(Path(src).glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Attribute) and node.attr == "up_prob" for node in ast.walk(tree)):
            readers.append(path.name)
    return readers


def test_only_the_lattice_module_reads_the_branch_probabilities():
    readers = branch_law_readers()
    assert not readers, f"read up_prob outside lattice.py: {', '.join(readers)}"


def test_the_branch_law_guard_names_modules_that_read_up_prob(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "lattice.py").write_text("def e(lat, k):\n    return lat.up_prob[k]\n")
    (src / "diagnostics.py").write_text("def oracle(lat):\n    return lat.up_prob[0]\n")
    (src / "problem.py").write_text("def average(lat, k):\n    p = lat.up_prob[k]\n    return p\n")
    # a keyword or a local of that name reads no lattice's probabilities
    (src / "snell.py").write_text(
        "def f(lat, up_prob):\n    return lat._replace(up_prob=up_prob)\n"
    )
    assert branch_law_readers(src) == ["problem.py"]
    assert branch_law_readers(src, ()) == ["diagnostics.py", "lattice.py", "problem.py"]


# The families ``cli.main`` turns into one stderr line and exit 1.
EXIT_FAMILIES = (ValueError, RuntimeError)


def errors_outside_the_exit_families(package="rbsde_lab", families=EXIT_FAMILIES) -> list:
    """``<module>.<class>`` of each exception class of ``package`` outside ``families``."""
    found = []
    for info in pkgutil.iter_modules(importlib.import_module(package).__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
                and not issubclass(value, families)
            ):
                found.append(f"{module.__name__}.{name}")
    return found


def test_every_error_class_exits_1_through_main():
    found = errors_outside_the_exit_families()
    assert not found, f"main would show a traceback for: {', '.join(found)}"


def test_the_error_guard_names_classes_outside_the_families(tmp_path, monkeypatch):
    pkg = tmp_path / "error_guard_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "from .other import Borrowed\n"
        "class Fine(ValueError):\n    pass\n"
        "class Solver(RuntimeError):\n    pass\n"
        "class Bare(Exception):\n    pass\n"
        "class Lookup(KeyError):\n    pass\n"
        "class NotAnError:\n    pass\n"
    )
    (pkg / "other.py").write_text("class Borrowed(ArithmeticError):\n    pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert errors_outside_the_exit_families("error_guard_pkg") == [
        "error_guard_pkg.mod.Bare",
        "error_guard_pkg.mod.Lookup",
        "error_guard_pkg.other.Borrowed",
    ]
