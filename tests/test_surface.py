"""Every public definition of ``rbsde_lab`` must be used by the program itself.

A public function, class or method counts as used when its name appears as
an ``ast`` Name or Attribute in the package sources outside its own body,
in a bench script, or in the acceptance suite. A definition that only the
other tests reach is dead weight: move it into ``tests/helpers.py`` as an
oracle, or delete it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rbsde_lab"
USERS = (*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")


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
