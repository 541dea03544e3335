"""The package's public surface is what its experiments reach.

Every public top-level function and class of ``src/ma2d`` must be named
outside its own definition: in the package, a demo, ``perfbench`` or the
acceptance tests.  A name that only unit tests call is not part of any
experiment, so it goes, or an experiment starts to use it.
"""
import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "ma2d", "*.py")))
READERS = (
    MODULES
    + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    + [os.path.join(ROOT, "tests", "test_acceptance.py")]
)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    """(path, module, node) of each public top-level function and class."""
    for path in MODULES:
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, module, node


def _uses(path):
    """(name, line) of every name, attribute and imported name in the file."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_name_is_reached():
    uses = {}  # name -> [(reader's path, line)]
    for reader in READERS:
        for name, line in _uses(reader):
            uses.setdefault(name, []).append((reader, line))
    unreached = []
    for path, module, node in _public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        reached = any(reader != path or line not in own
                      for reader, line in uses.get(node.name, ()))
        if not reached:
            unreached.append(f"{module}.{node.name}")
    assert unreached == []
