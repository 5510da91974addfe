"""A guard against dead helpers: every module-level private name of the package is read in ``src/``.

A private function, class or constant (one leading underscore, not a
dunder) is the package's own business.  A test or the benchmark may read
one, but that does not keep it alive: once nothing in ``src/`` reads it
except its own definition, it is dead code and should go.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kreinval"


def private_definitions(tree):
    """(name, node) of each module-level def, class or assignment whose name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """"module:line name" of each private definition that no code of ``sources`` reads outside its own lines.

    A read is a name that is loaded or deleted, or an attribute of that name
    (``module._helper``); an import alone, a string or a comment is not.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = defaultdict(list)  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append((module, node.lineno))
    dead = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == module and line in own for where, line in reads[name]):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_every_private_helper_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    assert dead_helpers(sources) == []


def test_the_guard_finds_a_helper_read_only_by_itself_or_by_an_import():
    sources = {
        "a.py": (
            "import b\n_LIMIT = 3\n_unused = 1\n\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
            "def _called():\n    return _LIMIT\n\n"
            "def public():\n    return _called() + b._through_module()\n"
        ),
        "b.py": (
            "from a import _unused\n\n"
            "def _through_module():\n    return 1\n\n"
            "class _Kept:\n    pass\n\n"
            "def __getattr__(name):\n    return _Kept\n"
        ),
    }
    assert dead_helpers(sources) == ["a.py:3 _unused", "a.py:5 _recursive"]
