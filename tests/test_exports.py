"""The package's export list, ``kreinval.__all__``, against the names ``__init__.py`` imports."""

import ast
import inspect

import kreinval


def test_all_is_sorted_without_duplicates():
    assert kreinval.__all__ == sorted(set(kreinval.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in kreinval.__all__ if getattr(kreinval, name, None) is None]
    assert missing == []


def test_every_public_name_imported_in_init_is_exported():
    tree = ast.parse(inspect.getsource(kreinval))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(kreinval.__all__)
