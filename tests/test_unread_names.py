"""Every module-level constant and private helper of the package has a reader in the package.

A knob or helper whose last reader is deleted should be deleted with it, in
the same change; this walk of the package's syntax trees catches the ones
that are not.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hamkit"


def _declared(trees: dict) -> list[tuple[str, str]]:
    """(module, name) of each module-level UPPER_CASE constant and each private function, class and method.

    Private means one leading underscore: dunder methods are read by Python
    itself.
    """
    names = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names += [(module, t.id) for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    names.append((module, node.name))
    return names


def _unread(trees: dict) -> list[tuple[str, str]]:
    """The declared names that no module loads, as a bare name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [(module, name) for module, name in _declared(trees) if name not in read]


def test_every_constant_and_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(_declared(trees)) >= 70  # the walk reaches the package's names
    assert _unread(trees) == []


def test_unread_names_are_caught():
    source = '''
READ_LIMIT = 1
UNREAD_LIMIT: int = 2
lower_case = 3


def _unread_function():
    class _UnreadClass:
        def _unread_method(self):
            return READ_LIMIT

        def __init__(self):
            self._read_method()

        def _read_method(self):
            pass

    return _read_helper()


def _read_helper():
    pass
'''
    trees = {"m.py": ast.parse(source), "other.py": ast.parse("_unread_method = READ_LIMIT")}
    assert _unread(trees) == [("m.py", "UNREAD_LIMIT"), ("m.py", "_unread_function"),
                              ("m.py", "_UnreadClass"), ("m.py", "_unread_method")]
