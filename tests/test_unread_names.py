"""Every module-level constant, private helper and stored attribute of the package has a reader in the package.

A knob, helper or per-object buffer whose last reader is deleted should be
deleted with it, in the same change; this walk of the package's syntax trees
catches the ones that are not.
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


def _stored(trees: dict) -> list[tuple[str, str]]:
    """(module, attr) of each `self.<attr>` a module stores, tuple targets included, once each."""
    return sorted({(module, node.attr) for module, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"})


def _loads(trees: dict) -> tuple[set, set]:
    """The names every module loads: as bare names, and as attributes of anything."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def _unread(trees: dict) -> list[tuple[str, str]]:
    """The declared names that no module loads, as a bare name or as an attribute."""
    names, attrs = _loads(trees)
    return [(module, name) for module, name in _declared(trees) if name not in names | attrs]


def _unread_attributes(trees: dict) -> list[tuple[str, str]]:
    """The stored attributes that no module loads as an attribute."""
    _, attrs = _loads(trees)
    return [(module, attr) for module, attr in _stored(trees) if attr not in attrs]


def _package() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_constant_and_private_name_is_read():
    trees = _package()
    assert len(_declared(trees)) >= 70  # the walk reaches the package's names
    assert _unread(trees) == []


def test_every_stored_attribute_is_read():
    trees = _package()
    assert len(_stored(trees)) >= 40  # the walk reaches the package's attributes
    assert _unread_attributes(trees) == []


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


def test_unread_attributes_are_caught():
    source = '''
class Box:
    def __init__(self, other):
        self.read_attr = other.unread_elsewhere = 1
        self.unread_attr = 2
        self.pair_read, (self.pair_unread, [self.listed_read]) = 3, (4, [5])
        self.counted += 1
        self.bare_name = 6
        self.cross_read = 7
        self.read_attr = 8

    def use(self, other):
        return self.read_attr, other.pair_read, self.listed_read, bare_name
'''
    trees = {"m.py": ast.parse(source), "other.py": ast.parse("def f(box):\n    return box.cross_read")}
    assert _stored(trees) == sorted(("m.py", a) for a in ("read_attr", "unread_attr", "pair_read", "pair_unread",
                                                          "listed_read", "counted", "bare_name", "cross_read"))
    assert _unread_attributes(trees) == [("m.py", "bare_name"), ("m.py", "counted"),
                                         ("m.py", "pair_unread"), ("m.py", "unread_attr")]
