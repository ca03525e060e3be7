"""Every function and method annotation in the package resolves at run time."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import hamkit

MODULES = ["hamkit", *sorted(m.name for m in pkgutil.iter_modules(hamkit.__path__, "hamkit."))]


def _functions(module):
    """(qualified name, function) for each function, and each method of a class, that module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    # typing.get_type_hints evaluates each string annotation in the module's
    # namespace, so a name the module never binds raises NameError
    module = importlib.import_module(name)
    functions = list(_functions(module))
    failed = []
    for qualname, f in functions:
        try:
            typing.get_type_hints(f)
        except Exception as exc:  # noqa: BLE001 - report every unresolved annotation at once
            failed.append(f"{qualname}: {exc!r}")
    assert not failed, failed


def test_walk_reaches_functions_and_methods():
    names = {f"{m}.{q}" for m in MODULES for q, _ in _functions(importlib.import_module(m))}
    assert {"hamkit.cli._cap_base", "hamkit.branchings._InternalSieveEngine.det_batch",
            "hamkit.gf2m.BinaryField.nmul"} <= names
    assert len(names) >= 100, len(names)
