"""Every name ``specverify`` exports is one the program itself reads.

The program is the modules of ``src/specverify/`` other than ``__init__.py``.
A top-level statement there that defines an exported name, or a private
(``_``-prefixed) one, counts only once a counted statement loads that name,
as a bare name or an attribute; every other top-level statement counts
(imports, the verifier tables, the CLI).  A name the tests alone read belongs
under ``tests/``.
"""

import ast
from pathlib import Path

import specverify

SRC = Path(specverify.__file__).resolve().parent


def defined(stmt):
    """The names a top-level statement binds by definition or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def loaded(stmt):
    """The names a statement loads, bare or as an attribute, its annotations included."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_read_by_the_program():
    exported = set(specverify.__all__)
    pending, counted = {}, []  # name -> the statements defining it, not yet counted
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            tracked = {name for name in defined(stmt) if name in exported or name.startswith("_")}
            for name in tracked:
                pending.setdefault(name, []).append(stmt)
            if not tracked:
                counted.append(stmt)
    read = set()
    while counted:
        for name in loaded(counted.pop()) - read:
            read.add(name)
            counted += pending.pop(name, [])
    assert sorted(exported - read) == []
