"""Every name a package module imports is used in it, every private
top-level name a module defines is read in the package, and every name
the package exports is bound on it; the repository runs no linter."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mmvlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import inf, sqrt\n__all__ = ['inf']\nx = np.pi\n")
    assert unused_imports(source) == ["os (line 2)", "sqrt (line 4)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants that no module reads.

    `sources` maps module names to their text.  A name is read where it
    is loaded as a name or as an attribute in any of the modules.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                         and isinstance(t.ctx, ast.Store)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": ("_TOL = 1e-12\n_A, _B = range(2)\n_N: int = 3\n__all__ = ['f']\n"
                 "def _helper():\n    return _A\nclass _Left:\n    pass\n"
                 "def f():\n    return _helper() + _N\n"),
        "b.py": "from . import a\n\ndef g():\n    return a._TOL\n",
    }
    assert unread_private_names(sources) == ["a.py: _B (line 2)", "a.py: _Left (line 7)"]


def test_every_exported_name_is_bound():
    # `unused_imports` counts an __all__ entry as used, so a stale one
    # would pass it and break `from mmvlab import *`
    import mmvlab

    assert [name for name in mmvlab.__all__ if not hasattr(mmvlab, name)] == []


def code_references(source: str, name: str) -> list[int]:
    """Lines where code refers to `name`: as a name, an attribute, an
    imported name or an __all__ entry; docstrings and comments do not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(name in alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.Assign):
            hit = any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets) \
                and name in ast.literal_eval(node.value)
        else:
            hit = (isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name)
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_model_module_refers_to_the_jump_view():
    # scheduled jumps enter a model only as a table; `model.JumpAtom` is
    # the one-row view that indexing it builds, named nowhere else
    import mmvlab

    found = {path.name: code_references(path.read_text(), "JumpAtom")
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert "JumpAtom" not in mmvlab.__all__ and not hasattr(mmvlab, "JumpAtom")


def test_a_code_reference_is_found():
    source = ('"""JumpAtom in a docstring."""\nfrom .model import JumpAtom as J\n'
              "# JumpAtom in a comment\nx = model.JumpAtom\ny = JumpAtom\n"
              "__all__ = ['JumpAtom']\nz = 'JumpAtom'\n")
    assert code_references(source, "JumpAtom") == [2, 4, 5, 6]
