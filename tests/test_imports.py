"""Every name a package module imports is used in it, every private
top-level name a module defines is read in the package, every public
one of the private kernel `_quad` is read outside it, and every name
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
        defined += [(module, name, line) for name, line in top_level_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        read |= names_read(tree)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


def top_level_names(tree) -> list[tuple[str, int]]:
    """(name, line) of the functions, classes and constants a module defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            out += [(t.id, node.lineno) for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return out


def names_read(tree) -> set[str]:
    """Names a module loads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


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


def unread_public_names(sources: dict[str, str], module: str) -> list[str]:
    """Public top-level names of a private module that no other module reads.

    The private module's public names exist for the rest of the package;
    one that only the module itself reads, or none, is a dead kernel.
    """
    read = set().union(*(names_read(ast.parse(source)) for name, source in sources.items()
                         if name != module))
    return [f"{module}: {name} (line {line})"
            for name, line in top_level_names(ast.parse(sources[module]))
            if not name.startswith("_") and name not in read]


def test_every_public_kernel_name_is_read_elsewhere():
    # `unread_private_names` covers the kernel's private names
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_public_names(sources, "_quad.py") == []


def test_an_unread_public_name_is_found():
    sources = {
        "_k.py": ("_N = 3\nSCALE = 2.0\ndef used():\n    return shift(_N)\n"
                  "def shift(x):\n    return x\nclass Kept:\n    pass\n"),
        "b.py": "from ._k import Kept, used\n\ndef g():\n    return used(), Kept\n",
        "c.py": "from . import _k\n\nh = _k.SCALE\n",
    }
    assert unread_public_names(sources, "_k.py") == ["_k.py: shift (line 5)"]
    del sources["c.py"]
    assert unread_public_names(sources, "_k.py") == ["_k.py: SCALE (line 2)",
                                                     "_k.py: shift (line 5)"]


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


def test_no_module_sorts_by_lexsort():
    # one ordering idiom: a stable argsort of a complex key
    # (`measures._pair_key`), which gives np.lexsort's permutation
    found = {path.name: code_references(path.read_text(), "lexsort")
             for path in sorted(SRC.glob("*.py"))}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_a_lexsort_is_found():
    source = ('"""np.lexsort in a docstring."""\nimport numpy as np\nfrom numpy import lexsort\n'
              "# np.lexsort in a comment\norder = np.lexsort((minor, major))\n")
    assert code_references(source, "lexsort") == [3, 5]
