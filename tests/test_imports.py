"""No module imports a name it never reads.

No linter runs on this repository, so this walk over the syntax trees of
src/qres/*.py and tests/*.py is the guard.  Package __init__ files import
names to re-export them and are exempt; so is a name listed in __all__.

A second walk holds the lowest layers of the package: zpoly (Z[x], GF(p)[x])
imports no qres module but errors, and exactnum (the towers) none but
errors and zpoly.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for p in [*ROOT.glob("src/qres/*.py"), *ROOT.glob("tests/*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_walk_sees_an_unused_import():
    src = ("import os\nimport math as m\nfrom x import a, b\n"
           "from y import c\n__all__ = ['c']\nprint(a, m.pi)\n")
    assert unused_imports(src) == [(1, "os"), (3, "b")]


LAYERS = {"zpoly": {"errors"}, "exactnum": {"errors", "zpoly"}}


def qres_imports(source: str):
    """The qres modules that source imports, by relative or absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            top, _, sub = ("qres." * bool(node.level) + (node.module or "")).partition(".")
            if top == "qres":
                out |= {sub.split(".")[0]} if sub else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("qres.")}
    return out


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_a_lower_layer_imports_only_the_layers_below_it(module):
    source = (ROOT / "src" / "qres" / (module + ".py")).read_text()
    assert qres_imports(source) <= LAYERS[module]


def test_the_layer_walk_sees_every_import_form():
    src = ("from . import poly\nfrom .errors import X\nimport qres.wproj\n"
           "from qres import cli\nfrom qres.resolve import y\nimport os\n"
           "from fractions import Fraction\n")
    assert qres_imports(src) == {"poly", "errors", "wproj", "cli", "resolve"}
