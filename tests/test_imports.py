"""No module imports a name it never reads.

No linter runs on this repository, so this walk over the syntax trees of
src/qres/*.py and tests/*.py is the guard.  Package __init__ files import
names to re-export them and are exempt; so is a name listed in __all__.
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
