"""No function or class is kept that only its own tests call.

A single-underscore name defined by `def` or `class` anywhere in
src/qres/*.py must be read somewhere in src/qres: as a Name, as an
Attribute, or in an import.  So must a public name defined by `def` or
`class` at module level; an import in qres/__init__.py, which exports it,
is a read.  Tests do not count as readers.

Nor is a parameter kept that its function never reads: every parameter of
a `def` or `lambda` in src/qres/*.py other than `self` and `cls` must be
read in the function's body.

Nor a module-level name that nothing reads: every name that an assignment
at module level in src/qres/*.py binds must be read somewhere in src/qres,
as a definition must.  qres/__init__.py and dunder names are exempt.

Nor an import that its module never reads: every name bound by `import` or
`from ... import` in src/qres/*.py must be read in the same module as a
Name, the base of an attribute included.  qres/__init__.py, whose imports
are its exports, and `from __future__ import annotations` are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/qres/*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def names_read(trees):
    """The names that a Name, an Attribute or an import in trees reads."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= {a.name.split(".")[-1] for a in node.names}
    return read


def unread_definitions(sources: dict):
    """[(file, line, name)] of the definitions in sources (file
    name -> text) that no Name, Attribute or import there reads: private
    ones anywhere, public ones at module level."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = names_read(trees.values())
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or node.name in read:
                continue
            if node.name.startswith("_"):
                if not node.name.startswith("__"):
                    out.append((name, node.lineno, node.name))
            elif node in tree.body:
                out.append((name, node.lineno, node.name))
    return sorted(out)


def unread_module_names(sources: dict):
    """[(file, line, name)] of the names that an assignment at module level
    in sources (file name -> text) binds and that no Name, Attribute or
    import there reads; __init__.py and dunder names are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = names_read(trees.values())
    out = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(name, node.lineno, n.id)
                    for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and n.id not in read
                    and not n.id.startswith("__")]
    return sorted(out)


def unread_parameters(sources: dict):
    """[(file, line, function, parameter)] of the parameters of every
    function in sources (file name -> text) that its body never reads, as
    a Name or the target of an augmented assignment; self and cls are
    exempt."""
    out = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, FUNCTIONS):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = set()
            for sub in (n for b in body for n in ast.walk(b)):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    read.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    read.add(sub.target.id)
            out += [(name, node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                    for p in params
                    if p.arg not in read and p.arg not in ("self", "cls")]
    return sorted(out)


def unread_imports(sources: dict):
    """[(file, line, name)] of the names that an import binds in a module
    of sources (file name -> text) and that the module never reads as a
    Name; __init__.py and __future__ imports are exempt."""
    out = []
    for name, text in sources.items():
        if name == "__init__.py":
            continue
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                out += [(name, node.lineno, bound) for bound in
                        (a.asname or a.name.split(".")[0] for a in node.names)
                        if bound not in read]
    return sorted(out)


def unread_private_definitions(sources: dict):
    return [d for d in unread_definitions(sources) if d[2].startswith("_")]


def unread_public_definitions(sources: dict):
    return [d for d in unread_definitions(sources)
            if not d[2].startswith("_")]


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_private_definitions(sources) == []


def test_every_public_module_level_definition_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_public_definitions(sources) == []


def test_the_walk_sees_an_unread_private_definition():
    a = ("from b import _imported\n"
         "def _called():\n    return _imported\n"
         "def _orphan():\n    _orphan_name = 1\n    return _orphan_name\n"
         "class _Holder:\n    def _method(self):\n        return _called()\n"
         "    def _unused_method(self):\n        pass\n"
         "def __dunder__():\n    pass\n")
    b = "def _imported():\n    pass\nprint(_Holder()._method())\n"
    assert unread_private_definitions({"a.py": a, "b.py": b}) == [
        ("a.py", 4, "_orphan"), ("a.py", 10, "_unused_method")]


def test_the_walk_sees_an_unread_public_definition():
    a = ("def exported():\n    pass\n"
         "def called():\n    pass\n"
         "def orphan():\n    return called()\n"
         "class Orphan:\n    def method(self):\n        pass\n")
    init = "from .a import exported\n"
    assert unread_public_definitions({"a.py": a, "__init__.py": init}) == [
        ("a.py", 5, "orphan"), ("a.py", 7, "Orphan")]


def test_every_module_level_name_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_module_names(sources) == []


def test_the_walk_sees_an_unread_module_level_name():
    a = ("LIMIT = 10\n_unused, _pair = 2, 3\nORPHAN: int = 4\n"
         "__all__ = ['f']\n"
         "def f():\n    local = 5\n    return local + _pair\n")
    b = "from a import LIMIT\nprint(LIMIT)\n"
    init = "EXPORTED = 7\n"
    assert unread_module_names({"a.py": a, "b.py": b, "__init__.py": init}) == [
        ("a.py", 2, "_unused"), ("a.py", 3, "ORPHAN")]


def test_every_parameter_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_parameters(sources) == []


def test_the_walk_sees_an_unread_parameter():
    a = ("def f(x, y, *args, z=1, **kw):\n    return x + z\n"
         "class C:\n    def m(self, n):\n        n += 1\n"
         "    @classmethod\n    def c(cls, *, flag):\n        pass\n"
         "def g(a):\n    def h(b):\n        return a + b\n"
         "    return h(a), (lambda u, v: u)(a, a)\n")
    assert unread_parameters({"a.py": a}) == [
        ("a.py", 1, "f", "args"), ("a.py", 1, "f", "kw"),
        ("a.py", 1, "f", "y"), ("a.py", 7, "c", "flag"),
        ("a.py", 12, "<lambda>", "v")]


def test_every_import_is_read():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unread_imports(sources) == []


def test_the_walk_sees_an_unread_import():
    a = ("from __future__ import annotations\n"
         "import os.path\nimport math as m\nimport json\n"
         "from .b import used, unused as alias, _private\n"
         "def f():\n    return os.path.join(used(), m.pi)\n"
         "_private = 1\n")
    init = "from .a import f\nimport sys\n"
    assert unread_imports({"a.py": a, "__init__.py": init}) == [
        ("a.py", 4, "json"), ("a.py", 5, "_private"), ("a.py", 5, "alias")]
