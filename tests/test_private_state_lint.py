"""No module of the package writes another object's private state, except
`algebra`, whose `kept` is the one store of what is derived from an algebra,
and none reaches a private name of another module of the package.

An algebra is immutable once built, and what is derived from it alone is
kept on it through `algebra.kept`, so that every derivation is computed once
per instance and a failed one is never kept.  A module that set an
underscore attribute of an algebra (or of any other object it did not
define) would be a second, unlisted store.  Objects keep their own caches
through `self`.  A helper that another module needs is public: a module
that read `alg._helper` would lean on a name its owner may change at will.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fiatcells"

# the module that owns the per-algebra store
OWNER = "algebra.py"


def _private_target(node):
    """The `x._name` written by an assignment target, also through a
    subscript (`x._name[k] = v`), or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
        return node
    return None


def _foreign_private_writes(package=PACKAGE):
    """(file, line, target) of every assignment, augmented assignment or
    deletion of an underscore attribute of anything but `self`, outside
    the owner module."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == OWNER:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            flat = []
            for t in targets:
                flat.extend(t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])
            for t in flat:
                attr = _private_target(t)
                if attr is None:
                    continue
                owner = attr.value
                if isinstance(owner, ast.Name) and owner.id == "self":
                    continue
                found.append((path.name, node.lineno, ast.unparse(t)))
    return found


def _module_aliases(tree, modules):
    """Names the module binds to modules of the package, by
    `from . import m [as n]`, `from fiatcells import m [as n]` or
    `import fiatcells.m as n`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, PACKAGE.name)):
                names.update(a.asname or a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            for a in node.names:
                pkg, _, mod = a.name.partition(".")
                if pkg == PACKAGE.name and mod in modules and a.asname:
                    names.add(a.asname)
    return names


def _foreign_private_names(package=PACKAGE):
    """(file, line, name) of every `m._name` whose m is another module of
    the package, imported under any alias; dunder names are not private."""
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = _module_aliases(tree, modules)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append((path.name, node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_reaches_a_private_name_of_another_module():
    stray = [f"{name}:{line}: {target}" for name, line, target in _foreign_private_names()]
    assert not stray, stray


def test_the_lint_sees_a_private_name_of_an_imported_module(tmp_path):
    (tmp_path / "helpers.py").write_text("def _coords(v):\n    return v\n")
    (tmp_path / "mod.py").write_text(
        "from . import helpers as h\n"
        "from fiatcells import helpers\n"
        "import fiatcells.helpers as fh\n"
        "from .helpers import _coords\n"
        "\n"
        "def f(obj, json):\n"
        "    h._coords(1)\n"
        "    x = helpers._coords\n"
        "    fh._coords(2)\n"
        "    obj._coords(3)\n"
        "    json._private\n"
        "    return h.__name__, h.public(), _coords(4)\n"
    )
    assert [(name, line, t) for name, line, t in _foreign_private_names(tmp_path)] == [
        ("mod.py", 7, "h._coords"),
        ("mod.py", 8, "helpers._coords"),
        ("mod.py", 9, "fh._coords"),
    ]


def test_no_module_but_algebra_writes_private_state_of_another_object():
    stray = [f"{name}:{line}: {target}" for name, line, target in _foreign_private_writes()]
    assert not stray, stray


def test_the_lint_sees_a_private_write(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(A, B, self):\n"
        "    A._projective_center = 1\n"
        "    B._store[0] = 2\n"
        "    A.x, B._y = 3, 4\n"
        "    A._n += 1\n"
        "    del B._store[0]\n"
        "    self._mine = 5\n"
        "    self._store[0] = 6\n"
        "    A.public = 7\n"
    )
    (tmp_path / OWNER).write_text("def g(A):\n    A._store = {}\n")
    assert [(line, t) for _, line, t in _foreign_private_writes(tmp_path)] == [
        (2, "A._projective_center"),
        (3, "B._store[0]"),
        (4, "B._y"),
        (5, "A._n"),
        (6, "B._store[0]"),
    ]
