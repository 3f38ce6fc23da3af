"""No module of the package writes another object's private state, except
`algebra`, whose `kept` is the one store of what is derived from an algebra.

An algebra is immutable once built, and what is derived from it alone is
kept on it through `algebra.kept`, so that every derivation is computed once
per instance and a failed one is never kept.  A module that set an
underscore attribute of an algebra (or of any other object it did not
define) would be a second, unlisted store.  Objects keep their own caches
through `self`.
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
