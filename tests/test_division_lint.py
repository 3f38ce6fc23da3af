"""No true division or power outside `linalg.quo`, except at the sites
listed here.

Exact values are ints where they are integral, and int / int is a float,
so a stray `/` would quietly leave exact arithmetic.  Every division of
numbers goes through `linalg.quo`, which is exact.  An int to a negative
int power is a float as well, so every `**` is listed here too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fiatcells"

# (module file, enclosing function, expression) -> why it is not a number division
ALLOWED = {
    ("linalg.py", "quo", "Fraction(a) / b"): "the exact division itself: a Fraction "
    "over an int or a Fraction is a Fraction, which `frac` then normalises",
    ("formats.py", "load_ccx_file", "path.parent / rel"): "a pathlib join",
    ("laurent.py", "__call__", "Fraction(value) ** e"): "Laurent evaluation: a Fraction "
    "to an int power is a Fraction, also for a negative exponent",
}


def _divisions(package=PACKAGE):
    """(file, enclosing function, expression, line) of every `/`, `/=`,
    `**` and `**=`."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Div, ast.Pow)):
                found.append((path.name, func, ast.unparse(node), node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_no_true_division_outside_quo_and_the_allowlist():
    stray = [
        f"{name}:{line} in {func}: {expr}"
        for name, func, expr, line in _divisions()
        if (name, func, expr) not in ALLOWED
    ]
    assert not stray, stray


def test_every_allowlisted_division_still_exists():
    present = {(name, func, expr) for name, func, expr, _ in _divisions()}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


def test_the_lint_sees_a_division(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b):\n    a /= b\n    return a / b\n"
        "def g(a, e, **kw):\n    a **= e\n    return a ** -e\n"
    )
    assert [(f, e) for _, f, e, _ in _divisions(tmp_path)] == [
        ("f", "a /= b"), ("f", "a / b"), ("g", "a **= e"), ("g", "a ** (-e)"),
    ]
