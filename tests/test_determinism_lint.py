"""No module of the package imports `random` or `secrets`.

Every verdict is exact and read off deterministic data, so the reports are
the same on every run; a random draw anywhere in the package would make a
verdict, or the work behind it, depend on luck.  Tests may still draw
seeded random inputs.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fiatcells"

BANNED = {"random", "secrets"}


def _random_imports(package=PACKAGE):
    """(file, line, module) of every import of a banned module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in BANNED:
                    found.append((path.name, node.lineno, name))
    return found


def test_no_module_imports_random_or_secrets():
    assert not _random_imports(), _random_imports()


def test_the_lint_sees_a_random_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os, random\n"
        "from secrets import token_hex\n"
        "from . import random_walk\n"
        "def f():\n    import random as r\n    return r\n"
    )
    assert _random_imports(tmp_path) == [
        ("mod.py", 1, "random"), ("mod.py", 2, "secrets"), ("mod.py", 5, "random"),
    ]
