"""Every function the package defines is reached by its entry points, pinned
by the benchmark's tracer, or listed here with the reason it is kept.

The entry points are `verify.report_all()` and one `fiatcells` run of each
subcommand on the bundled data, under a profile hook.  A helper that none of
them reaches is code that only tests call, or none at all: it either earns a
place in a report or goes.  A listed name that is reached, or that the
package no longer defines, fails too, so the list cannot go stale.  Nested
functions count with their enclosing function.
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

from fiatcells import cli, coxeter, fixtures, verify

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fiatcells"
TRACING = ROOT / "perfbench" / "tracing.py"

PER_PAIR = "serves only the per-pair T-basis reference for the export's table"
PROMOTED = "serves only a theorem check that a report record is to take over"
TOOL = "test tool: tests build and inspect their cases with it"
ERROR = "error path: raised on bad input only, which the bundled data is not"
REPR = "debug text of a value; test failure messages show it"
HASH = "hash of a value type, consistent with its =="
TRACED = "serves only names the benchmark's tracer pins"
PAIRS = "a preorder as name pairs, built on first read: tests read it, no report does"

# qualified name (module.Class.function) -> why it is kept unreached
KEPT = {
    "algebra.AlgebraValidationError.__init__": ERROR,
    "algebra.FinDimAlgebra.__repr__": REPR,
    "algebra.FinDimAlgebra.element": "the dense vector boundary of the algebra",
    "algebra._kept_per_algebra": "decorator: applied at import, before the hook starts",
    "algebra.coords_in": TRACED + " (corner_algebra)",
    "bimod.Bimodule.__repr__": REPR,
    "coxeter.CoxeterGroup._down_sets": PROMOTED + " (supp(b_w) = [e, w] via bruhat_leq)",
    "coxeter.CoxeterGroup.bruhat_leq": PROMOTED + " (supp(b_w) = [e, w])",
    "coxeter.CoxeterGroup.element_of_name": TOOL,
    "coxeter.CoxeterGroup.longest": TOOL,
    "coxeter.CoxeterGroup.mult": TOOL,
    "formats.ParseError.__init__": ERROR,
    "graded.UnknownShiftError.__init__": ERROR,
    "hecke._bar_t_basis": PROMOTED + " (bar invariance of b_w)",
    "hecke._mac": PER_PAIR + " (and bar_involution)",
    "hecke._t_gen": PER_PAIR + " (and bar_involution)",
    "hecke._t_gen_left": PER_PAIR,
    "hecke._t_word_left": PER_PAIR,
    "hecke._trimmed": PER_PAIR + " (and bar_involution)",
    "hecke._unpacked": "decodes the packed canonical basis for kl_basis and error messages only",
    "laurent.LaurentPoly.__eq__": TOOL,
    "laurent.LaurentPoly.__hash__": HASH,
    "laurent.LaurentPoly.__repr__": REPR,
    "laurent.LaurentPoly.__str__": REPR,
    "linalg.Subspace.__hash__": HASH,
    "linalg.Subspace.__repr__": REPR,
    "linalg._ncols": TRACED + " (rref, solve, inverse)",
    "linalg.dot": TRACED + " (mat_mul)",
    "linalg.sp_flatten": TOOL + " (tests rank hom matrices flattened to vectors)",
    "mscell.CellStructure._pairs": "serves only the leq_* pair views",
    "mscell.CellStructure.leq_left": PAIRS,
    "mscell.CellStructure.leq_right": PAIRS,
    "mscell.CellStructure.leq_two_sided": PAIRS,
    "mscell.MultiSemigroup.renamed": TOOL,
    "mscell.MultiSemigroupError.__init__": ERROR,
    "report.CellReport.from_json": "reads a JSON report back; kept beside to_dict",
    "report.CheckRecord.from_dict": "serves only CellReport.from_json",
}


def _spans():
    """The tracer's (module, class, attribute, ...) entries, read as
    `test_traced_names.py` reads them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._SPANS


def _span_names(spans):
    return {".".join(p for p in (mod, cls, attr) if p) for mod, cls, attr, *_ in spans}


def _defined(package):
    """Qualified name of every function and method defined in the modules of
    package, nested functions left out."""
    names = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(prefix + node.name)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)).body, f"{path.stem}.")
    return names


def _reached(package, run):
    """Qualified names of the functions of package that run() calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    root = os.path.realpath(package)
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if os.path.dirname(os.path.realpath(code.co_filename)) == root
    }


def _unaccounted(package, reached, kept, spans):
    """(defined names neither reached nor pinned nor kept, kept names that
    are reached or that the package does not define)."""
    pinned = _span_names(spans)
    defined = _defined(package)
    stray = [n for n in defined if n not in reached and n not in pinned and n not in kept]
    stale = sorted(n for n in kept if n in reached or n not in defined)
    return stray, stale


def _run_entry_points(tmp_path):
    """report_all() and each subcommand once, on the bundled data."""
    for name in ("demo.msg", "skewext.alg", "skewext.ccx", "x3local.alg"):
        (tmp_path / name).write_text(fixtures.fixture_text(name))
    runs = [
        ["report-all"],
        ["--format", "json", "report-all"],
        *[["hecke-export", "--type", kind] for kind in cli.HECKE_TYPES],
        ["rsk", "--perm", "2,1,3"],
        ["--format", "json", "rsk", "--n", "4"],
        ["algebra-check", "--input", str(tmp_path / "x3local.alg")],
        ["ccx-build", "--fixture", "zigzagA2"],
        ["ccx-build", "--input", str(tmp_path / "skewext.ccx")],
        ["verify", "--fixture", "b2"],
        ["graded-verify", "--fixture", "dualnumbers"],
        ["cells", "--input", str(tmp_path / "demo.msg")],
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        verify.report_all()
        for argv in runs:
            codes.append(cli.main(argv))
    assert codes == [0] * len(runs)


def test_every_function_is_reached_pinned_or_kept(tmp_path, monkeypatch):
    # built fixtures and groups would keep what earlier tests derived from them
    monkeypatch.setattr(fixtures, "_cache", {})
    monkeypatch.setattr(coxeter, "_GROUPS", {})
    reached = _reached(PACKAGE, lambda: _run_entry_points(tmp_path))
    stray, stale = _unaccounted(PACKAGE, reached, KEPT, _spans())
    assert not stray, f"defined but never reached: {stray}"
    assert not stale, f"kept as unreached but reached or not defined: {stale}"


def test_the_lint_flags_a_planted_helper(tmp_path):
    (tmp_path / "planted.py").write_text(
        "def entry():\n"
        "    def nested():\n"
        "        return Box().used()\n"
        "    return nested()\n"
        "\n"
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def spare(self):\n"
        "        return 2\n"
        "\n"
        "def helper():\n"
        "    return 3\n"
        "\n"
        "def pinned():\n"
        "    return 4\n"
    )
    spec = importlib.util.spec_from_file_location("planted", tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reached = _reached(tmp_path, module.entry)
    assert reached == {"planted.entry", "planted.entry.<locals>.nested", "planted.Box.used"}
    spans = [("planted", None, "pinned", "span", {})]
    kept = {"planted.Box.spare": "kept"}
    assert _unaccounted(tmp_path, reached, kept, spans) == (["planted.helper"], [])
    kept["planted.entry"] = "kept"
    assert _unaccounted(tmp_path, reached, kept, spans) == (["planted.helper"], ["planted.entry"])


def test_the_lint_flags_a_kept_name_the_package_no_longer_defines(tmp_path):
    (tmp_path / "planted.py").write_text(
        "def entry():\n"
        "    return 1\n"
        "\n"
        "class Box:\n"
        "    def spare(self):\n"
        "        return 2\n"
    )
    reached = {"planted.entry"}
    kept = {"planted.Box.spare": "kept", "planted.Box.gone": "kept", "planted.helper": "kept"}
    assert _unaccounted(tmp_path, reached, kept, []) == ([], ["planted.Box.gone", "planted.helper"])
    del kept["planted.Box.gone"], kept["planted.helper"]
    assert _unaccounted(tmp_path, reached, kept, []) == ([], [])
