"""Command-line frontend: load fixtures, run computations and verification
suites, emit deterministic text or JSON reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from . import algebra as alg
from . import bimod, fixtures, formats, graded, mscell, verify
from .coxeter import coxeter_group
from .formats import ParseError
from .hecke import HeckeDataError, SizeLimitError, export_multisemigroup, rsk, rsk_cells
from .report import CellReport, CheckRecord

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

HECKE_TYPES = ("A1", "A2", "A3", "B2")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cells_payload(struct) -> dict:
    return {
        "left_cells": [list(c) for c in struct.left_cells],
        "right_cells": [list(c) for c in struct.right_cells],
        "two_sided_cells": [list(c) for c in struct.two_sided_cells],
    }


def _render_cells(struct) -> str:
    def fmt(cells):
        return " | ".join("{" + ", ".join(c) + "}" for c in cells)

    return "\n".join(
        [
            f"left cells:      {fmt(struct.left_cells)}",
            f"right cells:     {fmt(struct.right_cells)}",
            f"two-sided cells: {fmt(struct.two_sided_cells)}",
        ]
    )


def _print_reports(reports, fmt: str) -> int:
    if fmt == "json":
        payload = {"reports": [r.to_dict() for r in reports]}
        _emit(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        chunks = [r.render_text() for r in reports]
        overall = all(r.passed for r in reports)
        chunks.append(f"suite: {'PASS' if overall else 'FAIL'}")
        _emit("\n\n".join(chunks))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def cmd_cells(args) -> int:
    ms = formats.load_multisemigroup_file(args.input)
    struct = mscell.cells(ms)
    if args.format == "json":
        _emit(json.dumps(_cells_payload(struct), indent=2, sort_keys=True))
    else:
        _emit(_render_cells(struct))
    return EXIT_OK


def cmd_hecke_export(args) -> int:
    group = coxeter_group(args.type)
    ms = export_multisemigroup(group)
    name = args.type.lower()
    if args.format == "json":
        payload = {
            "name": name,
            "objects": list(ms.objects),
            "morphisms": [
                {
                    "name": m.name,
                    "src": m.src,
                    "tgt": m.tgt,
                    "identity": m.is_identity,
                }
                for _, m in sorted(ms.morphisms.items())
            ],
            "star": dict(sorted(ms.star.items())),
            "table": {
                f"{f} o {g}": dict(sorted(entry.items()))
                for (f, g), entry in sorted(ms.table.items())
            },
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(formats.render_multisemigroup(ms, name=name))
    return EXIT_OK


def cmd_rsk(args) -> int:
    if args.perm:
        try:
            perm = tuple(int(x) for x in args.perm.replace(",", " ").split())
            pair = rsk(perm)
        except ValueError as exc:
            raise ParseError("<arg>", 0, f"bad permutation {args.perm!r}: {exc}") from exc
        if args.format == "json":
            _emit(
                json.dumps(
                    {
                        "permutation": list(perm),
                        "P": [list(r) for r in pair.p_rows],
                        "Q": [list(r) for r in pair.q_rows],
                        "shape": list(pair.shape),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            lines = [f"permutation: {' '.join(map(str, perm))}"]
            lines.append("P:")
            lines.extend("  " + " ".join(map(str, row)) for row in pair.p_rows)
            lines.append("Q:")
            lines.extend("  " + " ".join(map(str, row)) for row in pair.q_rows)
            _emit("\n".join(lines))
        return EXIT_OK
    if not 2 <= args.n <= 5:
        raise ParseError("<arg>", 0, f"bad --n {args.n}: the oracle supports 2 <= n <= 5")
    struct = rsk_cells(args.n)
    if args.format == "json":
        _emit(json.dumps(_cells_payload(struct), indent=2, sort_keys=True))
    else:
        _emit(_render_cells(struct))
    return EXIT_OK


def _algebra_spec_from_args(args):
    if args.fixture:
        return fixtures.load_algebra(args.fixture)
    return formats.load_algebra_file(args.input)


def cmd_algebra_check(args) -> int:
    spec = _algebra_spec_from_args(args)
    A = spec.algebra
    report = CellReport(f"{spec.name}: algebra check")
    report.records.append(verify.validation_record(A))
    if report.records[0].passed:
        values = verify.algebra_invariants(A)
        values["graded"] = spec.degrees is not None
        report.records.append(CheckRecord("invariants", "plumbing", values, True))
    return _print_reports([report], args.format)


def cmd_ccx_build(args) -> int:
    if args.fixture:
        build = fixtures.ccx_build(args.fixture)
        name = args.fixture
    else:
        spec, algebra_specs = formats.load_ccx_file(args.input)
        x_spaces = []
        algebras = []
        for idx, aspec in enumerate(algebra_specs):
            algebras.append(aspec.algebra)
            gens = spec.x_generators.get(idx)
            if gens is None:
                x_spaces.append(None)
            else:
                basis, line_no = list(aspec.algebra.basis), spec.x_lines[idx]
                vectors = [
                    formats.parse_combination(g, basis, args.input, line_no) for g in gens
                ]
                x_spaces.append(
                    alg.subalgebra_closure(aspec.algebra, vectors)
                )
        if all(aspec.degrees is not None for aspec in algebra_specs):
            try:
                build = graded.build_graded_ccx(
                    [graded.GradedAlgebra(a.algebra, a.degrees) for a in algebra_specs],
                    x_subalgebras=tuple(x_spaces),
                    shifts=spec.shifts if spec.shifts else None,
                    name=spec.name,
                )
            except graded.UnknownShiftError as exc:
                line_no = min(spec.shift_lines[nm] for nm in exc.names)
                raise ParseError(args.input, line_no, str(exc)) from exc
        else:
            if spec.shifts:
                raise ParseError(
                    args.input,
                    min(spec.shift_lines.values()),
                    "shift lines need gradings on every algebra",
                )
            data = bimod.CcxData(
                algebras=tuple(algebras), x_subalgebras=tuple(x_spaces), name=spec.name
            )
            build = bimod.build_ccx(data)
        name = spec.name
    struct = mscell.cells(build.ms)
    if args.format == "json":
        payload = {
            "name": name,
            "multisemigroup": {
                f"{f} o {g}": dict(sorted(entry.items()))
                for (f, g), entry in sorted(build.ms.table.items())
            },
            "cells": _cells_payload(struct),
            "left_cell": list(build.cellrep.left_cell),
            "simples": list(build.cellrep.simple_labels),
            "actions": {
                nm: [list(row) for row in mat]
                for nm, mat in sorted(build.cellrep.actions.items())
            },
        }
        if build.shifts is not None:
            payload["shifts"] = dict(sorted(build.shifts.items()))
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = [formats.render_multisemigroup(build.ms, name=name)]
        lines.append(_render_cells(struct))
        lines.append(f"chosen left cell: {{{', '.join(build.cellrep.left_cell)}}}")
        lines.append(f"simple classes:   {', '.join(build.cellrep.simple_labels)}")
        for nm, mat in sorted(build.cellrep.actions.items()):
            rows = "; ".join(" ".join(map(str, row)) for row in mat)
            lines.append(f"[{nm}] = {rows}")
        if build.shifts is not None:
            shifts = ", ".join(f"{k}={v}" for k, v in sorted(build.shifts.items()))
            lines.append(f"grading shifts:   {shifts}")
        _emit("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.fixture not in fixtures.ALL_FIXTURES:
        raise ParseError("<arg>", 0, f"unknown fixture {args.fixture!r}")
    reports = verify.fixture_reports(args.fixture)
    return _print_reports(reports, args.format)


def cmd_graded_verify(args) -> int:
    if args.fixture not in fixtures.ALGEBRA_FILES or not fixtures.is_graded(args.fixture):
        raise ParseError("<arg>", 0, f"fixture {args.fixture!r} carries no grading")
    return _print_reports([verify.graded_report(args.fixture)], args.format)


def cmd_report_all(args) -> int:
    start = time.monotonic()
    reports = verify.report_all()
    status = _print_reports(reports, args.format)
    elapsed = time.monotonic() - start
    print(f"report-all completed in {elapsed:.2f}s", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiatcells",
        description="verification workbench for cell combinatorics of fiat 2-categories",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="cell structure of a multisemigroup file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("hecke-export", help="multisemigroup of a small Coxeter group")
    p.add_argument("--type", required=True, choices=HECKE_TYPES)
    p.set_defaults(func=cmd_hecke_export)

    p = sub.add_parser("rsk", help="Robinson-Schensted pair or S_n cells")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help="one-line permutation, e.g. '2,1,3'")
    group.add_argument("--n", type=int, help="cells of S_n from the insertion oracle")
    p.set_defaults(func=cmd_rsk)

    p = sub.add_parser("algebra-check", help="validate an algebra and report invariants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input")
    group.add_argument("--fixture", choices=sorted(fixtures.ALGEBRA_FILES))
    p.set_defaults(func=cmd_algebra_check)

    p = sub.add_parser("ccx-build", help="build the 2-category of projective bimodules")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input")
    group.add_argument("--fixture", choices=sorted(fixtures.ALGEBRA_FILES))
    p.set_defaults(func=cmd_ccx_build)

    p = sub.add_parser("verify", help="run the verification suite of a fixture")
    p.add_argument("--fixture", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graded-verify", help="run the graded suite of a fixture")
    p.add_argument("--fixture", required=True)
    p.set_defaults(func=cmd_graded_verify)

    p = sub.add_parser("report-all", help="run every suite over the bundled fixtures")
    p.set_defaults(func=cmd_report_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        mscell.MultiSemigroupError,
        mscell.DataInconsistencyError,
        mscell.CellArgumentError,
        mscell.UnsupportedCellError,
        alg.AlgebraError,
        bimod.BimoduleError,
        graded.GradedError,
        HeckeDataError,
        SizeLimitError,
    ) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:  # anything else is a bug in the program, not in the input
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
