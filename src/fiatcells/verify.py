"""Fixture-level verification suites.

Each suite reproduces concrete cell tables, dimension counts, or graded
invariants of the bundled fixtures and reports one record per checked fact.
Predicted negatives (the B2 strong-regularity failure, the skew-exterior
center-surjectivity failure) are marked so they read as confirmations of
counterexamples, not regressions.
"""

from __future__ import annotations

from . import algebra as alg
from . import bimod, fixtures, graded, mscell
from .hecke import rsk_cells
from .report import CellReport, CheckRecord

B2_TWO_SIDED = (("e",), ("s", "st", "sts", "t", "ts", "tst"), ("stst",))
B2_LEFT = (("e",), ("s", "st", "sts"), ("stst",), ("t", "ts", "tst"))
B2_INTERSECTIONS = {
    ("L1", "L1*"): ("s", "sts"),
    ("L2", "L1*"): ("ts",),
    ("L1", "L2*"): ("st",),
    ("L2", "L2*"): ("t", "tst"),
}


CONVENTIONS = CheckRecord(
    name="conventions",
    anchor="plumbing",
    values={
        "canonical_basis": "positive specialization (b_s = T_s + v*T_e, values in N at v=1)",
        "left_cells": "Kazhdan-Lusztig right cells (swap applied at export)",
    },
    passed=True,
)


def b2_report() -> CellReport:
    report = CellReport("b2: dihedral cell table")
    report.records.append(CONVENTIONS)
    ms = fixtures.hecke_multisemigroup("b2")
    struct = mscell.cells(ms)
    report.records.append(
        CheckRecord(
            name="two_sided_cells",
            anchor="b2-cell-table",
            values={"cells": [list(c) for c in struct.two_sided_cells]},
            passed=struct.two_sided_cells == B2_TWO_SIDED,
        )
    )
    report.records.append(
        CheckRecord(
            name="left_cells",
            anchor="b2-cell-table",
            values={"cells": [list(c) for c in struct.left_cells]},
            passed=struct.left_cells == B2_LEFT,
        )
    )
    l1, l2 = ("s", "st", "sts"), ("t", "ts", "tst")
    starred = {
        "L1*": tuple(sorted(ms.star[f] for f in l1)),
        "L2*": tuple(sorted(ms.star[f] for f in l2)),
    }
    for (lname, rname), expected in sorted(B2_INTERSECTIONS.items()):
        left = l1 if lname == "L1" else l2
        inter = tuple(sorted(set(left) & set(starred[rname])))
        report.records.append(
            CheckRecord(
                name=f"intersection[{lname},{rname}]",
                anchor="b2-cell-table",
                values={"computed": list(inter), "expected": list(expected)},
                passed=inter == expected,
            )
        )
    mid = struct.two_sided_cell_of("s")
    report.records.append(
        CheckRecord(
            name="middle_cell_regular",
            anchor="cell-regularity",
            values={"regular": mscell.is_regular(ms, mid)},
            passed=mscell.is_regular(ms, mid),
        )
    )
    strongly = mscell.is_strongly_regular(ms, mid)
    report.records.append(
        CheckRecord(
            name="middle_cell_strong_regularity_fails",
            anchor="b2-strong-regularity-counterexample",
            values={"strongly_regular": strongly},
            passed=not strongly,
            negative=True,
        )
    )
    # s and sts share both their left and right cell, so at the cell-data
    # level they have equal annihilator supports: every composite keeps them
    # together.  Only this combinatorial precondition of the extra
    # endomorphism is checked; no functorial conclusion is asserted.
    same_left = struct.left_cell_of("s") == struct.left_cell_of("sts")
    same_right = struct.right_cell_of("s") == struct.right_cell_of("sts")
    report.records.append(
        CheckRecord(
            name="equal_annihilator_support[s,sts]",
            anchor="b2-extra-endomorphism-precondition",
            values={"same_left_cell": same_left, "same_right_cell": same_right},
            passed=same_left and same_right,
        )
    )
    return report


def type_a_report(ns=(2, 3, 4)) -> CellReport:
    report = CellReport("type A: canonical-basis cells against the insertion oracle")
    report.records.append(CONVENTIONS)
    for n in ns:
        ms = fixtures.hecke_multisemigroup(f"s{n}")
        struct = mscell.cells(ms)
        oracle = rsk_cells(n)
        for kind in ("left_cells", "right_cells", "two_sided_cells"):
            computed = getattr(struct, kind)
            expected = getattr(oracle, kind)
            report.records.append(
                CheckRecord(
                    name=f"s{n}.{kind}_match_oracle",
                    anchor="typeA-cells-insertion-oracle",
                    values={"computed": [list(c) for c in computed]},
                    passed=computed == expected,
                )
            )
        for cell in struct.two_sided_cells:
            strongly = mscell.is_strongly_regular(ms, cell)
            constant = strongly and mscell.duflo_multiplicity_constant_on_right_cells(
                ms, cell
            )
            report.records.append(
                CheckRecord(
                    name=f"s{n}.cell{list(cell)}",
                    anchor="typeA-strong-regularity",
                    values={
                        "strongly_regular": strongly,
                        "multiplicity_constant_on_right_cells": constant,
                    },
                    passed=strongly and constant,
                )
            )
    return report


def validation_record(A: alg.FinDimAlgebra) -> CheckRecord:
    """The record of alg.validate on A: passed with result "ok", or failed
    with the validation error's message."""
    try:
        alg.validate(A)
    except alg.AlgebraValidationError as exc:
        return CheckRecord("validate", "plumbing", {"result": str(exc)}, False)
    return CheckRecord("validate", "plumbing", {"result": "ok"}, True)


def algebra_invariants(A: alg.FinDimAlgebra) -> dict:
    """The invariants of a validated algebra that the fixture report and
    `algebra-check` both give, by record name."""
    rad = alg.radical(A)
    return {
        "dim": A.dim,
        "radical_dim": rad.dim,
        "center_dim": alg.center(A).dim,
        "projective_center_dim": bimod.projective_center(A).dim,
        "loewy_length": alg.loewy_length(A, rad),
        "socle_dim": alg.socle(A, rad=rad).dim,
        "weakly_symmetric": alg.is_weakly_symmetric(A),
        "connected": alg.is_connected(A),
    }


# (record name, key in fixtures.EXPECTED, anchor) of algebra_report, in order
_INVARIANT_CHECKS = (
    ("dim", "dim", "plumbing"),
    ("radical_dim", "radical_dim", "radical-structure"),
    ("center_dim", "center_dim", "center-dimension"),
    ("projective_center_dim", "projective_center_dim", "projective-center"),
    ("loewy_length", "loewy", "loewy-length"),
    ("bimodule_loewy_length", "bimodule_loewy", "tensor-square-loewy-length"),
    ("socle_dim", "socle_dim", "socle"),
    ("weakly_symmetric", "weakly_symmetric", "weakly-symmetric"),
    ("connected", "connected", "connectedness"),
)


def algebra_report(name: str) -> CellReport:
    report = CellReport(f"{name}: algebra invariants")
    A = fixtures.load_algebra(name).algebra
    expected = fixtures.EXPECTED[name]
    report.records.append(validation_record(A))
    if not report.records[0].passed:
        return report
    computed = algebra_invariants(A)
    computed["bimodule_loewy_length"] = bimod.loewy_length(bimod.proj_bimodule(A, 0, A, 0))
    for check_name, key, anchor in _INVARIANT_CHECKS:
        report.records.append(
            CheckRecord(
                name=check_name,
                anchor=anchor,
                values={"computed": computed[check_name], "expected": expected[key]},
                passed=computed[check_name] == expected[key],
            )
        )
    if name == "x3local":
        # the projective center is exactly the span of 1 and x^2
        basis = [A.describe(v) for v in bimod.projective_center(A)]
        report.records.append(
            CheckRecord(
                name="projective_center_span",
                anchor="projective-center",
                values={"basis": basis},
                passed=basis == ["1", "x2"],
            )
        )
    return report


def ccx_report(name: str) -> CellReport:
    report = CellReport(f"{name}: 2-category construction and dimension identities")
    expected = fixtures.EXPECTED[name]
    build = fixtures.ccx_build(name)
    ms = build.ms
    struct = mscell.cells(ms)
    report.records.append(
        CheckRecord(
            name="identity_products_clean",
            anchor="identity-composition-discipline",
            values={"clean": mscell.identity_products_clean(ms)},
            passed=mscell.identity_products_clean(ms),
        )
    )
    report.records.append(
        CheckRecord(
            name="two_sided_cell_count",
            anchor="two-cell-structure",
            values={"computed": len(struct.two_sided_cells), "expected": 2},
            passed=len(struct.two_sided_cells) == 2,
        )
    )
    for cell in struct.two_sided_cells:
        strongly = mscell.is_strongly_regular(ms, cell)
        report.records.append(
            CheckRecord(
                name=f"strongly_regular{list(cell)}",
                anchor="construction-strong-regularity",
                values={"strongly_regular": strongly},
                passed=strongly,
            )
        )
        constant = mscell.duflo_multiplicity_constant_on_right_cells(ms, cell)
        report.records.append(
            CheckRecord(
                name=f"multiplicity_constant{list(cell)}",
                anchor="multiplicity-constant-on-right-cells",
                values={"constant": constant},
                passed=constant,
            )
        )
    middle = [
        c for c in struct.two_sided_cells if not ms.morphisms[c[0]].is_identity
    ]
    if middle:
        lefts = [c for c in struct.left_cells if set(c) <= set(middle[0])]
        report.records.append(
            CheckRecord(
                name="left_cells_in_construction_cell",
                anchor="two-cell-structure",
                values={
                    "computed": len(lefts),
                    "expected": expected["left_cells_in_middle"],
                },
                passed=len(lefts) == expected["left_cells_in_middle"],
            )
        )
    g_name = mscell.duflo(ms, build.cellrep.left_cell)
    m_val = mscell.duflo_multiplicity(ms, g_name)
    report.records.append(
        CheckRecord(
            name=f"duflo_multiplicity[{g_name}]",
            anchor="duflo-multiplicity",
            values={
                "computed": m_val,
                "expected": expected["m_duflo"],
                "reading": "Duflo involution of the morphism's own left cell",
            },
            passed=m_val == expected["m_duflo"],
        )
    )
    report.extend(bimod.verify_closed_form_composition(build))
    report.extend(bimod.verify_dimension_identities(build))
    report.extend(bimod.verify_duflo_hom_dimension(build))
    report.extend(
        bimod.verify_center_surjectivity(
            build, expect_surjective=expected["center_surjective"]
        )
    )
    report.extend(bimod.verify_center_separation(build))
    report.extend(bimod.verify_commutant(build))
    return report


def graded_report(name: str) -> CellReport:
    report = CellReport(f"{name}: graded invariants")
    expected = fixtures.EXPECTED[name]
    build = fixtures.graded_ccx_build(name)
    shifts = {k: v for k, v in sorted(build.shifts.items()) if v}
    report.records.append(
        CheckRecord(
            name="default_shifts",
            anchor="representative-shift-rule",
            values={"computed": shifts, "expected": expected["shifts"]},
            passed=shifts == expected["shifts"],
        )
    )
    positivity = graded.positivity_check(build)
    report.extend(positivity)
    a_val = graded.min_hom_degree_to_identity(build)
    l_val = graded.top_corner_degree(build)
    report.records.append(
        CheckRecord(
            name="graded_invariants",
            anchor="graded-hom-invariants",
            values={
                "min_hom_degree": a_val,
                "expected_min_hom_degree": expected["min_hom_degree"],
                "top_corner_degree": l_val,
                "expected_top_corner_degree": expected["top_corner_degree"],
                "dual_shift": l_val - 2 * a_val,
            },
            passed=(
                a_val == expected["min_hom_degree"]
                and l_val == expected["top_corner_degree"]
            ),
        )
    )
    report.extend(graded.verify_dual_shift_identity(build))
    report.extend(graded.verify_hilbert_transfer(build))
    # ungrading consistency: hom series evaluated at 1 matches ungraded dims
    g_name = mscell.duflo(build.ms, build.cellrep.left_cell)
    _, gi, _, gs, _ = build.info(g_name)
    g_bim = build.bimodule(g_name)
    ident = build.bimodule(f"I{gi + 1}")
    series = graded.graded_hom_series(g_bim, ident)
    ungraded = bimod.hom_dim(g_bim, ident)
    chi = build.gradings[gi].corner_hilbert(gs)
    m_val = mscell.duflo_multiplicity(build.ms, g_name)
    report.records.append(
        CheckRecord(
            name="ungrading_consistency",
            anchor="graded-vs-ungraded-dimensions",
            values={
                "series": series.format("t"),
                "series_at_one": series(1),
                "ungraded_dim": ungraded,
                "chi_at_one": chi(1),
                "duflo_multiplicity": m_val,
            },
            passed=series(1) == ungraded and chi(1) == m_val,
        )
    )
    return report


def fixture_reports(name: str) -> list:
    """All suites that apply to a fixture name."""
    if name == "b2":
        return [b2_report()]
    if name in fixtures.HECKE_FIXTURES:
        return [type_a_report((int(name[1:]),))]
    reports = [algebra_report(name), ccx_report(name)]
    if fixtures.is_graded(name):
        reports.append(graded_report(name))
    return reports


def report_all(seed: int = 0) -> list:
    """Every acceptance-level suite over the bundled fixtures.  seed is
    accepted and ignored, for callers that still pass one."""
    reports = [b2_report(), type_a_report()]
    for name in fixtures.PROPERTY_FIXTURES:
        reports.append(algebra_report(name))
        reports.append(ccx_report(name))
    for name in fixtures.GRADED_FIXTURES:
        reports.append(graded_report(name))
    return reports
