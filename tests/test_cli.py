import json
from pathlib import Path

import pytest

from fiatcells import bimod, cli, verify
from fiatcells.fixtures import ALGEBRA_FILES, fixture_text
from fiatcells.report import CellReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hecke_export_roundtrip_through_cells(capsys, tmp_path):
    code, out, _ = run(capsys, "hecke-export", "--type", "B2")
    assert code == 0
    msg = tmp_path / "b2.msg"
    msg.write_text(out)
    code, out, _ = run(capsys, "cells", "--input", str(msg))
    assert code == 0
    assert "{s, st, sts, t, ts, tst}" in out
    assert "{s, st, sts}" in out


def test_cells_json(capsys, tmp_path):
    msg = tmp_path / "demo.msg"
    msg.write_text(fixture_text("demo.msg"))
    code, out, _ = run(capsys, "--format", "json", "cells", "--input", str(msg))
    assert code == 0
    data = json.loads(out)
    assert data["two_sided_cells"] == [["e"], ["g"]]


def test_cells_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "empty.msg"
    bad.write_text("")
    code, _, err = run(capsys, "cells", "--input", str(bad))
    assert code == 2
    assert "missing objects" in err


def test_cells_corrupted_table_exit_code(capsys, tmp_path):
    # corrupt the exported s3 table symmetrically: star laws still hold but
    # associativity breaks
    code, out, _ = run(capsys, "hecke-export", "--type", "A2")
    assert code == 0
    corrupted = out.replace("1 o 2 = 21", "1 o 2 = 2*21", 1).replace(
        "2 o 1 = 12", "2 o 1 = 2*12", 1
    )
    assert corrupted != out
    msg = tmp_path / "s3.msg"
    msg.write_text(corrupted)
    code, _, err = run(capsys, "cells", "--input", str(msg))
    assert code == 2
    assert "s3.msg" in err and "associativity" in err


def test_rsk_perm_and_cells(capsys):
    code, out, _ = run(capsys, "rsk", "--perm", "2,1,3")
    assert code == 0
    assert "1 3" in out and "2" in out
    code, out, _ = run(capsys, "--format", "json", "rsk", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert sorted(len(c) for c in data["two_sided_cells"]) == [1, 1, 4]
    code, out, _ = run(capsys, "--format", "json", "rsk", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert (len(data["two_sided_cells"]), len(data["left_cells"])) == (7, 26)
    code, _, err = run(capsys, "rsk", "--perm", "2,2,1")
    assert code == 2
    code, _, err = run(capsys, "rsk", "--n", "7")
    assert code == 2 and "input error" in err


def test_algebra_check_fixture_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "algebra-check", "--fixture", "x3local")
    assert code == 0
    assert "projective_center_dim=2" in out
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra broken\nbasis x\nunit = x\n")
    code, _, err = run(capsys, "algebra-check", "--input", str(bad))
    assert code == 2


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_algebra_check_of_every_fixture_matches_its_golden(capsys, fmt, suffix):
    # golden stdout of `algebra-check --fixture NAME` over the bundled
    # algebras in sorted order, from before the invariants were shared with
    # the fixture report; compared byte for byte
    out = []
    for name in sorted(ALGEBRA_FILES):
        code, text, _ = run(capsys, "--format", fmt, "algebra-check", "--fixture", name)
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / f"algebra_check.{suffix}"
    assert "".join(out).encode() == golden.read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_algebra_check_of_the_path_algebras_matches_its_golden(capsys, fmt, suffix):
    # golden stdout of `algebra-check --input FILE` over the path algebra of
    # A2, which is not self-injective, in its idempotent basis and in one its
    # idempotents do not split; compared byte for byte
    data = Path(__file__).parent / "data"
    out = []
    for name in ("pathA2", "pathA2_unsplit"):
        path = str(data / f"{name}.alg")
        code, text, _ = run(capsys, "--format", fmt, "algebra-check", "--input", path)
        assert code == 0
        out.append(text)
    golden = data / f"algebra_check_paths.{suffix}"
    assert "".join(out).encode() == golden.read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_ccx_build_of_every_fixture_matches_its_golden(capsys, fmt, suffix):
    # golden stdout of `ccx-build --fixture NAME` over the bundled algebras
    # in sorted order, compared byte for byte
    out = []
    for name in sorted(ALGEBRA_FILES):
        code, text, _ = run(capsys, "--format", fmt, "ccx-build", "--fixture", name)
        assert code == 0
        out.append(text)
    golden = Path(__file__).parent / "data" / f"ccx_build.{suffix}"
    assert "".join(out).encode() == golden.read_bytes()


def test_algebra_check_invalid_algebra_fails_verification(capsys, tmp_path):
    text = """
algebra nonassoc
basis 1 x x2
unit = 1
idempotent 1
1*1 = 1
1*x = x
x*1 = x
1*x2 = x2
x2*1 = x2
x*x = x2
x*x2 = 1
"""
    path = tmp_path / "nonassoc.alg"
    path.write_text(text)
    code, out, _ = run(capsys, "algebra-check", "--input", str(path))
    assert code == 1
    assert "associativity fails" in out


def test_ccx_build_fixture(capsys):
    code, out, _ = run(capsys, "ccx-build", "--fixture", "dualnumbers")
    assert code == 0
    assert "F11_11 o F11_11 = 2*F11_11" in out
    code, out, _ = run(capsys, "--format", "json", "ccx-build", "--fixture", "zigzagA2")
    data = json.loads(out)
    assert data["multisemigroup"]["F11_12 o F11_21"] == {"F11_11": 2}
    assert data["left_cell"] == ["F11_11", "F11_21"]


def test_ccx_build_from_file_with_x_generators(capsys, tmp_path):
    alg_text = fixture_text("x3local.alg")
    (tmp_path / "x3local.alg").write_text(alg_text)
    (tmp_path / "custom.ccx").write_text(
        "ccx custom\nalgebra x3local.alg\nx 1 = 1 + x2\n"
    )
    code, out, _ = run(capsys, "ccx-build", "--input", str(tmp_path / "custom.ccx"))
    assert code == 0
    # X = span{1, x2} is accepted (it contains the projective center)
    assert "F11_11 o F11_11 = 3*F11_11" in out


def test_verify_fixture_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "b2")
    assert code == 0
    assert "predicted negative" in out
    code, _, err = run(capsys, "verify", "--fixture", "nonsense")
    assert code == 2


def test_verify_skewext_reports_nonsurjective_but_passes(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "skewext")
    assert code == 0
    assert "surjective=false" in out


def test_graded_verify(capsys):
    code, out, _ = run(capsys, "graded-verify", "--fixture", "dualnumbers")
    assert code == 0
    assert "dual_shift_identity" in out
    code, _, err = run(capsys, "graded-verify", "--fixture", "x3local")
    assert code == 2


def test_json_report_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--fixture", "dualnumbers")
    assert code == 0
    data = json.loads(out)
    for rep_dict in data["reports"]:
        rep = CellReport.from_json(json.dumps(rep_dict))
        assert rep.to_dict() == rep_dict
    anchors = {
        r["anchor"] for rep in data["reports"] for r in rep["records"]
    }
    assert "plumbing" in anchors
    assert any(a != "plumbing" for a in anchors)


def test_every_record_carries_anchor(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--fixture", "zigzagA2-graded")
    assert code == 0
    data = json.loads(out)
    for rep in data["reports"]:
        for record in rep["records"]:
            assert record["anchor"]


def test_ccx_build_graded_file_with_shifts(capsys, tmp_path):
    (tmp_path / "dualnumbers.alg").write_text(fixture_text("dualnumbers.alg"))
    (tmp_path / "graded.ccx").write_text(
        "ccx gradeddemo\nalgebra dualnumbers.alg\nshift F11_11 = 1\n"
    )
    code, out, _ = run(capsys, "ccx-build", "--input", str(tmp_path / "graded.ccx"))
    assert code == 0
    assert "grading shifts:   F11_11=1, I1=0" in out
    # shifts on an ungraded algebra are an input error
    (tmp_path / "zig.alg").write_text(fixture_text("zigzagA2.alg"))
    (tmp_path / "bad.ccx").write_text("ccx bad\nalgebra zig.alg\nshift F11_11 = 1\n")
    code, _, err = run(capsys, "ccx-build", "--input", str(tmp_path / "bad.ccx"))
    assert code == 2
    assert "gradings" in err


def test_internal_key_error_exits_3(capsys, monkeypatch):
    def broken_suite():
        raise KeyError("lost table entry")

    monkeypatch.setattr(verify, "b2_report", broken_suite)
    code, out, err = run(capsys, "verify", "--fixture", "b2")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "KeyError: 'lost table entry'" in err
    assert "input error" not in err


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # a bare ValueError is a bug, not one of the named verification failures
    def broken_suite():
        raise ValueError("bad index arithmetic")

    monkeypatch.setattr(verify, "b2_report", broken_suite)
    code, out, err = run(capsys, "verify", "--fixture", "b2")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "ValueError: bad index arithmetic" in err
    assert "verification error" not in err


def test_a_base_with_no_read_off_side_is_an_internal_error(capsys, monkeypatch):
    # every bimodule a build hands out is projective or regular, so an
    # isomorphism test with neither side read off is a bug in the program
    bimodule = bimod.CcxBuild.bimodule

    def forgetful(build, name):
        B = bimodule(build, name)
        return bimod.Bimodule(
            B.left_algebra, B.right_algebra, B.dim, B.left_gens, B.right_gens,
            name=name, check=False,
        )

    monkeypatch.setattr(bimod.CcxBuild, "bimodule", forgetful)
    code, out, err = run(capsys, "verify", "--fixture", "rationals")
    assert code == 3
    assert out == ""
    assert "internal error: ValueError" in err
    assert "vs Bimodule(F11_11, dim=1): neither is projective or regular" in err


def test_zero_denominator_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "zero.alg"
    bad.write_text("algebra zero\nbasis 1 x\nunit = 1\nidempotent 1\nx*x = 2/0*x\n")
    code, out, err = run(capsys, "algebra-check", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert f"input error: {bad}:5: zero denominator" in err
    assert "Traceback" not in err


def test_ccx_x_line_out_of_range_is_an_input_error(capsys, tmp_path):
    (tmp_path / "x3local.alg").write_text(fixture_text("x3local.alg"))
    for obj in (3, 0):
        ccx = tmp_path / f"x{obj}.ccx"
        ccx.write_text(f"ccx bad\nalgebra x3local.alg\nx {obj} = 1\n")
        code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
        assert code == 2, obj
        assert out == ""
        assert f"{ccx}:3: x line names object {obj}" in err


def test_ccx_unknown_shift_is_an_input_error(capsys, tmp_path):
    (tmp_path / "dualnumbers.alg").write_text(fixture_text("dualnumbers.alg"))
    ccx = tmp_path / "graded.ccx"
    ccx.write_text("ccx bad\nalgebra dualnumbers.alg\nshift F11_1 = 5\n")
    code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
    assert code == 2
    assert out == ""
    assert "input error" in err and "F11_1" in err
    assert f"{ccx}:3:" in err


def test_ccx_x_expression_error_names_its_line(capsys, tmp_path):
    (tmp_path / "dualnumbers.alg").write_text(fixture_text("dualnumbers.alg"))
    ccx = tmp_path / "zero.ccx"
    ccx.write_text("ccx bad\nalgebra dualnumbers.alg\nx 1 = 1/0\n")
    code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
    assert code == 2
    assert out == ""
    assert f"input error: {ccx}:3: zero denominator" in err


def test_ccx_repeated_lines_are_input_errors(capsys, tmp_path):
    (tmp_path / "dualnumbers.alg").write_text(fixture_text("dualnumbers.alg"))
    cases = {
        "shift": "shift F11_11 = 1\n# a comment\nshift F11_11 = 3\n",
        "x": "x = 1 ; x\n\nx 1 = 1\n",
    }
    for kind, body in cases.items():
        ccx = tmp_path / f"{kind}.ccx"
        ccx.write_text("ccx bad\nalgebra dualnumbers.alg\n" + body)
        code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
        assert code == 2, kind
        assert out == ""
        assert f"input error: {ccx}:5: repeated {kind}" in err
        assert "first at line 3" in err


def test_ccx_identity_shift_is_an_input_error(capsys, tmp_path):
    (tmp_path / "dualnumbers.alg").write_text(fixture_text("dualnumbers.alg"))
    ccx = tmp_path / "graded.ccx"
    ccx.write_text("ccx bad\nalgebra dualnumbers.alg\nshift I1 = 1\n")
    code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
    assert code == 2
    assert out == ""
    assert "input error" in err and "identity morphisms must have shift 0: I1" in err
    assert "verification error" not in err
    assert f"{ccx}:3:" in err


def test_ccx_shift_without_gradings_names_the_first_shift_line(capsys, tmp_path):
    (tmp_path / "rationals.alg").write_text(fixture_text("rationals.alg"))
    ccx = tmp_path / "ungraded.ccx"
    ccx.write_text("ccx bad\nalgebra rationals.alg\n\nshift F11_11 = 1\nshift I1 = 0\n")
    code, out, err = run(capsys, "ccx-build", "--input", str(ccx))
    assert code == 2
    assert out == ""
    assert f"input error: {ccx}:4: shift lines need gradings on every algebra" in err


def test_cells_refuses_repeated_msg_lines(capsys, tmp_path):
    head = fixture_text("demo.msg")
    cases = {
        "product g o g": ("g o g = 3*g", 12),
        "star for g": ("star g = g", 8),
    }
    for what, (line, first) in cases.items():
        msg = tmp_path / "repeated.msg"
        msg.write_text(head + line + "\n")
        code, out, err = run(capsys, "cells", "--input", str(msg))
        assert code == 2, what
        assert out == ""
        assert f"input error: {msg}:13: repeated {what} (first at line {first})" in err


def test_cells_reports_a_star_failure_at_its_star_line(capsys, tmp_path):
    msg = tmp_path / "star.msg"
    msg.write_text(fixture_text("demo.msg") + "star q = g\n")
    code, out, err = run(capsys, "cells", "--input", str(msg))
    assert code == 2
    assert out == ""
    assert f"input error: {msg}:13: star is not involutive at 'q'" in err


def test_cells_reports_a_morphism_failure_at_its_morphism_or_object_line(capsys, tmp_path):
    head = "multisemigroup u\nobject i\nmorphism e : i -> i identity\n"
    two_objects = head.replace("object i\n", "object i\nobject j\n")
    one_identity = "must have exactly one identity endomorphism"
    cases = [
        (head + "morphism g : i -> j\n", 4, "morphism 'g' uses unknown object"),
        # the second identity on i
        (head + "morphism g : i -> i\nmorphism f : i -> i identity\n", 5,
         f"object 'i' {one_identity}"),
        # j has no identity: its object line
        (two_objects, 3, f"object 'j' {one_identity}"),
        # the identity of j is no endomorphism
        (two_objects + "morphism f : j -> i identity\n", 5, f"object 'j' {one_identity}"),
        # g has no star line, so its star is g itself, set by its morphism line
        (two_objects + "morphism f : j -> j identity\nmorphism g : i -> j\n", 6,
         "star of 'g' must swap source and target"),
    ]
    msg = tmp_path / "u.msg"
    for text, line, message in cases:
        msg.write_text(text)
        code, out, err = run(capsys, "cells", "--input", str(msg))
        assert code == 2, message
        assert out == ""
        assert f"input error: {msg}:{line}: {message}" in err, err


NON_ASSOCIATIVE_MSG = """\
multisemigroup n
object i
morphism e : i -> i identity
morphism g : i -> i
morphism h : i -> i
e o e = e
e o g = g
g o e = g
e o h = h
h o e = h
g o g = h
h o h = g
"""


def test_cells_reports_a_table_failure_at_the_product_line_of_its_pair(capsys, tmp_path):
    msg = tmp_path / "n.msg"
    cases = {
        # (g o g) o h = h o h = g, but g o (g o h) = 0: the pair (g, g)
        "associativity fails at triple ('g', 'g', 'h')": (NON_ASSOCIATIVE_MSG, 11),
        # the neutrality witness (e, g) has its own line ...
        "identity 'e' is not left-neutral on 'g'": (
            NON_ASSOCIATIVE_MSG.replace("e o g = g", "e o g = 2*g"), 7
        ),
        # ... and (e, h), an unlisted product, has none
        "identity 'e' is not left-neutral on 'h'": (
            NON_ASSOCIATIVE_MSG.replace("e o h = h\n", ""), 0
        ),
        "star is not an anti-map on the table at ('g', 'h')": (
            NON_ASSOCIATIVE_MSG.replace("h o h = g", "h o h = g\ng o h = g"), 13
        ),
    }
    for message, (text, line) in cases.items():
        msg.write_text(text)
        code, out, err = run(capsys, "cells", "--input", str(msg))
        assert code == 2, message
        assert out == ""
        assert f"input error: {msg}:{line}: {message}" in err, err
