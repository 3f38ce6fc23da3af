from fractions import Fraction

import pytest

from fiatcells import formats, mscell
from fiatcells.fixtures import fixture_text, hecke_multisemigroup
from fiatcells.formats import ParseError


def test_parse_algebra_fixture():
    spec = formats.parse_algebra(fixture_text("zigzagA2.alg"), "zigzagA2.alg")
    assert spec.name == "zigzagA2"
    assert spec.algebra.dim == 6
    assert spec.degrees is None
    A = spec.algebra
    assert A.mul(A.element("b"), A.element("a")) == A.element("w1")


def test_parse_algebra_with_degrees_and_rationals():
    text = """
algebra halfdemo
basis 1 x
unit = 1
idempotent 1
1*1 = 1
1*x = x
x*1 = x
x*x = 1/2*x
deg x = 0
"""
    spec = formats.parse_algebra(text, "demo")
    assert spec.degrees == (0, 0)
    A = spec.algebra
    assert A.mul(A.element("x"), A.element("x")) == (Fraction(0), Fraction(1, 2))


def test_parse_algebra_errors_carry_line_numbers():
    text = "algebra a\nbasis x y\nunit = x\nidempotent x\nx*z = y\n"
    with pytest.raises(ParseError) as err:
        formats.parse_algebra(text, "bad.alg")
    assert "bad.alg:5" in str(err.value)
    with pytest.raises(ParseError, match="duplicate basis"):
        formats.parse_algebra("algebra a\nbasis x x\n", "dup.alg")
    with pytest.raises(ParseError, match="missing unit"):
        formats.parse_algebra("algebra a\nbasis x\nidempotent x\n", "nounit.alg")


def test_a_label_starting_with_unit_is_a_product_not_the_unit_line():
    text = "algebra u\nbasis e unitx\nunit = e\nidempotent e\ne*e = e\nunitx*e = unitx\n"
    A = formats.parse_algebra(text, "u.alg").algebra
    assert A.unit == {0: 1}
    assert A.mul(A.element("unitx"), A.element("e")) == A.element("unitx")
    assert A.mult[1][0] == {1: 1}


def test_parse_algebra_refuses_repeated_unit_and_degree_lines():
    head = "algebra r\nbasis 1 x\nidempotent 1\n"
    cases = {
        "unit line": "unit = 1\nx*x = 0\n# a comment\nunit = 1\n",
        "deg line for x": "deg x = 2\nunit = 1\n\ndeg x = 2\n",
        "product x\\*x": "x*x = 0\nunit = 1\n\nx*x = x\n",
    }
    for what, body in cases.items():
        with pytest.raises(ParseError, match=f"r.alg:7: repeated {what} \\(first at line 4\\)"):
            formats.parse_algebra(head + body, "r.alg")
    # a second basis line would relabel what was read under the first
    text = "basis e x\nunit = e\nidempotent e\nx*x = x\nbasis e y\n"
    with pytest.raises(ParseError, match=r"r.alg:5: repeated basis line \(first at line 1\)"):
        formats.parse_algebra(text, "r.alg")
    # one deg line for each of two labels is no repeat
    spec = formats.parse_algebra(head + "unit = 1\ndeg 1 = 0\ndeg x = 2\n", "r.alg")
    assert spec.degrees == (0, 2)


def test_parse_combination_signs():
    labels = ["1", "x", "y"]
    combo = formats.parse_combination("2*x - y + 1", labels, "p", 1)
    assert combo == [Fraction(1), Fraction(2), Fraction(-1)]
    combo = formats.parse_combination("-x", labels, "p", 1)
    assert combo == [Fraction(0), Fraction(-1), Fraction(0)]
    with pytest.raises(ParseError):
        formats.parse_combination("x ++ y", labels, "p", 1)
    with pytest.raises(ParseError, match="unknown basis label"):
        formats.parse_combination("z", labels, "p", 1)


def test_multisemigroup_roundtrip():
    ms = hecke_multisemigroup("b2")
    text = formats.render_multisemigroup(ms, name="b2")
    back = formats.parse_multisemigroup(text, "b2.msg")
    assert back.names == ms.names
    assert back.table == ms.table
    assert back.star == ms.star
    assert mscell.cells(back).two_sided_cells == mscell.cells(ms).two_sided_cells


def test_parse_multisemigroup_demo():
    ms = formats.parse_multisemigroup(fixture_text("demo.msg"), "demo.msg")
    assert ms.compose("g", "g") == {"g": 2}


def test_parse_multisemigroup_errors():
    with pytest.raises(ParseError, match="missing objects"):
        formats.parse_multisemigroup("", "empty.msg")
    bad = """
multisemigroup broken
object i
morphism e : i -> i identity
morphism g : i -> i
e o e = e
e o g = g
g o e = g
g o g = e
"""
    # identity appearing without neutrality elsewhere is fine (Z/2 pattern), but
    # a non-associative table is rejected with the witnessing triple
    nonassoc = bad.replace("g o g = e", "g o g = g + h").replace(
        "morphism g : i -> i", "morphism g : i -> i\nmorphism h : i -> i\nstar h = h"
    )
    nonassoc += "g o h = g\nh o g = g\nh o h = g\ne o h = h\nh o e = h\n"
    with pytest.raises(ParseError, match="associativity"):
        formats.parse_multisemigroup(nonassoc, "nonassoc.msg")
    with pytest.raises(ParseError, match="unknown morphism"):
        formats.parse_multisemigroup(
            "multisemigroup x\nobject i\nmorphism e : i -> i identity\nq o e = e\n",
            "unknown.msg",
        )


def test_parse_multisemigroup_refuses_repeated_lines():
    head = "multisemigroup d\nobject i\nmorphism e : i -> i identity\nmorphism g : i -> i\n"
    cases = {
        "product g o g": "g o g = 3*g\n# a comment\ng o g = 2*g\n",
        "star for g": "star g = g\n\nstar g = g\n",
        "morphism h": "morphism h : i -> i\n# a comment\nmorphism h : i -> i\n",
    }
    for what, body in cases.items():
        with pytest.raises(ParseError, match=f"d.msg:7: repeated {what} \\(first at line 5\\)"):
            formats.parse_multisemigroup(head + body, "d.msg")


def test_parse_ccx():
    spec = formats.parse_ccx(fixture_text("skewext.ccx"), "skewext.ccx")
    assert spec.name == "skewext"
    assert spec.algebra_paths == ["skewext.alg"]
    rich = """
ccx demo
algebra one.alg
algebra two.alg
x 1 = 1 ; xy
x 2 = e1 + e2
shift F11_11 = 1
"""
    spec = formats.parse_ccx(rich, "demo.ccx")
    assert spec.x_generators == {0: ["1", "xy"], 1: ["e1 + e2"]}
    assert spec.shifts == {"F11_11": 1}
    with pytest.raises(ParseError, match="at least one algebra"):
        formats.parse_ccx("ccx empty\n", "empty.ccx")


def test_load_ccx_file_missing_reference(tmp_path):
    src = tmp_path / "broken.ccx"
    src.write_text("ccx broken\nalgebra nowhere.alg\n")
    with pytest.raises(ParseError, match="not found"):
        formats.load_ccx_file(src)
