from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells.laurent import LaurentPoly


def lp(d):
    return LaurentPoly(d)


def test_basic_arithmetic():
    p = lp({0: 1, 2: 1})
    q = lp({-1: 1, 1: 1})
    assert p + q == lp({-1: 1, 0: 1, 1: 1, 2: 1})
    assert p * q == lp({-1: 1, 1: 2, 3: 1})
    assert p - p == LaurentPoly.zero()
    assert not LaurentPoly.zero()


def test_zero_coefficients_dropped():
    assert lp({3: 0, 1: 2}).coeffs == {1: 2}
    assert lp({1: 1}) - lp({1: 1}) == 0


def test_evaluate_and_degree():
    p = lp({-2: 3, 4: 1})
    assert p(1) == 4
    assert p.degree == 4
    assert p.valuation == -2
    assert p.bar() == lp({2: 3, -4: 1})


def test_evaluation_is_exact_at_negative_exponents():
    p = lp({-1: 1, 2: 3})
    assert p(2) == Fraction(25, 2) and type(p(2)) is Fraction
    assert p(-1) == 2 and type(p(-1)) is int
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p(1) == 4
    assert LaurentPoly.zero()(2) == 0


def test_a_constant_hashes_like_its_int():
    assert LaurentPoly.one() == 1 and hash(LaurentPoly.one()) == hash(1)
    assert {1, LaurentPoly.one()} == {1}
    assert len({0, LaurentPoly.zero(), lp({0: -3}), -3}) == 2
    table = {2: "two"}
    assert table[lp({0: 2})] == "two"
    table[LaurentPoly.zero()] = "zero"
    assert table[0] == "zero" and len(table) == 2
    # a non-constant polynomial is no int and keeps its own hash
    assert lp({1: 1}) != 1 and len({lp({1: 1}), lp({1: 1}), 1}) == 2


def test_divide_exact():
    chi = lp({0: 1, 2: 1})
    assert chi.divide_exact(chi) == LaurentPoly.one()
    prod = chi * lp({-1: 2, 0: 1})
    assert prod.divide_exact(chi) == lp({-1: 2, 0: 1})
    assert lp({0: 1, 1: 1}).divide_exact(lp({0: 2})) is None  # 1/2 not integral
    assert lp({2: 1}).divide_exact(lp({0: 1, 1: 1})) is None  # remainder


def test_format_ascending():
    assert lp({2: 1, 0: 1}).format("t") == "1 + t^2"
    assert lp({-1: -2, 1: 1}).format("v") == "-2*v^-1 + v"
    assert LaurentPoly.zero().format() == "0"


coeffs = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    pa, pb, pc = lp(a), lp(b), lp(c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@settings(max_examples=80, deadline=None)
@given(coeffs, coeffs)
def test_exact_division_roundtrip(a, b):
    pa, pb = lp(a), lp(b)
    if not pb:
        return
    assert (pa * pb).divide_exact(pb) == pa
