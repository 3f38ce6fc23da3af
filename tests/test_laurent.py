from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells.laurent import LaurentPoly


def lp(d):
    return LaurentPoly(d)


def times(p, q):
    """The product of two Laurent polynomials, convolved over their
    coefficient dicts (LaurentPoly itself has no ring arithmetic)."""
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return lp(out)


def test_zero_coefficients_dropped():
    assert lp({3: 0, 1: 2}).coeffs == {1: 2}
    assert lp({1: 0, 0: 0}) == 0 and not lp({1: 0})


def test_evaluate_and_degree():
    p = lp({-2: 3, 4: 1})
    assert p(1) == 4
    assert p.degree == 4
    assert p.valuation == -2


def test_evaluation_is_exact_at_negative_exponents():
    p = lp({-1: 1, 2: 3})
    assert p(2) == Fraction(25, 2) and type(p(2)) is Fraction
    assert p(-1) == 2 and type(p(-1)) is int
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p(1) == 4
    assert LaurentPoly()(2) == 0


def test_a_constant_hashes_like_its_int():
    one = lp({0: 1})
    assert one == 1 and hash(one) == hash(1)
    assert {1, one} == {1}
    assert len({0, LaurentPoly(), lp({0: -3}), -3}) == 2
    table = {2: "two"}
    assert table[lp({0: 2})] == "two"
    table[LaurentPoly()] = "zero"
    assert table[0] == "zero" and len(table) == 2
    # a non-constant polynomial is no int and keeps its own hash
    assert lp({1: 1}) != 1 and len({lp({1: 1}), lp({1: 1}), 1}) == 2


def test_divide_exact():
    chi = lp({0: 1, 2: 1})
    assert chi.divide_exact(chi) == 1
    prod = times(chi, lp({-1: 2, 0: 1}))
    assert prod == lp({-1: 2, 0: 1, 1: 2, 2: 1})
    assert prod.divide_exact(chi) == lp({-1: 2, 0: 1})
    assert lp({0: 1, 1: 1}).divide_exact(lp({0: 2})) is None  # 1/2 not integral
    assert lp({2: 1}).divide_exact(lp({0: 1, 1: 1})) is None  # remainder


def test_format_ascending():
    assert lp({2: 1, 0: 1}).format("t") == "1 + t^2"
    assert lp({-1: -2, 1: 1}).format("v") == "-2*v^-1 + v"
    assert LaurentPoly().format() == "0"


coeffs = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(coeffs, coeffs)
def test_exact_division_roundtrip(a, b):
    pa, pb = lp(a), lp(b)
    if not pb:
        return
    assert times(pa, pb).divide_exact(pb) == pa
