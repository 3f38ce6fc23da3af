from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells import linalg
from fiatcells.linalg import SparseEchelon, Subspace


def unit_vector(n, i):
    return tuple(int(j == i) for j in range(n))


def test_rref_simple():
    rows = [(2, 4, 0), (1, 2, 1)]
    basis = linalg.rref(rows)
    assert basis == [
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_rref_handles_fractions():
    rows = [(Fraction(1, 2), Fraction(1, 3))]
    assert linalg.rref(rows) == [(Fraction(1), Fraction(2, 3))]


def test_nullspace_matches_rank():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    ns = linalg.nullspace(rows, 3)
    assert len(ns) == 1
    for v in ns:
        assert all(linalg.dot(r, v) == 0 for r in rows)


def test_solve_consistent_and_inconsistent():
    rows = [(1, 1), (1, -1)]
    x = linalg.solve(rows, (2, 0))
    assert x == (Fraction(1), Fraction(1))
    rows = [(1, 1), (2, 2)]
    assert linalg.solve(rows, (1, 3)) is None


def test_inverse_roundtrip():
    m = [(1, 2), (3, 5)]
    inv = linalg.inverse(m)
    prod = linalg.mat_mul(m, inv)
    assert prod == [unit_vector(2, i) for i in range(2)]
    assert linalg.inverse([(1, 2), (2, 4)]) is None


def test_solve_and_inverse_read_sparse_rows_as_their_dense_form():
    assert linalg.solve([{0: 2}], (4,)) == linalg.solve([(2,)], (4,)) == (2,)
    assert linalg.inverse([{0: 2}]) == linalg.inverse([(2,)]) == [(Fraction(1, 2),)]
    # a sparse row omits its zero columns, and its rhs column follows the last
    assert linalg.solve([{0: 1, 2: 1}, {1: 3}, {2: 2}], (3, 6, 4)) == (1, 2, 2)
    assert linalg.solve([{0: 1}, {0: 2}], (1, 3)) is None
    assert linalg.inverse([{1: 1}, {0: 1}]) == [(0, 1), (1, 0)]
    assert linalg.inverse([{0: 1, 1: 2}, {0: 2, 1: 4}]) is None


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors([(1, 1, 0), (0, 0, 2)], 3)
    b = Subspace.from_vectors([(3, 3, 2), (0, 0, 1), (2, 2, 2)], 3)
    assert a == b
    assert a.dim == 2
    assert a.contains((5, 5, 7))
    assert not a.contains((1, 0, 0))


def test_subspace_sum_and_intersect():
    a = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
    b = Subspace.from_vectors([(0, 1, 0), (0, 0, 1)], 3)
    assert a.sum(b).dim == 3
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains((0, 1, 0))


def test_subspace_reduce_kills_members():
    a = Subspace.from_vectors([(1, 2, 0)], 3)
    assert a.reduce((2, 4, 0)) == {}
    res = a.reduce((0, 0, 1))
    assert res == {2: Fraction(1)}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_rank_nullity_property(rows):
    rank = linalg.rank(rows, 4)
    ns = linalg.nullspace(rows, 4)
    assert rank + len(ns) == 4
    for v in ns:
        for r in rows:
            assert linalg.dot(r, v) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
)
def test_span_membership_stable(rows, coeffs):
    span = Subspace.from_vectors(rows, 3)
    combo = (0, 0, 0)
    for c, r in zip(coeffs, rows):
        combo = tuple(x + c * y for x, y in zip(combo, r, strict=True))
    assert span.contains(combo)
    again = Subspace.from_vectors(list(rows) + [combo], 3)
    assert span == again


def test_sparse_echelon_incremental():
    ech = SparseEchelon(4)
    assert ech.insert({0: 1, 2: 2})
    assert not ech.insert({0: 2, 2: 4})
    assert ech.insert({1: 1})
    assert ech.dim == 2
    assert ech.contains({0: 3, 1: 0, 2: 6})
    red = ech.reduce({0: 1, 1: 1, 2: 2, 3: 5})
    assert red == {3: Fraction(5)}


def _dense_rref_reference(rows, ncols):
    """Naive dense reduced row echelon form, as an independent oracle."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        lead = mat[pivot_row][col]
        mat[pivot_row] = [x / lead for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return [tuple(row) for row in mat[:pivot_row]]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-7, max_value=7), min_size=5, max_size=5),
        min_size=1,
        max_size=7,
    )
)
def test_sparse_echelon_matches_dense_reference(rows):
    assert linalg.rref(rows, 5) == _dense_rref_reference(rows, 5)


# -- the lazy echelon form: forward-reduced on insert, back-substituted on read

def _primitive_rows(reference):
    """The reference RREF rows as the primitive integer dicts that `rows`
    must hold, keyed by pivot."""
    out = {}
    for row in reference:
        scale = lcm(*(x.denominator for x in row))
        ints = {j: int(x * scale) for j, x in enumerate(row) if x}
        g = gcd(*ints.values())
        out[min(ints)] = {j: x // g for j, x in ints.items()}
    return out


def _residual(reference, v):
    """v minus its projection onto the reference RREF rows' pivot coordinates."""
    cur = [Fraction(x) for x in v]
    for row in reference:
        c = next(j for j, x in enumerate(row) if x)
        f = cur[c]
        cur = [a - f * b for a, b in zip(cur, row)]
    return {j: x for j, x in enumerate(cur) if x}


ECHELON_COLS = 5
entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
echelon_rows = st.lists(entries, min_size=ECHELON_COLS, max_size=ECHELON_COLS)
echelon_ops = st.one_of(
    st.tuples(st.just("insert"), echelon_rows),
    st.tuples(st.just("reduce"), echelon_rows),
    st.tuples(st.just("contains"), echelon_rows),
    # a probe in the span: a combination of the rows inserted so far
    st.tuples(st.just("member"), st.lists(st.integers(-3, 3), min_size=1, max_size=6)),
    st.tuples(st.just("rows"), st.none()),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(echelon_ops, min_size=1, max_size=14), st.booleans())
def test_interleaved_echelon_operations_match_the_dense_reference(ops, sparse):
    ech = SparseEchelon(ECHELON_COLS)
    inserted = []
    reference = []
    for kind, arg in ops:
        if kind == "member":
            probe = [Fraction(0)] * ECHELON_COLS
            for c, row in zip(arg, inserted):
                probe = [p + c * Fraction(x) for p, x in zip(probe, row)]
            kind, arg = "contains", probe
        given_row = {j: x for j, x in enumerate(arg) if x} if sparse and arg else arg
        if kind == "insert":
            inserted.append(arg)
            before = len(reference)
            reference = _dense_rref_reference(inserted, ECHELON_COLS)
            assert ech.insert(given_row) == (len(reference) > before)
            assert ech.dim == len(reference)
            assert sorted(ech._rows) == sorted(_primitive_rows(reference))
        elif kind == "reduce":
            assert ech.reduce(given_row) == _residual(reference, arg)
        elif kind == "contains":
            assert ech.contains(given_row) == (not _residual(reference, arg))
        else:
            assert ech.rows == _primitive_rows(reference)
            assert ech.basis_fraction_rows() == reference
    assert ech.rows == _primitive_rows(reference)
    assert linalg.rank(inserted) == len(reference)


def test_forward_reduction_follows_fill_in_to_later_pivots():
    ech = SparseEchelon(3)
    assert ech.insert({0: 1, 1: 1})
    assert ech.insert({1: 1})
    # the stored row of pivot 0 is not reduced yet, so eliminating column 0
    # from (1, 0, 0) fills in column 1, a pivot column absent at entry
    assert ech.contains({0: 1})
    assert not ech.insert({0: 1})
    assert ech.dim == 2
    assert ech.insert({0: 2, 2: 3})
    assert ech.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


def _dense(row, ncols):
    return tuple(row.get(j, 0) for j in range(ncols))


def _echelons(rows, ncols):
    """Two echelons over the same rows, one given them sparse and one dense."""
    sparse_ech, dense_ech = SparseEchelon(ncols), SparseEchelon(ncols)
    for row in rows:
        assert sparse_ech.insert(row) == dense_ech.insert(_dense(row, ncols))
    return sparse_ech, dense_ech


def test_one_term_rows_answer_as_their_dense_form():
    # a one-term insert at a pivot column is eliminated, and fills in column 2
    sparse_ech, dense_ech = _echelons([{0: 1, 2: 3}], 3)
    assert sparse_ech.insert({0: 5}) == dense_ech.insert((5, 0, 0)) is True
    assert sparse_ech._rows == dense_ech._rows == {0: {0: 1, 2: 3}, 2: {2: 1}}
    assert sparse_ech.rows == dense_ech.rows == {0: {0: 1}, 2: {2: 1}}
    # at a free column it is stored primitive, with an int entry
    sparse_ech, dense_ech = _echelons([{0: 1, 2: 3}], 3)
    for row in ({1: Fraction(-2, 3)}, {2: 0}, {}, {1: 4}):
        assert sparse_ech.insert(row) == dense_ech.insert(_dense(row, 3))
        assert sparse_ech._rows == dense_ech._rows
    assert sparse_ech._rows[1] == {1: 1} and type(sparse_ech._rows[1][1]) is int
    assert sparse_ech.rows == dense_ech.rows == {0: {0: 1, 2: 3}, 1: {1: 1}}
    # contains: at a free column, at a pivot column, and of zero rows
    sparse_ech, dense_ech = _echelons([{0: 1, 2: 3}, {1: 2}], 3)
    for row, want in (({2: 1}, False), ({0: 1}, False), ({1: -7}, True), ({1: 0}, True),
                      ({}, True), ({0: 2, 2: 6}, True)):
        assert sparse_ech.contains(row) == dense_ech.contains(_dense(row, 3)) == want
    assert not SparseEchelon(2).insert({}) and not SparseEchelon(2).insert({1: 0})


def test_sp_apply_of_a_unit_vector_is_a_fresh_copy_of_its_column():
    cols = ({0: 1, 2: Fraction(1, 2)}, {1: -3}, {})
    for q in range(3):
        out = linalg.sp_apply(cols, {q: 1})
        general = linalg.sp_apply(cols, {q: 1, (q + 1) % 3: 0})
        assert out == general == cols[q] and out is not cols[q]
        assert [type(x) for x in out.values()] == [type(x) for x in general.values()]
        out[5] = 1
    assert cols == ({0: 1, 2: Fraction(1, 2)}, {1: -3}, {})


def test_rows_read_out_do_not_change_when_the_span_grows():
    ech = SparseEchelon(3)
    ech.insert({0: 1, 1: 1, 2: 1})
    first = ech.rows[0]
    ech.insert({1: 1})
    assert ech.rows[0] == {0: 1, 2: 1}
    assert first == {0: 1, 1: 1, 2: 1}


def test_rref_and_rank_infer_ncols_from_every_sparse_row():
    assert linalg.rref([{0: 1}, {3: 1}]) == [(1, 0, 0, 0), (0, 0, 0, 1)]
    assert linalg.rank([{0: 1}, {3: 1}]) == 2
    assert linalg.rref([{}, {2: 1}]) == [(0, 0, 1)]
    assert linalg.rank([{}, {2: 1}]) == 1
    assert linalg.rank([{}, {}]) == 0


# -- representation: an int where the value is integral, a Fraction elsewhere

rationals = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(max_denominator=12).filter(lambda q: abs(q) <= 40),
)


def _normalised(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _typed(values):
    return [(type(x), x) for x in values]


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_frac_and_quo_return_ints_where_integral(a, b):
    for x in (a, Fraction(a)):
        assert _normalised(linalg.frac(x))
        assert linalg.frac(x) == x
    if b:
        for x, y in ((a, b), (Fraction(a), b), (a, Fraction(b)), (Fraction(a), Fraction(b))):
            q = linalg.quo(x, y)
            assert _normalised(q)
            assert q == Fraction(a) / Fraction(b)


def test_frac_normalises_other_exact_inputs():
    values = [linalg.frac(True), linalg.frac("6/3"), linalg.frac(Fraction(4, 2))]
    assert _typed(values) == [(int, 1), (int, 2), (int, 2)]
    values = [linalg.quo(7, 2), linalg.quo(-6, 3), linalg.quo(Fraction(1, 2), Fraction(1, 4))]
    assert _typed(values) == [(Fraction, Fraction(7, 2)), (int, -2), (int, 2)]


def _outputs(rows, probe, ncols):
    """Every representation-bearing output of the echelon layer on rows."""
    ech = SparseEchelon(ncols)
    ech.extend(rows)
    stored = [(list(row), _typed(row.values())) for row in ech.rows.values()]
    basis = [_typed(row) for row in ech.basis_fraction_rows()]
    kernel = [_typed(v) for v in linalg.nullspace(rows, ncols)]
    residual = ech.reduce(probe)
    return stored, basis, kernel, (list(residual), _typed(residual.values()))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-7, max_value=7), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=-7, max_value=7), min_size=4, max_size=4),
)
def test_echelon_outputs_do_not_depend_on_the_input_representation(rows, probe):
    from_ints = _outputs(rows, probe, 4)
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    assert _outputs(as_fractions, [Fraction(x) for x in probe], 4) == from_ints
    stored, basis, kernel, (_, residual) = from_ints
    for row in basis + kernel + [residual]:
        assert all(_normalised(x) for _, x in row)
    for _, row in stored:
        assert all(t is int for t, _ in row)


def test_rational_rows_keep_their_fractions():
    rows = [(Fraction(1, 2), Fraction(1, 3), 0), (0, 2, 1)]
    basis = linalg.rref(rows)
    assert all(_normalised(x) for row in basis for x in row)
    assert basis == [(1, 0, Fraction(-1, 3)), (0, 1, Fraction(1, 2))]
    ech = SparseEchelon(3)
    ech.insert((2, 0, 0))
    assert ech.reduce((Fraction(3, 2), Fraction(1, 2), 0)) == {1: Fraction(1, 2)}
    assert _typed(linalg.solve([(2, 0), (0, 4)], (1, 2))) == [(Fraction, Fraction(1, 2))] * 2
    assert _typed(linalg.inverse([(2, 0), (0, 1)])[0]) == [(Fraction, Fraction(1, 2)), (int, 0)]


# -- a subspace keeps the echelon of its rows ------------------------------

subspace_probes = st.one_of(
    st.tuples(st.just("contains"), echelon_rows),
    st.tuples(st.just("reduce"), echelon_rows),
    st.tuples(st.just("contains_subspace"), st.lists(echelon_rows, max_size=3)),
    # a probe in the subspace: a combination of the vectors it was built from
    st.tuples(st.just("member"), st.lists(st.integers(-3, 3), min_size=1, max_size=4)),
)


def _fresh_answer(sub, kind, arg):
    ech = SparseEchelon(sub.ambient)
    ech.extend(sub.rows)
    if kind == "contains":
        return ech.contains(arg)
    if kind == "reduce":
        return ech.reduce(arg)
    return all(ech.contains(r) for r in Subspace.from_vectors(arg, sub.ambient).rows)


def _cached_answer(sub, kind, arg):
    if kind == "contains_subspace":
        return sub.contains_subspace(Subspace.from_vectors(arg, sub.ambient))
    return getattr(sub, kind)(arg)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(echelon_rows, max_size=4), st.lists(subspace_probes, min_size=1, max_size=6))
def test_subspace_answers_from_its_kept_echelon_match_a_fresh_one(vectors, probes):
    sub = Subspace.from_vectors(vectors, ECHELON_COLS)
    rows, key = sub.rows, hash(sub)
    asked = []
    for kind, arg in probes:
        if kind == "member":
            probe = [0] * ECHELON_COLS
            for c, v in zip(arg, vectors):
                probe = [p + c * x for p, x in zip(probe, v)]
            kind, arg = "contains", probe
        answer = _cached_answer(sub, kind, arg)
        assert answer == _fresh_answer(sub, kind, arg)
        asked.append((kind, arg, answer))
        kept = sub._ech
        assert kept is not None
    # reading the kept echelon's rows (reduce does) changes no later answer
    for kind, arg, answer in asked:
        assert _cached_answer(sub, kind, arg) == answer
    assert sub._ech is kept
    assert sub.rows == rows and hash(sub) == key
    assert sub == Subspace.from_vectors(vectors, ECHELON_COLS)


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@settings(max_examples=60, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=5))
def test_a_diagonal_factor_is_read_as_a_scaling(diag):
    n = len(diag)
    d = tuple({q: x} if x else {} for q, x in enumerate(diag))
    assert linalg.sp_diagonal(d) == list(diag)
    off = tuple({**col, (q + 1) % n: 1} for q, col in enumerate(d)) if n > 1 else None
    assert off is None or linalg.sp_diagonal(off) is None


def test_a_subspace_answers_from_the_echelon_it_was_read_off(monkeypatch):
    inserts = []
    insert = SparseEchelon.insert

    def counted(self, row):
        inserts.append(row)
        return insert(self, row)

    monkeypatch.setattr(SparseEchelon, "insert", counted)
    vectors = [(1, 2, 0, 1), (0, 1, 1, 0), (1, 3, 1, 1)]
    sub = Subspace.from_vectors(vectors, 4)
    other = Subspace.full(4)
    del inserts[:]
    answers = (
        sub.contains((1, 1, -1, 1)),
        sub.contains((0, 0, 0, 1)),
        sub.contains_subspace(other),
        other.contains_subspace(sub),
        sub.reduce((0, 0, 0, 1)),
    )
    assert inserts == []
    assert answers == (True, False, False, True, {3: 1})
    # the construction inserts each vector once
    Subspace.from_vectors(vectors, 4)
    assert len(inserts) == len(vectors)


def test_subspace_rows_are_sparse_and_canonical():
    vectors = [(1, 1, 0, 2), (0, 2, 0, 2), (0, 0, 3, 1)]
    sub = Subspace.from_vectors(vectors, 4)
    assert sub.rows == ({0: 1, 3: 1}, {1: 1, 3: 1}, {2: 1, 3: Fraction(1, 3)})
    assert list(sub.rows) == [linalg.sparse(row) for row in linalg.rref(vectors)]
    assert all(type(x) is int for row in sub.rows[:2] for x in row.values())
    assert hash(sub) == hash(Subspace.from_vectors(sub.rows, 4))


def test_sp_apply_returns_ints_where_integral():
    out = linalg.sp_compose(({0: Fraction(1, 2)},), ({0: 2},))
    assert out == ({0: 1},) and type(out[0][0]) is int
    out = linalg.sp_apply(({0: Fraction(1, 3)}, {0: Fraction(2, 3), 1: Fraction(1, 2)}), {0: 1, 1: 1})
    assert out == {0: 1, 1: Fraction(1, 2)}
    assert type(out[0]) is int and type(out[1]) is Fraction


_SCALES = st.sampled_from([-1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])
_VALUES = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


@st.composite
def _column(draw, nrows: int):
    """An empty column, one unit entry, one scaled entry (int or Fraction),
    or several entries, the values normalised as the program keeps them."""
    kinds = ["empty", "unit", "scaled"] + (["several"] if nrows > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return {}
    if kind == "unit":
        return {draw(st.integers(0, nrows - 1)): 1}
    if kind == "scaled":
        return {draw(st.integers(0, nrows - 1)): draw(_SCALES)}
    keys = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=nrows, unique=True))
    return {r: draw(_VALUES) for r in keys}


@st.composite
def _composable(draw):
    """(a, b, n): a column-sparse n x m matrix a and m x k matrix b."""
    n, m, k = (draw(st.integers(1, 5)) for _ in range(3))
    a = tuple(draw(_column(n)) for _ in range(m))
    b = tuple(draw(_column(m)) for _ in range(k))
    return a, b, n


def _dense_columns(cols, nrows):
    return [tuple(col.get(r, 0) for r in range(nrows)) for col in cols]


def _typed_columns(cols):
    return [sorted((r, type(x), x) for r, x in col.items()) for col in cols]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_composable(), st.data())
def test_sp_compose_is_sp_apply_per_column_and_the_dense_product(factors, data):
    a, b, n = factors
    kept = ([dict(col) for col in a], [dict(col) for col in b])
    out = linalg.sp_compose(a, b)
    assert type(out) is tuple
    per_column = tuple(linalg.sp_apply(a, col) for col in b)
    assert _typed_columns(out) == _typed_columns(per_column)
    # the dense product, entry for entry and in type
    rows_a = list(zip(*_dense_columns(a, n)))
    dense = list(zip(*linalg.mat_mul(rows_a, list(zip(*_dense_columns(b, len(a)))))))
    assert _typed_columns(out) == _typed_columns(
        [{r: x for r, x in enumerate(col) if x} for col in dense]
    )
    # sp_eq agrees with column-by-column ==, on a copy and on another matrix
    other = data.draw(_composable())[0]
    for x, y in ((a, tuple(dict(col) for col in a)), (a, list(a)), (a, other), (out, per_column)):
        if len(x) == len(y):
            assert linalg.sp_eq(x, y) == all(p == q for p, q in zip(x, y))
        else:
            with pytest.raises(ValueError):
                linalg.sp_eq(x, y)
    with pytest.raises(ValueError):
        linalg.sp_eq(a, a + ({},))
    # every column is a fresh dict: writing to it leaves both factors as they were
    for col in out:
        assert all(col is not x for x in a + b)
        col[n + 7] = 1
    assert (list(a), list(b)) == kept


# -- the quotient classes of a relation system ------------------------------


_COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))
# c and -k.c give p = k.q: an integer weight out of Fractions, some integral
_FRACTIONAL = (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(1), Fraction(-2))


@st.composite
def _relation_systems(draw):
    """(rows, ncols): one-term rows (kills, some beside a stored zero),
    two-term rows (merges with rational weights, and merges of fractional
    or integral Fraction coefficients whose weight is an integer), rows of
    three to five terms, cycles of two-term rows whose closing weight may
    disagree with the path around, and chains of merges whose first member
    is killed after them, in a drawn order."""
    n = draw(st.integers(1, 8))
    coef = st.sampled_from(_COEFFS)

    def distinct(lo, hi):
        return draw(st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi, unique=True))

    rows = []
    kinds = ("kill", "kill beside a zero", "merge", "integral merge", "longer", "cycle",
             "chain then kill")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "kill":
            rows.append({draw(st.integers(0, n - 1)): draw(coef)})
        elif kind == "kill beside a zero" and n > 1:
            p, q = distinct(2, 2)
            rows.append({p: draw(coef), q: 0})
        elif kind == "merge" and n > 1:
            p, q = distinct(2, 2)
            rows.append({p: draw(coef), q: draw(coef)})
        elif kind == "integral merge" and n > 1:
            p, q = distinct(2, 2)
            c = draw(st.sampled_from(_FRACTIONAL))
            rows.append({p: c, q: -c * draw(st.sampled_from((1, -1, 2, -3)))})
        elif kind == "longer" and n > 2:
            rows.append({j: draw(coef) for j in distinct(3, 5)})
        elif kind in ("cycle", "chain then kill") and n > 1:
            members = distinct(2, 5)
            rows += [{p: 1, q: draw(coef)} for p, q in zip(members, members[1:])]
            if kind == "cycle":
                rows.append({members[-1]: 1, members[0]: draw(coef)})
            else:
                rows.append({members[0]: draw(coef)})
    return rows, n


def _classes_by_elimination(rows, ncols):
    """(free, classes) of the reduced echelon over every row, each class as
    a dict {position in free: coefficient}."""
    ech = SparseEchelon(ncols)
    ech.extend(rows)
    free = [k for k in range(ncols) if k not in ech.rows]
    pos = {k: i for i, k in enumerate(free)}
    classes = []
    for k in range(ncols):
        row = ech.rows.get(k)
        if row is None:
            classes.append({pos[k]: 1})
        else:
            classes.append({pos[j]: linalg.quo(-v, row[k]) for j, v in row.items() if j != k})
    return free, classes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_relation_systems())
def test_quotient_classes_match_the_echelon_over_every_row(system):
    rows, ncols = system
    free, classes = linalg.quotient_classes(rows, ncols)
    assert (free, [dict(c) for c in classes]) == _classes_by_elimination(rows, ncols)
    ech = SparseEchelon(ncols)
    ech.extend(rows)
    assert linalg.rank(rows, ncols) == ech.dim
    for cls in classes:
        assert len(dict(cls)) == len(cls)
        assert all(type(x) is int or x.denominator > 1 for _, x in cls)
    # the weights the union-find holds are exact rationals of the package's
    # one form too: an int wherever the weight is integral
    roots = linalg._union_find(rows, ncols)[0]
    assert all(type(w) is int or w.denominator > 1 for _, w in roots)


def test_quotient_classes_of_cycles_and_late_kills():
    # p = q, q = r, r = -p: the cycle kills p, q and r; s = 2t stays
    free, classes = linalg.quotient_classes(
        [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 1}, {3: 1, 4: -2}], 5
    )
    assert free == [4] and classes == [(), (), (), ((0, 2),), ((0, 1),)]
    # a kill after the merges reaches the whole component
    free, classes = linalg.quotient_classes([{0: 2, 1: 1}, {1: 1, 2: 3}, {0: 5}], 3)
    assert free == [] and classes == [(), (), ()]
    # a longer row is rewritten over the roots: 0 = 2 and 1 = 2 give 3.2 = 0
    free, classes = linalg.quotient_classes([{0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}, {1: 1, 2: -1}], 3)
    assert free == [] and classes == [(), (), ()]


# -- the kernel read off the classes ------------------------------------------


def _nullspace_by_elimination(rows, ncols):
    """The canonical kernel basis by elimination over every row, the
    reference for `nullspace`: for each free column of the reduced echelon,
    1 there and minus its entry over the pivot entry at each pivot."""
    ech = SparseEchelon(ncols)
    ech.extend(rows)
    pivot_rows = {c: ech.rows[c] for c in ech.rows}
    pivots = set(pivot_rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for c, row in pivot_rows.items():
            val = row.get(f)
            if val:
                v[c] = linalg.quo(-val, row[c])
        basis.append(tuple(v))
    return basis


@st.composite
def _dense_systems(draw):
    """(rows, ncols): dense rows of rationals, zeros frequent, so that rows
    of every length occur, integral Fractions among the entries."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), rationals)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6)), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_relation_systems(), _dense_systems()))
def test_nullspace_is_the_elimination_basis_value_types_included(system):
    rows, ncols = system
    got = [_typed(v) for v in linalg.nullspace(rows, ncols)]
    assert got == [_typed(v) for v in _nullspace_by_elimination(rows, ncols)]


def test_a_kernel_of_one_and_two_term_rows_makes_no_echelon_insert(monkeypatch):
    inserts = []
    insert = SparseEchelon.insert

    def counted(self, row):
        inserts.append(row)
        return insert(self, row)

    monkeypatch.setattr(SparseEchelon, "insert", counted)
    # x0 = x1 = -x2/2, x3 = 0, and x4/2 + 3 x5 = 0 against x5 = 6 x4 kills both
    rows = [{0: 1, 1: -1}, {1: 2, 2: 1}, {3: 1}, {4: Fraction(1, 2), 5: 3}, {5: 1, 4: -6}]
    basis = linalg.nullspace(rows, 7)
    assert inserts == []
    half = Fraction(-1, 2)
    assert basis == [(half, half, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]
    assert basis == _nullspace_by_elimination(rows, 7)
