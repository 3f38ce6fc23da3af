import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells import algebra as alg
from fiatcells import bimod, linalg
from fiatcells.fixtures import ALGEBRA_FILES, fixture_text, load_algebra
from fiatcells.formats import parse_algebra


def fixture(name):
    return load_algebra(name).algebra


def product(A, u, v):
    """u.v of sparse elements, formed as the package forms it: L_u applied to v."""
    return linalg.sp_apply(A.left_mult_matrix(u), v)


# dense reference arithmetic, independent of the package's sparse form


def dense(A, v):
    """The dense coordinates of a sparse element of A."""
    return tuple(v.get(i, 0) for i in range(A.dim))


def unit_vector(n, i):
    return tuple(int(j == i) for j in range(n))


def combination(coeffs, vectors, n):
    """sum c * v of dense vectors of length n, exactly."""
    total = [0] * n
    for c, v in zip(coeffs, vectors):
        total = [t + c * x for t, x in zip(total, v, strict=True)]
    return tuple(total)


def make_algebra(names, table, unit, idempotents, name):
    d = len(names)
    M = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (x, y), combo in table.items():
        for z, c in combo.items():
            M[names.index(x)][names.index(y)][names.index(z)] = Fraction(c)
    return alg.FinDimAlgebra(names, M, unit, idempotents, name=name)


def preprojective_style():
    # two vertices, arrows a: 1->2, b: 2->1, relations ab = ba = 0
    names = ["e1", "e2", "a", "b"]
    table = {
        ("e1", "e1"): {"e1": 1},
        ("e2", "e2"): {"e2": 1},
        ("e2", "a"): {"a": 1},
        ("a", "e1"): {"a": 1},
        ("e1", "b"): {"b": 1},
        ("b", "e2"): {"b": 1},
    }
    return make_algebra(names, table, [1, 1, 0, 0], [[1, 0, 0, 0], [0, 1, 0, 0]], "prepro")


def q_times_q():
    names = ["e1", "e2"]
    table = {("e1", "e1"): {"e1": 1}, ("e2", "e2"): {"e2": 1}}
    return make_algebra(names, table, [1, 1], [[1, 0], [0, 1]], "QxQ")


def test_fixtures_validate():
    for name in ("rationals", "dualnumbers", "x3local", "x4local", "skewext", "zigzagA2"):
        alg.validate(fixture(name))


def non_associative():
    # x * x2 = 1 in the x3 shape forces an associativity violation
    names = ["1", "x", "x2"]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "x"): {"x": 1},
        ("x", "1"): {"x": 1},
        ("1", "x2"): {"x2": 1},
        ("x2", "1"): {"x2": 1},
        ("x", "x"): {"x2": 1},
        ("x", "x2"): {"1": 1},
    }
    return make_algebra(names, table, [1, 0, 0], [[1, 0, 0]], "bad")


def test_associativity_witness():
    with pytest.raises(alg.AlgebraValidationError, match="associativity fails at"):
        alg.validate(non_associative())


def test_a_failed_unit_law_keeps_the_witnesses_with_a_unit_factor():
    # k[x]/(x^3) with 1.x = x2: (1.x).x = 0 but 1.(x.x) = x2
    names = ["1", "x", "x2"]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "x"): {"x2": 1},
        ("x", "1"): {"x": 1},
        ("1", "x2"): {"x2": 1},
        ("x2", "1"): {"x2": 1},
        ("x", "x"): {"x2": 1},
    }
    bad = make_algebra(names, table, [1, 0, 0], [[1, 0, 0]], "bad-unit")
    with pytest.raises(alg.AlgebraValidationError) as err:
        alg.validate(bad)
    assert "unit law fails on x" in err.value.problems
    assert "associativity fails at (1, x, x)" in err.value.problems


def test_radical_values():
    assert alg.radical(fixture("rationals")).dim == 0
    x3 = fixture("x3local")
    rad = alg.radical(x3)
    assert rad.dim == 2
    assert rad.contains(x3.element("x")) and rad.contains(x3.element("x2"))
    assert alg.radical(fixture("skewext")).dim == 3
    # computed once per algebra
    assert alg.radical(x3) is rad


def test_center_values():
    x3 = fixture("x3local")
    assert alg.center(x3).dim == 3  # commutative
    skew = fixture("skewext")
    centre = alg.center(skew)
    assert centre.dim == 2
    assert centre.contains(skew.unit) and centre.contains(skew.element("xy"))
    assert alg.center(fixture("zigzagA2")).dim == 3


def test_center_is_subalgebra():
    for name in ("skewext", "zigzagA2"):
        A = fixture(name)
        centre = alg.center(A)
        assert centre.contains(A.unit)
        for u in centre:
            for v in centre:
                assert centre.contains(product(A, u, v))


def test_loewy_socle_top():
    x3 = fixture("x3local")
    assert alg.loewy_length(x3) == 3
    assert alg.socle(x3).dim == 1
    assert alg.top(x3).dim == 1
    assert alg.loewy_length(fixture("rationals")) == 1
    zig = fixture("zigzagA2")
    assert alg.loewy_length(zig) == 3
    assert alg.socle(zig).dim == 2


def test_weakly_symmetric():
    assert alg.is_weakly_symmetric(fixture("x3local"))
    assert alg.is_weakly_symmetric(fixture("skewext"))
    assert alg.is_weakly_symmetric(fixture("zigzagA2"))
    assert not alg.is_weakly_symmetric(preprojective_style())


def test_weakly_symmetric_row_column_dims():
    for name in ("skewext", "zigzagA2", "x4local"):
        A = fixture(name)
        d = A.dim
        for s, e in enumerate(A.idempotents):
            left = alg.left_ideal(A, s)
            right = linalg.Subspace.from_vectors([product(A, e, {k: 1}) for k in range(d)], d)
            assert left.dim == right.dim


def test_connected():
    assert alg.is_connected(fixture("x3local"))
    assert alg.is_connected(fixture("zigzagA2"))
    assert not alg.is_connected(q_times_q())


def reference_is_connected(algebra):
    """Connectedness of the quiver itself: the graph on idempotents with
    edges where e_i (rad/rad^2) e_j or e_j (rad/rad^2) e_i is nonzero."""
    n = len(algebra.idempotents)
    rad = [dense(algebra, r) for r in alg.radical(algebra)]
    rad2 = linalg.Subspace.from_vectors(
        [algebra.mul(u, v) for u in rad for v in rad], algebra.dim
    )

    def arrow_count(i, j):
        ei, ej = (dense(algebra, algebra.idempotents[k]) for k in (i, j))
        full = linalg.Subspace.from_vectors(
            [algebra.mul(ei, algebra.mul(r, ej)) for r in rad], algebra.dim
        )
        inside = linalg.Subspace.from_vectors(
            [algebra.mul(ei, algebra.mul(r, ej)) for r in rad2], algebra.dim
        )
        return full.dim - inside.dim

    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and (arrow_count(i, j) or arrow_count(j, i)):
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def shuffled_basis(text, seed):
    """The same algebra text with its basis line in a seeded random order."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("basis "))
    names = lines[k].split()[1:]
    random.Random(seed).shuffle(names)
    lines[k] = "basis " + " ".join(names)
    return "\n".join(lines) + "\n"


def dual_numbers_squared():
    """k[x]/(x^2) x k[y]/(y^2): two local blocks, each with a radical."""
    names = ["e1", "e2", "x", "y"]
    table = {
        ("e1", "e1"): {"e1": 1}, ("e1", "x"): {"x": 1}, ("x", "e1"): {"x": 1},
        ("e2", "e2"): {"e2": 1}, ("e2", "y"): {"y": 1}, ("y", "e2"): {"y": 1},
    }
    return make_algebra(names, table, [1, 1, 0, 0], [[1, 0, 0, 0], [0, 1, 0, 0]], "D2xD2")


CONNECTED_CASES = {
    **{name: lambda path=path: parse_algebra(fixture_text(path)).algebra
       for name, path in ALGEBRA_FILES.items()},
    **{f"zigzagA{m}-seed{seed}": lambda m=m, seed=seed: parse_algebra(
        shuffled_basis(zigzag_text(m), seed)).algebra
       for m in (2, 3, 4, 5) for seed in (0, 3, 7)},
    **{f"x{n}": lambda n=n: parse_algebra(truncated_poly_text(n)).algebra for n in range(1, 6)},
    "QxQ": q_times_q,
    "D2xD2": dual_numbers_squared,
}


@pytest.mark.parametrize("name", sorted(CONNECTED_CASES))
def test_connectedness_from_corners_matches_the_quiver(name):
    A = CONNECTED_CASES[name]()
    alg.validate(A)
    assert alg.is_connected(A) == reference_is_connected(A)
    if name in ("QxQ", "D2xD2"):
        assert not alg.is_connected(A)
    if name == "D2xD2":
        assert alg.radical(A).dim == 2


def test_basicness_check_rejects_matrix_algebra():
    # 2x2 matrices: corners are local but the two projectives coincide
    names = ["e11", "e12", "e21", "e22"]
    table = {
        ("e11", "e11"): {"e11": 1},
        ("e11", "e12"): {"e12": 1},
        ("e12", "e21"): {"e11": 1},
        ("e12", "e22"): {"e12": 1},
        ("e21", "e11"): {"e21": 1},
        ("e21", "e12"): {"e22": 1},
        ("e22", "e21"): {"e21": 1},
        ("e22", "e22"): {"e22": 1},
    }
    m2 = make_algebra(
        names, table, [1, 0, 0, 1], [[1, 0, 0, 0], [0, 0, 0, 1]], "mat2"
    )
    with pytest.raises(alg.AlgebraValidationError, match="not basic"):
        alg.validate(m2)


def test_nonsplit_rejected():
    names = ["1", "i"]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "i"): {"i": 1},
        ("i", "1"): {"i": 1},
        ("i", "i"): {"1": -1},
    }
    gauss = make_algebra(names, table, [1, 0], [[1, 0]], "Qi")
    with pytest.raises(alg.AlgebraValidationError, match="residue field"):
        alg.validate(gauss)


def test_bad_idempotents_rejected():
    names = ["1", "x"]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "x"): {"x": 1},
        ("x", "1"): {"x": 1},
    }
    bad = make_algebra(names, table, [1, 0], [[1, 1]], "badidem")
    with pytest.raises(alg.AlgebraValidationError):
        alg.validate(bad)


def test_misshapen_structure_constants_rejected():
    # a product vector longer than the basis
    with pytest.raises(alg.AlgebraError, match="coordinates"):
        alg.FinDimAlgebra(["a"], [[(1, 1)]], (1,), [(1,)])
    # a unit longer than the basis
    with pytest.raises(alg.AlgebraError, match="coordinates"):
        alg.FinDimAlgebra(["a"], [[(1,)]], (1, 0), [(1,)])
    with pytest.raises(alg.AlgebraError, match="coordinates"):
        alg.FinDimAlgebra(["a"], [[(1,)]], (1,), [()])
    with pytest.raises(alg.AlgebraError, match="1 x 1 table"):
        alg.FinDimAlgebra(["a"], [[(1,), (1,)]], (1,), [(1,)])
    with pytest.raises(alg.AlgebraError, match="2 x 2 table"):
        alg.FinDimAlgebra(["a", "b"], [[(1, 0), (0, 1)]], (1, 0), [(1, 0)])


def test_structure_constants_are_the_left_multiplication_matrices():
    A = fixture("dualnumbers")
    one, x = {0: 1}, {1: 1}
    for i, b in enumerate((one, x)):
        assert A.mult[i] == A.left_mult_matrix(b)
        assert all(isinstance(col, dict) and all(col.values()) for col in A.mult[i])
    assert A.left_mult_matrix(x) == ({1: 1}, {})
    assert A.right_mult_matrix(x) == ({1: 1}, {})


def test_corner_dims_zigzag():
    zig = fixture("zigzagA2")
    dims = [[alg.corner_dim(zig, i, j) for j in range(2)] for i in range(2)]
    assert dims == [[2, 1], [1, 2]]


def test_radical_is_maximal_nilpotent():
    for name in ("x4local", "skewext", "zigzagA2"):
        A = fixture(name)
        rad = alg.radical(A)
        # every element of the radical is nilpotent of order <= dim
        for r in rad:
            power = r
            for _ in range(A.dim):
                power = product(A, power, r)
            assert power == {}
        # the quotient has zero radical: radical of A/rad recomputed is trivial
        quot = alg._quotient_algebra(A, rad)
        if quot.dim:
            assert not linalg.nullspace(alg._trace_gram(quot), quot.dim)


def test_subalgebra_closure():
    skew = fixture("skewext")
    sub = alg.subalgebra_closure(skew, [skew.element("x")])
    # 1, x generate 1, x only (x^2 = 0)
    assert sub.dim == 2
    sub2 = alg.subalgebra_closure(skew, [skew.element("x"), skew.element("y")])
    assert sub2.dim == 4


def test_algebra_generators():
    zig = fixture("zigzagA2")
    gens = alg.algebra_generators(zig)
    labels = {zig.describe(g) for g in gens}
    assert labels == {"e1", "e2", "a", "b"}
    assert alg.subalgebra_closure(zig, gens).dim == 6
    # each call returns a new list: a caller's edits do not reach the next one
    kept = list(gens)
    gens.pop()
    gens[0] = zig.unit
    assert alg.algebra_generators(zig) == kept


# -- path words for the basis ---------------------------------------------------


def truncated_poly_text(n):
    """`.alg` text of k[x]/(x^n) on the basis 1, x1, ..., x(n-1)."""
    names = ["1"] + [f"x{k}" for k in range(1, n)]
    lines = [f"algebra x{n}", "basis " + " ".join(names), "unit = 1", "idempotent 1"]
    lines += [f"{names[i]}*{names[j]} = {names[i + j]}" for i in range(n) for j in range(n - i)]
    return "\n".join(lines) + "\n"


def zigzag_text(m):
    """`.alg` text of the zigzag algebra of the path A_m: arrows a_i: i -> i+1
    and b_i: i+1 -> i, loops w_i = b_i a_i = a_(i-1) b_(i-1), paths of length
    three zero; the loops are listed first, so no basis element is a
    generator's coordinate vector by position."""
    es = [f"e{i}" for i in range(1, m + 1)]
    names = [f"w{i}" for i in range(1, m + 1)] + es
    names += [f"a{i}" for i in range(1, m)] + [f"b{i}" for i in range(1, m)]
    lines = [f"algebra zigzagA{m}", "basis " + " ".join(names), "unit = " + " + ".join(es)]
    lines += [f"idempotent {e}" for e in es]
    lines += [f"{e}*{e} = {e}" for e in es]
    for i in range(1, m):
        src, tgt = f"e{i}", f"e{i + 1}"
        lines += [f"{tgt}*a{i} = a{i}", f"a{i}*{src} = a{i}"]
        lines += [f"{src}*b{i} = b{i}", f"b{i}*{tgt} = b{i}"]
        lines += [f"b{i}*a{i} = w{i}", f"a{i}*b{i} = w{i + 1}"]
    for i in range(1, m + 1):
        lines += [f"e{i}*w{i} = w{i}", f"w{i}*e{i} = w{i}"]
    return "\n".join(lines) + "\n"


WORD_CASES = {
    **{name: fixture_text(path) for name, path in ALGEBRA_FILES.items()},
    **{f"x{n}": truncated_poly_text(n) for n in range(1, 7)},
    **{f"zigzagA{m}-text": zigzag_text(m) for m in (2, 3)},
}


@pytest.mark.parametrize("name", sorted(WORD_CASES))
def test_every_basis_element_is_rebuilt_from_its_word_recipe(name):
    A = parse_algebra(WORD_CASES[name]).algebra
    words, recipe = alg.basis_words(A)
    gens = alg.algebra_generators(A)
    # rebuilt by dense products, independently of check_basis_words
    gens = [dense(A, gen) for gen in gens]
    values = []
    for k, (g, w) in enumerate(words):
        assert w is None or w < k  # a generator times a shorter word
        values.append(gens[g] if w is None else A.mul(gens[g], values[w]))
    assert len(recipe) == A.dim
    for i, terms in enumerate(recipe):
        total = combination([c for _, c in terms], [values[k] for k, _ in terms], A.dim)
        assert total == unit_vector(A.dim, i), A.basis[i]
    assert alg.basis_words(A) is alg.basis_words(A)  # kept per algebra


@pytest.mark.parametrize("name", sorted(WORD_CASES))
def test_a_recipe_with_one_coefficient_changed_is_refused(name):
    A = parse_algebra(WORD_CASES[name]).algebra
    words, recipe = alg.basis_words(A)
    for i, terms in enumerate(recipe):
        for t, (k, c) in enumerate(terms):
            changed = list(recipe)
            changed[i] = terms[:t] + ((k, c + 1),) + terms[t + 1:]
            with pytest.raises(alg.AlgebraError, match=f"{A.basis[i]} is not rebuilt"):
                alg.check_basis_words(A, words, tuple(changed))


def test_skewext_rebuilds_xy_as_minus_the_word_y_x():
    # in k<x,y>/(x^2, y^2, xy + yx) the breadth-first words reach xy as y.x
    A = fixture("skewext")
    words, recipe = alg.basis_words(A)
    gens = alg.algebra_generators(A)
    (k, c), = recipe[A.basis.index("xy")]
    g, w = words[k]
    assert (A.describe(gens[g]), A.describe(gens[words[w][0]]), c) == ("y", "x", -1)


# -- what is kept on an algebra ---------------------------------------------


def _counting(monkeypatch, name):
    """Patch linalg.<name> to count its calls; returns the list of calls."""
    calls = []
    original = getattr(linalg, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def _parsed(name):
    """A fresh parse of a bundled fixture: an algebra nothing has asked yet."""
    return parse_algebra(fixture_text(ALGEBRA_FILES[name]), ALGEBRA_FILES[name]).algebra


def test_a_second_center_is_the_kept_subspace_and_solves_nothing(monkeypatch):
    A = _parsed("zigzagA2")
    solves = _counting(monkeypatch, "nullspace")
    first = alg.center(A)
    assert len(solves) == 1
    assert alg.center(A) is first
    assert len(solves) == 1


def test_a_validation_that_raised_raises_again_and_is_redone(monkeypatch):
    bad = non_associative()
    composes = _counting(monkeypatch, "sp_compose")
    work = []
    for _ in range(2):
        with pytest.raises(alg.AlgebraValidationError, match="associativity fails at"):
            alg.validate(bad)
        work.append(len(composes))
    for _ in range(2):
        with pytest.raises(bimod.BimoduleError, match="bad: associativity fails at"):
            bimod.build_ccx(bimod.CcxData(algebras=(bad,)))
        work.append(len(composes))
    # each of the four validations composes as many matrices as the first
    assert work[0] > 0 and work == [work[0] * k for k in (1, 2, 3, 4)]


def test_validate_composes_no_pair_with_the_unit(monkeypatch):
    # k[x]/(x^4): of the 16 pairs (b_i, b_j), the 7 with a factor 1
    # associate by the unit law, which is checked first
    A = _parsed("x4local")
    composes = _counting(monkeypatch, "sp_compose")
    alg.validate(A)
    index = {id(m): i for i, m in enumerate(A.mult)}
    pairs = [(index[id(a)], index[id(b)]) for a, b in composes if id(a) in index and id(b) in index]
    assert len(pairs) == 9
    assert sorted(pairs) == [(i, j) for i in range(1, 4) for j in range(1, 4)]


def _radical_builds(monkeypatch):
    """Patch alg.kept to record the algebra of every radical it computes,
    a miss in the store, not a read."""
    built = []
    original = alg.kept

    def counted(algebra, key, build):
        def recorded():
            built.append(algebra)
            return build()

        return original(algebra, key, recorded if key == ("radical",) else build)

    monkeypatch.setattr(alg, "kept", counted)
    return built


@pytest.mark.parametrize("name", ["zigzagA2", "x4local"])
def test_validation_computes_one_radical_and_builds_no_corner_algebra(name, monkeypatch):
    A = _parsed(name)
    radicals = _radical_builds(monkeypatch)
    corners = []
    corner_algebra = alg.corner_algebra

    def spy(*args):
        corners.append(args)
        return corner_algebra(*args)

    monkeypatch.setattr(alg, "corner_algebra", spy)
    alg.validate(A)
    assert radicals == [A]
    assert corners == []


def test_a_corner_that_is_not_local_is_refused_with_its_dimensions():
    # upper triangular 2 x 2 matrices with the unit as the only idempotent:
    # the corner is the whole algebra, of dimension 3 over a radical of 1
    names = ["e11", "e12", "e22"]
    table = {
        ("e11", "e11"): {"e11": 1},
        ("e11", "e12"): {"e12": 1},
        ("e12", "e22"): {"e12": 1},
        ("e22", "e22"): {"e22": 1},
    }
    tri = make_algebra(names, table, [1, 0, 1], [[1, 0, 1]], "tri")
    with pytest.raises(alg.AlgebraValidationError) as raised:
        alg.validate(tri)
    assert raised.value.problems[0] == (
        "corner 1 is not local with residue field Q (dim 3, radical dim 1)"
    )


def test_equal_algebras_parsed_separately_each_do_their_own_work(monkeypatch):
    A, B = _parsed("zigzagA2"), _parsed("zigzagA2")
    solves = _counting(monkeypatch, "nullspace")
    centre = alg.center(A)
    assert len(solves) == 1
    other = alg.center(B)
    assert len(solves) == 2
    assert other == centre and other is not centre
    assert alg.corner_subspace(B, 0, 1) is not alg.corner_subspace(A, 0, 1)
    assert alg.arrow_pieces(B) == alg.arrow_pieces(A)


def test_arrow_pieces_are_the_nonzero_corners_of_the_arrows():
    for name in ("dualnumbers", "skewext", "zigzagA2"):
        A = _parsed(name)
        idems = [dense(A, e) for e in A.idempotents]
        gens = alg.algebra_generators(A)
        expected = []
        for k in range(len(idems), len(gens)):
            for a, ea in enumerate(idems):
                for b, eb in enumerate(idems):
                    piece = A.mul(A.mul(ea, dense(A, gens[k])), eb)
                    if any(piece):
                        expected.append((a, b, k))
        assert list(alg.arrow_pieces(A)) == expected
        assert alg.arrow_pieces(A) is alg.arrow_pieces(A)


# -- the column-sparse structure constants against a dense reference ------


def _dense_table(name):
    """The basis labels of a bundled fixture and its structure constants as
    a dense table c[i][j][r], read off the product lines 'x*y = [c*]z' of
    its text (each product is a single term in every bundled fixture)."""
    labels, c = None, None
    for line in fixture_text(ALGEBRA_FILES[name]).splitlines():
        line = line.split("#")[0].strip()
        lhs, _, rhs = line.partition("=")
        if line.startswith("basis "):
            labels = line.split()[1:]
            d = len(labels)
            c = [[[0] * d for _ in range(d)] for _ in range(d)]
        elif "*" in lhs:
            x, y = (t.strip() for t in lhs.split("*"))
            coef, _, z = rhs.strip().rpartition("*")
            c[labels.index(x)][labels.index(y)][labels.index(z)] = Fraction(coef or 1)
    return labels, c


def _read_densely(cols, d):
    """A column-sparse d x d matrix as dense rows."""
    return [[cols[q].get(r, 0) for q in range(d)] for r in range(d)]


coefficients = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ALGEBRA_FILES)), st.data())
def test_products_and_multiplication_matrices_match_a_dense_reference(name, data):
    A = fixture(name)
    labels, c = _dense_table(name)
    assert labels == list(A.basis)
    d = A.dim
    u = tuple(data.draw(st.lists(coefficients, min_size=d, max_size=d)))
    v = tuple(data.draw(st.lists(coefficients, min_size=d, max_size=d)))
    R = range(d)
    assert A.mul(u, v) == tuple(sum(u[i] * v[j] * c[i][j][r] for i in R for j in R) for r in R)
    # L_u sends b_q to u b_q, R_v sends b_q to b_q v
    assert _read_densely(A.left_mult_matrix(linalg.sparse(u)), d) == [
        [sum(u[i] * c[i][q][r] for i in R) for q in R] for r in R
    ]
    assert _read_densely(A.right_mult_matrix(linalg.sparse(v)), d) == [
        [sum(v[j] * c[q][j][r] for j in R) for q in R] for r in R
    ]


def test_coords_in_reads_members_at_the_pivots_and_refuses_the_rest():
    A = fixture("zigzagA2")
    for s in range(len(A.idempotents)):
        for sub in (alg.left_ideal(A, s), alg.corner_subspace(A, s, s)):
            rows = list(sub)
            for k, row in enumerate(rows):
                assert alg.coords_in(sub, row) == unit_vector(len(rows), k)
            dense_rows = [dense(A, row) for row in rows]
            combo = combination(range(2, 9), dense_rows, A.dim)
            assert alg.coords_in(sub, linalg.sparse(combo)) == tuple(range(2, 2 + len(rows)))
            assert alg.coords_in(sub, {}) == (0,) * len(rows)
            units = [unit_vector(A.dim, i) for i in range(A.dim)]
            outside = [v for v in units if not sub.contains(v)]
            assert outside
            for v in outside:
                assert alg.coords_in(sub, linalg.sparse(v)) is None
                # agrees with the pivots but not elsewhere
                moved = combination((1, 1), (combo, v), A.dim)
                assert alg.coords_in(sub, linalg.sparse(moved)) is None
