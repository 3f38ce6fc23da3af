import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells import algebra as alg
from fiatcells import bimod, linalg, mscell, verify
from fiatcells.fixtures import (
    ALGEBRA_FILES,
    PROPERTY_FIXTURES,
    ccx_build,
    fixture_text,
    load_algebra,
)
from fiatcells.formats import parse_algebra


def fixture(name):
    return load_algebra(name).algebra


def product(A, u, v):
    """u.v of sparse elements, formed as the package forms it: L_u applied to v."""
    return linalg.sp_apply(A.left_mult_matrix(u), v)


def acting(M, vec=None, right=False):
    """The actions on M of the basis elements of its left algebra (its right
    one), derived along their words by bimod._along_words, as
    Bimodule.validate derives them; given vec, an element of that algebra,
    its action."""
    if right:
        actions = bimod._along_words(M.right_algebra, M.right_gens, anti=True)
    else:
        actions = bimod._along_words(M.left_algebra, M.left_gens, anti=False)
    return actions if vec is None else linalg.sp_lincomb(vec, actions)


def truncated_poly(n):
    """k[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
    mult = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            mult[i][j][i + j] = Fraction(1)
    one = [1] + [0] * (n - 1)
    return alg.FinDimAlgebra([f"x{i}" for i in range(n)], mult, one, [one], name=f"x{n}")


def zigzag(m):
    """The zigzag algebra of the path A_m: vertices e_i, arrows a_i: i -> i+1
    and b_i: i+1 -> i, loops w_i = b_i a_i = a_(i-1) b_(i-1), paths of
    length three zero."""
    es = [f"e{i}" for i in range(m)]
    arrows = [f"a{i}" for i in range(m - 1)] + [f"b{i}" for i in range(m - 1)]
    names = es + arrows + [f"w{i}" for i in range(m)]
    products = {(e, e): e for e in es}
    for i in range(m - 1):
        src, tgt = es[i], es[i + 1]
        products.update({(tgt, f"a{i}"): f"a{i}", (f"a{i}", src): f"a{i}"})
        products.update({(src, f"b{i}"): f"b{i}", (f"b{i}", tgt): f"b{i}"})
        products.update({(f"b{i}", f"a{i}"): f"w{i}", (f"a{i}", f"b{i}"): f"w{i + 1}"})
    for i in range(m):
        products.update({(es[i], f"w{i}"): f"w{i}", (f"w{i}", es[i]): f"w{i}"})
    d = len(names)
    mult = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (x, y), z in products.items():
        mult[names.index(x)][names.index(y)][names.index(z)] = Fraction(1)
    unit = [1 if k < m else 0 for k in range(d)]
    idems = [[1 if k == i else 0 for k in range(d)] for i in range(m)]
    A = alg.FinDimAlgebra(names, mult, unit, idems, name=f"zigzagA{m}")
    alg.validate(A)
    return A


def without_generator(B):
    """B with its projective generator data forgotten."""
    return bimod.Bimodule(
        B.left_algebra, B.right_algebra, B.dim, B.left_gens, B.right_gens, check=False
    )


def test_proj_bimodule_dims():
    D = fixture("dualnumbers")
    assert bimod.proj_bimodule(D, 0, D, 0).dim == 4
    Q = fixture("rationals")
    P = bimod.proj_bimodule(Q, 0, Q, 0)
    assert P.dim == 1
    assert bimod.iso_test(P, bimod.regular_bimodule(Q))
    X3 = fixture("x3local")
    P3 = bimod.proj_bimodule(X3, 0, X3, 0)
    assert P3.dim == 9
    assert bimod.loewy_length(P3) == 5


def test_bimodule_validation_catches_bad_actions():
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    broken = list(reg.left_gens)
    broken[1] = broken[0]  # x now acts as 1 on the left
    with pytest.raises(bimod.BimoduleError):
        bimod.Bimodule(D, D, reg.dim, broken, reg.right_gens)


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("index", [1, 3, 6])
def test_bimodule_validation_catches_one_bad_entry_above_dim_40(left, index):
    # the arrow x on P = A(x)A, A = k[x]/(x^7), now also sends 1(x)x^index to 1(x)1
    A = truncated_poly(7)
    P = bimod.proj_bimodule(A, 0, A, 0)
    assert P.dim == 49
    actions = [list(P.left_gens), list(P.right_gens)]
    side = actions[0 if left else 1]
    cols = [dict(col) for col in side[1]]
    cols[index][0] = cols[index].get(0, 0) + 1
    side[1] = tuple(cols)
    bimod.Bimodule(A, A, P.dim, P.left_gens, P.right_gens)
    with pytest.raises(bimod.BimoduleError):
        bimod.Bimodule(A, A, P.dim, *actions)


def test_tensor_unit_law():
    for name in ("dualnumbers", "zigzagA2"):
        A = fixture(name)
        reg = bimod.regular_bimodule(A)
        P = bimod.proj_bimodule(A, 0, A, 0)
        left = bimod.tensor_over(reg, P)
        right = bimod.tensor_over(P, reg)
        assert left.dim == P.dim == right.dim
        assert bimod.iso_test(left, P)
        assert bimod.iso_test(right, P)


def test_tensor_closed_form_dualnumbers():
    D = fixture("dualnumbers")
    P = bimod.proj_bimodule(D, 0, D, 0)
    T = bimod.tensor_over(P, P)
    assert T.dim == 8
    assert bimod.iso_to_direct_power(T, P, 2)
    assert bimod.iso_to_direct_power(bimod.direct_sum([P, P]), P, 2)


def test_tensor_closed_form_zigzag_mixed():
    Z = fixture("zigzagA2")
    P12 = bimod.proj_bimodule(Z, 0, Z, 1)  # A e1 (x) e2 A
    P21 = bimod.proj_bimodule(Z, 1, Z, 0)
    T = bimod.tensor_over(P12, P21)
    # middle factor e2 A e2 has dimension 2
    P11 = bimod.proj_bimodule(Z, 0, Z, 0)
    assert T.dim == 2 * P11.dim
    assert bimod.iso_to_direct_power(T, P11, 2)


def test_tensor_associative_up_to_iso():
    Z = fixture("zigzagA2")
    P12 = bimod.proj_bimodule(Z, 0, Z, 1)
    P21 = bimod.proj_bimodule(Z, 1, Z, 0)
    P11 = bimod.proj_bimodule(Z, 0, Z, 0)
    left = bimod.tensor_over(bimod.tensor_over(P12, P21), P11)
    right = bimod.tensor_over(P12, bimod.tensor_over(P21, P11))
    # both are P11^(dim e2 A e2 . dim e1 A e1) by the closed form
    k = alg.corner_dim(Z, 1, 1) * alg.corner_dim(Z, 0, 0)
    assert left.dim == right.dim == k * P11.dim
    assert bimod.iso_to_direct_power(left, P11, k)
    assert bimod.iso_to_direct_power(right, P11, k)


def test_hom_space_dims():
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    P = bimod.proj_bimodule(D, 0, D, 0)
    assert bimod.hom_dim(P, reg) == 2
    Q = fixture("rationals")
    assert bimod.hom_dim(bimod.regular_bimodule(Q), bimod.regular_bimodule(Q)) == 1
    Z = fixture("zigzagA2")
    P12 = bimod.proj_bimodule(Z, 0, Z, 1)
    assert bimod.hom_dim(P12, P12) == 4


def _dense(cols, n):
    """The n x n dense matrix of a column-sparse one."""
    return [[cols[q].get(p, 0) for q in range(n)] for p in range(n)]


def _kron(x, y):
    return [
        [xi[j] * yk[l] for j in range(len(xi)) for l in range(len(yk))]
        for xi in x
        for yk in y
    ]


def _dense_rank(rows):
    """Rank by naive dense Gaussian elimination, independent of linalg."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _random_sparse(rng, n):
    return tuple(
        {r: v for r in range(n) if (v := rng.choice((0, 0, 0, 1, -1, 2)))} for _ in range(n)
    )


def _intertwiner_cases():
    """Seeded (pairs, dm, dn): random small integer matrices, half of them with
    a the block sum of b and a random block, so that [I 0] intertwines."""
    cases = [([], 2, 3), ([], 3, 1)]
    for seed in range(40):
        rng = random.Random(seed)
        dn = rng.randint(1, 3)
        dm = rng.randint(1, 4)
        pairs = []
        for _ in range(rng.randint(1, 3)):
            b = _random_sparse(rng, dn)
            if dm > dn and seed % 2:
                rest = _random_sparse(rng, dm - dn)
                a = b + tuple({r + dn: v for r, v in col.items()} for col in rest)
            else:
                a = _random_sparse(rng, dm)
            pairs.append((a, b))
        cases.append((pairs, dm, dn))
    return cases


def test_intertwiners_match_the_kronecker_nullity():
    nonzero = 0
    for pairs, dm, dn in _intertwiner_cases():
        basis = bimod.intertwiners(pairs, dm, dn)
        # X.a - b.X on X flattened row by row is (I (x) a^T - b (x) I) vec(X)
        ident_m = [[int(i == j) for j in range(dm)] for i in range(dm)]
        ident_n = [[int(i == j) for j in range(dn)] for i in range(dn)]
        rows = []
        for a, b in pairs:
            a_t = [list(col) for col in zip(*_dense(a, dm))]
            left, right = _kron(ident_n, a_t), _kron(_dense(b, dn), ident_m)
            rows += [[x - y for x, y in zip(lr, rr)] for lr, rr in zip(left, right)]
        assert len(basis) == dn * dm - _dense_rank(rows), (pairs, dm, dn)
        if not pairs:
            assert len(basis) == dn * dm
        nonzero += bool(basis)
        for X in basis:
            assert len(X) == dm and all(p < dn for col in X for p in col)
            for a, b in pairs:
                assert linalg.sp_compose(X, a) == linalg.sp_compose(b, X)
        flat = [linalg.sp_flatten(X, dn) for X in basis]
        assert linalg.rank(flat, dn * dm) == len(basis)
    assert nonzero > 10


def test_hom_adjunction_dimension_law():
    # dim Hom(Ae(x)fA, Ag(x)hA) = dim(gAe) * dim(fAh)
    Z = fixture("zigzagA2")
    bims = {}
    for s in range(2):
        for t in range(2):
            bims[(s, t)] = bimod.proj_bimodule(Z, s, Z, t)
    for (s, t), M in bims.items():
        for (u, v), N in bims.items():
            expected = alg.corner_dim(Z, u, s) * alg.corner_dim(Z, t, v)
            assert bimod.hom_dim(M, N) == expected, (s, t, u, v)


def test_iso_test_negative_dim_mismatch():
    D = fixture("dualnumbers")
    assert not bimod.iso_test(
        bimod.proj_bimodule(D, 0, D, 0), bimod.regular_bimodule(D)
    )


def test_iso_test_negative_same_dim():
    # A(+)A vs Ae(x)eA over the dual numbers: both 4-dimensional, not isomorphic
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    double = bimod.direct_sum([reg, reg])
    P = bimod.proj_bimodule(D, 0, D, 0)
    assert not bimod.iso_test(double, P)
    assert not bimod.iso_test(P, double)
    # the direct-power test reaches the composition-span certificate too
    assert not bimod.iso_to_direct_power(P, reg, 2)
    assert not bimod.iso_to_direct_power(double, P, 1)
    assert bimod.iso_to_direct_power(double, reg, 2)


def _corner_basis(N, s, t):
    """A basis of e_s N e_t, as sparse vectors: the column space of
    bimod.corner_columns."""
    ech = linalg.SparseEchelon(N.dim)
    ech.extend(bimod.corner_columns(N, s, t))
    return tuple(ech.rows[c] for c in sorted(ech.rows))


def _yoneda_map(A, s, t, N, g):
    """The bimodule map u(x)v -> u.g.v out of proj_bimodule(A, s, A, t), for
    g in e_s N e_t, column-sparse in the pair basis of the canonical bases
    of A e_s and e_t A."""
    lefts = [acting(N, u) for u in alg.left_ideal(A, s)]
    gv = [linalg.sp_apply(acting(N, v, right=True), g) for v in alg.right_ideal(A, t)]
    return tuple(linalg.sp_apply(lu, x) for lu in lefts for x in gv)


def test_yoneda_maps_intertwine_and_span_the_hom_space():
    for A, s, t in ((truncated_poly(3), 0, 0), (zigzag(3), 0, 1), (zigzag(3), 1, 2)):
        P = bimod.proj_bimodule(A, s, A, t)
        gens = alg.algebra_generators(A)
        targets = (
            bimod.regular_bimodule(A),
            bimod.tensor_over(P, bimod.proj_bimodule(A, t, A, s)),
        )
        for N in targets:
            corner = _corner_basis(N, s, t)
            maps = [_yoneda_map(A, s, t, N, g) for g in corner]
            for Y in maps:
                for g in gens:
                    assert linalg.sp_eq(
                        linalg.sp_compose(acting(N, g), Y), linalg.sp_compose(Y, acting(P, g))
                    )
                    assert linalg.sp_eq(
                        linalg.sp_compose(acting(N, g, right=True), Y),
                        linalg.sp_compose(Y, acting(P, g, right=True)),
                    )
            flat = [linalg.sp_flatten(Y, N.dim) for Y in maps]
            assert linalg.rank(flat, N.dim * P.dim) == len(maps) == bimod.hom_dim(P, N)


def _closed_form_cases(A, pairs):
    """(T, B, k) with T = P_st (x) P_uv and B^k = P_sv^dim(e_t A e_u)."""
    for s, t, u, v in pairs:
        T = bimod.tensor_over(bimod.proj_bimodule(A, s, A, t), bimod.proj_bimodule(A, u, A, v))
        yield T, bimod.proj_bimodule(A, s, A, v), alg.corner_dim(A, t, u)


def count_hom_space_calls(monkeypatch):
    """The (M, N) of every generic Hom(M, N) solve from now on."""
    calls = []
    generic = bimod.hom_space

    def spy(M, N):
        calls.append((M, N))
        return generic(M, N)

    monkeypatch.setattr(bimod, "hom_space", spy)
    return calls


def _iso_by_generic_homs(T, B, k):
    """Is T = B^k?  Decided, independently of the top, over generic hom_space
    bases with B's generator data forgotten: a full-rank map B^k -> T among
    seeded random combinations of Hom(B, T) certifies "isomorphic"; the
    identity of B^k or of T outside the span of the composites of those maps
    with the maps T -> B^k certifies "not isomorphic".  Neither one fails."""
    generic = without_generator(B)
    homs = bimod.hom_space(generic, T)
    if not homs:
        return False
    rng = random.Random(0)
    for attempt in range(48):
        bound = 2 + attempt // 8
        coeffs = [[rng.randint(-bound, bound) for _ in homs] for _ in range(k)]
        stacked = [col for c in coeffs for col in linalg.sp_lincomb(c, homs)]
        if linalg.rank(stacked, T.dim) == T.dim:
            return True
    # the maps B^k -> T and T -> B^k: block copies of a basis each way
    out = [
        tuple(col for b in range(k) for col in (h if b == c else ({},) * B.dim))
        for c in range(k)
        for h in homs
    ]
    back = [
        tuple({r + c * B.dim: v for r, v in col.items()} for col in h)
        for c in range(k)
        for h in bimod.hom_space(T, generic)
    ]
    for maps, maps_back in ((out, back), (back, out)):
        dim = len(maps[0])  # out is not empty, and an empty back fails the first round
        span = linalg.SparseEchelon(dim * dim)
        for f in maps:
            for g in maps_back:
                span.insert(linalg.sp_flatten(linalg.sp_compose(g, f), dim))
        if not span.contains(linalg.sp_flatten(linalg.sp_identity(dim), dim)):
            return False
    pytest.fail(f"no certificate either way for {T!r} = {k} x {B!r}")


@pytest.mark.parametrize(
    "A, pairs",
    [(truncated_poly(n), [(0, 0, 0, 0)]) for n in (2, 3, 4, 5)]
    + [
        (zigzag(2), [(0, 1, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1)]),
        (zigzag(3), [(0, 1, 1, 2), (1, 1, 1, 1), (2, 1, 0, 0), (0, 0, 2, 1)]),
    ],
    ids=["x2", "x3", "x4", "x5", "zigzagA2", "zigzagA3"],
)
def test_yoneda_certificate_agrees_with_generic_search(A, pairs, monkeypatch):
    calls = count_hom_space_calls(monkeypatch)
    for T, B, k in _closed_form_cases(A, pairs):
        calls.clear()
        yoneda = bimod.iso_to_direct_power(T, B, k)
        assert calls == []  # read off the top of T, nothing solved
        assert yoneda == (T.dim == k * B.dim)
        assert yoneda == (T.dim == 0 or _iso_by_generic_homs(T, B, k))


def test_yoneda_negatives_are_read_off_the_top(monkeypatch):
    calls = count_hom_space_calls(monkeypatch)
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    P = bimod.proj_bimodule(D, 0, D, 0)
    double = bimod.direct_sum([reg, reg])
    Z = zigzag(2)
    P11, P22 = bimod.proj_bimodule(Z, 0, Z, 0), bimod.proj_bimodule(Z, 1, Z, 1)
    assert P11.dim == P22.dim
    # wrong multiplicity: P11 (+) P22 is not P11^2; a projective B is decided
    # on the top of T, with no way back solved
    mixed = bimod.direct_sum([P11, P22])
    assert not bimod.iso_to_direct_power(mixed, P11, 2)
    assert calls == []
    assert not bimod.iso_to_direct_power(double, P, 1)
    assert calls == []
    # without generator data there is no top to read the verdict off
    with pytest.raises(ValueError, match="neither is projective or regular"):
        bimod.iso_to_direct_power(mixed, without_generator(P11), 2)
    assert calls == []
    # a regular B is read off the centraliser of T: nothing solved
    assert bimod.iso_to_direct_power(double, reg, 2)
    assert calls == []
    # a positive with a projective B is read off the same way
    assert bimod.iso_to_direct_power(bimod.direct_sum([P11, P11]), P11, 2)
    assert calls == []
    # the generic reference certifies both negatives the other way
    assert not _iso_by_generic_homs(mixed, P11, 2)
    assert not _iso_by_generic_homs(double, P, 1)


def test_iso_test_searches_from_the_read_off_side(monkeypatch):
    calls = count_hom_space_calls(monkeypatch)
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    double = bimod.direct_sum([reg, reg])
    P = bimod.proj_bimodule(D, 0, D, 0)
    for M, N in ((double, P), (P, double)):
        calls.clear()
        assert not bimod.iso_test(M, N)
        assert calls == []  # decided on the top of double, nothing solved
    T = bimod.tensor_over(reg, reg)
    for M, N in ((reg, T), (T, reg)):
        calls.clear()
        assert bimod.iso_test(M, N)
        assert calls == []  # decided by the centraliser of A in T and the top of T


def test_a_pair_with_neither_side_read_off_raises():
    # two direct sums, or a base with its generator data forgotten, have no
    # top to read an isomorphism off, even a true one
    Z = zigzag(2)
    P11 = bimod.proj_bimodule(Z, 0, Z, 0)
    twice = bimod.direct_sum([P11, P11])
    with pytest.raises(ValueError, match="neither is projective or regular"):
        bimod.iso_test(twice, bimod.direct_sum([P11, P11]))
    with pytest.raises(ValueError, match="neither is projective or regular"):
        bimod.iso_to_direct_power(twice, without_generator(P11), 2)
    # a projective or regular side is decided on the top
    assert bimod.iso_to_direct_power(twice, P11, 2)
    reg = bimod.regular_bimodule(Z)
    assert bimod.iso_test(reg, reg)
    D = fixture("dualnumbers")
    D_reg = bimod.regular_bimodule(D)
    P = bimod.proj_bimodule(D, 0, D, 0)
    assert not bimod.iso_to_direct_power(bimod.direct_sum([D_reg, D_reg]), P, 1)


@pytest.mark.parametrize("name", ["zigzagA2", "x3local"])
def test_closed_form_passes_and_solves_no_hom_space(name, monkeypatch):
    build = ccx_build(name)
    calls = count_hom_space_calls(monkeypatch)
    records = bimod.verify_closed_form_composition(build)
    assert records and all(r.passed for r in records)
    assert calls == []


# -- verdicts read off the top ---------------------------------------------


def test_a_top_away_from_the_generator_corner_is_refused(monkeypatch):
    # P11 (+) P22 has the dimension of P11^2 and a two-dimensional top, but
    # half of that top sits at (e2, e2), out of reach of e1 N e1
    calls = count_hom_space_calls(monkeypatch)
    Z = zigzag(2)
    P11, P22 = bimod.proj_bimodule(Z, 0, Z, 0), bimod.proj_bimodule(Z, 1, Z, 1)
    mixed = bimod.direct_sum([P11, P22])
    assert mixed.dim == 2 * P11.dim
    assert mixed.dim - bimod.radical_echelon(mixed).dim == 2
    assert not bimod.iso_to_direct_power(mixed, P11, 2)
    assert bimod.iso_to_direct_power(bimod.direct_sum([P11, P11]), P11, 2)
    assert calls == []


def _split_pair():
    """k x k, and its bimodule S11 (+) S12: on the left e1 fixes both basis
    vectors and e2 kills them, on the right e1 fixes the first and e2 the
    second.  It is semisimple, so its own top, and its centraliser is k.S11."""
    mult = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    mult[0][0][0] = mult[1][1][1] = Fraction(1)
    idems = [[1, 0], [0, 1]]
    K = alg.FinDimAlgebra(["e1", "e2"], mult, [1, 1], idems, name="kxk")
    left = [({0: 1}, {1: 1}), ({}, {})]
    right = [({0: 1}, {}), ({}, {1: 1})]
    return K, bimod.Bimodule(K, K, 2, left, right, name="S11(+)S12")


def _twisted_dual_numbers():
    """The dual numbers D, and D with x acting as -x on the right: A's
    dimension and top, but every central element lies in rad N."""
    D = fixture("dualnumbers")
    reg = bimod.regular_bimodule(D)
    x = D.basis.index("x")
    flipped = list(acting(reg, right=True))
    flipped[x] = tuple({r: -v for r, v in col.items()} for col in flipped[x])
    return D, bimod.Bimodule(D, D, D.dim, acting(reg), flipped, name="twisted")


def test_a_regular_top_that_no_central_element_generates_is_refused():
    D, twisted = _twisted_dual_numbers()
    reg = bimod.regular_bimodule(D)
    rad = bimod.radical_echelon(twisted)
    assert twisted.dim - rad.dim == len(D.idempotents)
    centre = bimod.centralizer(twisted)
    assert centre and all(rad.contains(n) for n in centre)
    assert not bimod.iso_test(twisted, reg) and not bimod.iso_test(reg, twisted)
    # S11 (+) S12 over k x k: a central element outside rad N, but e2 kills
    # every one
    K, N = _split_pair()
    K_reg = bimod.regular_bimodule(K)
    assert N.dim == K.dim and bimod.radical_echelon(N).dim == 0
    assert bimod.centralizer(N) == [{0: 1}]
    assert not bimod.iso_test(N, K_reg)


def test_a_regular_power_is_read_off_in_rounds(monkeypatch):
    # N = A^k needs k central elements whose e_i.n are independent on the
    # top; each round looks for one outside rad N and the rounds before
    calls = count_hom_space_calls(monkeypatch)
    D, twisted = _twisted_dual_numbers()
    reg = bimod.regular_bimodule(D)
    assert bimod.iso_to_direct_power(bimod.direct_sum([reg, reg]), reg, 2)
    assert bimod.iso_to_direct_power(bimod.direct_sum([reg, reg, reg]), reg, 3)
    # A e (x) e A has the dimension of A^2, but a one-dimensional top
    assert not bimod.iso_to_direct_power(bimod.proj_bimodule(D, 0, D, 0), reg, 2)
    # A (+) twisted has the dimension and top of A^2, and a central element
    # outside rad N, but no second one outside rad N and the first
    both = bimod.direct_sum([reg, twisted])
    assert both.dim - bimod.radical_echelon(both).dim == 2 * len(D.idempotents)
    assert not bimod.iso_to_direct_power(both, reg, 2)
    Z = fixture("zigzagA2")
    Z_reg = bimod.regular_bimodule(Z)
    square = bimod.direct_sum([bimod.tensor_over(Z_reg, Z_reg), Z_reg])
    assert bimod.iso_to_direct_power(square, Z_reg, 2)
    assert calls == []


def test_the_moment_curve_finds_a_generator_past_its_first_point():
    # over k x k, each centraliser basis vector of A (x) A is killed by one
    # idempotent; their sum, the moment curve's point at t = 1, generates
    K, _ = _split_pair()
    K_reg = bimod.regular_bimodule(K)
    T = bimod.tensor_over(K_reg, K_reg)
    lefts = [acting(T, e) for e in K.idempotents]
    centre = bimod.centralizer(T)
    assert len(centre) == 2
    assert all(any(not linalg.sp_apply(e, n) for e in lefts) for n in centre)
    assert bimod.iso_test(T, K_reg) and bimod.iso_to_direct_power(T, K_reg, 1)


def _full_radical_actions(M):
    """The actions on M of full bases of the radicals of both algebras."""
    return [acting(M, r) for r in alg.radical(M.left_algebra)] + [
        acting(M, r, right=True) for r in alg.radical(M.right_algebra)
    ]


def _loewy_and_socle_by_full_radicals(M):
    """Loewy length and socle of M from full radical bases: rad^k M as the
    images of a basis of rad^(k-1) M under every radical element, and the
    socle as the vectors that every radical element kills."""
    mats = _full_radical_actions(M)
    current, length = [{i: 1} for i in range(M.dim)], 0
    while current:
        length += 1
        ech = linalg.SparseEchelon(M.dim)
        ech.extend(linalg.sp_apply(mat, v) for mat in mats for v in current)
        current = list(ech.rows.values())
    eqs = [row for mat in mats for row in linalg.sp_rows(mat, M.dim) if row]
    if not eqs:
        return length, linalg.Subspace.full(M.dim)
    return length, linalg.Subspace.from_vectors(linalg.nullspace(eqs, M.dim), M.dim)


@pytest.mark.parametrize("name", PROPERTY_FIXTURES)
def test_the_arrows_span_what_the_full_radicals_span(name):
    A = fixture(name)
    n = len(A.idempotents)
    for s in range(n):
        for t in range(n):
            P = bimod.proj_bimodule(A, s, A, t)
            columns = [col for mat in _full_radical_actions(P) for col in mat]
            rad = linalg.Subspace.from_vectors(columns, P.dim)
            ours = bimod.radical_echelon(P)
            assert linalg.Subspace.from_vectors(list(ours.rows.values()), P.dim) == rad
            loewy, socle = _loewy_and_socle_by_full_radicals(P)
            assert bimod.loewy_length(P) == loewy
            assert bimod.socle(P) == socle


def _projective_center_by_generic_homs(A):
    """projective_center computed from generic hom-space bases."""
    reg = bimod.regular_bimodule(A)
    through = [A.unit]
    for s in range(len(A.idempotents)):
        for t in range(len(A.idempotents)):
            P = bimod.proj_bimodule(A, s, A, t)
            for f in bimod.hom_space(reg, P):
                fu = linalg.sp_apply(f, A.unit)
                for g in bimod.hom_space(P, reg):
                    through.append(linalg.sp_apply(g, fu))
    return alg.subalgebra_closure(A, through)


DATA = Path(__file__).parent / "data"


def _q_exterior_text(q):
    """`.alg` text of the q-exterior plane k<x,y>/(x^2, y^2, xy + q.yx) on the
    basis 1, x, y, yx."""
    lines = ["algebra qext", "basis 1 x y yx", "unit = 1", "idempotent 1", "y*x = yx"]
    lines += [f"1*{b} = {b}" for b in ("1", "x", "y", "yx")]
    lines += [f"{b}*1 = {b}" for b in ("x", "y", "yx")]
    lines.append(f"x*y = {-q}*yx")
    return "\n".join(lines) + "\n"


def _permuted_basis(A, seed):
    """A in a seeded random order of its basis."""
    order = list(range(A.dim))
    random.Random(seed).shuffle(order)

    def moved(v):
        return [v[k] for k in order]

    def dense(p):
        return [p.get(r, 0) for r in range(A.dim)]

    mult = [[moved(dense(A.mult[i][j])) for j in order] for i in order]
    return alg.FinDimAlgebra(
        [A.basis[k] for k in order], mult, moved(dense(A.unit)),
        [moved(dense(e)) for e in A.idempotents], name=f"{A.name}-seed{seed}",
    )


def _in_new_basis(A, new, labels):
    """A in the basis whose k-th vector is the sparse element new[k]."""
    inverse = linalg.inverse(linalg.sp_rows(new, A.dim))

    def coords(v):
        return [sum(row[j] * x for j, x in v.items()) for row in inverse]

    mult = [[coords(product(A, u, v)) for v in new] for u in new]
    return alg.FinDimAlgebra(
        labels, mult, coords(A.unit), [coords(e) for e in A.idempotents], name=f"{A.name}-mixed"
    )


def _zigzag3_mixed():
    """Zigzag A3 with the arrows a1: e1 -> e2 and b0: e1 -> e0 out of the
    middle vertex replaced by c = a1 + b0 and d = a1 + 2 b0: c e1 = c has
    two nonzero pieces, e2 c e1 and e0 c e1, in different blocks."""
    Z = zigzag(3)
    a1, b0 = Z.basis.index("a1"), Z.basis.index("b0")
    new = [{k: 1} for k in range(Z.dim)]
    new[a1], new[b0] = {a1: 1, b0: 1}, {a1: 1, b0: 2}
    labels = ["c" if k == a1 else "d" if k == b0 else x for k, x in enumerate(Z.basis)]
    return _in_new_basis(Z, new, labels)


# each builds a fresh algebra, so the first call computes rather than reads
# the cache; the path algebras are not self-injective, and pathA2_unsplit's
# basis is not split by its idempotents, so their pairs are eliminated;
# zigzagA2_rescaled has its arrows scaled by 2 and 1/3, so its loops are
# 2/3 of the arrow products; zigzagA2_mixed's arrow basis vectors a + b and
# a + 2b each have two nonzero pieces e_i g e_j, and its ideals have canonical
# rows with entries other than 1 off the pivot (2c - d for a)
PROJECTIVE_CENTER_CASES = {
    **{name: lambda name=name: parse_algebra(fixture_text(ALGEBRA_FILES[name])).algebra
       for name in PROPERTY_FIXTURES},
    **{name: lambda name=name: parse_algebra((DATA / f"{name}.alg").read_text()).algebra
       for name in ("pathA2", "pathA2_unsplit", "zigzagA2_rescaled", "zigzagA2_mixed")},
    **{f"qext{q}": lambda q=q: parse_algebra(_q_exterior_text(q)).algebra
       for q in (-1, 2, Fraction(1, 3))},
    "zigzagA3-seed3": lambda: _permuted_basis(zigzag(3), 3),
    "zigzagA3-mixed": _zigzag3_mixed,
}


# the corner reference runs on the same algebras and the graded zigzag A2
CORNER_CASES = {
    **PROJECTIVE_CENTER_CASES,
    "zigzagA2-graded": lambda: parse_algebra(fixture_text(ALGEBRA_FILES["zigzagA2-graded"])).algebra,
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_radicals_are_the_corners_of_the_radical(name):
    # the reference builds each corner algebra and its own trace-form radical;
    # validation reads that radical as e.rad(A).e instead
    A = CORNER_CASES[name]()
    alg.validate(A)
    rad = alg.radical(A)
    for a, e in enumerate(A.idempotents):
        corner, sub = alg.corner_algebra(A, a)
        ere = linalg.Subspace.from_vectors([product(A, e, product(A, r, e)) for r in rad], A.dim)
        assert sub.contains_subspace(ere)
        assert alg.radical(corner).dim == ere.dim
        assert corner.dim - ere.dim == 1


@pytest.mark.parametrize("name", sorted(PROJECTIVE_CENTER_CASES))
def test_projective_center_matches_generic_homs(name):
    A = PROJECTIVE_CENTER_CASES[name]()
    centre = bimod.projective_center(A)
    assert centre == _projective_center_by_generic_homs(A)
    assert bimod.projective_center(A) is centre


# -- one vector form: sparse, no zero value, ints where integral -------------


def _sparse_and_normalised(v):
    """Is v a sparse vector with no zero value, each an int where integral?"""
    return isinstance(v, dict) and all(
        x and (type(x) is int or (type(x) is Fraction and x.denominator != 1))
        for x in v.values()
    )


def _element_forms(A):
    """Every sparse element the package derives from A alone, by name."""
    n = len(A.idempotents)
    words, recipe = alg.basis_words(A)
    gens = alg.algebra_generators(A)
    values = []
    for g, w in words:
        values.append(gens[g] if w is None else product(A, gens[g], values[w]))
    forms = {
        "unit": [A.unit],
        "idempotents": list(A.idempotents),
        "generators": gens,
        "arrow pieces": [
            product(A, product(A, A.idempotents[a], gens[k]), A.idempotents[b])
            for a, b, k in alg.arrow_pieces(A)
        ],
        "word values": values,
        "word recipe": [dict(terms) for terms in recipe],
        "centraliser": bimod.centralizer(bimod.regular_bimodule(A)),
    }
    subspaces = {
        "radical": alg.radical(A),
        "center": alg.center(A),
        "projective center": bimod.projective_center(A),
        **{f"corner {i},{j}": alg.corner_subspace(A, i, j) for i in range(n) for j in range(n)},
        **{f"left ideal {s}": alg.left_ideal(A, s) for s in range(n)},
        **{f"right ideal {s}": alg.right_ideal(A, s) for s in range(n)},
    }
    forms.update({name: list(sub.rows) for name, sub in subspaces.items()})
    return forms


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_elements_and_subspace_rows_are_sparse_with_ints_where_integral(name):
    A = CORNER_CASES[name]()
    alg.validate(A)
    for what, vectors in _element_forms(A).items():
        for v in vectors:
            assert _sparse_and_normalised(v), (what, v)
    # the dense coordinate view agrees with the sparse product
    for i, x in enumerate(A.basis):
        for j, y in enumerate(A.basis):
            prod = product(A, {i: 1}, {j: 1})
            assert _sparse_and_normalised(prod)
            assert A.mul(A.element(x), A.element(y)) == tuple(
                prod.get(r, 0) for r in range(A.dim)
            ), (x, y)


def test_the_third_exterior_plane_keeps_ints_where_integral():
    # x.y = -1/3 yx: a product through the structure constants is a Fraction
    # only where it is not integral
    A = parse_algebra(_q_exterior_text(Fraction(1, 3))).algebra
    i, j, k = (A.basis.index(b) for b in ("x", "y", "yx"))
    x, y, yx = {i: 1}, {j: 1}, {k: 1}
    assert product(A, x, y) == {k: Fraction(-1, 3)}
    assert product(A, {i: 1, j: 1}, {i: 1, j: 1}) == {k: Fraction(2, 3)}
    scaled = product(A, {i: 3}, y)
    assert scaled == {k: -1} and type(scaled[k]) is int
    for v in alg.algebra_generators(A) + list(alg.radical(A)):
        assert _sparse_and_normalised(v) and all(type(c) is int for c in v.values()), v
    assert list(alg.radical(A)) == [x, y, yx]


def test_projective_center_builds_no_projective_bimodule(monkeypatch):
    calls = []
    original = bimod._proj_actions

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bimod, "_proj_actions", spy)
    A = parse_algebra(fixture_text(ALGEBRA_FILES["zigzagA2"])).algebra
    bimod.projective_center(A)
    assert calls == []


def test_projective_center_values():
    assert bimod.projective_center(fixture("rationals")).dim == 1
    D = fixture("dualnumbers")
    zp = bimod.projective_center(D)
    assert zp.dim == 2 and zp.contains(D.element("x"))
    X3 = fixture("x3local")
    zp3 = bimod.projective_center(X3)
    assert zp3.dim == 2
    assert zp3.contains(X3.element("x2"))
    assert not zp3.contains(X3.element("x"))
    X4 = fixture("x4local")
    zp4 = bimod.projective_center(X4)
    assert zp4.dim == 2 and zp4.contains(X4.element("x3"))
    assert bimod.projective_center(fixture("skewext")).dim == 1
    Z = fixture("zigzagA2")
    assert bimod.projective_center(Z) == alg.center(Z)


def test_build_ccx_rationals_table():
    build = ccx_build("rationals")
    ms = build.ms
    assert sorted(ms.names) == ["F11_11", "I1"]
    assert ms.compose("F11_11", "F11_11") == {"F11_11": 1}
    assert mscell.identity_products_clean(ms)


def test_build_ccx_dualnumbers():
    build = ccx_build("dualnumbers")
    ms = build.ms
    assert ms.compose("F11_11", "F11_11") == {"F11_11": 2}
    struct = mscell.cells(ms)
    assert mscell.is_strongly_regular(ms, struct.two_sided_cell_of("F11_11"))
    assert mscell.duflo_multiplicity(ms, "F11_11") == 2


def test_build_ccx_zigzag_cells():
    build = ccx_build("zigzagA2")
    struct = mscell.cells(build.ms)
    assert struct.left_cells == (
        ("F11_11", "F11_21"),
        ("F11_12", "F11_22"),
        ("I1",),
    )
    assert struct.right_cells == (
        ("F11_11", "F11_12"),
        ("F11_21", "F11_22"),
        ("I1",),
    )
    assert mscell.duflo(build.ms, ("F11_12", "F11_22")) == "F11_22"
    assert mscell.duflo_multiplicity(build.ms, "F11_12") == 2


def test_build_ccx_rejects_non_weakly_symmetric():
    names = ["e1", "e2", "a", "b"]
    from fractions import Fraction

    d = 4
    M = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]

    def setp(x, y, z, c=1):
        M[names.index(x)][names.index(y)][names.index(z)] = Fraction(c)

    for n, (t, s) in {
        "e1": ("e1", "e1"),
        "e2": ("e2", "e2"),
        "a": ("e2", "e1"),
        "b": ("e1", "e2"),
    }.items():
        setp(t, n, n)
        setp(n, s, n)
    prepro = alg.FinDimAlgebra(
        names, M, [1, 1, 0, 0], [[1, 0, 0, 0], [0, 1, 0, 0]], name="prepro"
    )
    with pytest.raises(bimod.BimoduleError, match="weakly symmetric"):
        bimod.build_ccx(bimod.CcxData(algebras=(prepro,)))


def test_build_ccx_rejects_disconnected():
    from fractions import Fraction

    M = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    M[0][0][0] = Fraction(1)
    M[1][1][1] = Fraction(1)
    qq = alg.FinDimAlgebra(
        ["e1", "e2"], M, [1, 1], [[1, 0], [0, 1]], name="QxQ"
    )
    with pytest.raises(bimod.BimoduleError, match="connected"):
        bimod.build_ccx(bimod.CcxData(algebras=(qq,)))


def test_build_ccx_rejects_x_below_projective_center():
    X3 = fixture("x3local")
    tiny = linalg.Subspace.from_vectors([X3.unit], X3.dim)
    with pytest.raises(bimod.BimoduleError, match="projective center"):
        bimod.build_ccx(bimod.CcxData(algebras=(X3,), x_subalgebras=(tiny,)))


def test_build_ccx_accepts_x_equal_projective_center():
    X3 = fixture("x3local")
    zp = bimod.projective_center(X3)
    build = bimod.build_ccx(bimod.CcxData(algebras=(X3,), x_subalgebras=(zp,)))
    recs = bimod.verify_center_surjectivity(build, expect_surjective=False)
    assert all(r.passed for r in recs)
    assert recs[0].values["dim_image"] == 2
    assert recs[0].values["dim_end_projective"] == 3


def test_center_surjectivity_skewext():
    build = ccx_build("skewext")
    recs = bimod.verify_center_surjectivity(build, expect_surjective=False)
    assert all(r.passed for r in recs)
    assert recs[0].values["dim_image"] == 2
    assert recs[0].values["dim_end_projective"] == 4


def test_center_separation_runs():
    for name in ("rationals", "dualnumbers", "x3local", "zigzagA2"):
        recs = bimod.verify_center_separation(ccx_build(name))
        assert recs and all(r.passed for r in recs)
    vac = bimod.verify_center_separation(ccx_build("rationals"))
    assert any(r.values.get("note") == "vacuous" for r in vac)


def test_commutant_dimension():
    assert bimod.commutant_dimension(ccx_build("rationals").cellrep) == 1
    assert bimod.commutant_dimension(ccx_build("zigzagA2").cellrep) == 1
    # negative control: a block-diagonal "disconnected" action has commutant 2
    rep = bimod.CellRepData(
        left_cell=("F11_11", "F11_22"),
        simple_labels=("L1", "L2"),
        actions={
            "I1": ((1, 0), (0, 1)),
            "F11_11": ((1, 0), (0, 0)),
            "F11_22": ((0, 0), (0, 1)),
        },
    )
    assert bimod.commutant_dimension(rep) == 2


def test_cellrep_identity_acts_as_identity():
    build = ccx_build("zigzagA2")
    n = len(build.cellrep.simple_labels)
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert build.cellrep.actions["I1"] == ident


def test_dimension_identities_zigzag_spec_example():
    build = ccx_build("zigzagA2")
    recs = bimod.verify_dimension_identities(build)
    by_name = {r.name: r for r in recs}
    rec = by_name["dimension_identity[F11_11,F11_21]"]
    assert rec.passed
    assert rec.values["dim_hom"] == 2
    assert rec.values["dim_hom_projectives"] == 1
    assert rec.values["dim_end_duflo"] == 2


def test_two_object_construction():
    # two objects carried by different algebras: the dual numbers and k[x]/(x^3)
    D = fixture("dualnumbers")
    X3 = fixture("x3local")
    build = bimod.build_ccx(bimod.CcxData(algebras=(D, X3), name="two-object"))
    struct = mscell.cells(build.ms)
    assert struct.two_sided_cells == (
        ("F11_11", "F12_11", "F21_11", "F22_11"),
        ("I1",),
        ("I2",),
    )
    assert struct.left_cells == (
        ("F11_11", "F21_11"),
        ("F12_11", "F22_11"),
        ("I1",),
        ("I2",),
    )
    # composition across objects goes through the middle algebra's corner
    assert build.ms.compose("F12_11", "F21_11") == {"F11_11": 3}
    assert build.ms.compose("F21_11", "F12_11") == {"F22_11": 2}
    # Duflo multiplicities are constant on right cells with distinct values
    m = {f: mscell.duflo_multiplicity(build.ms, f) for f in build.ms.names
         if not build.ms.morphisms[f].is_identity}
    assert m == {"F11_11": 2, "F12_11": 2, "F21_11": 3, "F22_11": 3}
    for cell in struct.two_sided_cells:
        assert mscell.is_strongly_regular(build.ms, cell)
        assert mscell.duflo_multiplicity_constant_on_right_cells(build.ms, cell)
    records = []
    records += bimod.verify_closed_form_composition(build)
    records += bimod.verify_dimension_identities(build)
    records += bimod.verify_duflo_hom_dimension(build)
    records += bimod.verify_center_separation(build)
    records += bimod.verify_commutant(build)
    assert all(r.passed for r in records)
    assert bimod.commutant_dimension(build.cellrep) == 1


# k[x]/(x^3) in the basis 1, y = x/2, z = x^2: the same algebra as the
# x3local fixture, but with a non-integral structure constant (y*y = z/4)
X3_RATIONAL_TWIN = """\
algebra x3twin
basis 1 y z
unit = 1
idempotent 1
1*1 = 1
1*y = y
y*1 = y
1*z = z
z*1 = z
y*y = 1/4*z
"""
# the twin's basis vectors in the fixture's labels, up to scalars
TWIN_LABELS = {"1": "1", "y": "x", "z": "x2"}


def _invariants(A):
    out = verify.algebra_invariants(A)
    out["bimodule_loewy"] = bimod.loewy_length(bimod.proj_bimodule(A, 0, A, 0))
    return out


def _suite_records(build):
    records = []
    records += bimod.verify_closed_form_composition(build)
    records += bimod.verify_dimension_identities(build)
    records += bimod.verify_duflo_hom_dimension(build)
    records += bimod.verify_center_surjectivity(build, expect_surjective=True)
    records += bimod.verify_center_separation(build)
    records += bimod.verify_commutant(build)
    return records


def _in_fixture_labels(record):
    """A record's name, values and verdicts, with a named element of the
    twin written in the fixture's labels."""
    name, values = record.name, dict(record.values)
    if "element" in values:
        old = values["element"]
        values["element"] = TWIN_LABELS[old]
        name = name.replace(f"={old}]", f"={values['element']}]")
    return name, values, record.passed, record.negative


def _non_integral_entries(B):
    return [
        v
        for actions in (acting(B), acting(B, right=True))
        for mat in actions
        for col in mat
        for v in col.values()
        if isinstance(v, Fraction) and v.denominator != 1
    ]


def test_rational_basis_twin_of_x3local_gives_the_same_records():
    twin = parse_algebra(X3_RATIONAL_TWIN, "x3twin.alg").algebra
    alg.validate(twin)
    assert twin.mul(twin.element("y"), twin.element("y")) == (0, 0, Fraction(1, 4))
    fixture_A = fixture("x3local")
    assert _invariants(twin) == _invariants(fixture_A)
    assert [twin.describe(v) for v in bimod.projective_center(twin)] == ["1", "z"]

    build = bimod.build_ccx(bimod.CcxData(algebras=(twin,), name="x3twin"))
    struct = mscell.cells(build.ms)
    assert all(mscell.is_strongly_regular(build.ms, c) for c in struct.two_sided_cells)
    records = _suite_records(build)
    assert records and all(r.passed for r in records)
    want = [(r.name, r.values, r.passed, r.negative) for r in _suite_records(ccx_build("x3local"))]
    assert [_in_fixture_labels(r) for r in records] == want

    # the twin really runs the Fraction path: a quarter survives in the
    # action matrices of its bimodules, which the fixture's do not carry
    assert _non_integral_entries(build.bimodule("F11_11"))
    assert not _non_integral_entries(ccx_build("x3local").bimodule("F11_11"))


# -- stored action matrices are read, never written ----------------------


def test_built_actions_and_structure_constants_are_never_written(monkeypatch):
    from copy import deepcopy

    from fiatcells import fixtures, verify

    built = []  # (object, attribute, deep copy taken when it was built)

    def recording(cls, attrs):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.extend((self, a, deepcopy(getattr(self, a))) for a in attrs)

        monkeypatch.setattr(cls, "__init__", __init__)

    recording(bimod.Bimodule, ("left_gens", "right_gens"))
    recording(alg.FinDimAlgebra, ("mult",))
    monkeypatch.setattr(fixtures, "_cache", {})  # build everything afresh
    reports = [
        verify.ccx_report("zigzagA2"),
        verify.ccx_report("x3local"),
        verify.graded_report("zigzagA2-graded"),
    ]
    assert all(r.passed for report in reports for r in report.records)
    kinds = {type(obj) for obj, _, _ in built}
    assert kinds == {bimod.Bimodule, alg.FinDimAlgebra}
    for obj, attr, copy in built:
        assert getattr(obj, attr) == copy, (obj, attr)
    for M in (obj for obj, attr, _ in built if attr == "left_gens"):
        d, e = M.left_algebra.dim, M.right_algebra.dim
        left, right = acting(M), acting(M, right=True)
        assert all(linalg.sp_lincomb({i: 1}, left) is left[i] for i in range(d))
        assert all(linalg.sp_lincomb({j: 1}, right) is right[j] for j in range(e))
    for A in (obj for obj, attr, _ in built if attr == "mult"):
        assert all(A.left_mult_matrix({i: 1}) is A.mult[i] for i in range(A.dim))


# -- each bimodule is built and validated once per algebra ------------------


def test_each_bimodule_is_validated_once_per_key(monkeypatch):
    from fiatcells import fixtures, verify

    keys = []  # the key of every proj_bimodule and regular_bimodule call
    inside = []  # nonempty while one of them runs
    counts = {"validated": 0, "unkeyed_checked_builds": 0}

    def keyed(builder, key_of):
        def call(*args, **kwargs):
            keys.append(key_of(*args))
            inside.append(builder)
            try:
                return builder(*args, **kwargs)
            finally:
                inside.pop()

        return call

    init, validate = bimod.Bimodule.__init__, bimod.Bimodule.validate

    def counting_init(self, *args, check=True, **kwargs):
        if check and not inside:
            counts["unkeyed_checked_builds"] += 1
        init(self, *args, check=check, **kwargs)

    def counting_validate(self):
        counts["validated"] += 1
        validate(self)

    proj = keyed(bimod.proj_bimodule, lambda A, s, B, t: (A, s, B, t))
    monkeypatch.setattr(bimod, "proj_bimodule", proj)
    monkeypatch.setattr(bimod, "regular_bimodule", keyed(bimod.regular_bimodule, lambda A: (A,)))
    monkeypatch.setattr(bimod.Bimodule, "__init__", counting_init)
    monkeypatch.setattr(bimod.Bimodule, "validate", counting_validate)
    monkeypatch.setattr(fixtures, "_cache", {})  # a fresh parse, nothing kept yet
    reports = [verify.algebra_report("zigzagA2"), verify.ccx_report("zigzagA2")]
    assert all(r.passed for report in reports for r in report.records)
    distinct = len(set(keys))
    assert len(keys) > distinct  # the same bimodule is asked for again
    assert counts["validated"] == distinct + counts["unkeyed_checked_builds"]


def test_each_ideal_action_is_built_once_per_side_and_idempotent(monkeypatch):
    built = []
    factor = bimod._action_on_subspace_factor

    def counting(algebra_, sub, left):
        built.append((algebra_, left, sub))
        return factor(algebra_, sub, left)

    monkeypatch.setattr(bimod, "_action_on_subspace_factor", counting)
    A, Z = truncated_poly(3), zigzag(2)
    for _ in range(2):
        for X in (A, Z):
            for Y in (A, Z):
                for s in range(len(X.idempotents)):
                    for t in range(len(Y.idempotents)):
                        bimod.proj_bimodule(X, s, Y, t)
    # A e_s and e_t A once each, on each algebra: 2 (1 + 2) builds against
    # the 2 (1 + 2)^2 projective bimodules, each built once too
    ideals = [(id(X), left, sub) for X, left, sub in built]
    assert len(ideals) == len(set(ideals)) == 6


def test_a_kept_bimodule_shares_its_actions_but_not_its_name_labels_or_degrees():
    text = fixture_text(ALGEBRA_FILES["zigzagA2-graded"])
    spec = parse_algebra(text, "zigzagA2_graded.alg")
    A, degs = spec.algebra, spec.degrees
    P = bimod.proj_bimodule(A, 0, A, 1)
    Q = bimod.proj_bimodule(A, 0, A, 1, name="Q")
    G = bimod.proj_bimodule(A, 0, A, 1, deg_a=degs, deg_b=degs)
    G2 = bimod.proj_bimodule(A, 0, A, 1, deg_a=[2 * d for d in degs], deg_b=degs)
    for M in (Q, G, G2):
        assert M.left_gens is P.left_gens and M.right_gens is P.right_gens
        assert M.generator == P.generator
    assert Q.name == "Q" != P.name
    assert P.degrees is None and Q.degrees is None
    assert G.degrees is not None and G2.degrees is not None and G2.degrees != G.degrees
    R = bimod.regular_bimodule(A)
    RG = bimod.regular_bimodule(A, degrees=degs, name="reg")
    assert RG.left_gens is R.left_gens and RG.right_gens is R.right_gens
    assert RG.regular and RG.degrees == tuple(degs) and R.degrees is None
    # a second parse of the same text is another algebra: nothing is shared
    B = parse_algebra(text, "zigzagA2_graded.alg").algebra
    for M, N in ((P, bimod.proj_bimodule(B, 0, B, 1)), (R, bimod.regular_bimodule(B))):
        assert acting(N) == acting(M) and acting(N, right=True) == acting(M, right=True)
        cols = {id(col) for mat in M.left_gens + M.right_gens for col in mat}
        assert not cols & {id(col) for mat in N.left_gens + N.right_gens for col in mat}


def _non_associative_words():
    """1, x, y, z with x.x = y, x.y = z and every other product of x, y, z
    zero: (x.x).x = 0 but x.(x.x) = z.  Every basis element is a single word
    in x, so actions derived along the words are word products, and only
    the algebra's own validation finds the fault."""
    def u(k):
        return [int(i == k) for i in range(4)]

    table = {(1, 1): 2, (1, 2): 3}
    mult = [
        [u(j) if i == 0 else u(i) if j == 0 else u(table[i, j]) if (i, j) in table else [0] * 4
         for j in range(4)]
        for i in range(4)
    ]
    return alg.FinDimAlgebra(["1", "x", "y", "z"], mult, u(0), [u(0)], name="nonassoc")


def _non_associative():
    """1, x, y, z, w with x.y = z, x.z = w and every other product of x, y,
    z, w zero: (x.x).y = 0 but x.(x.y) = w.  Its radical verifies, and past
    the algebra's validation the bimodule validation finds the fault: x acts
    twice on y, and x.x = 0 says it must not."""
    def u(k):
        return [int(i == k) for i in range(5)]

    table = {(1, 2): 3, (1, 3): 4}
    mult = [
        [u(j) if i == 0 else u(i) if j == 0 else u(table[i, j]) if (i, j) in table else [0] * 5
         for j in range(5)]
        for i in range(5)
    ]
    return alg.FinDimAlgebra(["1", "x", "y", "z", "w"], mult, u(0), [u(0)], name="nonassoc")


@pytest.mark.parametrize("make", [_non_associative_words, _non_associative])
def test_bimodules_of_a_non_associative_algebra_are_refused(make):
    A = make()
    for attempt in (1, 2):
        with pytest.raises(alg.AlgebraValidationError, match="associativity fails"):
            bimod.regular_bimodule(A)
        with pytest.raises(alg.AlgebraValidationError, match="associativity fails"):
            bimod.proj_bimodule(A, 0, A, 0)
    assert not [key for key in A._kept if key[0] == "bimodule"]


def test_a_build_whose_validation_raised_is_not_kept(monkeypatch):
    # past the algebra check, so the bimodule's own check raises
    monkeypatch.setattr(alg, "validate", lambda algebra: None)
    A = _non_associative()
    validated = []
    validate = bimod.Bimodule.validate

    def counting_validate(self):
        validated.append(self.name)
        validate(self)

    monkeypatch.setattr(bimod.Bimodule, "validate", counting_validate)
    for attempt in (1, 2):
        with pytest.raises(bimod.BimoduleError, match="not multiplicative"):
            bimod.regular_bimodule(A)
        with pytest.raises(bimod.BimoduleError, match="not multiplicative"):
            bimod.proj_bimodule(A, 0, A, 0)
        assert len(validated) == 2 * attempt  # rebuilt and validated again
    assert not [key for key in A._kept if key[0] == "bimodule"]


def test_one_action_per_generator_is_required_unchecked_too():
    A = truncated_poly(3)
    R = bimod.regular_bimodule(A)
    per_basis = acting(R)  # three matrices for two generators (1, x)
    with pytest.raises(bimod.BimoduleError, match="not one action per generator"):
        bimod.Bimodule(A, A, R.dim, per_basis, R.right_gens, check=False)
    with pytest.raises(bimod.BimoduleError, match="not one action per generator"):
        bimod.Bimodule(A, A, R.dim, R.left_gens, R.right_gens[:1], check=False)


def test_one_degree_per_basis_vector_is_required():
    D = fixture("dualnumbers")
    for degrees in ((0,), (0, 2, 5)):
        with pytest.raises(bimod.BimoduleError, match="not one degree per basis vector"):
            bimod.regular_bimodule(D, degrees=degrees)


# -- diagonal actions are read, not multiplied ------------------------------


def _validate_by_products(M):
    """Bimodule.validate with every product multiplied out."""
    A, B = M.left_algebra, M.right_algebra
    ident = linalg.sp_identity(M.dim)
    left, right = acting(M), acting(M, right=True)
    if not linalg.sp_eq(linalg.sp_lincomb(A.unit, left), ident):
        raise bimod.BimoduleError(f"{M.name}: left action is not unital")
    if not linalg.sp_eq(linalg.sp_lincomb(B.unit, right), ident):
        raise bimod.BimoduleError(f"{M.name}: right action is not unital")
    left_gens = [(g, linalg.sp_lincomb(g, left)) for g in alg.algebra_generators(A)]
    right_gens = [(h, linalg.sp_lincomb(h, right)) for h in alg.algebra_generators(B)]
    for g, lg in left_gens:
        for j, gb in enumerate(A.left_mult_matrix(g)):
            if not linalg.sp_eq(linalg.sp_compose(lg, left[j]), linalg.sp_lincomb(gb, left)):
                raise bimod.BimoduleError(
                    f"{M.name}: left action not multiplicative at ({A.describe(g)}, {A.basis[j]})"
                )
    for h, rh in right_gens:
        for j, bh in enumerate(B.right_mult_matrix(h)):
            if not linalg.sp_eq(linalg.sp_compose(rh, right[j]), linalg.sp_lincomb(bh, right)):
                raise bimod.BimoduleError(
                    f"{M.name}: right action not anti-multiplicative at "
                    f"({B.describe(h)}, {B.basis[j]})"
                )
    for g, lg in left_gens:
        for h, rh in right_gens:
            if not linalg.sp_eq(linalg.sp_compose(lg, rh), linalg.sp_compose(rh, lg)):
                raise bimod.BimoduleError(
                    f"{M.name}: actions do not commute at ({A.describe(g)}, {B.describe(h)})"
                )


def _outcome(check, M):
    """The message check(M) raised, or None."""
    try:
        check(M)
    except bimod.BimoduleError as exc:
        return str(exc)
    return None


def _fixture_bimodules(name):
    """The 1-morphisms of a fixture's build and their tensor products."""
    build = ccx_build(name)
    ms = [build.bimodule(nm) for nm in sorted(build.morphism_info)]
    tensors = [bimod.tensor_over(M, N) for M in ms for N in ms if M.right_algebra is N.left_algebra]
    return ms + tensors


def _with_action(M, left, index, mat, name):
    """M with the action of generator `index` on one side replaced."""
    actions = [list(M.left_gens), list(M.right_gens)]
    actions[0 if left else 1][index] = mat
    return bimod.Bimodule(M.left_algebra, M.right_algebra, M.dim, *actions, name=name, check=False)


def _flipped(mat, q):
    """A diagonal matrix with its q-th diagonal entry 0 <-> 1."""
    return tuple(({} if col else {p: 1}) if p == q else col for p, col in enumerate(mat))


def _idempotent_flips(M):
    """M with one diagonal entry of one idempotent action flipped, alone and
    with the entry moved to the next idempotent, so that the unit still acts
    as the identity."""
    out = []
    sides = ((True, M.left_algebra, M.left_gens), (False, M.right_algebra, M.right_gens))
    for left, algebra, gens in sides:
        n = len(algebra.idempotents)
        for c in range(n):
            mat = gens[c]
            q = next((p for p, col in enumerate(mat) if col), None)
            if q is None:
                continue
            out.append(_with_action(M, left, c, _flipped(mat, q), f"{M.name}/flip"))
            if n > 1:
                f = (c + 1) % n
                moved = _with_action(M, left, c, _flipped(mat, q), f"{M.name}/move")
                out.append(_with_action(moved, left, f, _flipped(gens[f], q), moved.name))
    return out


def _arrow_leaks(M):
    """M with one arrow action sending a basis vector also to itself, so that
    it leaks out of its idempotent block."""
    out = []
    for left, algebra, gens in (
        (True, M.left_algebra, M.left_gens),
        (False, M.right_algebra, M.right_gens),
    ):
        for index in range(len(algebra.idempotents), len(gens)):
            cols = list(gens[index])
            q = next((p for p, col in enumerate(cols) if col and p not in col), None)
            if q is None:
                continue
            cols[q] = {**cols[q], q: 1}
            out.append(_with_action(M, left, index, tuple(cols), f"{M.name}/leak"))
    return out


def _right_swapped(M):
    """M with its right action conjugated by the swap of the first and last
    basis vectors: still a right action, which need not commute with the
    left one."""
    if M.dim < 2:
        return []
    swap = {0: M.dim - 1, M.dim - 1: 0}
    right = [
        tuple({swap.get(r, r): v for r, v in mat[swap.get(q, q)].items()} for q in range(M.dim))
        for mat in M.right_gens
    ]
    return [
        bimod.Bimodule(
            M.left_algebra, M.right_algebra, M.dim, M.left_gens, right,
            name=f"{M.name}/swap", check=False,
        )
    ]


@pytest.mark.parametrize("name", sorted(ALGEBRA_FILES))
def test_diagonal_reads_agree_with_the_products(name):
    for M in _fixture_bimodules(name):
        assert _outcome(bimod.Bimodule.validate, M) is None
        assert _outcome(_validate_by_products, M) is None
        for broken in _idempotent_flips(M) + _arrow_leaks(M) + _right_swapped(M):
            expected = _outcome(_validate_by_products, broken)
            assert expected is not None
            assert _outcome(bimod.Bimodule.validate, broken) == expected


def test_a_flipped_idempotent_entry_is_refused_as_before():
    Z = fixture("zigzagA2")
    P = bimod.proj_bimodule(Z, 0, Z, 1, name="P")
    e1, e2 = (acting(P, e) for e in Z.idempotents)
    q = next(p for p, col in enumerate(e1) if col)
    flip = _with_action(P, True, 0, _flipped(e1, q), "P")
    move = _with_action(flip, True, 1, _flipped(e2, q), "P")
    for broken, message in (
        (flip, "P: left action is not unital"),
        (move, "P: left action not multiplicative at (a, e1)"),
    ):
        assert _outcome(_validate_by_products, broken) == message
        with pytest.raises(bimod.BimoduleError) as raised:
            broken.validate()
        assert str(raised.value) == message


def test_an_arrow_leaking_out_of_its_idempotent_block_is_refused_as_before():
    Z = fixture("zigzagA2")
    P = bimod.proj_bimodule(Z, 0, Z, 1, name="P")
    a = alg.algebra_generators(Z).index({Z.basis.index("a"): 1})
    cols = list(P.left_gens[a])
    q = next(p for p, col in enumerate(cols) if col)
    cols[q] = {**cols[q], q: 1}  # a = e2 a e1 now also keeps a vector of P e1 where it is
    broken = _with_action(P, True, a, tuple(cols), "P")
    message = "P: left action not multiplicative at (e1, a)"
    assert _outcome(_validate_by_products, broken) == message
    with pytest.raises(bimod.BimoduleError) as raised:
        broken.validate()
    assert str(raised.value) == message


# -- products that validation skips or reads -------------------------------


def _word_product_cases():
    """name -> algebra: every bundled algebra, zigzag A3 and k[x]/(x^6)."""
    cases = {name: fixture(name) for name in sorted(ALGEBRA_FILES)}
    cases.update({"zigzagA3": zigzag(3), "x6": truncated_poly(6)})
    return cases


WORD_PRODUCT_CASES = _word_product_cases()


@st.composite
def _integer_actions(draw):
    """(algebra name, left actions): arbitrary integer matrices, one per
    generator of the algebra, on a space of dimension 1 to 3, as sparse
    columns; no bimodule law need hold."""
    name = draw(st.sampled_from(sorted(WORD_PRODUCT_CASES)))
    n = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    actions = [
        tuple({r: x for r, x in enumerate(draw(st.lists(entry, min_size=n, max_size=n))) if x}
              for _ in range(n))
        for _ in alg.algebra_generators(WORD_PRODUCT_CASES[name])
    ]
    return name, actions


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_integer_actions())
def test_skipped_word_products_hold_for_any_action_data(case):
    # validation skips g_k.b_j (b_j.g_k on the right) where _word_products
    # names b_i and the product is b_i: _along_words forms the action of b_i
    # as that very product, rho(g_k)rho(b_j) on either side
    name, gen_actions = case
    A = WORD_PRODUCT_CASES[name]
    words, recipe = alg.basis_words(A)
    generators = alg.algebra_generators(A)
    for anti in (False, True):
        actions = bimod._along_words(A, gen_actions, anti=anti)
        for (k, j), i in bimod._word_products(A, anti=anti).items():
            ((w, c),), ((n, d),) = recipe[j], recipe[i]
            assert c == d == 1
            if anti:
                assert words[w] == (words[n][0], None) and words[words[n][1]] == (k, None)
                gb = A.right_mult_matrix(generators[k])[j]
            else:
                assert words[n] == (k, w)
                gb = A.left_mult_matrix(generators[k])[j]
            assert gb == {i: 1}
            assert linalg.sp_compose(gen_actions[k], actions[j]) == linalg.sp_lincomb(gb, actions)


def test_word_products_are_found_only_where_every_coefficient_is_one():
    for name in ("zigzagA3", "x6", "zigzagA2", "x4local"):
        for anti in (False, True):
            assert bimod._word_products(WORD_PRODUCT_CASES[name], anti)
    # skewext's one product word y.x is -xy, and the rescaled and mixed
    # zigzag A2 have loops 3/2 of a word and arrows sums of words
    rescaled, mixed = (
        parse_algebra((DATA / f"{name}.alg").read_text()).algebra
        for name in ("zigzagA2_rescaled", "zigzagA2_mixed")
    )
    for A in (fixture("skewext"), rescaled, mixed):
        assert any(c != 1 for terms in alg.basis_words(A)[1] for _, c in terms)
        assert bimod._word_products(A, False) == bimod._word_products(A, True) == {}


def test_validation_forms_a_pinned_number_of_products(monkeypatch):
    # every linalg.sp_compose inside Bimodule.validate, the words of
    # _along_words included, once both algebras are validated: 76, 12 and
    # 22 with every product multiplied out; skewext has no word product
    # with coefficient 1 and no idempotent but its unit, so it keeps 22
    Z, X, S = (fixture(name) for name in ("zigzagA2", "x4local", "skewext"))
    compose = linalg.sp_compose
    formed = []

    def counted(a, b):
        formed.append(1)
        return compose(a, b)

    bimodules = (
        bimod.proj_bimodule(Z, 0, Z, 1),
        bimod.regular_bimodule(X),
        bimod.proj_bimodule(S, 0, S, 0),
    )
    monkeypatch.setattr(linalg, "sp_compose", counted)
    counts = []
    for M in bimodules:
        alg.validate(M.left_algebra)
        alg.validate(M.right_algebra)
        formed.clear()
        M.validate()
        counts.append(len(formed))
    assert counts == [32, 9, 22]


# -- the tensor cokernel over the idempotent split ------------------------


def _tensor_ambient(monkeypatch, M, N):
    """M (x) N, the number of pairs its relations run over (the columns of
    the one echelon of linalg.quotient_classes) and the rows that echelon
    receives."""
    sizes, inserted = [], []

    class Recording(linalg.SparseEchelon):
        def __init__(self, ncols):
            super().__init__(ncols)
            sizes.append(ncols)

        def insert(self, row):
            inserted.append(dict(row))
            return super().insert(row)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "SparseEchelon", Recording)
        T = bimod.tensor_over(M, N)
    (ambient,) = sizes
    return T, ambient, inserted


def test_tensor_ambient_is_the_idempotent_split(monkeypatch):
    Z = fixture("zigzagA2")
    k = len(Z.idempotents)

    def cd(a, b):
        return alg.corner_dim(Z, a, b)

    smaller = 0
    for s in range(k):
        for t in range(k):
            for u in range(k):
                for v in range(k):
                    M, N = bimod.proj_bimodule(Z, s, Z, t), bimod.proj_bimodule(Z, u, Z, v)
                    # dim M e_c = dim(A e_s) dim(e_t A e_c), dim e_c N likewise
                    dim_Aes = sum(cd(a, s) for a in range(k))
                    dim_evA = sum(cd(v, b) for b in range(k))
                    split = sum(dim_Aes * cd(t, c) * cd(c, u) * dim_evA for c in range(k))
                    T, ambient, _ = _tensor_ambient(monkeypatch, M, N)
                    assert ambient == split
                    # the closed form: dim(e_t A e_u) copies of A e_s (x) e_v A
                    assert T.dim == cd(t, u) * dim_Aes * dim_evA
                    smaller += split < M.dim * N.dim
    assert smaller == k ** 4


def test_no_zigzag_projective_tensor_reaches_the_echelon(monkeypatch):
    """Over zigzag A2 every balancing relation between projective bimodules
    has one or two terms, so the union-find of linalg.quotient_classes
    solves them all and its echelon receives no row."""
    Z = fixture("zigzagA2")
    k = len(Z.idempotents)
    projectives = [bimod.proj_bimodule(Z, s, Z, t) for s in range(k) for t in range(k)]
    relations = _recording(monkeypatch, "quotient_classes")
    for M in projectives:
        for N in projectives:
            _, ambient, inserted = _tensor_ambient(monkeypatch, M, N)
            assert inserted == [] and ambient
    assert len(relations) == k ** 4
    lengths = {len(row) for rows, _ in relations for row in rows}
    assert lengths == {1, 2}


def test_the_tensor_corpus_reaches_the_echelon_stage(monkeypatch):
    """The mixed basis of zigzag A2 gives balancing relations of three or
    more terms, which the union-find leaves to the echelon, rewritten over
    its roots."""
    A = PROJECTIVE_CENTER_CASES["zigzagA2_mixed"]()
    mixed = [bimod.regular_bimodule(A)]
    mixed += [bimod.proj_bimodule(A, s, A, t) for s in range(2) for t in range(2)]
    corpus = [*_composable_bimodules(), *((M, N) for M in mixed for N in mixed)]
    relations = _recording(monkeypatch, "quotient_classes")
    longer = inserted = 0
    for M, N in corpus:
        relations.clear()
        _, _, rows = _tensor_ambient(monkeypatch, M, N)
        ((relation_rows, _),) = relations
        longer += sum(len(row) > 2 for row in relation_rows)
        inserted += len(rows)
        assert len(rows) <= sum(len(row) > 2 for row in relation_rows)
    assert longer and inserted


def _mix_blocks(P, p, r):
    """P in the basis f_q = b_q for q != p and f_p = b_p + b_r: a
    unitriangular change of basis (p < r)."""
    S = tuple({q: 1, r: 1} if q == p else {q: 1} for q in range(P.dim))
    S_inv = tuple({q: 1, r: -1} if q == p else {q: 1} for q in range(P.dim))
    return _in_basis(P, S, S_inv)


def _rescale(P, p, c):
    """P in the basis f_q = b_q for q != p and f_p = c b_p."""
    S = tuple({q: c} if q == p else {q: 1} for q in range(P.dim))
    S_inv = tuple({q: Fraction(1, c)} if q == p else {q: 1} for q in range(P.dim))
    return _in_basis(P, S, S_inv)


def _in_basis(P, S, S_inv):
    """P in the basis given by the columns of S, with inverse S_inv."""

    def conj(mats):
        return [linalg.sp_compose(S_inv, linalg.sp_compose(X, S)) for X in mats]

    return bimod.Bimodule(
        P.left_algebra, P.right_algebra, P.dim, conj(P.left_gens), conj(P.right_gens)
    )


def _zigzag_blocks():
    """P = A e1 (x) e1 A and Q = A e1 (x) e2 A over zigzag A2, with a basis
    vector p of P fixed by e1 on both sides and one, r, fixed by e2 on both."""
    Z = fixture("zigzagA2")
    e1, e2 = Z.idempotents
    P = bimod.proj_bimodule(Z, 0, Z, 0)
    Q = bimod.proj_bimodule(Z, 0, Z, 1)
    e1s, e2s = (acting(P, e) for e in (e1, e2))
    e1t, e2t = (acting(P, e, right=True) for e in (e1, e2))
    p = next(q for q in range(P.dim) if e1s[q] == e1t[q] == {q: 1})
    r = next(q for q in range(P.dim) if e2s[q] == e2t[q] == {q: 1})
    return P, Q, p, r


def test_tensor_falls_back_to_every_pair_when_a_basis_vector_mixes_blocks(monkeypatch):
    P, Q, p, r = _zigzag_blocks()
    e1 = P.left_algebra.idempotents[0]
    assert p < r
    mixed = _mix_blocks(P, p, r)
    assert acting(mixed, e1, right=True)[p] == {p: 1, r: -1}  # neither fixed nor killed
    Z = P.left_algebra
    # P (x) Q = Q^(dim e1 A e1) and Q (x) P = P^(dim e2 A e1) by the closed form
    cases = (
        (P, Q, mixed, Q, Q, alg.corner_dim(Z, 0, 0)),
        (Q, P, Q, mixed, P, alg.corner_dim(Z, 1, 0)),
    )
    for M, N, M_mixed, N_mixed, base, k in cases:
        T, split, _ = _tensor_ambient(monkeypatch, M, N)
        T_mixed, ambient, _ = _tensor_ambient(monkeypatch, M_mixed, N_mixed)
        assert split < ambient == M.dim * N.dim
        assert T_mixed.dim == T.dim
        # the derived actions of the fallback's quotient are those of the
        # cokernel over every pair, every basis element's column projected
        dim, left, right, _ = _cokernel_over_every_pair(M_mixed, N_mixed)
        assert (T_mixed.dim, list(acting(T_mixed)), list(acting(T_mixed, right=True))) == (
            dim, left, right
        )
        assert bimod.iso_to_direct_power(T, base, k)
        assert bimod.iso_to_direct_power(T_mixed, base, k)


def _cokernel_over_every_pair(M, N):
    """dim, actions and degrees of M (x)_B N as the cokernel over every pair
    of basis vectors, each generator of B balancing each pair, with every
    induced column projected through SparseEchelon.reduce."""
    dn = N.dim
    ech = linalg.SparseEchelon(M.dim * dn)
    for g in alg.algebra_generators(M.right_algebra):
        right_g, left_g = acting(M, g, right=True), acting(N, g)
        for i in range(M.dim):
            for j in range(dn):
                rel = {r * dn + j: v for r, v in right_g[i].items()}
                for r, v in left_g[j].items():
                    rel[i * dn + r] = rel.get(i * dn + r, 0) - v
                ech.insert(rel)
    free = [k for k in range(M.dim * dn) if k not in ech.rows]
    pos = {k: p for p, k in enumerate(free)}

    def project(image):
        return {pos[k]: v for k, v in ech.reduce(image).items()}

    left = [
        tuple(project({r * dn + k % dn: v for r, v in mat[k // dn].items()}) for k in free)
        for mat in acting(M)
    ]
    right = [
        tuple(project({k // dn * dn + r: v for r, v in mat[k % dn].items()}) for k in free)
        for mat in acting(N, right=True)
    ]
    degrees = None
    if M.degrees is not None and N.degrees is not None:
        degrees = tuple(M.degrees[k // dn] + N.degrees[k % dn] for k in free)
    return len(free), left, right, degrees


def _composable_bimodules():
    from fiatcells.fixtures import GRADED_FIXTURES, graded_ccx_build

    builds = [ccx_build(name) for name in PROPERTY_FIXTURES]
    builds += [graded_ccx_build(name) for name in GRADED_FIXTURES]
    # the twin's actions carry quarters, so some classes do too
    twin = parse_algebra(X3_RATIONAL_TWIN, "x3twin.alg").algebra
    builds.append(bimod.build_ccx(bimod.CcxData(algebras=(twin,), name="x3twin")))
    for build in builds:
        for f, g in sorted(build.ms.table):
            yield build.bimodule(f), build.bimodule(g)
    P, Q, p, r = _zigzag_blocks()
    mixed = _mix_blocks(P, p, r)
    yield mixed, Q
    yield Q, mixed
    # a halved class times a doubled action entry: an integral Fraction
    # product that must come out as an int
    doubled = _rescale(P, p, 2)
    yield doubled, Q
    yield doubled, doubled


def test_tensor_classes_match_the_projection_through_the_relation_echelon():
    count = fractions = 0
    for M, N in _composable_bimodules():
        T = bimod.tensor_over(M, N)
        dim, left, right, degrees = _cokernel_over_every_pair(M, N)
        t_left, t_right = acting(T), acting(T, right=True)
        assert (T.dim, list(t_left), list(t_right), T.degrees) == (
            dim, left, right, degrees
        ), (M.name, N.name)
        for mat in t_left + t_right:
            for col in mat:
                for x in col.values():
                    assert type(x) is int or (type(x) is Fraction and x.denominator > 1)
                    fractions += type(x) is Fraction
        count += 1
    assert count > 50 and fractions


# -- the intertwiner solver reads the idempotent pairs --------------------


def _intertwiners_over_every_unknown(pairs, dm, dn):
    """bimod.intertwiners as the nullspace of the full system: every pair,
    every unknown X[p, q] numbered p * dm + q, zero rows included."""
    eqs = []
    for a, b in pairs:
        for q in range(dm):
            for p in range(dn):
                row = {}
                for k, v in a[q].items():  # (X.a)[p, q] = sum_k X[p, k] a[k, q]
                    row[p * dm + k] = row.get(p * dm + k, 0) + v
                for k in range(dn):  # (b.X)[p, q] = sum_k b[p, k] X[k, q]
                    row[k * dm + q] = row.get(k * dm + q, 0) - b[k].get(p, 0)
                eqs.append(row)
    basis = []
    for vec_ in linalg.nullspace(eqs, dn * dm):
        cols = tuple({} for _ in range(dm))
        for idx, v in enumerate(vec_):
            if v:
                cols[idx % dm][idx // dm] = v
        basis.append(cols)
    return basis


def _random_diagonal(rng, n, values):
    return tuple({q: v} if (v := rng.choice(values)) else {} for q in range(n))


def _off_diagonal(rng, n):
    """A random n x n matrix (n > 1) with a nonzero entry at row 1, column 0."""
    return tuple({**col, 1: 3} if q == 0 else col for q, col in enumerate(_random_sparse(rng, n)))


def _diagonal_pair_cases():
    """Seeded (pairs, dm, dn) mixing diagonal pairs with random ones: 0/1
    diagonals, other diagonals, identity and zero pairs, and pairs that are
    diagonal on one side only."""
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        dm, dn = rng.randint(1, 4), rng.randint(1, 4)
        kind = seed % 4
        if kind == 0:  # idempotents
            pairs = [
                (_random_diagonal(rng, dm, (0, 1)), _random_diagonal(rng, dn, (0, 1)))
                for _ in range(rng.randint(1, 3))
            ]
        elif kind == 1:
            values = (0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2))
            pairs = [(_random_diagonal(rng, dm, values), _random_diagonal(rng, dn, values))]
        elif kind == 2:
            ident_m, ident_n = linalg.sp_identity(dm), linalg.sp_identity(dn)
            zero_m, zero_n = tuple({} for _ in range(dm)), tuple({} for _ in range(dn))
            pairs = [(ident_m, ident_n), (zero_m, zero_n)]
            if seed % 8 == 2:
                pairs.append((ident_m, zero_n))  # kills every unknown
        else:  # diagonal on one side, an off-diagonal entry on the other
            dm, dn = max(dm, 2), max(dn, 2)
            if seed % 8 == 3:
                pairs = [(_random_diagonal(rng, dm, (0, 1, 2)), _off_diagonal(rng, dn))]
            else:
                pairs = [(_off_diagonal(rng, dm), _random_diagonal(rng, dn, (0, 1, 2)))]
        if rng.random() < 0.5:
            pairs.append((_random_sparse(rng, dm), _random_sparse(rng, dn)))
        rng.shuffle(pairs)
        cases.append((pairs, dm, dn))
    return cases


def _zigzag_bimodules_and_twins():
    """The projective and regular bimodules of zigzag A2, and each in a
    basis whose first vector mixes two idempotent blocks."""
    Z = fixture("zigzagA2")
    plain = [bimod.proj_bimodule(Z, s, Z, t) for s in range(2) for t in range(2)]
    plain.append(bimod.regular_bimodule(Z))
    twins = []
    for M in plain:
        # r: the first basis vector outside the idempotent blocks of vector 0
        actions = [acting(M, e) for e in Z.idempotents]
        actions += [acting(M, e, right=True) for e in Z.idempotents]
        r = next(q for q in range(M.dim) if any(e[q] != {q: 1} for e in actions if e[0]))
        twins.append(_mix_blocks(M, 0, r))
    return plain, twins


def _hom_pairs(M, N):
    pairs = [(acting(M, g), acting(N, g)) for g in alg.algebra_generators(M.left_algebra)]
    return pairs + [
        (acting(M, g, right=True), acting(N, g, right=True))
        for g in alg.algebra_generators(M.right_algebra)
    ]


def test_intertwiners_equal_the_basis_of_the_full_system():
    nonzero = 0
    for pairs, dm, dn in _diagonal_pair_cases():
        basis = bimod.intertwiners(pairs, dm, dn)
        assert basis == _intertwiners_over_every_unknown(pairs, dm, dn), (pairs, dm, dn)
        nonzero += bool(basis)
        # each equation is built from the live unknowns that enter it, and
        # holds no entry that cancelled
        eqs, _ = bimod._intertwiner_system(pairs, dm, dn)
        assert all(eq and all(eq.values()) for eq in eqs)
    assert nonzero > 20
    plain, twins = _zigzag_bimodules_and_twins()
    for family in (plain, twins):
        for M in family:
            for N in family:
                homs = bimod.hom_space(M, N)
                assert homs == _intertwiners_over_every_unknown(_hom_pairs(M, N), M.dim, N.dim)
                assert homs


def _recording(monkeypatch, name="nullspace"):
    """Patch linalg.<name>, a function of (rows, ncols), to record the rows
    and column count of each call."""
    calls = []
    original = getattr(linalg, name)

    def recording(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return original(rows, ncols)

    monkeypatch.setattr(linalg, name, recording)
    return calls


def test_hom_space_eliminates_only_the_live_unknowns(monkeypatch):
    calls = _recording(monkeypatch)
    # zigzag A2: X[p, q] lives only where p and q share their blocks
    Z = fixture("zigzagA2")
    P = bimod.proj_bimodule(Z, 0, Z, 0)

    def blocks(i):
        return tuple(acting(P, e)[i] == {i: 1} for e in Z.idempotents) + tuple(
            acting(P, e, right=True)[i] == {i: 1} for e in Z.idempotents
        )

    block_diagonal = sum(blocks(p) == blocks(q) for p in range(P.dim) for q in range(P.dim))
    assert len(bimod.hom_space(P, P)) == 4
    ((rows, ncols),) = calls
    assert ncols == block_diagonal == 25 < P.dim**2
    assert all(k < ncols for row in rows for k in row)
    # k[x]/(x^3): the unit pair kills nothing and adds no rows
    A = truncated_poly(3)
    Q = bimod.proj_bimodule(A, 0, A, 0)
    pairs = _hom_pairs(Q, Q)
    unit = (linalg.sp_identity(Q.dim), linalg.sp_identity(Q.dim))
    assert pairs.count(unit) == 2
    calls.clear()
    bimod.hom_space(Q, Q)
    bimod.intertwiners([pair for pair in pairs if pair != unit], Q.dim, Q.dim)
    (with_unit, unknowns), (without_unit, _) = calls
    assert unknowns == Q.dim**2 and with_unit == without_unit and with_unit


def test_intertwiner_dim_is_the_length_of_the_basis(monkeypatch):
    for pairs, dm, dn in _diagonal_pair_cases():
        assert bimod.intertwiner_dim(pairs, dm, dn) == len(bimod.intertwiners(pairs, dm, dn))
    plain, twins = _zigzag_bimodules_and_twins()
    cases = [(M, N) for family in (plain, twins) for M in family for N in family]
    A = truncated_poly(3)
    cases += [(bimod.proj_bimodule(A, 0, A, 0), bimod.regular_bimodule(A))] * 2
    dims = [len(bimod.hom_space(M, N)) for M, N in cases]
    rep = ccx_build("zigzagA2").cellrep
    # hom_dim ranks the generic system: it forms no basis and solves nothing
    calls = _recording(monkeypatch)
    monkeypatch.setattr(bimod, "hom_space", None)
    assert [bimod.hom_dim(M, N) for M, N in cases] == dims
    assert bimod.commutant_dimension(rep) == 1
    assert calls == []


@pytest.mark.parametrize("name", PROPERTY_FIXTURES)
def test_the_suites_hom_ranks_are_the_lengths_of_their_bases(monkeypatch, name):
    """Every system the dimension and Duflo suites and the commutant rank
    through linalg.rank has as many solutions as `intertwiners` finds."""
    build = ccx_build(name)
    systems = []
    original = bimod.intertwiner_dim

    def recording(pairs, dm, dn):
        systems.append((pairs, dm, dn))
        return original(pairs, dm, dn)

    monkeypatch.setattr(bimod, "intertwiner_dim", recording)
    bimod.verify_dimension_identities(build)
    bimod.verify_duflo_hom_dimension(build)
    bimod.commutant_dimension(build.cellrep)
    assert len(systems) > 2
    for pairs, dm, dn in systems:
        assert original(pairs, dm, dn) == len(bimod.intertwiners(pairs, dm, dn))


def test_no_truncated_poly_or_zigzag_projective_hom_reaches_the_echelon(monkeypatch):
    """On the projective bimodules of k[x]/(x^4) and zigzag A2 every
    equation of the hom system has one or two terms, so the union-find of
    linalg.rank solves them all and no row reaches a SparseEchelon."""
    inserted = []

    class Recording(linalg.SparseEchelon):
        def insert(self, row):
            inserted.append(dict(row))
            return super().insert(row)

    ranked = _recording(monkeypatch, "rank")
    for A in (fixture("x4local"), fixture("zigzagA2")):
        k = len(A.idempotents)
        projectives = [bimod.proj_bimodule(A, s, A, t) for s in range(k) for t in range(k)]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "SparseEchelon", Recording)
            for M in projectives:
                for N in projectives:
                    bimod.hom_dim(M, N)
    assert inserted == []
    assert len(ranked) == 1 + 2 ** 4
    lengths = {len(row) for rows, _ in ranked for row in rows}
    assert lengths == {1, 2}


# -- bimodules held by their generators' actions ----------------------------


def _per_basis_factor(A, sub, left):
    """The action of every basis element of A on a left (right) ideal, in the
    canonical basis of the ideal: column u of L_b (of R_b, whose column q is
    basis[q].b), read at the pivots."""
    d = A.dim
    pivots = [min(row) for row in sub.rows]
    mats = []
    for i in range(d):
        act = A.mult[i] if left else tuple(A.mult[q][i] for q in range(d))
        cols = []
        for u in sub.rows:
            img = linalg.sp_apply(act, u)
            assert sub.contains(img)
            cols.append({r: img[p] for r, p in enumerate(pivots) if p in img})
        mats.append(tuple(cols))
    return mats


def _per_basis_projective(A, s, B, t):
    """(left_action, right_action) of (A e_s)(x)(e_t B), every basis element
    acting on its own factor of the pairs u (x) v, numbered u * q + v."""
    left_mats = _per_basis_factor(A, alg.left_ideal(A, s), True)
    right_mats = _per_basis_factor(B, alg.right_ideal(B, t), False)
    p, q = alg.left_ideal(A, s).dim, alg.right_ideal(B, t).dim
    left, right = [], []
    for src in left_mats:
        cols = [None] * (p * q)
        for iu in range(p):
            for iv in range(q):
                cols[iu * q + iv] = {r * q + iv: v for r, v in src[iu].items()}
        left.append(tuple(cols))
    for src in right_mats:
        cols = [None] * (p * q)
        for iv in range(q):
            for iu in range(p):
                cols[iu * q + iv] = {iu * q + r: v for r, v in src[iv].items()}
        right.append(tuple(cols))
    return tuple(left), tuple(right)


@pytest.mark.parametrize("name", sorted(PROJECTIVE_CENTER_CASES))
def test_derived_actions_match_the_per_basis_references(name):
    A = PROJECTIVE_CENTER_CASES[name]()
    n = len(A.idempotents)
    reg = bimod.regular_bimodule(A)
    assert acting(reg) == A.mult
    assert acting(reg, right=True) == tuple(A.right_mult_matrix({j: 1}) for j in range(A.dim))
    projectives = [bimod.proj_bimodule(A, s, A, t) for s in range(n) for t in range(n)]
    for P in projectives:
        s, t = P.generator
        assert (acting(P), acting(P, right=True)) == _per_basis_projective(A, s, A, t), P.name
    # each tensor product's derived actions against the cokernel over every
    # pair, with every basis element's induced column projected
    for M in [reg] + projectives:
        for N in [reg] + projectives:
            T = bimod.tensor_over(M, N)
            dim, left, right, _ = _cokernel_over_every_pair(M, N)
            assert (T.dim, list(acting(T)), list(acting(T, right=True))) == (dim, left, right), (
                M.name, N.name
            )


def test_a_tensor_product_holds_generator_actions_and_derives_the_rest_once(monkeypatch):
    Z = zigzag(2)
    P, Q = bimod.proj_bimodule(Z, 0, Z, 1), bimod.proj_bimodule(Z, 1, Z, 0)
    derived = []
    along_words = bimod._along_words

    def counting(algebra, generator_actions, anti):
        derived.append(anti)
        return along_words(algebra, generator_actions, anti)

    monkeypatch.setattr(bimod, "_along_words", counting)
    T = bimod.tensor_over(P, Q)
    assert T.dim == 3 * 3 * alg.corner_dim(Z, 1, 1)
    n = len(alg.algebra_generators(Z))
    assert type(T.left_gens) is tuple and len(T.left_gens) == n < Z.dim
    assert type(T.right_gens) is tuple and len(T.right_gens) == n
    assert derived == []  # built on generators, nothing derived
    left = acting(T)
    assert derived == [False] and len(left) == Z.dim
    T.validate()  # derives each side once, and keeps neither
    assert derived == [False, False, True]


def test_a_bimodule_keeps_only_what_it_is_given():
    spec = parse_algebra(fixture_text(ALGEBRA_FILES["zigzagA2-graded"]), "zigzagA2_graded.alg")
    A, degs = spec.algebra, spec.degrees
    P = bimod.proj_bimodule(A, 0, A, 1)
    R = bimod.regular_bimodule(A)
    G = bimod.proj_bimodule(A, 0, A, 1, deg_a=degs, deg_b=degs)
    for M in (P, R, G):
        given = dict(vars(M))
        M.validate()
        assert bimod.hom_dim(M, M) == len(bimod.hom_space(M, M))
        bimod.tensor_over(M, R)
        bimod.tensor_over(R, M)
        assert bimod.top_iso(M, M, 1)
        assert vars(M).keys() == given.keys(), M.name
        assert all(vars(M)[key] is value for key, value in given.items()), M.name
    # a shift keeps the generator and the regular flag, and recomputes the
    # generator degrees, which no shift moves
    for M in (G, bimod.regular_bimodule(A, degrees=degs)):
        S = M.shifted(3)
        assert (S.generator, S.regular) == (M.generator, M.regular)
        assert S.left_gens is M.left_gens and S.right_gens is M.right_gens
        assert S.degrees == tuple(d - 3 for d in M.degrees)
        assert S.generator_degrees == M.generator_degrees == bimod._generator_degrees(S)


# the same zigzag algebras in the bundled or generated basis
IN_ANOTHER_BASIS = {
    "zigzagA2_rescaled": lambda: fixture("zigzagA2"),
    "zigzagA2_mixed": lambda: fixture("zigzagA2"),
    "zigzagA3-mixed": lambda: zigzag(3),
}


@pytest.mark.parametrize("name", sorted(IN_ANOTHER_BASIS))
def test_the_closed_form_holds_in_another_basis(name):
    records = [
        bimod.verify_closed_form_composition(bimod.build_ccx(bimod.CcxData(algebras=(A,))))
        for A in (PROJECTIVE_CENTER_CASES[name](), IN_ANOTHER_BASIS[name]())
    ]
    assert len(records[0]) in (25, 100) and all(r.passed for r in records[0])
    assert [r.values for r in records[0]] == [r.values for r in records[1]]
