import pytest

from fiatcells import algebra as alg
from fiatcells import bimod, graded, linalg, mscell
from fiatcells.fixtures import (
    ALGEBRA_FILES,
    ccx_build,
    fixture_text,
    graded_ccx_build,
    load_algebra,
)
from fiatcells.formats import parse_algebra
from fiatcells.laurent import LaurentPoly

from test_bimod import acting


def graded_fixture(name):
    spec = load_algebra(name)
    return graded.GradedAlgebra(spec.algebra, spec.degrees)


def graded_truncated_poly_text(n):
    """`.alg` text of k[x]/(x^n) on the basis 1, x1, ..., x(n-1), deg x = 2."""
    names = ["1"] + [f"x{k}" for k in range(1, n)]
    lines = [f"algebra x{n}-graded", "basis " + " ".join(names), "unit = 1", "idempotent 1"]
    lines += [
        f"{names[i]}*{names[j]} = {names[i + j]}" for i in range(n) for j in range(n - i)
    ]
    lines += [f"deg {names[k]} = {2 * k}" for k in range(1, n)]
    return "\n".join(lines) + "\n"


def graded_build_from_text(text):
    spec = parse_algebra(text)
    return graded.build_graded_ccx([graded.GradedAlgebra(spec.algebra, spec.degrees)])


CORNER_CASES = {
    "dualnumbers": fixture_text(ALGEBRA_FILES["dualnumbers"]),
    "zigzagA2-graded": fixture_text(ALGEBRA_FILES["zigzagA2-graded"]),
    **{f"x{n}": graded_truncated_poly_text(n) for n in (2, 3, 4, 5)},
}


def count_hom_space_calls(monkeypatch):
    calls = []
    generic = bimod.hom_space

    def spy(M, N):
        calls.append((M.name, N.name))
        return generic(M, N)

    monkeypatch.setattr(bimod, "hom_space", spy)
    return calls


def _hom_degree_split(M, N, homs):
    """Split column-sparse hom matrices into homogeneous components keyed by
    degree."""
    if M.degrees is None or N.degrees is None:
        raise graded.GradedError("graded hom series needs graded bimodules")
    split: dict[int, list] = {}
    for mat in homs:
        parts: dict[int, tuple] = {}
        for q, col in enumerate(mat):
            for p, v in col.items():
                d = N.degrees[p] - M.degrees[q]
                if d not in parts:
                    parts[d] = tuple({} for _ in range(M.dim))
                parts[d][q][p] = v
        for d, part in parts.items():
            split.setdefault(d, []).append(part)
    return split


def reference_hom_series(M, N, homs=None):
    """The graded hom series as the degree split of a hom basis, by default
    the generic bimod.hom_space one: each degree's coefficient is the rank of
    the components of that degree, and they must add up to the basis."""
    homs = bimod.hom_space(M, N) if homs is None else homs
    coeffs = {
        d: linalg.rank([linalg.sp_flatten(m, N.dim) for m in mats], N.dim * M.dim)
        for d, mats in _hom_degree_split(M, N, homs).items()
    }
    assert sum(coeffs.values()) == len(homs), "graded decomposition lost hom dimensions"
    return LaurentPoly(coeffs)


def assert_intertwiners(M, N, homs):
    A, B = M.left_algebra, M.right_algebra
    for Y in homs:
        for g in alg.algebra_generators(A):
            assert linalg.sp_eq(
                linalg.sp_compose(acting(N, g), Y), linalg.sp_compose(Y, acting(M, g))
            )
        for g in alg.algebra_generators(B):
            assert linalg.sp_eq(
                linalg.sp_compose(acting(N, g, right=True), Y),
                linalg.sp_compose(Y, acting(M, g, right=True)),
            )


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_hom_series_match_the_generic_solver(name, monkeypatch):
    build = graded_build_from_text(CORNER_CASES[name])
    generic = bimod.hom_space
    calls = count_hom_space_calls(monkeypatch)
    for names in graded._same_pair_names(build).values():
        for f in names:
            for g in names:
                M, N = build.bimodule(f), build.bimodule(g)
                series = reference_hom_series(M, N, generic(M, N))
                assert graded.graded_hom_series(M, N) == series
    assert calls == []  # every source is a projective or the identity


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_homs_into_bimodules_outside_the_build(name):
    build = graded_build_from_text(CORNER_CASES[name])
    g_name = mscell.duflo(build.ms, build.cellrep.left_cell)
    duflo_bim = build.bimodule(g_name)
    dual = graded.star_bimodule(duflo_bim, left_degrees=build.gradings[0].degrees)
    targets = [dual, bimod.direct_sum([duflo_bim, build.bimodule("I1")])]
    for f in build.ms.names:
        M = build.bimodule(f)
        assert M.generator is not None or M.regular
        for N in targets:
            homs = bimod.hom_space(M, N)
            assert_intertwiners(M, N, homs)
            flat = [linalg.sp_flatten(Y, N.dim) for Y in homs]
            assert linalg.rank(flat, N.dim * M.dim) == len(homs)
            assert len(homs) == bimod.hom_dim(M, N)
            assert graded.graded_hom_series(M, N) == reference_hom_series(M, N, homs)


def test_grading_validation_rejects_bad_degrees():
    spec = load_algebra("dualnumbers")
    with pytest.raises(graded.GradedError, match="non-negative"):
        graded.GradedAlgebra(spec.algebra, (0, -1))
    # deg x = 0 is additive but puts x into the degree-0 part
    with pytest.raises(graded.GradedError, match="degree-0"):
        graded.GradedAlgebra(spec.algebra, (0, 0))


def test_grading_validation_details():
    spec = load_algebra("x3local")
    # x*x = x2 forces deg x2 = 2 deg x
    with pytest.raises(graded.GradedError, match="homogeneous"):
        graded.GradedAlgebra(spec.algebra, (0, 1, 3))
    ga = graded.GradedAlgebra(spec.algebra, (0, 1, 2))
    assert ga.corner_hilbert(0) == LaurentPoly({0: 1, 1: 1, 2: 1})
    # degree-0 part larger than the idempotent span is rejected
    with pytest.raises(graded.GradedError, match="degree-0"):
        graded.GradedAlgebra(spec.algebra, (0, 0, 0))


def test_hilbert_series():
    zig = graded_fixture("zigzagA2-graded")
    assert zig.corner_hilbert(0) == LaurentPoly({0: 1, 2: 1})
    assert zig.corner_hilbert(1) == LaurentPoly({0: 1, 2: 1})
    assert zig.corner_hilbert(0, 1) == LaurentPoly({1: 1})
    full = zig.hilbert(linalg.Subspace.full(zig.base.dim))  # the left ideal A.1
    assert full == LaurentPoly({0: 2, 1: 2, 2: 2})


def test_default_shifts():
    build = graded_ccx_build("dualnumbers")
    assert build.shifts == {"I1": 0, "F11_11": 1}
    buildz = graded_ccx_build("zigzagA2-graded")
    assert all(buildz.shifts[f] == 1 for f in buildz.shifts if f != "I1")


def test_default_shift_rejects_odd_top_degree():
    spec = load_algebra("dualnumbers")
    ga = graded.GradedAlgebra(spec.algebra, (0, 1))  # deg x = 1: top degree odd
    with pytest.raises(graded.GradedError, match="odd"):
        graded.build_graded_ccx([ga])


def test_identity_shift_pinned():
    spec = load_algebra("dualnumbers")
    ga = graded.GradedAlgebra(spec.algebra, spec.degrees)
    with pytest.raises(graded.GradedError, match="identity"):
        graded.build_graded_ccx([ga], shifts={"I1": 1, "F11_11": 1})


def test_graded_hom_series_values():
    build = graded_ccx_build("dualnumbers")
    g = build.bimodule("F11_11")
    ident = build.bimodule("I1")
    assert graded.graded_hom_series(g, ident) == LaurentPoly({1: 1, 3: 1})
    assert graded.graded_hom_series(ident, g) == LaurentPoly({1: 1, 3: 1})
    assert graded.graded_hom_series(ident, ident) == LaurentPoly({0: 1, 2: 1})
    assert graded.graded_hom_series(g, g) == LaurentPoly({0: 1, 2: 2, 4: 1})


def test_ungrading_consistency():
    for name in ("dualnumbers", "zigzagA2-graded"):
        build = graded_ccx_build(name)
        names = sorted(build.ms.names)
        for f in names:
            for g in names:
                M, N = build.bimodule(f), build.bimodule(g)
                if M.left_algebra is not N.left_algebra:
                    continue
                homs = bimod.hom_space(M, N)
                series = reference_hom_series(M, N, homs)
                assert series(1) == len(homs)
                assert graded.graded_hom_series(M, N) == series
                assert bimod.hom_dim(M, N) == len(homs)


def test_positivity_example_and_failure():
    build = graded_ccx_build("dualnumbers")
    recs = graded.positivity_check(build)
    assert all(r.passed for r in recs)
    spec = load_algebra("dualnumbers")
    ga = graded.GradedAlgebra(spec.algebra, spec.degrees)
    build0 = graded.build_graded_ccx([ga], shifts={"F11_11": 0})
    recs0 = graded.positivity_check(build0)
    assert not all(r.passed for r in recs0)
    failing = [r for r in recs0 if not r.passed]
    assert any("F11_11 -> I1" in r.values["pair"] for r in failing)


def test_positivity_zigzag():
    build = graded_ccx_build("zigzagA2-graded")
    recs = graded.positivity_check(build)
    assert all(r.passed for r in recs)


def test_invariants_dualnumbers():
    build = graded_ccx_build("dualnumbers")
    assert graded.min_hom_degree_to_identity(build) == 1
    assert graded.top_corner_degree(build) == 2


def test_dual_shift_identity(monkeypatch):
    for name in ("dualnumbers", "zigzagA2-graded"):
        build = graded_ccx_build(name)
        calls = count_hom_space_calls(monkeypatch)
        recs = graded.verify_dual_shift_identity(build)
        assert calls == []  # every hom space read off a corner or a centraliser
        assert all(r.passed for r in recs)
        assert recs[0].values["shift"] == 0


def test_dual_shift_identity_negative():
    for name in ("dualnumbers", "zigzagA2-graded"):
        build = graded_ccx_build(name)
        g_name = mscell.duflo(build.ms, build.cellrep.left_cell)
        g_bim = build.bimodule(g_name)
        dual = graded.star_bimodule(g_bim, left_degrees=build.gradings[0].degrees)
        a_val = graded.min_hom_degree_to_identity(build)
        l_val = graded.top_corner_degree(build)
        assert not graded.graded_iso_test(dual, g_bim.shifted(l_val - 2 * a_val + 2))


def test_star_bimodule_realizes_expected_dual():
    build = graded_ccx_build("zigzagA2-graded")
    g12 = build.bimodule("F11_12")
    dual = graded.star_bimodule(g12, left_degrees=build.gradings[0].degrees)
    # dual of (A e1)(x)(e2 A)<1> is (A e2)(x)(e1 A)<l2 - 1> = F11_21<1>
    target = build.bimodule("F11_21")
    assert dual.dim == target.dim
    assert sorted(dual.degrees) == sorted(target.degrees)
    assert graded.graded_iso_test(dual, target)


def test_star_bimodule_rejects_a_right_action_that_is_not_left_linear():
    D = load_algebra("dualnumbers").algebra
    reg = bimod.regular_bimodule(D)
    swap = ({1: 1}, {0: 1})  # m . x swaps the basis vectors 1 and x
    broken = bimod.Bimodule(D, D, reg.dim, reg.left_gens, (reg.right_gens[0], swap), check=False)
    with pytest.raises(graded.GradedError, match="left the dual hom space"):
        graded.star_bimodule(broken)


def _dual_basis(M, left_degrees=None):
    """(phis, degrees, coords) of the adjoint of M: the intertwiner basis of
    Hom_A(M, A), its hom degrees (None unless both gradings are present),
    and the reader of a map's coordinates in it, which asserts membership."""
    A = M.left_algebra
    reg = bimod.regular_bimodule(A)
    phis = bimod.intertwiners(
        [(acting(M, g), acting(reg, g)) for g in alg.algebra_generators(A)], M.dim, A.dim
    )
    degrees = None
    if M.degrees is not None and left_degrees is not None:
        degrees = []
        for phi in phis:
            degs = {left_degrees[p] - M.degrees[q] for q, col in enumerate(phi) for p in col}
            assert len(degs) == 1
            degrees.append(degs.pop())
    free = [max((p, q) for q, col in enumerate(phi) for p in col) for phi in phis]

    def coords(target):
        sol = [target[q].get(p, 0) for p, q in free]
        assert linalg.sp_eq(linalg.sp_lincomb(sol, phis), target), "left the dual hom space"
        return {r: x for r, x in enumerate(sol) if x}

    return phis, degrees, coords


def _reference_star(M, left_degrees=None):
    """(dim, degrees, left_action, right_action) of the adjoint bimodule with
    every basis element's action formed and written in the dual basis one by
    one: one product and one membership check per (basis element, dual
    vector) pair, on both sides, from the basis actions of M and of A."""
    A = M.left_algebra
    phis, degrees, coords = _dual_basis(M, left_degrees)
    left_action = tuple(
        tuple(coords(linalg.sp_compose(phi, rb)) for phi in phis) for rb in acting(M, right=True)
    )
    right_action = tuple(
        tuple(coords(linalg.sp_compose(A.right_mult_matrix({j: 1}), phi)) for phi in phis)
        for j in range(A.dim)
    )
    return len(phis), None if degrees is None else tuple(degrees), left_action, right_action


def _star_composing_every_generator(M, left_degrees=None):
    """The adjoint bimodule formed on generators, as star_bimodule does, but
    with every generator's product formed and written in the dual basis, the
    unit's included."""
    A, B = M.left_algebra, M.right_algebra
    reg = bimod.regular_bimodule(A)
    phis, degrees, coords = _dual_basis(M, left_degrees)
    left_gens = [
        tuple(coords(linalg.sp_compose(phi, acting(M, h, right=True))) for phi in phis)
        for h in alg.algebra_generators(B)
    ]
    right_gens = [
        tuple(coords(linalg.sp_compose(acting(reg, g, right=True), phi)) for phi in phis)
        for g in alg.algebra_generators(A)
    ]
    return bimod.Bimodule(
        B, A, len(phis), left_gens, right_gens, degrees=degrees, name=f"dual({M.name})"
    )


def graded_zigzag_text(m):
    """`.alg` text of the zigzag algebra of A_m, arrows in degree 1 and loops
    in degree 2, its basis listed arrows first."""
    es = [f"e{i}" for i in range(1, m + 1)]
    names = [f"a{i}" for i in range(1, m)] + [f"b{i}" for i in range(1, m)]
    names += [f"w{i}" for i in range(1, m + 1)] + es
    lines = [f"algebra zigzagA{m}-graded", "basis " + " ".join(names)]
    lines += ["unit = " + " + ".join(es)] + [f"idempotent {e}" for e in es]
    lines += [f"{e}*{e} = {e}" for e in es]
    for i in range(1, m):
        src, tgt = f"e{i}", f"e{i + 1}"
        lines += [f"{tgt}*a{i} = a{i}", f"a{i}*{src} = a{i}"]
        lines += [f"{src}*b{i} = b{i}", f"b{i}*{tgt} = b{i}"]
        lines += [f"b{i}*a{i} = w{i}", f"a{i}*b{i} = w{i + 1}"]
        lines += [f"deg a{i} = 1", f"deg b{i} = 1"]
    for i in range(1, m + 1):
        lines += [f"e{i}*w{i} = w{i}", f"w{i}*e{i} = w{i}", f"deg w{i} = 2"]
    return "\n".join(lines) + "\n"


STAR_CASES = {
    "dualnumbers": lambda: graded_ccx_build("dualnumbers"),
    "zigzagA2-graded": lambda: graded_ccx_build("zigzagA2-graded"),
    **{
        f"x{n}-graded": lambda n=n: graded_build_from_text(graded_truncated_poly_text(n))
        for n in (3, 4, 5)
    },
    "zigzagA2-graded-text": lambda: graded_build_from_text(graded_zigzag_text(2)),
    # recipes that are not one word: xy = -(y.x), and x2 = (x1.x1)/2
    "skewext-graded": lambda: graded_build_from_text(
        fixture_text(ALGEBRA_FILES["skewext"]) + "deg x = 1\ndeg y = 1\ndeg xy = 2\n"
    ),
    "x4-graded-scaled": lambda: graded_build_from_text(
        graded_truncated_poly_text(4)
        .replace("x1*x1 = x2", "x1*x1 = 2*x2")
        .replace("x1*x2 = x3", "x1*x2 = 1/2*x3")
        .replace("x2*x1 = x3", "x2*x1 = 1/2*x3")
    ),
}


def _duflo_bimodule(build):
    g_name = mscell.duflo(build.ms, build.cellrep.left_cell)
    return build.bimodule(g_name), build.gradings[build.info(g_name)[1]].degrees


@pytest.mark.parametrize("name", sorted(STAR_CASES))
def test_star_on_generators_matches_the_per_basis_element_reference(name):
    build = STAR_CASES[name]()
    g_bim, degrees = _duflo_bimodule(build)
    others = [build.bimodule(nm) for nm in sorted(build.morphism_info)]
    for M in [g_bim] + others:
        dual = graded.star_bimodule(M, left_degrees=degrees)
        dim, ref_degrees, left_action, right_action = _reference_star(M, left_degrees=degrees)
        assert (dual.dim, dual.degrees) == (dim, ref_degrees), M.name
        assert acting(dual) == left_action, M.name
        assert acting(dual, right=True) == right_action, M.name


def _fixture_one_morphisms():
    """(M, None) for every 1-morphism of every bundled fixture's build, and
    (G, degrees) for the Duflo bimodule G of every graded star case."""
    cases = []
    for name in sorted(ALGEBRA_FILES):
        build = ccx_build(name)
        cases += [(build.bimodule(nm), None) for nm in sorted(build.morphism_info)]
    for name in sorted(STAR_CASES):
        cases.append(_duflo_bimodule(STAR_CASES[name]()))
    return cases


def test_star_matches_the_dual_that_composes_every_generator():
    for M, degrees in _fixture_one_morphisms():
        dual = graded.star_bimodule(M, left_degrees=degrees)
        ref = _star_composing_every_generator(M, left_degrees=degrees)
        assert (dual.dim, dual.degrees) == (ref.dim, ref.degrees), M.name
        assert acting(dual) == acting(ref), M.name
        assert acting(dual, right=True) == acting(ref, right=True), M.name


def test_star_composes_nothing_with_the_units_action(monkeypatch):
    D = parse_algebra(fixture_text(ALGEBRA_FILES["dualnumbers"])).algebra
    P = bimod.proj_bimodule(D, 0, D, 0, name="P")
    units = (acting(P, D.unit, right=True), acting(bimod.regular_bimodule(D), D.unit, right=True))
    with_unit = []
    compose = linalg.sp_compose

    def counted(a, b):
        if any(x is u for x in (a, b) for u in units):
            with_unit.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(linalg, "sp_compose", counted)
    dual = graded.star_bimodule(P)
    assert with_unit == []
    assert acting(dual, D.unit) == linalg.sp_identity(dual.dim)


def test_star_refuses_a_unit_that_does_not_act_as_the_identity():
    # the unit acts on the dual as the identity only once rho_M(1) = I is seen
    D = load_algebra("dualnumbers").algebra
    reg = bimod.regular_bimodule(D)
    right = list(reg.right_gens)
    right[0] = tuple({q: 2} for q in range(reg.dim))  # generator 0 is the unit
    broken = bimod.Bimodule(D, D, reg.dim, reg.left_gens, right, name="M", check=False)
    with pytest.raises(bimod.BimoduleError, match=r"dual\(M\): left action is not unital"):
        graded.star_bimodule(broken)


def test_left_words_composed_as_an_anti_homomorphism_are_refused(monkeypatch):
    along_words = bimod._along_words

    def swapped(algebra, generator_actions, anti):
        return along_words(algebra, generator_actions, anti=True)

    for build in (graded_ccx_build("zigzagA2-graded"), STAR_CASES["zigzagA2-graded-text"]()):
        g_bim, degrees = _duflo_bimodule(build)
        bimod.regular_bimodule(g_bim.left_algebra)  # built and kept before the patch
        with monkeypatch.context() as patch:
            patch.setattr(bimod, "_along_words", swapped)
            with pytest.raises(bimod.BimoduleError, match="left action not multiplicative"):
                graded.star_bimodule(g_bim, left_degrees=degrees)


def test_build_graded_ccx_refuses_unknown_shift_names():
    ga = graded_fixture("dualnumbers")
    with pytest.raises(graded.UnknownShiftError, match="F11_1, F22_11"):
        graded.build_graded_ccx([ga], shifts={"F11_11": 1, "F22_11": 0, "F11_1": 5})
    build = graded.build_graded_ccx([ga], shifts={"F11_11": 1})
    assert build.shifts == {"F11_11": 1, "I1": 0}


def test_build_graded_ccx_refuses_identity_shifts():
    ga = graded_fixture("dualnumbers")
    with pytest.raises(graded.UnknownShiftError, match="must have shift 0: I1"):
        graded.build_graded_ccx([ga], shifts={"I1": 1})
    build = graded.build_graded_ccx([ga], shifts={"I1": 0, "F11_11": 1})
    assert build.shifts == {"F11_11": 1, "I1": 0}


def test_hilbert_transfer():
    build = graded_ccx_build("zigzagA2-graded")
    recs = graded.verify_hilbert_transfer(build)
    assert all(r.passed for r in recs)
    values = recs[0].values
    assert values["chi_G"] == "1 + t^2"
    assert values["psi"] == "1"
    assert values["psi_at_one"] == 1
    assert values["transfer_element"] == "F11_12"


def test_a_graded_build_keeps_one_graded_algebra_per_object(monkeypatch):
    from fiatcells import fixtures, verify

    validated = []
    post_init = graded.GradedAlgebra.__post_init__

    def counting(self):
        validated.append(self.base)
        post_init(self)

    monkeypatch.setattr(graded.GradedAlgebra, "__post_init__", counting)
    monkeypatch.setattr(fixtures, "_cache", {})  # build everything afresh
    report = verify.graded_report("zigzagA2-graded")
    assert report.records and all(r.passed for r in report.records)
    build = fixtures.graded_ccx_build("zigzagA2-graded")
    (ga,) = build.gradings
    assert validated == [ga.base] and ga.base is build.algebra_at(0)
    assert graded.top_corner_degree(build) == 2
    assert all(r.passed for r in graded.verify_hilbert_transfer(build))
    assert len(validated) == 1  # the readers read the kept graded algebra


def test_hilbert_transfer_single_cell():
    build = graded_ccx_build("dualnumbers")
    recs = graded.verify_hilbert_transfer(build)
    assert all(r.passed for r in recs)
    assert recs[0].values["psi"] == "1"


def test_shift_translation_invariants():
    """Translating the non-identity shifts moves the minimal hom degree but
    leaves the top corner degree, the transfer quotient and the dual-shift
    identity intact (positivity itself is a property of the choice)."""
    spec = load_algebra("dualnumbers")
    ga = graded.GradedAlgebra(spec.algebra, spec.degrees)
    results = {}
    for shift in (0, 1, 2):
        build = graded.build_graded_ccx([ga], shifts={"F11_11": shift})
        a_val = graded.min_hom_degree_to_identity(build)
        l_val = graded.top_corner_degree(build)
        dual_ok = all(r.passed for r in graded.verify_dual_shift_identity(build))
        transfer = graded.verify_hilbert_transfer(build)[0].values["psi"]
        results[shift] = (a_val, l_val, dual_ok, transfer)
    assert [results[s][0] for s in (0, 1, 2)] == [0, 1, 2]  # a tracks the shift
    assert all(results[s][1] == 2 for s in results)  # l invariant
    assert all(results[s][2] for s in results)  # dual-shift identity holds always
    assert all(results[s][3] == "1" for s in results)  # psi invariant


def test_graded_iso_test_negative(monkeypatch):
    build = graded_ccx_build("dualnumbers")
    g = build.bimodule("F11_11")
    assert not graded.graded_iso_test(g, g.shifted(2))  # degree multisets differ
    # same degree multiset [0, 2, 2, 4]: the two-dimensional top of
    # A (+) A<-2> tells it from (A e)(x)(e A), with nothing solved
    gr = build.bimodule("I1")
    gP = bimod.proj_bimodule(
        gr.left_algebra, 0, gr.right_algebra, 0,
        deg_a=build.gradings[0].degrees, deg_b=build.gradings[0].degrees,
    )
    mixed = bimod.direct_sum([gr, gr.shifted(-2)])
    assert sorted(mixed.degrees) == sorted(gP.degrees) == [0, 2, 2, 4]
    calls = count_hom_space_calls(monkeypatch)
    assert not graded.graded_iso_test(mixed, gP)
    assert not graded.graded_iso_test(gP, mixed)
    assert calls == []
    # a regular side is read off the centre in the degree of 1
    assert graded.graded_iso_test(bimod.tensor_over(gr, gr), gr)
    # two direct sums have no top to read the verdict off
    with pytest.raises(ValueError, match="neither is projective or regular"):
        graded.graded_iso_test(mixed, bimod.direct_sum([gr.shifted(-2), gr]))


def test_two_object_graded_build():
    d_spec = load_algebra("dualnumbers")
    x3_spec = load_algebra("x3local")
    ga1 = graded.GradedAlgebra(d_spec.algebra, d_spec.degrees)
    ga2 = graded.GradedAlgebra(x3_spec.algebra, (0, 2, 4))
    build = graded.build_graded_ccx([ga1, ga2], name="two-object-graded")
    assert build.shifts["F11_11"] == 1 and build.shifts["F12_11"] == 2
    assert all(r.passed for r in graded.positivity_check(build))
    assert graded.min_hom_degree_to_identity(build) == 1
    assert graded.top_corner_degree(build) == 2
    assert all(r.passed for r in graded.verify_dual_shift_identity(build))
    recs = graded.verify_hilbert_transfer(build)
    assert all(r.passed for r in recs)
    assert recs[0].values["transfer_element"] == "F12_11"


SERIES_CASES = {
    **{f"x{n}": lambda n=n: graded_truncated_poly_text(n) for n in (2, 3, 4, 5, 6)},
    **{f"zigzagA{m}": lambda m=m: graded_zigzag_text(m) for m in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_read_off_series_equal_the_degree_split_of_the_generic_basis(name):
    build = graded_build_from_text(SERIES_CASES[name]())
    pairs = 0
    for names in graded._same_pair_names(build).values():
        for f in names:
            for g in names:
                M, N = build.bimodule(f), build.bimodule(g)
                assert graded.graded_hom_series(M, N) == reference_hom_series(M, N), (f, g)
                # a shifted source moves its generator's degree with it
                M2, N2 = M.shifted(2), N.shifted(-1)
                assert graded.graded_hom_series(M2, N2) == reference_hom_series(M2, N2), (f, g)
                pairs += 1
    assert pairs == sum(len(names) ** 2 for names in graded._same_pair_names(build).values())


def _generator_algebra_degrees(A, degrees):
    """The degree of each generator of A in the grading."""
    out = []
    for g in alg.algebra_generators(A):
        (d,) = {degrees[k] for k in g}
        out.append(d)
    return out


@pytest.mark.parametrize("name", ["dualnumbers", "zigzagA2-graded", "x4", "zigzagA3"])
def test_every_graded_bimodule_acts_by_its_generators_degrees(name):
    if name in ("dualnumbers", "zigzagA2-graded"):
        build = graded_ccx_build(name)
    else:
        build = graded_build_from_text(SERIES_CASES[name]())
    A = build.algebra_at(0)
    want = _generator_algebra_degrees(A, build.gradings[0].degrees) * 2
    ident = build.bimodule("I1")
    g_bim, degrees = _duflo_bimodule(build)
    bims = [build.bimodule(nm) for nm in sorted(build.morphism_info)]
    bims += [
        ident.shifted(3),
        bimod.tensor_over(g_bim, g_bim),
        bimod.direct_sum([g_bim, ident]),
        graded.star_bimodule(g_bim, left_degrees=degrees),
    ]
    for M in bims:
        assert len(M.generator_degrees) == len(want), M.name
        assert all(d is None or d == w for d, w in zip(M.generator_degrees, want)), M.name
    assert ident.generator_degrees == tuple(want)  # A acts faithfully on itself
    shifted = g_bim.shifted(-2)
    assert shifted.generator_degrees == g_bim.generator_degrees  # a shift moves no difference
    assert bimod.regular_bimodule(A).generator_degrees is None


def test_an_action_spread_over_two_degree_shifts_is_refused_at_construction():
    build = graded_build_from_text(graded_truncated_poly_text(3))
    A = build.algebra_at(0)
    # x sends 1 to x (shift 2) and x to x2 (shift 1)
    with pytest.raises(bimod.BimoduleError, match=r"left action of x1 is not homogeneous"):
        bimod.regular_bimodule(A, degrees=(0, 2, 3))
    reg = bimod.regular_bimodule(A)
    with pytest.raises(bimod.BimoduleError, match=r"shifts degrees by \[1, 2\]"):
        bimod.Bimodule(A, A, reg.dim, reg.left_gens, reg.right_gens, degrees=(0, 2, 3))
    # the same actions under the algebra's own grading are accepted
    own = bimod.regular_bimodule(A, degrees=build.gradings[0].degrees)
    assert own.generator_degrees == (0, 2, 0, 2)


def test_series_refuse_an_arrow_acting_in_another_degree_on_the_target():
    build = graded_ccx_build("dualnumbers")
    D = build.algebra_at(0)
    g, ident = build.bimodule("F11_11"), build.bimodule("I1")
    # homogeneous, but x shifts degree by 1 here and by 2 on g and ident
    regraded = bimod.regular_bimodule(D, degrees=(0, 1))
    assert regraded.generator_degrees == (0, 1, 0, 1)
    for M in (g, ident):
        message = "generator left x acts in degree 2 on .* but 1 on"
        with pytest.raises(graded.GradedError, match=message):
            graded.graded_hom_series(M, regraded)
    assert graded.graded_hom_series(ident, ident) == LaurentPoly({0: 1, 2: 1})


def test_series_refuse_a_source_that_is_neither_projective_nor_regular():
    build = graded_ccx_build("dualnumbers")
    g, ident = build.bimodule("F11_11"), build.bimodule("I1")
    mixed = bimod.direct_sum([g, ident])
    with pytest.raises(ValueError, match="neither projective nor regular"):
        graded.graded_hom_series(mixed, ident)
    # as a target it is read off the source
    assert graded.graded_hom_series(ident, mixed) == reference_hom_series(ident, mixed)


def test_positivity_builds_no_yoneda_map_and_ranks_nothing(monkeypatch):
    build = graded_build_from_text(graded_zigzag_text(2))
    calls = {"rank": 0}

    def counting(module, name):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counting(linalg, "rank")
    records = graded.positivity_check(build)
    assert len(records) == 25 and all(r.passed for r in records)
    assert calls == {"rank": 0}
    # the counter sees the reference, which builds and ranks the maps
    reference_hom_series(build.bimodule("F11_11"), build.bimodule("I1"))
    assert calls["rank"] > 0


def test_graded_iso_test_refuses_ungraded_bimodules():
    # equal dimensions, so the check cannot hide behind the dimension test
    D = load_algebra("dualnumbers").algebra
    plain = bimod.regular_bimodule(D)
    graded_reg = bimod.regular_bimodule(D, degrees=graded_fixture("dualnumbers").degrees)
    assert plain.degrees is None and plain.dim == graded_reg.dim
    for M, N in ((plain, plain), (plain, graded_reg), (graded_reg, plain)):
        with pytest.raises(graded.GradedError, match="graded iso test needs graded bimodules"):
            graded.graded_iso_test(M, N)
    assert graded.graded_iso_test(graded_reg, graded_reg)
