import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiatcells import cli, coxeter, hecke, mscell
from fiatcells.coxeter import coxeter_group
from fiatcells.hecke import (
    HeckeDataError,
    SizeLimitError,
    TableauPair,
    bar_involution,
    export_multisemigroup,
    kl_basis,
    kl_expand,
    kl_product_at_one,
    multiply,
    rsk,
    rsk_cells,
)
from fiatcells.laurent import LaurentPoly


def test_coxeter_orders_and_lengths():
    assert coxeter_group("A1").order == 2
    assert coxeter_group("A2").order == 6
    assert coxeter_group("A3").order == 24
    B = coxeter_group("B2")
    assert B.order == 8
    assert B.length(B.longest()) == 4
    assert B.name(B.longest()) == "stst"
    # stst = tsts
    assert B.element_of_name("stst") == B.element_of_name("tsts")


def test_group_axioms_on_normal_forms():
    for kind in ("A2", "B2"):
        W = coxeter_group(kind)
        for x in range(W.order):
            assert W.mult(x, W.inverse[x]) == W.identity
            for y in range(W.order):
                for z in range(W.order):
                    assert W.mult(W.mult(x, y), z) == W.mult(x, W.mult(y, z))


def _orbit_reference(cartan):
    """(words, mult_gen, inverse, left_gen) of the group of a Cartan matrix,
    from the orbit vectors alone: reflecting rho along a word gives the
    vector of its element, the first word in ShortLex order to reach a
    vector is that element's canonical word, x*s has the vector of x
    reflected by s, x^-1 the vector of x's word reversed, and s*x the
    vector of x's word with s put in front."""
    rank = len(cartan)

    def reflect(s, v):
        return tuple(vj - v[s] * c for vj, c in zip(v, cartan[s]))

    def vector(word):
        v = (1,) * rank
        for s in word:
            v = reflect(s, v)
        return v

    words = [()]
    index = {vector(()): 0}
    level = [()]
    while level:
        longer = []
        for word in level:
            for s in range(rank):
                v = vector(word + (s,))
                if v not in index:
                    index[v] = len(words)
                    words.append(word + (s,))
                    longer.append(word + (s,))
        level = longer
    mult_gen = [[index[reflect(s, vector(w))] for s in range(rank)] for w in words]
    inverse = [index[vector(w[::-1])] for w in words]
    left_gen = [[index[vector((s,) + w)] for s in range(rank)] for w in words]
    return words, mult_gen, inverse, left_gen


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "B2"])
def test_the_breadth_first_search_fills_the_tables_the_orbit_vectors_give(kind):
    W = coxeter_group(kind)
    words, mult_gen, inverse, left_gen = _orbit_reference(coxeter._CARTAN[kind][1])
    assert W.words == words
    assert W.mult_gen == mult_gen
    assert W.inverse == inverse
    assert W.left_gen == left_gen
    assert W.lengths == [len(w) for w in words]


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "B2"])
def test_the_longest_element_is_the_last_and_the_only_one_of_its_length(kind):
    W = coxeter_group(kind)
    top = max(W.length(x) for x in range(W.order))
    assert [x for x in range(W.order) if W.length(x) == top] == [W.longest()]
    assert W.longest() == W.order - 1
    assert W.length(W.longest()) == {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4}[kind]


def test_length_additive_on_reduced_products():
    W = coxeter_group("A3")
    for x in range(W.order):
        # canonical word is reduced: length = word length
        assert W.length(x) == len(W.words[x])


def test_bruhat_subword_property():
    W = coxeter_group("A2")
    e, w0 = W.identity, W.longest()
    for x in range(W.order):
        assert W.bruhat_leq(e, x)
        assert W.bruhat_leq(x, w0)
    s1 = W.element_of_name("1")
    s2 = W.element_of_name("2")
    assert not W.bruhat_leq(s1, s2)
    assert W.bruhat_leq(s1, W.element_of_name("12"))


def test_bruhat_respects_length():
    W = coxeter_group("B2")
    for x in range(W.order):
        for y in range(W.order):
            if W.bruhat_leq(x, y):
                assert W.length(x) <= W.length(y)
                if x != y:
                    assert W.length(x) < W.length(y)


def test_kl_basis_a1():
    W = coxeter_group("A1")
    basis = kl_basis(W)
    s = W.element_of_name("1")
    assert basis[s] == {s: {0: 1}, W.identity: {1: 1}}


def test_kl_basis_b2_longest():
    W = coxeter_group("B2")
    basis = kl_basis(W)
    w0 = W.longest()
    assert basis[w0][W.identity] == {4: 1}


def test_kl_basis_a2_longest_is_full_sum():
    W = coxeter_group("A2")
    basis = kl_basis(W)
    w0 = W.longest()
    assert set(basis[w0]) == set(range(W.order))
    for x, c in basis[w0].items():
        assert c == {W.length(w0) - W.length(x): 1}


def test_bar_invariance_all_groups(monkeypatch):
    # with the degree bound the recursion checks, bar invariance makes b_w
    # canonical; the table of bar(T_w) is built once per group here
    tables = {}
    build = hecke._bar_t_basis

    def kept(group):
        if group.kind not in tables:
            tables[group.kind] = build(group)
        return tables[group.kind]

    monkeypatch.setattr(hecke, "_bar_t_basis", kept)
    for kind in ("A1", "A2", "B2", "A3", "A4"):
        W = coxeter_group(kind)
        for b in kl_basis(W):
            assert bar_involution(W, b) == b


def test_t_basis_relations_on_raw_dicts():
    # T_s^2 = (v^-1 - v) T_s + T_e, and bar(T_s) = T_s^-1 = T_s + (v - v^-1)
    W = coxeter_group("B2")
    e, s, t = W.identity, W.element_of_name("s"), W.element_of_name("t")
    t_s = {s: {0: 1}}
    assert multiply(W, t_s, t_s) == {s: {-1: 1, 1: -1}, e: {0: 1}}
    assert multiply(W, t_s, {t: {0: 1}}) == {W.element_of_name("st"): {0: 1}}
    assert bar_involution(W, t_s) == {s: {0: 1}, e: {1: 1, -1: -1}}
    assert multiply(W, bar_involution(W, t_s), t_s) == {e: {0: 1}}


def test_bar_involution_returns_fresh_dicts():
    # the result must share no row with the group's kept table of bar(T_w)
    W = coxeter_group("A2")
    w0 = W.longest()
    first = bar_involution(W, {w0: {0: 1}})
    for row in first.values():
        row[99] = 1
    first.clear()
    again = bar_involution(W, {w0: {0: 1}})
    assert again and all(99 not in row for row in again.values())
    assert bar_involution(W, again) == {w0: {0: 1}}


def test_size_bound(monkeypatch):
    # the bound is inclusive: a group of exactly its order still runs
    monkeypatch.setattr(hecke, "DEFAULT_SIZE_BOUND", 6)
    with pytest.raises(SizeLimitError, match="group of order 24 exceeds the bound 6"):
        kl_basis(coxeter_group("A3"))
    assert len(kl_basis(coxeter_group("A2"))) == 6


# the largest l1 bound `_kl_recursion` tracks, per group (3, 7, 9, 13 and
# 21 bits): a packing needs one bit more than that, for the sign
_KL_BOUNDS = {"A1": 4, "A2": 68, "B2": 288, "A3": 4896, "A4": 1493280}


@pytest.mark.parametrize("kind", sorted(_KL_BOUNDS))
def test_the_tracked_bound_holds_every_coefficient_and_peaks_where_pinned(kind, monkeypatch):
    monkeypatch.setattr(hecke, "DEFAULT_SIZE_BOUND", 120)
    W = coxeter_group(kind)
    basis, _, bounds = hecke._kl_recursion(W)
    assert max(bounds) == _KL_BOUNDS[kind]
    assert max(bounds) < 1 << (hecke._KL_BITS - 1)
    raw = kl_basis(W)
    for w in range(W.order):
        assert sum(abs(c) for row in raw[w].values() for c in row.values()) <= bounds[w]
        # the packed form is the raw one evaluated at v = 2^_KL_BITS
        assert basis[w] == {
            x: sum(c << hecke._KL_BITS * e for e, c in row.items()) for x, row in raw[w].items()
        }


def test_a_width_below_the_bound_is_refused_before_the_candidate_is_formed(monkeypatch):
    # A3 peaks at 4896 < 2^13 in b_3 b_12132: 14 bits pack it, 13 do not,
    # and the refused pair never reaches (T_s + v) b_w
    W = coxeter_group("A3")
    expected = kl_basis(W)
    formed = []
    original = hecke._t_plus_v

    def recorded(group, b_w, s):
        # w is the longest element of supp(b_w), so its last index
        formed.append((group.gen_names[s], group.name(max(b_w))))
        return original(group, b_w, s)

    monkeypatch.setattr(hecke, "_t_plus_v", recorded)
    monkeypatch.setattr(hecke, "_KL_BITS", 14)
    assert kl_basis(W) == expected
    assert ("3", "12132") in formed
    monkeypatch.setattr(hecke, "_KL_BITS", 13)
    formed.clear()
    with pytest.raises(SizeLimitError, match="^the l1 bound 4896 of b_3 b_12132 is beyond the 13-bit packing$"):
        hecke._kl_recursion(W)
    assert formed and ("3", "12132") not in formed


def test_product_at_one_a1():
    W = coxeter_group("A1")
    s = W.element_of_name("1")
    assert kl_product_at_one(W, s, s) == {s: 2}
    assert kl_product_at_one(W, W.identity, s) == {s: 1}


def test_product_supports_b2_middle_cell():
    W = coxeter_group("B2")
    basis = kl_basis(W)
    mid = {"s", "t", "st", "ts", "sts", "tst"}
    support = set()
    for xn in mid:
        for yn in mid:
            x, y = W.element_of_name(xn), W.element_of_name(yn)
            for z in kl_product_at_one(W, x, y, basis):
                support.add(W.name(z))
    assert mid <= support
    assert "e" not in support


def test_product_symmetry_under_star():
    W = coxeter_group("B2")
    basis = kl_basis(W)
    for x in range(W.order):
        for y in range(W.order):
            direct = kl_product_at_one(W, x, y, basis)
            swapped = kl_product_at_one(W, W.inverse[y], W.inverse[x], basis)
            assert direct == {W.inverse[z]: k for z, k in swapped.items()}


def test_export_a1():
    ms = export_multisemigroup(coxeter_group("A1"))
    assert sorted(ms.names) == ["1", "e"]
    assert ms.compose("1", "1") == {"1": 2}


def test_export_identity_products_clean():
    for kind in ("A2", "B2", "A3"):
        ms = export_multisemigroup(coxeter_group(kind))
        assert mscell.identity_products_clean(ms)


def test_expansion_peels_support_the_element_did_not_have():
    # T_s = b_s - v b_e: peeling b_s = T_s + v T_e off T_s reaches T_e,
    # which T_s does not hold
    W = coxeter_group("A1")
    s = W.element_of_name("1")
    basis = kl_basis(W)
    expected = {s: {0: 1}, W.identity: {1: -1}}
    assert kl_expand(W, {s: {0: 1}}, basis) == expected


def _dict_column(group, act, c):
    """The reference for `hecke._packed_column`: col[a] = b_a b_c in
    canonical coordinates as raw {exponent: int} dicts, by the same
    recursion on the unpacked generator action.  Going up in length with
    a = s r (s the first letter of a's word), b_a = b_s b_r minus the other
    terms of act[s][r], so b_a b_c = act[s] applied to col[r] minus the
    same terms applied to col."""
    col = [None] * group.order
    col[group.identity] = {c: {0: 1}}
    for a in group.by_length()[1:]:
        s = group.words[a][0]
        r = hecke._left_product(group, s, a)
        out = {}
        for w, coeff in col[r].items():
            hecke._mac(out, act[s][w], coeff)
        for z, coeff in act[s][r].items():
            if z != a:
                hecke._mac(out, col[z], {e: -k for e, k in coeff.items()})
        col[a] = hecke._trimmed(out)
    return col


def _decoded(group, packing, col):
    """A packed column read back into raw Laurent dicts: entry col[a] holds
    v^l(a) times each coefficient at v = 2^bits, in balanced digits."""
    base = 1 << packing.bits
    out = []
    for a, entry in enumerate(col):
        rows = {}
        for z, p in entry.items():
            row, e = {}, -group.length(a)
            while p:
                p, d = divmod(p, base)
                if d >= base // 2:
                    d, p = d - base, p + 1
                if d:
                    row[e] = d
                e += 1
            rows[z] = row
        out.append(rows)
    return out


def _packed_columns(group, act):
    packing, steps = hecke._packed_action(group, act)
    return packing, [hecke._packed_column(group, steps, c) for c in range(group.order)]


def test_product_columns_match_t_basis():
    # the whole table from the packed generator action, decoded to raw
    # Laurent coefficient dicts, against the per-pair T-basis reference
    for kind in ("A1", "A2", "B2", "A3"):
        W = coxeter_group(kind)
        basis = kl_basis(W)
        packing, cols = _packed_columns(W, hecke._generator_action(W))
        for y in range(W.order):
            col = _decoded(W, packing, cols[y])
            for x in range(W.order):
                assert col[x] == kl_expand(W, multiply(W, basis[x], basis[y]), basis)


@pytest.mark.parametrize("kind", ["A1", "A2", "B2", "A3"])
def test_stored_coefficients_keep_no_zeros_and_int_exponents(kind):
    # raw dict equality is structural only while no zero is stored; a
    # packed entry is one nonzero int
    W = coxeter_group(kind)
    basis = kl_basis(W)
    act = hecke._generator_action(W)
    packing, cols = _packed_columns(W, act)
    packed = [p for col in cols for entry in col for p in entry.values()]
    assert packed and all(type(p) is int and p != 0 for p in packed)
    rows = [row for b in basis for row in b.values()]
    coords = [entry for row in act for entry in row]
    coords += [entry for col in cols for entry in _decoded(W, packing, col)]
    rows += [row for c in coords for row in c.values()]
    assert rows and all(rows)
    for row in rows:
        assert type(row) is dict, row
        assert all(type(e) is int for e in row), row
        assert all(type(c) is int and c != 0 for c in row.values()), row


@pytest.mark.parametrize("kind, bound", [
    ("A1", 24), ("A2", 24), ("A3", 24), ("B2", 24), ("A4", 120),
])
def test_packed_table_matches_the_dict_reference(kind, bound, monkeypatch):
    # under its pinned bound, which A3 and A4 meet exactly
    monkeypatch.setattr(hecke, "DEFAULT_SIZE_BOUND", bound)
    W = coxeter_group(kind)
    act = hecke._generator_action(W)
    packing, cols = _packed_columns(W, act)
    names = [W.name(x) for x in range(W.order)]
    table = {}
    for x in range(W.order):
        col = _dict_column(W, act, x)
        assert _decoded(W, packing, cols[x]) == col, names[x]
        for y in range(W.order):
            table[(names[x], names[y])] = {
                names[z]: sum(row.values()) for z, row in col[y].items()
            }
    assert hecke._table_at_one(W) == table


def _proven_width(group, act):
    """(K + M, bits, digits) as `_packed_action` proves them, from the
    unpacked action: K the largest l1 norm of an act[s][w], M the largest
    of an act[s][r] with sr > r without its term b_sr, E the largest
    degree of a coefficient times v."""
    def norm(entry):
        return sum(abs(c) for row in entry.values() for c in row.values())

    k = max(norm(entry) for acts in act for entry in acts)
    m = max(
        norm({z: row for z, row in act[s][r].items() if z != sr})
        for s in range(len(group.gen_names))
        for r in range(group.order)
        for sr in [hecke._left_product(group, s, r)]
        if group.length(sr) > group.length(r)
    )
    top = max(max(row) + 1 for acts in act for entry in acts for row in entry.values())
    longest = max(group.length(x) for x in range(group.order))
    return k + m, longest * (k + m).bit_length() + 1, longest * max(1, top) + 1


@pytest.mark.parametrize("kind", ["A1", "A2", "B2", "A3"])
def test_every_packed_coefficient_lies_below_the_proven_bound(kind):
    W = coxeter_group(kind)
    act = hecke._generator_action(W)
    packing, cols = _packed_columns(W, act)
    km, bits, digits = _proven_width(W, act)
    assert packing == hecke._packing(bits, digits)
    cap = km ** max(W.length(x) for x in range(W.order))
    assert cap < 1 << (bits - 1)
    for col in cols:
        for a, entry in enumerate(_decoded(W, packing, col)):
            norm = sum(abs(c) for row in entry.values() for c in row.values())
            assert norm <= km ** W.length(a) <= cap
            for z, row in entry.items():
                assert min(row) >= -W.length(a) and max(row) + W.length(a) < digits
                assert all(abs(c) <= cap for c in row.values())
                assert 0 < sum(row.values()) <= cap


@st.composite
def _packed_polys(draw):
    """(bits, coefficients, shift, spare digits): a polynomial of balanced
    base-2^bits digits, with coefficients up to 2^(bits-1) - 1 in
    magnitude."""
    bits = draw(st.integers(2, 12))
    top = (1 << (bits - 1)) - 1
    coeffs = draw(st.lists(st.sampled_from([-top, -1, 0, 1, top]) | st.integers(-top, top),
                           min_size=1, max_size=6))
    return bits, coeffs, draw(st.integers(0, 6)), draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@example((5, [15, 3, -1, 15, 0, 7], 2, 0))
@example((5, [0, 0, 15, 0], 0, 0))
@example((5, [-15, 15, 15], 1, 1))
@example((2, [1, 0, -1, 1], 3, 0))
@example((8, [0, 127, 0, 0], 0, 0))
@given(_packed_polys())
def test_packed_check_and_decode(case):
    # the v = 1 step on one entry: the sum of the coefficients when all are
    # non-negative, else the error message with the decoded Laurent row
    bits, coeffs, shift, spare = case
    packing = hecke._packing(bits, len(coeffs) + spare)
    p = sum(c << bits * i for i, c in enumerate(coeffs))
    if min(coeffs) >= 0:
        # the value at 1 is read modulo 2^bits - 1, so it is exact while the
        # l1 norm is below that, as the proven width makes it in the table
        value = hecke._packed_at_one(packing, ["z"], {0: p}, shift)
        assert value == {"z": sum(coeffs) % ((1 << bits) - 1)}
        return
    row = LaurentPoly({i - shift: c for i, c in enumerate(coeffs)}).format("v")
    with pytest.raises(HeckeDataError) as err:
        hecke._packed_at_one(packing, ["z"], {0: p}, shift)
    assert str(err.value) == f"negative canonical structure constant at z: {row}"


def test_the_action_is_refused_below_v_minus_one_and_a_correction_not_shorter():
    W = coxeter_group("A2")
    two, w = W.element_of_name("2"), W.element_of_name("12")
    act = hecke._generator_action(W)
    act[1][w] = {**act[1][w], two: {-2: 1}}
    with pytest.raises(HeckeDataError, match=r"coefficient of b_2 in b_2 b_12 has a term below v\^-1: v\^-2"):
        hecke._packed_action(W, act)
    act = hecke._generator_action(W)
    one = W.element_of_name("1")
    # b_21 = b_2 b_1 - ..., with a correction at b_12, as long as 21
    act[1][one] = {**act[1][one], w: {0: 1}}
    with pytest.raises(HeckeDataError, match="b_12 in b_2 b_1 is not shorter than b_21"):
        hecke._packed_action(W, act)


@pytest.mark.parametrize("kind", ["A3", "B2"])
def test_export_work_is_linear_in_the_generator_products(kind, monkeypatch):
    W = coxeter_group(kind)
    calls = {
        "_descent_product": 0, "_mu_terms": 0, "multiply": 0, "kl_expand": 0,
        "kl_product_at_one": 0, "length sorts": 0,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_descent_product", "_mu_terms", "multiply", "kl_expand", "kl_product_at_one"):
        monkeypatch.setattr(hecke, name, counted(name, getattr(hecke, name)))

    def counting_sorted(iterable, *, key=None, reverse=False):
        calls["length sorts"] += key == W.length
        return sorted(iterable, key=key, reverse=reverse)

    for module in (hecke, coxeter):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    export_multisemigroup(W)
    # each generator product is formed once, a descent certificate or one
    # reading of mu, and none is expanded from the T basis
    gens = [W.mult_gen[W.identity][s] for s in range(len(W.gen_names))]
    descents = sum(W.length(W.mult(g, w)) < W.length(w) for g in gens for w in range(W.order))
    assert descents == {"A3": 36, "B2": 8}[kind]
    assert calls == {
        "_descent_product": descents, "_mu_terms": len(gens) * W.order - descents,
        "multiply": 0, "kl_expand": 0, "kl_product_at_one": 0, "length sorts": 0,
    }


def test_the_export_and_kl_basis_build_no_laurent_poly(monkeypatch):
    # Hecke elements are raw coefficient dicts throughout; LaurentPoly only
    # formats the coefficients of error messages
    inits = []
    original = LaurentPoly.__init__

    def counting(self, coeffs=None):
        inits.append(1)
        original(self, coeffs)

    monkeypatch.setattr(LaurentPoly, "__init__", counting)
    W = coxeter_group("A3")
    basis = kl_basis(W)
    export_multisemigroup(W)
    assert basis and inits == []


def test_export_rejects_a_leading_coefficient_other_than_one(monkeypatch):
    # T_s b_w doubled in (T_s + v) b_w at one pair: on A2, 121 is reached
    # first by b_2 b_12, whose leading coefficient its definition checks,
    # and then by b_1 b_21, which must give the b_121 already defined
    W = coxeter_group("A2")
    basis = hecke._kl_recursion(W)[0]
    original = hecke._t_plus_v

    def doubled_at(gen, label):
        b_w = basis[W.element_of_name(label)]

        def doubled(group, data, s):
            prod = original(group, data, s)
            if s == gen and data == b_w:
                # 2 T_s b_w + v b_w = 2 (T_s + v) b_w - v b_w
                return {x: 2 * p - (data.get(x, 0) << hecke._KL_BITS) for x, p in prod.items()}
            return prod

        return doubled

    monkeypatch.setattr(hecke, "_t_plus_v", doubled_at(1, "12"))
    with pytest.raises(HeckeDataError, match="canonical basis recursion failed at 121"):
        export_multisemigroup(W)
    monkeypatch.setattr(hecke, "_t_plus_v", doubled_at(0, "21"))
    with pytest.raises(HeckeDataError, match="b_1 b_21 minus its mu terms is not b_121"):
        export_multisemigroup(W)


def test_export_rejects_a_basis_element_with_a_constant_term_below_its_top(monkeypatch):
    # T_e planted in (T_1 + v) b_e, which defines b_1: its T_e coordinate
    # 1 + v is not in v*Z[v], and the message decodes the packed int
    original = hecke._t_plus_v

    def planted(group, b_w, s):
        prod = original(group, b_w, s)
        if b_w == {group.identity: 1}:
            prod[group.identity] += 1
        return prod

    monkeypatch.setattr(hecke, "_t_plus_v", planted)
    with pytest.raises(HeckeDataError, match=r"^coefficient of T_e in b_1 is not in v\*Z\[v\]: 1 \+ v$"):
        export_multisemigroup(coxeter_group("A2"))


@pytest.mark.parametrize("row", [{1: 1}, {1: -1}, {1: 1, 2: -1}, {1: -1, 2: 1}, {2: 3}, {1: -5, 3: -7}])
def test_mu_is_the_balanced_digit_at_v(row):
    # a negative coefficient at v borrows from the digits above it, and a
    # negative digit above v^1 must not change the one read
    W = coxeter_group("A2")
    s, w, z = 1, W.element_of_name("12"), W.element_of_name("2")
    packed = sum(c << hecke._KL_BITS * e for e, c in row.items())
    b_w = {w: 1, z: packed, W.identity: packed << hecke._KL_BITS}
    assert hecke._mu_terms(W, b_w, s) == ({z: row[1]} if 1 in row else {})


def test_export_rejects_a_negative_structure_constant(monkeypatch):
    # plant v - v^-1 at b_2 in b_2 b_12 = b_121 + b_2, past the checks of
    # the recursion: the table's v = 1 step refuses it
    W = coxeter_group("A2")
    two, w = W.element_of_name("2"), W.element_of_name("12")
    original = hecke._generator_action

    def flipped(group):
        act = original(group)
        assert act[1][w] == {W.longest(): {0: 1}, two: {0: 1}}
        act[1][w][two] = {1: 1, -1: -1}
        return act

    monkeypatch.setattr(hecke, "_generator_action", flipped)
    with pytest.raises(HeckeDataError, match=r"negative canonical structure constant at 2: -v\^-1 \+ v$"):
        export_multisemigroup(W)


def _planted(monkeypatch, plant):
    """Hand the descent certificate plant(group, w, b_w) in place of b_w,
    both packed as `hecke._kl_recursion` packs them."""
    original = hecke._descent_product

    def planted(group, b_w, s, w):
        return original(group, plant(group, w, b_w), s, w)

    monkeypatch.setattr(hecke, "_descent_product", planted)


def test_export_rejects_a_basis_element_planted_wrong(monkeypatch):
    # b_12 with leading coefficient 2 breaks T_1 b_12 = v^-1 b_12 (1 is a
    # descent of 12), and expanding b_1 b_2 = b_12 over it leaves -1 at 12
    def lead_two(group, w, b_w):
        return {**b_w, w: 2} if group.name(w) == "12" else b_w

    W = coxeter_group("A2")
    basis = kl_basis(W)
    two, x = W.element_of_name("2"), W.element_of_name("12")
    basis[x] = {**basis[x], x: {0: 2}}
    product = hecke._mac(hecke._t_gen_left(W, {}, basis[two], 0), basis[two], {1: 1})
    with pytest.raises(HeckeDataError, match="canonical-basis expansion left a nonzero remainder"):
        hecke.kl_expand(W, product, basis)
    _planted(monkeypatch, lead_two)
    with pytest.raises(HeckeDataError, match=r"T_1 b_12 is not v\^-1 b_12, although 1 is a descent"):
        export_multisemigroup(W)


def test_a_term_at_a_longer_element_whose_partner_is_outside_the_support_is_refused():
    # b_1 + T_12 over A2 with s = 1: supp(b_1) = {e, 1}, and 1.12 = 2 lies
    # outside it, so the pair (2, 12) has no shorter end in the support to be
    # compared from; every pair that has one still agrees, so only the check
    # of the longer end refuses it
    W = coxeter_group("A2")
    basis = hecke._kl_recursion(W)[0]
    s, w, y = 0, W.element_of_name("1"), W.element_of_name("12")
    planted = {**basis[w], y: 1}
    sy = hecke._left_product(W, s, y)
    assert W.length(sy) < W.length(y) and sy not in planted
    for x, h in planted.items():
        sx = hecke._left_product(W, s, x)
        if W.length(x) < W.length(sx):
            assert h == planted[sx] << hecke._KL_BITS
    assert hecke._descent_product(W, basis[w], s, w) == {w: {1: 1, -1: 1}}
    with pytest.raises(HeckeDataError, match=r"T_1 b_1 is not v\^-1 b_1, although 1 is a descent"):
        hecke._descent_product(W, planted, s, w)


@pytest.mark.parametrize("kind", ["A2", "B2", "A3"])
def test_export_rejects_a_basis_element_off_the_descent_rule(kind, monkeypatch):
    # b_w0 + v^2 T_e still has leading coefficient 1 and its other
    # coefficients in vZ[v], but every generator is a descent of w0, and
    # T_s b_w0 = v^-1 b_w0 fails at the pair (e, s)
    def shifted(group, w, b_w):
        if w != group.longest():
            return b_w
        return {**b_w, group.identity: b_w[group.identity] + (1 << 2 * hecke._KL_BITS)}

    _planted(monkeypatch, shifted)
    W = coxeter_group(kind)
    name = W.name(W.longest())
    with pytest.raises(HeckeDataError, match=rf"T_{W.gen_names[0]} b_{name} is not v\^-1 b_{name}"):
        export_multisemigroup(W)


# b_s b_w = b_sw + the sum of these b_z, each mu(z, w) = 1, by name, for
# every ascent sw > w of A2, B2 and A3 whose product has a term besides b_sw
_MU_TERMS = {
    "A2": {("1", "21"): ("1",), ("2", "12"): ("2",)},
    "B2": {("s", "ts"): ("s",), ("s", "tst"): ("st",), ("t", "st"): ("t",), ("t", "sts"): ("ts",)},
    "A3": {
        ("1", "21"): ("1",), ("1", "213"): ("13",), ("1", "321"): ("13",),
        ("1", "2132"): ("121", "132"), ("1", "21321"): ("1321",),
        ("2", "12"): ("2",), ("2", "32"): ("2",), ("2", "123"): ("23",), ("2", "321"): ("21",),
        ("2", "1232"): ("232",), ("2", "1321"): ("121",), ("2", "12321"): ("1213", "2321"),
        ("3", "23"): ("3",), ("3", "123"): ("13",), ("3", "213"): ("13",),
        ("3", "2132"): ("132", "232"), ("3", "12132"): ("1232",),
    },
}


def _mu_mutants():
    """A drop and a bump of every term of `_MU_TERMS`.  The id names the
    product by sw, then z, mu and the change (elements by index), and ends
    in s (as "by" s) unless s is the first letter of sw."""
    out = []
    for kind, products in _MU_TERMS.items():
        W = coxeter_group(kind)
        for (gen, w_name), zs in products.items():
            s, w = W.gen_names.index(gen), W.element_of_name(w_name)
            sw = hecke._left_product(W, s, w)
            by = "" if W.words[sw][0] == s else f"-by{gen}"
            for z in map(W.element_of_name, zs):
                out += [
                    pytest.param(kind, s, w, z, 1, change, id=f"{kind}-{sw}-{z}-1-{change}{by}")
                    for change in ("drop", "bump")
                ]
    return out


_MU_MUTANTS = _mu_mutants()


def test_the_action_reads_twenty_six_mu_terms_on_a2_b2_a3():
    # 2 + 4 + 20 terms, 13 of them in the products b_s b_w with s the first
    # letter of sw
    for kind, expected in _MU_TERMS.items():
        W = coxeter_group(kind)
        read = {}
        for s, acts in enumerate(hecke._generator_action(W)):
            for w, entry in enumerate(acts):
                sw = hecke._left_product(W, s, w)
                terms = {z: row for z, row in entry.items() if z != sw}
                if W.length(sw) > W.length(w) and terms:
                    assert all(row == {0: 1} for row in terms.values())
                    read[(W.gen_names[s], W.name(w))] = tuple(sorted(map(W.name, terms)))
        assert read == expected, kind
    assert len(_MU_MUTANTS) == 2 * 26
    assert sum("-by" not in p.id for p in _MU_MUTANTS) == 2 * 13


@pytest.mark.parametrize("kind, s, w, z, m, change", _MU_MUTANTS)
def test_export_rejects_a_recursion_product_with_a_correction_changed(
    kind, s, w, z, m, change, monkeypatch
):
    # the changed term enters both the entry and (T_s + v) b_w minus the
    # mu terms, so the definition of b_sw or a later pair refuses it
    W = coxeter_group(kind)
    b_w = hecke._kl_recursion(W)[0][w]
    original = hecke._mu_terms

    def mutated(group, b, gen):
        terms = original(group, b, gen)
        if gen == s and b == b_w:
            if change == "drop":
                del terms[z]
            else:
                terms[z] = m + 1
        return terms

    monkeypatch.setattr(hecke, "_mu_terms", mutated)
    with pytest.raises(HeckeDataError, match=r"not in v\*Z\[v\]|minus its mu terms is not"):
        export_multisemigroup(W)


@pytest.mark.parametrize("kind, bound", [
    ("A1", 24), ("A2", 24), ("A3", 24), ("B2", 24), ("A4", 120),
])
def test_generator_action_matches_the_t_basis_reference(kind, bound, monkeypatch):
    # every b_s b_w, whichever source it came from, against the per-pair
    # T-basis product and top-down expansion, under the pinned bound, which
    # A3 and A4 meet exactly
    monkeypatch.setattr(hecke, "DEFAULT_SIZE_BOUND", bound)
    W = coxeter_group(kind)
    basis = kl_basis(W)
    act = hecke._generator_action(W)
    for s in range(len(W.gen_names)):
        b_s = basis[W.mult_gen[W.identity][s]]
        for w in range(W.order):
            assert act[s][w] == kl_expand(W, multiply(W, b_s, basis[w]), basis), (s, w)


def test_export_checks_associativity_with_the_generators_as_left_factors(monkeypatch):
    checked = []
    original = mscell.MultiSemigroup._check_associativity

    def counting(self):
        checked.append(original(self))
        return checked[-1]

    monkeypatch.setattr(mscell.MultiSemigroup, "_check_associativity", counting)
    ms = export_multisemigroup(coxeter_group("A3"))
    assert ms.generators == ("1", "2", "3")
    assert checked == [3 * 24 * 24]
    # with no generating set every morphism is a left factor
    mscell.MultiSemigroup(ms.objects, ms.morphisms.values(), ms.table, ms.star)
    assert checked == [3 * 24 * 24, 24 * 24 * 24]


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "B2"])
def test_hecke_export_json_matches_golden(kind, capsys):
    golden = Path(__file__).parent / "data" / f"hecke_export_{kind.lower()}.json"
    assert cli.main(["--format", "json", "hecke-export", "--type", kind]) == 0
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("hash_seed", ["0", "7"])
@pytest.mark.parametrize("kind", ["A3", "B2"])
def test_hecke_export_json_does_not_rest_on_the_hash_seed(kind, hash_seed):
    # the export's heaps and dicts must give the golden bytes under any
    # string-hash seed
    cmd = [sys.executable, "-m", "fiatcells.cli", "--format", "json", "hecke-export",
           "--type", kind]
    src = str(Path(hecke.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    run = subprocess.run(cmd, capture_output=True, env=env)
    assert run.returncode == 0, run.stderr
    golden = Path(__file__).parent / "data" / f"hecke_export_{kind.lower()}.json"
    assert run.stdout == golden.read_bytes()


def test_rsk_identity_and_w0():
    assert rsk((1, 2, 3)).p_rows == ((1, 2, 3),)
    pair = rsk((3, 2, 1))
    assert pair.p_rows == ((1,), (2,), (3,))
    assert pair.p_rows == pair.q_rows


def test_rsk_rejects_bad_input():
    with pytest.raises(ValueError):
        rsk((1, 1, 2))
    with pytest.raises(ValueError):
        rsk((0, 1, 2))


def test_tableau_pair_validation():
    with pytest.raises(ValueError):
        TableauPair(((2, 1),), ((1, 2),))
    with pytest.raises(ValueError):
        TableauPair(((1, 2),), ((1,), (2,)))


def test_rsk_is_a_bijection_onto_tableau_pairs():
    # the (P, Q) pairs over S_n are pairwise distinct, n! of them
    for n in range(2, 6):
        W = coxeter_group(f"A{n - 1}")
        pairs = {rsk(W.perm(x)) for x in range(W.order)}
        assert len(pairs) == W.order == math.factorial(n)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_rsk_recording_tableau_is_the_insertion_tableau_of_the_inverse(perm):
    pair = rsk(tuple(perm))
    inv = tuple(perm.index(i) + 1 for i in range(1, 7))
    assert pair.q_rows == rsk(inv).p_rows


def test_rsk_cells_sizes():
    assert [len(c) for c in rsk_cells(2).two_sided_cells] == [1, 1]
    c3 = rsk_cells(3)
    assert sorted(len(c) for c in c3.two_sided_cells) == [1, 1, 4]
    mid = next(c for c in c3.two_sided_cells if len(c) == 4)
    lefts = [c for c in c3.left_cells if set(c) <= set(mid)]
    assert sorted(len(c) for c in lefts) == [2, 2]
    c4 = rsk_cells(4)
    assert sorted(len(c) for c in c4.two_sided_cells) == [1, 1, 4, 9, 9]
    assert sum(len(c) for c in c4.two_sided_cells) == 24


def test_rsk_cells_count_the_partitions_and_the_involutions():
    cells = {n: rsk_cells(n) for n in range(2, 6)}
    counts = {n: (len(c.two_sided_cells), len(c.left_cells)) for n, c in cells.items()}
    assert counts == {2: (2, 2), 3: (3, 4), 4: (5, 10), 5: (7, 26)}


def test_rsk_cells_size_bound():
    with pytest.raises(ValueError):
        rsk_cells(6)
    with pytest.raises(ValueError):
        rsk_cells(1)


def test_oracle_equivalence():
    for n in (2, 3, 4):
        W = coxeter_group(f"A{n-1}")
        ms = export_multisemigroup(W)
        struct = mscell.cells(ms)
        oracle = rsk_cells(n)
        assert struct.left_cells == oracle.left_cells
        assert struct.right_cells == oracle.right_cells
        assert struct.two_sided_cells == oracle.two_sided_cells


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4"])
def test_perm_is_a_faithful_homomorphism(kind):
    W = coxeter_group(kind)
    perms = [W.perm(x) for x in range(W.order)]
    assert len(set(perms)) == W.order
    for x in range(W.order):
        for y in range(W.order):
            u, v = perms[x], perms[y]
            assert perms[W.mult(x, y)] == tuple(u[i - 1] for i in v)
    assert W.perm(W.element_of_name("1")) == (2, 1) + tuple(range(3, len(perms[0]) + 1))


def test_perm_is_type_a_only():
    with pytest.raises(ValueError, match="type A"):
        coxeter_group("B2").perm(0)


def test_b2_names_are_the_canonical_words():
    B = coxeter_group("B2")
    assert [B.name(x) for x in range(B.order)] == ["e", "s", "t", "st", "ts", "sts", "tst", "stst"]


@pytest.mark.parametrize("kind", ["A5", "B3", "C2"])
def test_unsupported_types_are_refused_before_any_search(kind, monkeypatch):
    def searched(*args):
        raise AssertionError("searched the orbit of an unsupported type")

    monkeypatch.setattr(coxeter, "_generate", searched)
    with pytest.raises(ValueError, match="unsupported Coxeter type"):
        coxeter_group(kind)


def test_each_group_is_built_once_and_shared_across_spellings():
    assert coxeter_group("a2") is coxeter_group("A2")
    assert coxeter_group("B2") is coxeter_group("b2")


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "B2"])
def test_index_order_is_length_order(kind):
    # the breadth-first search numbers elements in ShortLex order, so
    # lengths never decrease along the indices and by_length sorts nothing
    W = coxeter_group(kind)
    lengths = [W.length(x) for x in range(W.order)]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))
    assert list(W.by_length()) == sorted(range(W.order), key=W.length)


def test_a_report_all_builds_each_of_its_four_groups_once():
    # s2-s4 and b2 are exported and s2-s4 meet rsk_cells: seven requests
    # for four groups, each built by one orbit search in a fresh process
    script = (
        "import contextlib, io\n"
        "from fiatcells import coxeter, verify\n"
        "built = []\n"
        "search = coxeter._generate\n"
        "def counted(kind, *rest):\n"
        "    built.append(kind)\n"
        "    return search(kind, *rest)\n"
        "coxeter._generate = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    verify.report_all()\n"
        "print(' '.join(built))\n"
    )
    src = str(Path(hecke.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert sorted(run.stdout.split()) == ["A1", "A2", "A3", "B2"]
