import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells import bimod, fixtures, graded, hecke, mscell
from fiatcells.mscell import (
    MultiSemigroup,
    MultiSemigroupError,
    NotComposableError,
    CellArgumentError,
    UnsupportedCellError,
    DataInconsistencyError,
    OneMorphism,
)
from fiatcells.hecke import export_multisemigroup
from fiatcells.coxeter import coxeter_group


def _tiny_parts(gg=None):
    """(objects, morphisms, table, star) of `tiny_ms`."""
    morphisms = [
        OneMorphism("1", "i", "i", is_identity=True),
        OneMorphism("g", "i", "i"),
    ]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "g"): {"g": 1},
        ("g", "1"): {"g": 1},
        ("g", "g"): {"g": 2} if gg is None else gg,
    }
    return ["i"], morphisms, table, {"1": "1", "g": "g"}


def tiny_ms(gg=None):
    """One object, identity plus one self-star morphism g with g o g given."""
    return MultiSemigroup(*_tiny_parts(gg))


def two_object_ms():
    """Two objects with one morphism each way; f* = g, g* = f."""
    morphisms = [
        OneMorphism("1a", "a", "a", is_identity=True),
        OneMorphism("1b", "b", "b", is_identity=True),
        OneMorphism("f", "a", "b"),  # f in C(a, b)
        OneMorphism("g", "b", "a"),
    ]
    table = {
        ("1a", "1a"): {"1a": 1},
        ("1b", "1b"): {"1b": 1},
        ("f", "1a"): {"f": 1},
        ("1b", "f"): {"f": 1},
        ("g", "1b"): {"g": 1},
        ("1a", "g"): {"g": 1},
        ("f", "g"): {"1b": 0},  # zero composition
        ("g", "f"): {},
    }
    star = {"1a": "1a", "1b": "1b", "f": "g", "g": "f"}
    return MultiSemigroup(["a", "b"], morphisms, table, star)


def test_compose_and_identities():
    ms = tiny_ms()
    assert ms.compose("1", "g") == {"g": 1}
    assert ms.compose("g", "g") == {"g": 2}


def test_non_composable_raises():
    ms = two_object_ms()
    with pytest.raises(NotComposableError):
        ms.compose("f", "f")


def test_associativity_violation_detected():
    # g o (g o h) = g + h but (g o g) o h = 2g
    morphisms = [
        OneMorphism("1", "i", "i", is_identity=True),
        OneMorphism("g", "i", "i"),
        OneMorphism("h", "i", "i"),
    ]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "g"): {"g": 1},
        ("g", "1"): {"g": 1},
        ("1", "h"): {"h": 1},
        ("h", "1"): {"h": 1},
        ("g", "g"): {"g": 1, "h": 1},
        ("g", "h"): {"g": 1},
        ("h", "g"): {"g": 1},
        ("h", "h"): {"g": 1},
    }
    star = {"1": "1", "g": "g", "h": "h"}
    with pytest.raises(MultiSemigroupError, match="associativity"):
        MultiSemigroup(["i"], morphisms, table, star)


def test_identity_in_product_needs_identity_neutrality():
    # a well-formed table where g o g contains the identity IS associative
    # (group Z/2), so it passes validation but fails the cleanliness check
    ms = tiny_ms({"1": 1, "g": 0})
    assert not mscell.identity_products_clean(ms)
    assert mscell.identity_products_clean(tiny_ms())


def test_multiplicity_cap():
    with pytest.raises(MultiSemigroupError, match="out of range"):
        tiny_ms({"g": 1 << 30})


def test_a_multiplicity_of_one_point_seven_is_refused_not_truncated_to_one():
    with pytest.raises(MultiSemigroupError, match=r"1\.7 of 'g' in \('g', 'g'\) is not an integer") as err:
        tiny_ms({"g": 1.7})
    assert err.value.pair == ("g", "g")


def test_a_multiplicity_of_one_half_is_refused_not_dropped_as_zero():
    with pytest.raises(MultiSemigroupError, match=r"0\.5 of 'g' in \('g', 'g'\) is not an integer") as err:
        tiny_ms({"g": 0.5})
    assert err.value.pair == ("g", "g")


def test_bad_star_rejected():
    morphisms = [
        OneMorphism("1", "i", "i", is_identity=True),
        OneMorphism("g", "i", "i"),
        OneMorphism("h", "i", "i"),
    ]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "g"): {"g": 1},
        ("g", "1"): {"g": 1},
        ("1", "h"): {"h": 1},
        ("h", "1"): {"h": 1},
        ("g", "g"): {"g": 1},
        ("g", "h"): {"h": 1},
        ("h", "g"): {"h": 1},
        ("h", "h"): {"h": 1},
    }
    star = {"1": "1", "g": "h", "h": "g"}
    with pytest.raises(MultiSemigroupError, match="anti-map"):
        MultiSemigroup(["i"], morphisms, table, star)


def test_cells_identities_only():
    ms = two_object_ms()
    st = mscell.cells(ms)
    assert ("1a",) in st.two_sided_cells and ("1b",) in st.two_sided_cells
    assert ("f", "f") in st.leq_left


def test_cells_stable_under_renaming():
    for kind in ("B2", "A3"):
        ms = export_multisemigroup(coxeter_group(kind))
        names = ms.names
        rng = random.Random(7)
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping = {old: f"zz{new}" for old, new in zip(names, shuffled)}
        renamed = ms.renamed(mapping)
        # the generating set travels with the names, so the renamed table is
        # still validated with only the b_s as left factors
        assert renamed.generators == tuple(sorted(mapping[f] for f in ms.generators))
        assert renamed._check_associativity() == len(ms.generators) * len(names) ** 2
        st = mscell.cells(ms)
        st2 = mscell.cells(renamed)
        for kind_of_cells in ("two_sided_cells", "left_cells", "right_cells"):
            as_named = tuple(
                sorted(
                    tuple(sorted(mapping[m] for m in cell))
                    for cell in getattr(st, kind_of_cells)
                )
            )
            assert as_named == getattr(st2, kind_of_cells), (kind, kind_of_cells)


def _bumped(ms, f, g, h, delta=1):
    """The table of ms with the multiplicity of h in f o g moved by delta,
    and the star image of that entry moved with it, so the star laws hold."""
    table = {key: dict(entry) for key, entry in ms.table.items()}
    s = ms.star
    for key, name in {((f, g), h), ((s[g], s[f]), s[h])}:
        table[key][name] = table[key].get(name, 0) + delta
    return table


def _rebuilt(ms, table, generators):
    return MultiSemigroup(
        ms.objects, ms.morphisms.values(), table, ms.star, generators=generators
    )


# (a o g) o k = N z0 but a o (g o k) = a o w = z1; when a digit per morphism
# is too narrow for N, N z0 carries into z1's digit and the sides pack equal
_CARRIES = {
    # one product of two large multiplicities: N = 2^32 . 2^32, past a
    # fixed 64-bit digit
    "large_multiplicities": {
        ("a", "g"): {"h": 1 << 32},
        ("h", "k"): {"z0": 1 << 32},
        ("g", "k"): {"w": 1},
        ("a", "w"): {"z1": 1},
    },
    # four summands of multiplicity 1: N = 4, past a digit sized by the
    # largest multiplicity alone
    "many_summands": {
        ("a", "g"): {"h1": 1, "h2": 1, "h3": 1, "h4": 1},
        **{(h, "k"): {"z0": 1} for h in ("h1", "h2", "h3", "h4")},
        ("g", "k"): {"w": 1},
        ("a", "w"): {"z1": 1},
    },
}


@pytest.mark.parametrize("case", sorted(_CARRIES))
def test_associativity_packing_cannot_carry_between_digits(case):
    table = _CARRIES[case]
    names = sorted({n for pair, entry in table.items() for n in (*pair, *entry)})
    assert names.index("z1") == names.index("z0") + 1
    ms = MultiSemigroup(
        ["i"], [OneMorphism(n, "i", "i") for n in names], table,
        {n: n for n in names}, validate=False,
    )
    assert ms.generators == tuple(names)
    with pytest.raises(MultiSemigroupError, match=r"triple \('a', 'g', 'k'\)"):
        ms._check_associativity()


def test_bumped_export_entry_fails_associativity_on_the_generators():
    ms = export_multisemigroup(coxeter_group("A3"))
    table = _bumped(ms, "3", "2321", "3")
    with pytest.raises(MultiSemigroupError, match="associativity fails at triple"):
        _rebuilt(ms, table, ms.generators)


def test_generators_must_span_the_table():
    ms = export_multisemigroup(coxeter_group("A3"))
    # without b_3 the table is still associative on the left factors checked,
    # but they only reach the parabolic subgroup generated by 1 and 2
    with pytest.raises(MultiSemigroupError, match="do not span the table"):
        _rebuilt(ms, ms.table, ["e", "1", "2"])
    with pytest.raises(MultiSemigroupError, match="generators are not morphisms"):
        _rebuilt(ms, ms.table, ["e", "1", "2", "3", "4"])


@pytest.mark.parametrize("kind, count", [("B2", 40), ("A3", 16)])
def test_generator_check_rejects_what_the_all_triples_scan_rejects(kind, count):
    ms = export_multisemigroup(coxeter_group(kind))

    def rejects(table, generators):
        try:
            _rebuilt(ms, table, generators)
        except MultiSemigroupError:
            return True
        return False

    assert not rejects(ms.table, ms.generators)
    assert not rejects(ms.table, None)
    rng = random.Random(11)
    plain = [f for f in ms.names if not ms.morphisms[f].is_identity]
    for _ in range(count):
        f, g, h = rng.choice(plain), rng.choice(plain), rng.choice(ms.names)
        delta = rng.choice([1, -1]) if ms.table[(f, g)].get(h) else 1
        table = _bumped(ms, f, g, h, delta)
        assert rejects(table, ms.generators) == rejects(table, None), (f, g, h, delta)


def _all_triples_associative(ms):
    """The reference: (f o g) o k = f o (g o k) for every composable triple,
    both sides summed straight off the table."""
    table = ms.table

    def linear(terms):
        out = {}
        for m, entry in terms:
            for h, k in entry.items():
                out[h] = out.get(h, 0) + m * k
        return {h: k for h, k in out.items() if k}

    for f in ms.names:
        for g in ms.names:
            fg = table.get((f, g))
            for k in ms.names if fg is not None else ():
                gk = table.get((g, k))
                if gk is None:
                    continue
                lhs = linear((m, table[(h, k)]) for h, m in fg.items())
                rhs = linear((m, table[(f, h)]) for h, m in gk.items())
                if lhs != rhs:
                    return False
    return True


@pytest.mark.parametrize("kind, stride", [("A2", 1), ("B2", 1), ("A3", 97)])
def test_generator_associativity_agrees_with_the_all_triples_reference(kind, stride):
    # every bump of one entry f o g at h (and its star image), f and g not
    # identities since neutrality is checked apart; A3 takes every stride-th
    ms = export_multisemigroup(coxeter_group(kind))

    def verdicts(table):
        built = MultiSemigroup(
            ms.objects, ms.morphisms.values(), table, ms.star,
            generators=ms.generators, validate=False,
        )
        try:
            built._check_associativity()
            accepted = True
        except MultiSemigroupError:
            accepted = False
        return accepted, _all_triples_associative(built)

    assert verdicts(ms.table) == (True, True)
    plain = [f for f in ms.names if not ms.morphisms[f].is_identity]
    bumps = [
        (f, g, h, delta)
        for f in plain for g in plain for h in ms.names
        for delta in ((1, -1) if ms.table[(f, g)].get(h) else (1,))
    ][::stride]
    assert len(bumps) > 100
    for f, g, h, delta in bumps:
        accepted, reference = verdicts(_bumped(ms, f, g, h, delta))
        assert accepted == reference, (f, g, h, delta)


def test_star_reverses_left_to_right():
    ms = export_multisemigroup(coxeter_group("B2"))
    st = mscell.cells(ms)
    for f in ms.names:
        for g in ms.names:
            assert ((f, g) in st.leq_left) == (
                (ms.star[f], ms.star[g]) in st.leq_right
            )


def test_b2_order_examples():
    ms = export_multisemigroup(coxeter_group("B2"))
    assert ms.compose("e", "s") == {"s": 1}
    assert ms.compose("s", "s") == {"s": 2}
    st = mscell.cells(ms)
    assert ("s", "st") in st.leq_left
    assert ("s", "s") in st.leq_left
    assert ("stst", "s") not in st.leq_left
    assert ("s", "stst") in st.leq_left
    assert ("e", "stst") in st.leq_two_sided


def test_b2_cell_table():
    ms = export_multisemigroup(coxeter_group("B2"))
    st = mscell.cells(ms)
    assert st.two_sided_cells == (
        ("e",),
        ("s", "st", "sts", "t", "ts", "tst"),
        ("stst",),
    )
    assert ("s", "st", "sts") in st.left_cells
    assert ("t", "ts", "tst") in st.left_cells
    mid = st.two_sided_cell_of("s")
    assert mscell.is_regular(ms, mid)
    assert not mscell.is_strongly_regular(ms, mid)
    # intersection table of left cells against starred left cells
    l1, l2 = ("s", "st", "sts"), ("t", "ts", "tst")
    r1 = tuple(sorted(ms.star[f] for f in l1))
    r2 = tuple(sorted(ms.star[f] for f in l2))
    inter = lambda a, b: tuple(sorted(set(a) & set(b)))
    assert inter(l1, r1) == ("s", "sts")
    assert inter(l2, r1) == ("ts",)
    assert inter(l1, r2) == ("st",)
    assert inter(l2, r2) == ("t", "tst")


def test_regularity_argument_errors():
    ms = export_multisemigroup(coxeter_group("B2"))
    with pytest.raises(CellArgumentError):
        mscell.is_regular(ms, ("s", "t"))
    with pytest.raises(CellArgumentError):
        mscell.is_strongly_regular(ms, ("e", "s"))


def test_duflo_identity_cell():
    ms = tiny_ms()
    st = mscell.cells(ms)
    assert mscell.duflo(ms, st.left_cell_of("1")) == "1"
    assert mscell.duflo_multiplicity(ms, "1") == 1


def test_duflo_requires_strong_regularity():
    ms = export_multisemigroup(coxeter_group("B2"))
    st = mscell.cells(ms)
    with pytest.raises(UnsupportedCellError):
        mscell.duflo(ms, st.left_cell_of("s"))


def test_duflo_s3():
    ms = export_multisemigroup(coxeter_group("A2"))
    st = mscell.cells(ms)
    assert mscell.duflo(ms, st.left_cell_of("1")) == "1"
    assert mscell.duflo(ms, st.left_cell_of("2")) == "2"
    assert mscell.duflo(ms, st.left_cell_of("121")) == "121"


def test_strongly_regular_bijection_pairs():
    for kind in ("A2", "A3"):
        ms = export_multisemigroup(coxeter_group(kind))
        st = mscell.cells(ms)
        for J in st.two_sided_cells:
            assert mscell.is_strongly_regular(ms, J)
            members = set(J)
            lefts = [set(c) for c in st.left_cells if set(c) <= members]
            rights = [set(c) for c in st.right_cells if set(c) <= members]
            seen = set()
            for l in lefts:
                for r in rights:
                    (x,) = l & r
                    seen.add(x)
            assert seen == members


def _two_cell_ms(star):
    """A hand-crafted associative table: left cells {a}, {b}, one right cell
    {a, b}, strongly regular, but m(a) = 1 while m(b) = 2 when the star
    fixes a and b.  The star map is not a table anti-map here, so validation
    is skipped by hand."""
    morphisms = [
        OneMorphism("1", "i", "i", is_identity=True),
        OneMorphism("a", "i", "i"),
        OneMorphism("b", "i", "i"),
    ]
    table = {
        ("1", "1"): {"1": 1},
        ("1", "a"): {"a": 1},
        ("a", "1"): {"a": 1},
        ("1", "b"): {"b": 1},
        ("b", "1"): {"b": 1},
        ("a", "a"): {"a": 1},
        ("a", "b"): {"b": 1},
        ("b", "a"): {"a": 2},
        ("b", "b"): {"b": 2},
    }
    return MultiSemigroup(["i"], morphisms, table, {"1": "1", **star}, validate=False)


def test_m_constant_on_right_cells_counterexample():
    ms = _two_cell_ms({"a": "a", "b": "b"})
    ms._check_associativity()
    st = mscell.cells(ms)
    J = st.two_sided_cell_of("a")
    assert st.left_cell_of("a") == ("a",) and st.left_cell_of("b") == ("b",)
    assert st.right_cell_of("a") == ("a", "b")
    assert mscell.is_strongly_regular(ms, J)
    assert mscell.duflo_multiplicity(ms, "a") == 1
    assert mscell.duflo_multiplicity(ms, "b") == 2
    assert not mscell.duflo_multiplicity_constant_on_right_cells(ms, J)


def test_duflo_checks_guard_the_multiplicity_condition():
    # with a and b swapped by the star, L intersect L* is empty for {a}
    ms = _two_cell_ms({"a": "b", "b": "a"})
    J = mscell.cells(ms).two_sided_cell_of("a")
    with pytest.raises(DataInconsistencyError, match="is not a singleton"):
        mscell.duflo(ms, ("a",))
    with pytest.raises(DataInconsistencyError, match="is not a singleton"):
        mscell.duflo_multiplicity_constant_on_right_cells(ms, J)


@pytest.mark.parametrize("kind", ["A2", "A3"])
def test_multiplicity_condition_takes_one_duflo_involution_per_left_cell(kind, monkeypatch):
    ms = export_multisemigroup(coxeter_group(kind))
    st = mscell.cells(ms)
    calls = {"is_strongly_regular": 0, "_duflo_in": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(mscell, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mscell, name, counted)
    for J in st.two_sided_cells:
        calls.update(dict.fromkeys(calls, 0))
        assert mscell.duflo_multiplicity_constant_on_right_cells(ms, J)
        lefts = sum(set(c) <= set(J) for c in st.left_cells)
        assert calls == {"is_strongly_regular": 1, "_duflo_in": lefts}, J


@pytest.mark.parametrize("kind", ["A2", "B2", "A3"])
def test_strong_regularity_and_duflo_involutions_are_found_once_per_cell(kind, monkeypatch):
    ms = export_multisemigroup(coxeter_group(kind))
    st = mscell.cells(ms)
    calls = {"is_regular": [], "_duflo_in": []}
    for name, seen in calls.items():
        def counted(*args, _seen=seen, _fn=getattr(mscell, name)):
            _seen.append(args[-1])
            return _fn(*args)
        monkeypatch.setattr(mscell, name, counted)
    verdicts, involutions, refusals = {}, {}, {}
    for _ in range(3):
        for J in st.two_sided_cells:
            verdicts.setdefault(J, mscell.is_strongly_regular(ms, J))
            assert mscell.is_strongly_regular(ms, J) == verdicts[J]
            if verdicts[J]:
                mscell.duflo_multiplicity_constant_on_right_cells(ms, J)
        for L in st.left_cells:
            try:
                involutions.setdefault(L, mscell.duflo(ms, L))
            except UnsupportedCellError:
                refusals[L] = refusals.get(L, 0) + 1
            else:
                assert mscell.duflo(ms, L) == involutions[L]
    assert sorted(calls["is_regular"]) == sorted(st.two_sided_cells)
    assert sorted(calls["_duflo_in"]) == sorted(involutions)
    # a refused cell keeps nothing and is refused on every pass
    assert set(refusals.values()) <= {3}
    assert all(not verdicts[st.two_sided_cell_of(L[0])] for L in refusals)
    assert bool(refusals) == (kind == "B2")
    with pytest.raises(CellArgumentError):
        mscell.is_strongly_regular(ms, st.left_cells[0] + ("nothing",))
    with pytest.raises(CellArgumentError):
        mscell.duflo(ms, ("nothing",))


# -- one test per validation message: a table with exactly one fault -----


def _refusal(objects, morphisms, table, star):
    """The MultiSemigroupError the constructor raises, as (message,
    witnesses) with witnesses the pair, star and morphism it names."""
    with pytest.raises(MultiSemigroupError) as err:
        MultiSemigroup(objects, morphisms, table, star)
    return str(err.value), (err.value.pair, err.value.star, err.value.morphism)


def test_a_repeated_morphism_name_is_refused():
    objects, morphisms, table, star = _tiny_parts()
    assert _refusal(objects, morphisms + [OneMorphism("g", "i", "i")], table, star) == (
        "duplicate morphism names", (None, None, None),
    )


@pytest.mark.parametrize("star", [{"1": "1"}, {"1": "1", "g": "x", "x": "g"}])
def test_a_star_missing_or_off_the_morphisms_is_refused(star):
    objects, morphisms, table, _ = _tiny_parts()
    assert _refusal(objects, morphisms, table, star) == (
        "star undefined at 'g'", (None, "g", None),
    )


def test_a_star_moving_the_identity_is_refused():
    objects, morphisms, table, _ = _tiny_parts()
    assert _refusal(objects, morphisms, table, {"1": "g", "g": "1"}) == (
        "star must fix the identity '1'", (None, "1", None),
    )


def test_a_table_entry_for_a_non_composable_pair_is_refused():
    ms = two_object_ms()
    table = {**ms.table, ("f", "f"): {}}
    assert _refusal(ms.objects, ms.morphisms.values(), table, ms.star) == (
        "table entry for non-composable pair ('f', 'f')", (("f", "f"), None, None),
    )


def test_an_unknown_summand_is_refused():
    objects, morphisms, table, star = _tiny_parts()
    table[("g", "g")] = {"g": 1, "x": 1}
    assert _refusal(objects, morphisms, table, star) == (
        "unknown summand 'x' in 'g' o 'g'", (("g", "g"), None, None),
    )


def test_a_summand_with_the_wrong_source_or_target_is_refused():
    ms = two_object_ms()
    # f o g is an endomorphism of b; 1a is one of a
    table = {**ms.table, ("f", "g"): {"1a": 1}}
    assert _refusal(ms.objects, ms.morphisms.values(), table, ms.star) == (
        "summand '1a' of 'f' o 'g' has wrong source or target", (("f", "g"), None, None),
    )


def test_an_identity_that_is_not_right_neutral_is_refused():
    objects, morphisms, table, star = _tiny_parts()
    table[("g", "1")] = {"g": 2}
    assert _refusal(objects, morphisms, table, star) == (
        "identity '1' is not right-neutral on 'g'", (("g", "1"), None, None),
    )


def test_a_table_entry_naming_no_morphism_is_refused():
    objects, morphisms, table, star = _tiny_parts()
    table[("g", "x")] = {}
    assert _refusal(objects, morphisms, table, star) == (
        "table entry for unknown morphism in ('g', 'x')", (("g", "x"), None, None),
    )


def test_the_witness_is_the_first_fault_in_input_order_after_the_star_checks():
    ms = two_object_ms()
    non_composable = {("f", "f"): {}}
    wrong_ends = {("f", "g"): {"1a": 1}}
    for first, second, message in (
        (non_composable, wrong_ends, "table entry for non-composable pair ('f', 'f')"),
        (wrong_ends, non_composable, "summand '1a' of 'f' o 'g' has wrong source or target"),
    ):
        table = {**first, **second}
        table.update((key, entry) for key, entry in ms.table.items() if key not in table)
        assert _refusal(ms.objects, ms.morphisms.values(), table, ms.star)[0] == message
        # a star fault is found before any table fault
        star = {**ms.star, "f": "f", "g": "g"}
        assert _refusal(ms.objects, ms.morphisms.values(), table, star) == (
            "star of 'f' must swap source and target", (None, "f", None),
        )


# -- the name-keyed view of the table -----------------------------------


def _expected_table(morphisms, table):
    """The name-keyed table of a MultiSemigroup built from `table`: every
    input pair in input order, its multiplicities made int and the zero ones
    dropped, then every composable pair the input leaves out, in the order
    of the sorted names, as the empty composition."""
    out = {pair: {h: int(k) for h, k in entry.items() if k} for pair, entry in table.items()}
    ends = {m.name: (m.src, m.tgt) for m in morphisms}
    for f in sorted(ends):
        for g in sorted(ends):
            if ends[f][0] == ends[g][1]:
                out.setdefault((f, g), {})
    return out


def _in_order(table):
    return [(pair, list(entry.items())) for pair, entry in table.items()]


@st.composite
def _tables(draw):
    """(objects, morphisms, table) on one or two objects: an identity per
    object and up to three more morphisms, and a table over a random subset
    of the composable pairs, in random order, with summands of the right
    ends and multiplicities 0 to 3, some of them integral Fractions."""
    objects = draw(st.sampled_from([("i",), ("a", "b")]))
    morphisms = [OneMorphism(f"1{o}", o, o, is_identity=True) for o in objects]
    for j in range(draw(st.integers(0, 3))):
        src, tgt = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        morphisms.append(OneMorphism(f"m{j}", src, tgt))
    composable = [(f, g) for f in morphisms for g in morphisms if f.src == g.tgt]
    multiplicity = st.integers(0, 3) | st.integers(0, 3).map(Fraction)
    table = {}
    for f, g in draw(st.lists(st.sampled_from(composable), unique=True)):
        ends = [h.name for h in morphisms if (h.src, h.tgt) == (g.src, f.tgt)]
        summands = st.dictionaries(st.sampled_from(ends), multiplicity, max_size=3)
        table[(f.name, g.name)] = draw(summands) if ends else {}
    return objects, morphisms, table


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tables())
def test_the_table_view_keeps_the_input_and_compose_reads_the_same(case):
    objects, morphisms, table = case
    star = {m.name: m.name for m in morphisms}
    ms = MultiSemigroup(objects, morphisms, table, star, validate=False)
    expected = _expected_table(morphisms, table)
    assert _in_order(ms.table) == _in_order(expected)
    assert all(type(k) is int for entry in ms.table.values() for k in entry.values())
    for f in ms.names:
        for g in ms.names:
            if (f, g) in expected:
                assert ms.compose(f, g) == expected[(f, g)]
            else:
                with pytest.raises(NotComposableError):
                    ms.compose(f, g)


def _built_with_its_table(monkeypatch, module, build):
    """(build(), the table it gave MultiSemigroup) for a build that makes
    its multisemigroup through `module.MultiSemigroup`."""
    given = []

    def recording(objects, morphisms, table, star, **options):
        given.append((list(morphisms), table))
        return MultiSemigroup(objects, given[-1][0], table, star, **options)

    monkeypatch.setattr(module, "MultiSemigroup", recording)
    built = build()
    monkeypatch.undo()
    (morphisms, table), = given
    return built, _expected_table(morphisms, table)


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "B2"])
def test_the_table_view_of_an_export_is_its_input(kind, monkeypatch):
    group = coxeter_group(kind)
    ms, expected = _built_with_its_table(
        monkeypatch, hecke, lambda: export_multisemigroup(group, bound=group.order)
    )
    assert _in_order(ms.table) == _in_order(expected)


@pytest.mark.parametrize("name", sorted(fixtures.ALGEBRA_FILES))
def test_the_table_view_of_every_ccx_fixture_build_is_its_input(name, monkeypatch):
    algebra = fixtures.load_algebra(name).algebra
    build, expected = _built_with_its_table(
        monkeypatch, bimod, lambda: bimod.build_ccx(bimod.CcxData(algebras=(algebra,), name=name))
    )
    assert _in_order(build.ms.table) == _in_order(expected)
    if name in fixtures.GRADED_FIXTURES:
        spec = fixtures.load_algebra(name)
        build, expected = _built_with_its_table(
            monkeypatch, bimod,
            lambda: graded.build_graded_ccx([graded.GradedAlgebra(algebra, spec.degrees)], name=name),
        )
        assert _in_order(build.ms.table) == _in_order(expected)


def test_an_a3_export_and_its_cell_queries_build_no_name_view(monkeypatch):
    read = []
    monkeypatch.setattr(MultiSemigroup, "table", property(lambda ms: read.append("table")))
    monkeypatch.setattr(mscell.CellStructure, "_pairs", lambda st, masks: read.append("pairs"))
    ms = export_multisemigroup(coxeter_group("A3"))
    st = mscell.cells(ms)
    assert mscell.identity_products_clean(ms)
    for J in st.two_sided_cells:
        assert mscell.is_regular(ms, J)
        assert mscell.is_strongly_regular(ms, J)
        assert mscell.duflo_multiplicity_constant_on_right_cells(ms, J)
    assert read == []
    # the recorders see a read
    ms.table, st.leq_left, st.leq_two_sided
    assert read == ["table", "pairs", "pairs"]
