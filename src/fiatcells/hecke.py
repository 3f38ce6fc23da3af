"""Kazhdan-Lusztig combinatorics for small Coxeter groups, and the
Robinson-Schensted oracle for type A.

The Hecke algebra is taken over Z[v, v^-1] with T_s^2 = (v^-1 - v) T_s + T_e,
and the canonical basis is the positive one determined by b_s = T_s + v T_e
(so b_s b_s = (v + v^-1) b_s and all structure constants specialize to
non-negative integers at v = 1).  Multisemigroup export swaps sides so that
the computed left cells match the convention in which left cells of the
2-category are Kazhdan-Lusztig right cells.

The export's product table comes from the left action of the generators on
the canonical basis: the |S|.|W| generator products b_s b_w determine every
b_x b_y by associativity.  One pass over w in length order (`_kl_recursion`)
forms each once, and the canonical basis with them: (v + v^-1) b_w when
sw < w, certified by T_s b_w = v^-1 b_w, else b_sw + sum mu(z, w) b_z
(Kazhdan-Lusztig 1979, (2.3.b)), mu read off b_w.  The b_s generate the
canonical basis, so the exported table is checked for associativity with
only the b_s as left factors (neutrality already settles the identity),
next to a certificate that they and the identity span it.

A Laurent coefficient is packed into one int in the two stages that do the
export's arithmetic, and is a raw {exponent: int} dict everywhere else.
Packing is Kronecker substitution: the int is the value at v = 2^bits, one
balanced base-2^bits digit per exponent, exact while every coefficient is
below 2^(bits-1) in magnitude.
- The KL recursion packs the T coordinates of each b_w as {x: int} at the
  fixed width `_KL_BITS`, its exponents all non-negative, and tracks an l1
  bound of each b_w that proves the width before any digit is read (else
  `SizeLimitError`).  Its int operations are the Laurent ones: shifts for
  v and v^-1, the digit at v^1 for mu, masks for the degree check.
- The export's product table packs each coefficient of a column, with a
  width `_packed_action` proves from the generator action, so its Laurent
  products are big-int products, and the v = 1 step checks every
  coefficient non-negative with one mask and reads the value at 1 as a
  remainder modulo 2^bits - 1.
Everything else is raw {x: {exponent: int}} dicts in T or canonical
coordinates, with no zero entries: the generator action `act` the
recursion hands the table, `kl_basis` (the recursion's basis, unpacked) and
the per-pair reference (`multiply`, `bar_involution`, `kl_expand`,
`kl_product_at_one`), whose Laurent arithmetic accumulates in place
through `_mac`.  LaurentPoly only formats coefficients in error messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .coxeter import CoxeterGroup, coxeter_group
from .laurent import LaurentPoly
from .mscell import MultiSemigroup, OneMorphism

# the largest group order the Kazhdan-Lusztig computation accepts
DEFAULT_SIZE_BOUND = 192

# the digit width of the packed canonical basis in `_kl_recursion`
_KL_BITS = 64

# raw {exponent: int} factors for `_mac`
_ONE = {0: 1}
_VMINUS = {1: 1, -1: -1}  # v - v^-1


class SizeLimitError(ValueError):
    """Group too large for the Kazhdan-Lusztig computation bound."""


class HeckeDataError(ValueError):
    """Computed Hecke data violates a structural guarantee."""


def _left_product(group: CoxeterGroup, s: int, x: int) -> int:
    return group.left_gen[x][s]


def _mac(acc: dict, data: dict, factor: dict) -> dict:
    """acc[x] += factor * data[x] for every x of data, in place, and return
    acc.  acc and data hold raw {exponent: int} dicts, and acc may keep
    zeros until `_trimmed`; factor is a raw dict, each of whose terms
    shifts the exponents of data once."""
    for x, poly in data.items():
        row = acc.get(x)
        if row is None:
            row = acc[x] = {}
        for f, k in factor.items():
            for e, c in poly.items():
                e += f
                row[e] = row.get(e, 0) + k * c
    return acc


def _trimmed(acc: dict) -> dict:
    """The finished raw coefficients of acc, zeros and empty rows dropped."""
    rows = ((x, {e: c for e, c in row.items() if c}) for x, row in acc.items())
    return {x: row for x, row in rows if row}


def _t_gen(group: CoxeterGroup, acc: dict, data: dict, image: dict, factor: dict) -> dict:
    """acc += factor * T_s * data, with T_s on the side where image[x] is x
    times s: T_x goes to T_image[x], plus (v^-1 - v) T_x when image[x] is
    shorter than x, applied as the two exponent shifts of factor."""
    up, down = {}, {}
    for x, c in data.items():
        y = image[x]
        up[y] = c
        if group.length(y) < group.length(x):
            down[x] = c
    _mac(acc, up, factor)
    _mac(acc, down, {e - 1: k for e, k in factor.items()})
    return _mac(acc, down, {e + 1: -k for e, k in factor.items()})


def _t_gen_left(group: CoxeterGroup, acc: dict, data: dict, s: int, factor=_ONE) -> dict:
    """acc += factor * T_s * (element in T coordinates)."""
    return _t_gen(group, acc, data, {x: _left_product(group, s, x) for x in data}, factor)


def _t_word_left(group: CoxeterGroup, acc: dict, data: dict, word, factor: dict) -> dict:
    """acc += factor * T_word * data; only the first letter's product,
    the last one taken, accumulates into acc."""
    for s in reversed(word[1:]):
        data = _trimmed(_t_gen_left(group, {}, data, s))
    if not word:
        return _mac(acc, data, factor)
    return _t_gen_left(group, acc, data, word[0], factor)


def multiply(group: CoxeterGroup, a: dict, b: dict) -> dict:
    """Product in the Hecke algebra of the group, in T coordinates."""
    acc: dict = {}
    for x, c in a.items():
        _t_word_left(group, acc, b, group.words[x], c)
    return _trimmed(acc)


def _bar_t_basis(group: CoxeterGroup) -> list[dict]:
    """bar(T_w) for every w in raw T coordinates, via
    bar(T_w) = T_{s1}^-1 ... T_{sk}^-1."""
    bar = [dict() for _ in range(group.order)]
    bar[group.identity] = {group.identity: {0: 1}}
    for x in group.by_length()[1:]:
        s = group.words[x][-1]
        # bar(T_x) = bar(T_xs) * T_s^-1,  T_s^-1 = T_s + (v - v^-1)
        base = bar[group.mult_gen[x][s]]
        right = {y: group.mult_gen[y][s] for y in base}
        bar[x] = _trimmed(_mac(_t_gen(group, {}, base, right, _ONE), base, _VMINUS))
    return bar


def bar_involution(group: CoxeterGroup, elem: dict) -> dict:
    """The bar involution: v -> v^-1 and T_w -> T_{w^-1}^-1, read off the
    table of bar(T_w), built afresh on each call."""
    bar_t = _bar_t_basis(group)
    acc: dict = {}
    for x, c in elem.items():
        _mac(acc, bar_t[x], {-e: k for e, k in c.items()})
    return _trimmed(acc)


def _mu_terms(group: CoxeterGroup, b_w: dict, s: int) -> dict:
    """{z: mu(z, w)} over the z < w with sz < z and mu(z, w) != 0, mu(z, w)
    the coefficient of v in the T_z coordinate of b_w: for sw > w, the terms
    of b_s b_w other than b_sw (Kazhdan-Lusztig 1979, (2.3.b)).  b_w is
    packed as `_kl_recursion` says, and every such h_z is in v*Z[v], so
    mu(z, w) is the balanced low digit of h_z >> _KL_BITS."""
    lengths, left = group.lengths, group.left_gen
    mask, half = (1 << _KL_BITS) - 1, 1 << (_KL_BITS - 1)
    out = {}
    for z, c in b_w.items():
        if lengths[left[z][s]] < lengths[z]:
            d = c >> _KL_BITS & mask
            if d:
                out[z] = d - (mask + 1) if d & half else d
    return out


def _t_plus_v(group: CoxeterGroup, b_w: dict, s: int) -> dict:
    """(T_s + v) b_w in packed T coordinates, for sw > w, as a map that may
    hold zeros: h_x goes to T_sx, and to T_x as v h_x when sx > x, as
    v^-1 h_x when sx < x (T_s T_x = T_sx + (v^-1 - v) T_x, and v h_x
    cancels the -v h_x).  Such an x is not w, so h_x is in v*Z[v] and the
    shift down is exact."""
    lengths, left = group.lengths, group.left_gen
    out: dict = {}
    for x, c in b_w.items():
        sx = left[x][s]
        out[sx] = out.get(sx, 0) + c
        out[x] = out.get(x, 0) + (c >> _KL_BITS if lengths[sx] < lengths[x] else c << _KL_BITS)
    return out


def _unpacked(p: int, bits: int, low: int = 0) -> dict:
    """The raw {exponent: int} Laurent polynomial packed in the int p, one
    balanced base-2^bits digit per exponent from `low` up."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    row = {}
    while p:
        d = p & mask
        if d & half:
            d -= mask + 1
        if d:
            row[low] = d
        p = (p - d) >> bits
        low += 1
    return row


def _kl_recursion(group: CoxeterGroup) -> tuple:
    """(basis, act, bounds): the canonical basis packed, act[s][w] = b_s b_w
    in canonical coordinates as raw dicts, and an l1 bound of each b_w, from
    one pass over w in length order.

    b_w is packed as {x: h_x(2^_KL_BITS)}, h_x its T_x coordinate, one
    balanced base-2^_KL_BITS digit per exponent: every exponent is
    non-negative, since h_x is in v*Z[v] for x != w (checked), and the
    digits are the coefficients while each is below 2^(_KL_BITS-1) in
    magnitude, which the bounds prove.  The sum of |coefficients| over the
    whole of b_e is 1; T_s at most triples an l1 norm, and v b_w adds the
    norm of b_w once more, so the candidate for b_sw from the pair (s, w)
    has l1 norm at most 4 bounds[w] + sum |mu(z, w)| bounds[z], which must stay below
    2^(_KL_BITS-1) before any digit of it is read (else `SizeLimitError`).

    For sw < w, b_s b_w = (v + v^-1) b_w, certified by `_descent_product`.
    For sw > w, b_s b_w = b_sw + sum mu(z, w) b_z over the `_mu_terms`, so
    (T_s + v) b_w minus those terms is b_sw.  The first pair to reach sw
    defines b_sw by it, checked to have 1 at T_sw and v*Z[v] below; being
    bar invariant by construction, it is then canonical (KL 1979,
    Theorem 1.1).  Every later pair must give b_sw exactly, which
    certifies its mu terms."""
    if group.order > DEFAULT_SIZE_BOUND:
        raise SizeLimitError(
            f"group of order {group.order} exceeds the bound {DEFAULT_SIZE_BOUND}"
        )
    gens = range(len(group.gen_names))
    lengths, left = group.lengths, group.left_gen
    limit, mask = 1 << (_KL_BITS - 1), (1 << _KL_BITS) - 1
    basis: list = [None] * group.order
    basis[group.identity] = {group.identity: 1}
    bounds = [0] * group.order
    bounds[group.identity] = 1
    act: list = [[None] * group.order for _ in gens]
    for w in group.by_length():
        b_w = basis[w]
        for s in gens:
            sw = left[w][s]
            if lengths[sw] < lengths[w]:
                act[s][w] = _descent_product(group, b_w, s, w)
                continue
            mu = _mu_terms(group, b_w, s)
            bound = 4 * bounds[w] + sum(abs(m) * bounds[z] for z, m in mu.items())
            if bound >= limit:
                raise SizeLimitError(
                    f"the l1 bound {bound} of b_{group.gen_names[s]} b_{group.name(w)} "
                    f"is beyond the {_KL_BITS}-bit packing"
                )
            entry = {sw: {0: 1}}
            prod = _t_plus_v(group, b_w, s)
            for z, m in mu.items():
                entry[z] = {0: m}
                for x, c in basis[z].items():
                    prod[x] = prod.get(x, 0) - m * c
            b_sw = {x: c for x, c in prod.items() if c}
            if basis[sw] is None:
                if b_sw.get(sw) != 1:
                    raise HeckeDataError(f"canonical basis recursion failed at {group.name(sw)}")
                for x, c in b_sw.items():
                    if x != sw and c & mask:
                        raise HeckeDataError(
                            f"coefficient of T_{group.name(x)} in b_{group.name(sw)} is "
                            f"not in v*Z[v]: {LaurentPoly(_unpacked(c, _KL_BITS)).format('v')}"
                        )
                basis[sw] = b_sw
                bounds[sw] = bound
            elif b_sw != basis[sw]:
                raise HeckeDataError(
                    f"b_{group.gen_names[s]} b_{group.name(w)} minus its mu terms "
                    f"is not b_{group.name(sw)}"
                )
            act[s][w] = entry
    return basis, act, bounds


def kl_basis(group: CoxeterGroup) -> list[dict]:
    """The canonical (Kazhdan-Lusztig) basis {b_w} in T coordinates.

    Computed by the recursion b_sw = b_s b_w - sum mu(z, w) b_z for
    sw > w, mu read off b_w, with every generator product checked
    (`_kl_recursion`), and unpacked.
    """
    return [
        {x: _unpacked(c, _KL_BITS) for x, c in b_w.items()}
        for b_w in _kl_recursion(group)[0]
    ]


def kl_expand(group: CoxeterGroup, element: dict, basis=None) -> dict:
    """Canonical coordinates of a Hecke element given in T coordinates,
    peeled over every element from the top down: the coefficient of the
    longest x left is final, since every other term of b_x is shorter.
    The per-pair reference's expansion; the export does not call it."""
    basis = basis or kl_basis(group)
    acc = _mac({}, element, _ONE)
    out = {}
    for x in reversed(group.by_length()):
        c = {e: k for e, k in acc.get(x, {}).items() if k}
        if c:
            out[x] = c
            _mac(acc, basis[x], {e: -k for e, k in c.items()})
    if any(any(row.values()) for row in acc.values()):
        raise HeckeDataError("canonical-basis expansion left a nonzero remainder")
    return out


def kl_product_at_one(group: CoxeterGroup, x: int, y: int, basis=None) -> dict:
    """Multiset expansion of b_x b_y in the canonical basis, specialized at v=1,
    from the T-basis product (the per-pair reference for the export's table)."""
    basis = basis or kl_basis(group)
    out = {}
    for z, row in kl_expand(group, multiply(group, basis[x], basis[y]), basis).items():
        if any(k < 0 for k in row.values()):
            raise HeckeDataError(
                f"negative canonical structure constant at {group.name(z)}: "
                f"{LaurentPoly(row).format('v')}"
            )
        out[z] = sum(row.values())
    return out


def _descent_product(group: CoxeterGroup, b_w: dict, s: int, w: int) -> dict:
    """b_s b_w = (v + v^-1) b_w for sw < w, certified by T_s b_w = v^-1 b_w:
    h_x = v h_sx for every x with sx > x, h the packed T coordinates of b_w
    (`_kl_recursion`), so h_x == h_sx << _KL_BITS.  Each pair is compared
    once, from its shorter end x.  A longer x is only checked to have its
    shorter partner in supp(b_w), where the pair is compared."""
    lengths, left = group.lengths, group.left_gen
    for x, h in b_w.items():
        sx = left[x][s]
        if lengths[sx] < lengths[x]:
            holds = sx in b_w
        else:
            holds = h == b_w.get(sx, 0) << _KL_BITS
        if not holds:
            g, name = group.gen_names[s], group.name(w)
            raise HeckeDataError(f"T_{g} b_{name} is not v^-1 b_{name}, although {g} is a descent")
    return {w: {1: 1, -1: 1}}


def _generator_action(group: CoxeterGroup) -> list:
    """act[s][w] = b_s b_w in canonical coordinates, as raw dicts
    (`_kl_recursion`); b_sw has coefficient 1 in it when sw > w."""
    return _kl_recursion(group)[1]


class _Packing(NamedTuple):
    """Laurent polynomials in v as ints (Kronecker substitution): f is
    f(2^bits), each coefficient one balanced base-2^bits digit, which holds
    while every coefficient is below 2^(bits-1) in magnitude."""

    bits: int
    limit: int  # 2^(bits * digits)
    high: int  # the top bit of each of the digits
    mod: int  # 2^bits - 1, modulo which f(2^bits) is f(1)


def _packing(bits: int, digits: int) -> _Packing:
    """The packing of polynomials of up to `digits` coefficients, each
    below 2^(bits-1) in magnitude."""
    high = 0
    for _ in range(digits):
        high = high << bits | 1 << (bits - 1)
    return _Packing(bits, 1 << bits * digits, high, (1 << bits) - 1)


def _packed_action(group: CoxeterGroup, act) -> tuple:
    """(packing, steps): the generator action packed for `_packed_column`,
    one step (a, packed act[s], r, corrections) for each a != e in length
    order, s the first letter of a and r = sa.

    An entry of col[a] = b_a b_c is the int (v^l(a) h)(2^bits), h the
    Laurent coefficient.  Each coefficient h of act[s][w] is packed once as
    (v h)(2^bits), a polynomial since h has no term below v^-1 (checked),
    so col[r][w] times it is the entry of v^l(a) times their product.  A
    correction term m b_z of act[s][r], z != a, enters as -(v m)(2^bits)
    shifted up l(a) - l(z) - 1 digits, which z shorter than a makes
    non-negative (checked).

    Width.  Let K be the largest l1 norm (over every z and exponent) of an
    act[s][w], and M the largest l1 norm of the terms other than b_a of the
    act[s][r] of a step.  Then col[a] has l1 norm at most (K+M)^l(a), by
    induction on l(a): col[e] = b_c has norm 1; col[a] sums col[r][w]
    act[s][w], of norm at most K (K+M)^(l(a)-1), and the corrections
    m col[z], z shorter than a, of norm at most M (K+M)^(l(a)-1).  So with
    L the longest length, every entry has l1 norm at most
    (K+M)^L < 2^(L bit_length(K+M)) = 2^(bits-1), and so have each of its
    coefficients and its value at 1 in magnitude.  With E >= 1 bounding the
    degree of every packed act coefficient, a product step adds at most E
    to the degree and a correction at most
    l(a) - l(z) - 1 + E (l(z) + 1) <= E l(a), so every entry of col[a] has
    degree at most E l(a), and E L + 1 digits hold it.
    """
    by_length = group.by_length()
    steps = []
    for a in by_length[1:]:
        s = group.words[a][0]
        steps.append((a, s, _left_product(group, s, a)))
    rows = [row for acts in act for entry in acts for row in entry.values()]
    k = max(sum(abs(c) for c in row.values()) for row in rows)
    m = max(
        sum(abs(c) for z, row in act[s][r].items() if z != a for c in row.values())
        for a, s, r in steps
    )
    longest = group.length(by_length[-1])
    bits = longest * (k + m).bit_length() + 1
    packing = _packing(bits, longest * max(1, max(max(row) for row in rows) + 1) + 1)
    packed: list = [[{} for _ in acts] for acts in act]
    for s, acts in enumerate(act):
        for w, entry in enumerate(acts):
            for z, row in entry.items():
                if min(row) < -1:
                    raise HeckeDataError(
                        f"coefficient of b_{group.name(z)} in b_{group.gen_names[s]} "
                        f"b_{group.name(w)} has a term below v^-1: "
                        f"{LaurentPoly(row).format('v')}"
                    )
                packed[s][w][z] = sum(c << bits * (e + 1) for e, c in row.items())
    out = []
    for a, s, r in steps:
        corrections = []
        for z, coeff in packed[s][r].items():
            if z != a:
                shift = group.length(a) - group.length(z) - 1
                if shift < 0:
                    raise HeckeDataError(
                        f"b_{group.name(z)} in b_{group.gen_names[s]} b_{group.name(r)} "
                        f"is not shorter than b_{group.name(a)}"
                    )
                corrections.append((z, -coeff << bits * shift))
        out.append((a, packed[s], r, corrections))
    return packing, out


def _packed_column(group: CoxeterGroup, steps, c: int) -> list:
    """col[a] = b_a b_c in canonical coordinates, packed as `_packed_action`
    says, for every a, from the generator action.  Going up in length with
    a = s r (s the first letter of a's word), b_a = b_s b_r minus the other
    terms of act[s][r], all of them shorter than a, so b_a b_c = act[s]
    applied to col[r] minus the same terms applied to col."""
    col: list = [None] * group.order
    col[group.identity] = {c: 1}
    for a, act_s, r, corrections in steps:
        out: dict = {}
        for w, p in col[r].items():
            for z, q in act_s[w].items():
                out[z] = out.get(z, 0) + p * q
        for z, q in corrections:
            for y, p in col[z].items():
                out[y] = out.get(y, 0) + p * q
        col[a] = {z: p for z, p in out.items() if p}
    return col


def _packed_at_one(packing: _Packing, names: list, entry: dict, shift: int) -> dict:
    """{names[z]: h_z(1)} for a packed entry {z: (v^shift h_z)(2^bits)},
    each h_z of l1 norm below 2^(bits-1) and with its digits below
    packing.limit, as `_packed_action` proves; every coefficient must be
    non-negative.

    A balanced base-2^bits representation is unique, so the coefficients
    are all non-negative exactly when the int's ordinary digits all are
    below 2^(bits-1): 0 <= p < limit with no digit's top bit set.  Then
    h_z(1), the sum of the digits, is p modulo 2^bits - 1, which it is
    below.  Otherwise the balanced digits are decoded for the message."""
    bits, limit, high, mod = packing
    out = {}
    for z, p in entry.items():
        if p < 0 or p >= limit or p & high:
            raise HeckeDataError(
                f"negative canonical structure constant at {names[z]}: "
                f"{LaurentPoly(_unpacked(p, bits, -shift)).format('v')}"
            )
        out[names[z]] = p % mod
    return out


def _table_at_one(group: CoxeterGroup) -> dict:
    """b_y b_x at v=1 for every pair, keyed by the names (x, y), built one
    right factor b_x at a time from the packed generator action.  Only the
    table outlives the call, so the multisemigroup validates it after the
    basis, the action and the last column are freed."""
    packing, steps = _packed_action(group, _generator_action(group))
    names = [group.name(x) for x in range(group.order)]
    table = {}
    for x in range(group.order):
        col = _packed_column(group, steps, x)
        for y in range(group.order):
            table[(names[x], names[y])] = _packed_at_one(
                packing, names, col[y], group.length(y)
            )
    return table


def export_multisemigroup(group: CoxeterGroup) -> MultiSemigroup:
    """The multisemigroup of the projective-functor 2-category of the group.

    Morphism labels are the canonical words ('e' for the identity).  The
    table entry for (th_x, th_y) is the canonical-basis expansion of
    b_y b_x at v=1: the side swap makes the computed left cells match the
    convention in which they are Kazhdan-Lusztig right cells.  Associativity
    is checked with the b_s as left factors: b_sw has coefficient 1 in
    b_s b_w when sw > w, by construction, so they and the identity span,
    and the identity as a left factor is covered by neutrality.
    """
    obj = "i"
    morphisms = [
        OneMorphism(group.name(x), obj, obj, is_identity=(x == group.identity))
        for x in range(group.order)
    ]
    table = _table_at_one(group)
    star = {group.name(x): group.name(group.inverse[x]) for x in range(group.order)}
    generators = [
        group.name(group.mult_gen[group.identity][s]) for s in range(len(group.gen_names))
    ]
    return MultiSemigroup([obj], morphisms, table, star, generators=generators)


# -- Robinson-Schensted -------------------------------------------------


@dataclass(frozen=True)
class TableauPair:
    """A pair (P, Q) of standard Young tableaux of the same shape."""

    p_rows: tuple
    q_rows: tuple

    def __post_init__(self):
        for rows in (self.p_rows, self.q_rows):
            if not _is_standard(rows):
                raise ValueError(f"not a standard tableau: {rows!r}")
        if self.shape != tuple(len(r) for r in self.q_rows):
            raise ValueError("P and Q must have equal shapes")

    @property
    def shape(self) -> tuple:
        return tuple(len(r) for r in self.p_rows)


def _is_standard(rows) -> bool:
    n = sum(len(r) for r in rows)
    entries = [x for r in rows for x in r]
    if sorted(entries) != list(range(1, n + 1)):
        return False
    for r in rows:
        if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            return False
    for i in range(len(rows) - 1):
        if len(rows[i + 1]) > len(rows[i]):
            return False
        if any(rows[i][j] >= rows[i + 1][j] for j in range(len(rows[i + 1]))):
            return False
    return True


def rsk(perm) -> TableauPair:
    """Row-insertion Robinson-Schensted pair of a permutation of {1..n}.

    >>> rsk((2, 1, 3)).shape
    (2, 1)
    """
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(perm, start=1):
        x = value
        row = 0
        while True:
            if row == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            bumped = next((j for j, y in enumerate(p_rows[row]) if y > x), None)
            if bumped is None:
                p_rows[row].append(x)
                q_rows[row].append(step)
                break
            p_rows[row][bumped], x = x, p_rows[row][bumped]
            row += 1
    return TableauPair(
        tuple(tuple(r) for r in p_rows), tuple(tuple(r) for r in q_rows)
    )


class Cells(NamedTuple):
    """Left, right and two-sided cells as partitions: each a sorted tuple
    of name-sorted cells."""

    left_cells: tuple
    right_cells: tuple
    two_sided_cells: tuple


def rsk_cells(n: int) -> Cells:
    """Cells of S_n from the Robinson-Schensted correspondence, over the
    one-line permutations `perm(x)` of A_{n-1}'s elements.

    Two-sided cells are fibers of the shape; left cells are fibers of the
    insertion tableau P (so that they agree with the multisemigroup export,
    whose left cells are Kazhdan-Lusztig right cells); right cells are
    fibers of Q.  The oracle fixes these partitions only, not the
    composition preorders, so it returns no preorder.
    """
    if n < 2 or n > 5:
        raise ValueError("rsk_cells supports 2 <= n <= 5")
    group = coxeter_group(f"A{n - 1}")
    by_p: dict = {}
    by_q: dict = {}
    by_shape: dict = {}
    for x in range(group.order):
        pair = rsk(group.perm(x))
        by_p.setdefault(pair.p_rows, []).append(group.name(x))
        by_q.setdefault(pair.q_rows, []).append(group.name(x))
        by_shape.setdefault(pair.shape, []).append(group.name(x))

    def partition(groups: dict) -> tuple:
        return tuple(sorted(tuple(sorted(fibre)) for fibre in groups.values()))

    return Cells(partition(by_p), partition(by_q), partition(by_shape))
