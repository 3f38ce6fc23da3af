"""Finite multisemigroups of 1-morphism classes: Green's preorders, cells,
regularity, Duflo involutions and the Duflo multiplicity function.

A multisemigroup here is the composition combinatorics of a finitary
2-category: a finite set of labelled 1-morphism classes between objects, a
composition table with multiplicities in N (defined exactly for composable
pairs), and an involution * that reverses composition.  All values are
immutable after construction and every operation is a pure function.

Morphisms are indexed by their place in the sorted `names`, and what a
`MultiSemigroup` stores is in those indices: the table as rows, rows[f][g]
= {h: k} for a composable pair and None for any other, converted once from
the input, and Green's preorders as one bitmask per morphism in its
`CellStructure`.  Validation, composition and the cell computations read
only these.  What is keyed by names is a view, built on its first read and
then kept: `MultiSemigroup.table`, which exports, parsers and tests read,
and the pair sets `CellStructure.leq_left`, `leq_right` and
`leq_two_sided`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .linalg import SparseEchelon

# multiplicities are "machine-size": anything at or above this cap is an error
MAX_MULTIPLICITY = 1 << 28


class MultiSemigroupError(ValueError):
    """Invalid multisemigroup data; carries a witness description.

    `pair` is the table entry (f, g) at fault, `star` the morphism whose
    star is at fault, `morphism` the morphism whose declaration is at fault
    and `obj` the object at fault, when the failure has one.
    """

    def __init__(
        self,
        message: str,
        pair: tuple | None = None,
        star: str | None = None,
        morphism: str | None = None,
        obj: str | None = None,
    ):
        super().__init__(message)
        self.pair = pair
        self.star = star
        self.morphism = morphism
        self.obj = obj


class NotComposableError(MultiSemigroupError):
    """Composition requested for a pair with mismatched objects."""


class CellArgumentError(ValueError):
    """Argument is not a cell of the given multisemigroup."""


class UnsupportedCellError(ValueError):
    """Operation only defined for strongly regular cells."""


class DataInconsistencyError(ValueError):
    """Computed data contradicts a structural guarantee."""


@dataclass(frozen=True)
class OneMorphism:
    name: str
    src: str
    tgt: str
    is_identity: bool = False


@dataclass(frozen=True)
class CellStructure:
    """Green's left, right and two-sided preorders and their cells.

    Stored: the morphism `names` and, for each preorder, its reflexive-
    transitive closure as one bitmask per morphism: bit j of
    `left_masks[i]` is set when names[i] <=_L names[j], that is when some
    H o names[i] contains names[j] (`right_masks` likewise for F o H, and
    `two_sided_masks` for both).  Each partition lists cells as name-sorted
    tuples, and the list of cells is itself sorted, so the output order is
    stable.

    Views: `leq_left`, `leq_right` and `leq_two_sided`, the preorders as
    frozensets of name pairs (F, G), built from the masks on their first
    read and then kept.
    """

    names: tuple
    left_masks: tuple
    right_masks: tuple
    two_sided_masks: tuple
    left_cells: tuple
    right_cells: tuple
    two_sided_cells: tuple

    @cached_property
    def leq_left(self) -> frozenset:
        return self._pairs(self.left_masks)

    @cached_property
    def leq_right(self) -> frozenset:
        return self._pairs(self.right_masks)

    @cached_property
    def leq_two_sided(self) -> frozenset:
        return self._pairs(self.two_sided_masks)

    def _pairs(self, masks) -> frozenset:
        names = self.names
        pairs = set()
        for i, mask in enumerate(masks):
            scan = mask
            while scan:
                j = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                pairs.add((names[i], names[j]))
        return frozenset(pairs)

    def left_cell_of(self, name: str) -> tuple:
        return _cell_of(self.left_cells, name)

    def right_cell_of(self, name: str) -> tuple:
        return _cell_of(self.right_cells, name)

    def two_sided_cell_of(self, name: str) -> tuple:
        return _cell_of(self.two_sided_cells, name)


def _cell_of(cells: tuple, name: str) -> tuple:
    for cell in cells:
        if name in cell:
            return cell
    raise CellArgumentError(f"no cell contains morphism {name!r}")


class MultiSemigroup:
    def __init__(
        self,
        objects: Iterable[str],
        morphisms: Iterable[OneMorphism],
        table: Mapping,
        star: Mapping[str, str],
        validate: bool = True,
        generators: Iterable[str] | None = None,
    ):
        self.objects = tuple(sorted(set(objects)))
        morphs = list(morphisms)
        self.morphisms = {m.name: m for m in morphs}
        if len(self.morphisms) != len(morphs):
            raise MultiSemigroupError("duplicate morphism names")
        self.names = sorted(self.morphisms)
        # left factors of the associativity check; with none given, every
        # morphism is one and no span certificate is needed
        self.generators = tuple(
            self.names if generators is None else sorted(set(generators))
        )
        unknown = [f for f in self.generators if f not in self.morphisms]
        if unknown:
            raise MultiSemigroupError(f"generators are not morphisms: {unknown!r}")
        self._index = {n: i for i, n in enumerate(self.names)}
        self.star = dict(star)
        self._rows, self._order, self._table_fault = self._index_rows(table)
        self._table = None  # the name view, built by `table` on its first read
        self._cells_cache = None
        self._cell_values: dict = {}  # read and written by `_kept_for_cell` only
        if validate:
            self._validate()

    def _index_rows(self, table: Mapping):
        """(rows, order, fault) of the input table.

        rows[f][g] is {h: k} over indices for a composable pair (f, g), its
        summands in input order with zero multiplicities dropped, and None
        for any other pair; a composable pair the input leaves out is the
        empty composition.  order lists the composable pairs in the order
        every check visits them: the input's, then those it leaves out.
        fault is (message, pair) of the first input entry that `_validate`
        refuses, or None: an entry for a pair that is unknown or not
        composable, or a summand that is unknown, out of range or of the
        wrong source or target.  What names no morphism stays out of the
        rows.  A multiplicity that is not an integer is refused at once.
        """
        idx = self._index
        src = [self.morphisms[f].src for f in self.names]
        tgt = [self.morphisms[f].tgt for f in self.names]
        n = len(self.names)
        rows = [[None] * n for _ in range(n)]
        order = []
        fault = None
        for (f, g), summands in table.items():
            fi, gi = idx.get(f), idx.get(g)
            row = None
            if fi is None or gi is None:
                fault = fault or (f"table entry for unknown morphism in ({f!r}, {g!r})", (f, g))
            elif src[fi] != tgt[gi]:
                fault = fault or (f"table entry for non-composable pair ({f!r}, {g!r})", (f, g))
            else:
                row = rows[fi][gi] = {}
                order.append((fi, gi))
                s, t = src[gi], tgt[fi]
            for h, k in summands.items():
                m = int(k)
                if m != k:
                    raise MultiSemigroupError(
                        f"multiplicity {k!r} of {h!r} in ({f!r}, {g!r}) is not an integer",
                        pair=(f, g),
                    )
                if not m or row is None:
                    continue
                hi = idx.get(h)
                if hi is None:
                    problem = f"unknown summand {h!r} in {f!r} o {g!r}"
                else:
                    row[hi] = m
                    if 0 < m < MAX_MULTIPLICITY and src[hi] == s and tgt[hi] == t:
                        continue
                    if m < 0 or m >= MAX_MULTIPLICITY:
                        problem = f"multiplicity {m} of {h!r} in {f!r} o {g!r} out of range"
                    else:
                        problem = f"summand {h!r} of {f!r} o {g!r} has wrong source or target"
                fault = fault or (problem, (f, g))
        for fi, row in enumerate(rows):
            if None not in row:
                continue
            for gi in range(n):
                if row[gi] is None and src[fi] == tgt[gi]:
                    row[gi] = {}
                    order.append((fi, gi))
        return rows, order, fault

    # -- basic access ---------------------------------------------------

    @property
    def table(self) -> dict:
        """The table keyed by names, {(f, g): {h: k}} for every composable
        pair, the input's first and in input order: built from the rows on
        the first read, then kept."""
        if self._table is None:
            names, rows = self.names, self._rows
            self._table = {
                (names[fi], names[gi]): {names[h]: k for h, k in rows[fi][gi].items()}
                for fi, gi in self._order
            }
        return self._table

    def compose(self, f: str, g: str) -> dict:
        """The multiset F o G as a dict name -> multiplicity."""
        idx = self._index
        if f not in idx or g not in idx:
            raise KeyError(f"unknown morphism in pair ({f!r}, {g!r})")
        entry = self._rows[idx[f]][idx[g]]
        if entry is None:
            raise NotComposableError(
                f"cannot compose {f!r} (src {self.morphisms[f].src!r}) with "
                f"{g!r} (tgt {self.morphisms[g].tgt!r})"
            )
        names = self.names
        return {names[h]: k for h, k in entry.items()}

    def renamed(self, mapping: Mapping[str, str]) -> "MultiSemigroup":
        """The same multisemigroup with morphisms relabelled by `mapping`."""
        def relabel(m: OneMorphism) -> OneMorphism:
            return OneMorphism(mapping[m.name], m.src, m.tgt, m.is_identity)

        table = {
            (mapping[f], mapping[g]): {mapping[h]: k for h, k in entry.items()}
            for (f, g), entry in self.table.items()
        }
        star = {mapping[f]: mapping[g] for f, g in self.star.items()}
        return MultiSemigroup(
            self.objects,
            [relabel(m) for m in self.morphisms.values()],
            table,
            star,
            generators=[mapping[f] for f in self.generators],
        )

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        for m in self.morphisms.values():
            if m.src not in self.objects or m.tgt not in self.objects:
                raise MultiSemigroupError(
                    f"morphism {m.name!r} uses unknown object", morphism=m.name
                )
        for obj in self.objects:
            ids = [
                m for m in self.morphisms.values() if m.is_identity and m.src == obj
            ]
            if len(ids) != 1 or ids[0].tgt != obj:
                message = f"object {obj!r} must have exactly one identity endomorphism"
                if not ids:
                    raise MultiSemigroupError(message, obj=obj)
                # the first identity too many, or the one that is no endomorphism
                witness = ids[1] if len(ids) > 1 else ids[0]
                raise MultiSemigroupError(message, morphism=witness.name)

        for f, g in self.star.items():
            if self.star.get(g) != f:
                raise MultiSemigroupError(f"star is not involutive at {f!r}", star=f)
        for name, m in self.morphisms.items():
            s = self.star.get(name)
            if s is None or s not in self.morphisms:
                raise MultiSemigroupError(f"star undefined at {name!r}", star=name)
            sm = self.morphisms[s]
            if (sm.src, sm.tgt) != (m.tgt, m.src):
                raise MultiSemigroupError(
                    f"star of {name!r} must swap source and target", star=name
                )
            if m.is_identity and s != name:
                raise MultiSemigroupError(f"star must fix the identity {name!r}", star=name)

        if self._table_fault is not None:
            message, pair = self._table_fault
            raise MultiSemigroupError(message, pair=pair)

        idx, names, rows = self._index, self.names, self._rows
        identity = {m.src: idx[m.name] for m in self.morphisms.values() if m.is_identity}
        for name, m in self.morphisms.items():
            i = idx[name]
            lid, rid = identity[m.tgt], identity[m.src]
            if rows[lid][i] != {i: 1}:
                raise MultiSemigroupError(
                    f"identity {names[lid]!r} is not left-neutral on {name!r}",
                    pair=(names[lid], name),
                )
            if rows[i][rid] != {i: 1}:
                raise MultiSemigroupError(
                    f"identity {names[rid]!r} is not right-neutral on {name!r}",
                    pair=(name, names[rid]),
                )

        star = [idx[self.star[f]] for f in names]
        for fi, gi in self._order:
            starred = {star[h]: k for h, k in rows[fi][gi].items()}
            if rows[star[gi]][star[fi]] != starred:
                raise MultiSemigroupError(
                    "star is not an anti-map on the table at "
                    f"({names[fi]!r}, {names[gi]!r})",
                    pair=(names[fi], names[gi]),
                )

        self._check_associativity()

    def _check_associativity(self) -> int:
        """The N-weighted associativity law (f o g) o k = f o (g o k) for f
        a generator and all g, k; returns the number of triples checked.

        Sound because the x with (x o b) o c = x o (b o c) for all b, c form
        a subspace X of the linear span of the morphisms that holds the
        identities (neutrality is checked before) and, with x, every g o x
        for g a generator: ((g o x) o b) o c = g o ((x o b) o c) =
        g o (x o (b o c)) = (g o x) o (b o c).  So X is everything once the
        identities and generators span the table under left multiplication,
        which `_check_generators_span` certifies.

        Rows of the table are packed into big integers, one digit per
        morphism; both sides of the law become sums of scaled row integers.
        Each digit of a side is a sum of at most n products of two
        multiplicities, so it stays below 2^bits with bits twice the bit
        length of the largest multiplicity plus the bit length of n, and
        digits of that width cannot carry into each other.
        """
        rows, names = self._rows, self.names
        n = len(names)
        generators = {self._index[f] for f in self.generators}
        if len(generators) < n:
            self._check_generators_span()
        # packed[a][b] is the row a o b as one integer, 0 when not composable
        top = max((k for row in rows for e in row if e for k in e.values()), default=0)
        bits = 2 * top.bit_length() + n.bit_length()
        packed = []
        for row in rows:
            packed_row = []
            for e in row:
                p = 0
                for h, k in (e or {}).items():
                    p += k << (bits * h)
                packed_row.append(p)
            packed.append(packed_row)

        checked = 0
        for fi, gi in self._order:
            if fi not in generators:
                continue
            # (m, packed row of h) for each summand h of f o g
            terms = [(m, packed[hi]) for hi, m in rows[fi][gi].items()]
            row_f = packed[fi]
            for ki, gk in enumerate(rows[gi]):
                lhs = rhs = 0
                for m, packed_h in terms:
                    lhs += m * packed_h[ki]
                if gk:
                    for hi, m in gk.items():
                        rhs += m * row_f[hi]
                if lhs != rhs:
                    raise MultiSemigroupError(
                        "associativity fails at triple "
                        f"({names[fi]!r}, {names[gi]!r}, {names[ki]!r})",
                        pair=(names[fi], names[gi]),
                    )
            checked += n
        return checked

    def _check_generators_span(self) -> None:
        """The identities and the generators span the table under left
        multiplication: close the span of the identities under g o - in an
        echelon form, queueing each product that makes it grow."""
        idx, rows = self._index, self._rows
        generator_rows = [rows[idx[f]] for f in self.generators]
        echelon = SparseEchelon(len(self.names))
        queue = [{idx[m.name]: 1} for m in self.morphisms.values() if m.is_identity]
        echelon.extend(queue)
        while queue:
            vec = queue.pop()
            for row in generator_rows:
                prod = {}
                for xi, c in vec.items():
                    for h, k in (row[xi] or {}).items():
                        prod[h] = prod.get(h, 0) + c * k
                if echelon.insert(prod):
                    queue.append(prod)
        if echelon.dim < len(self.names):
            raise MultiSemigroupError(
                f"generators {list(self.generators)!r} do not span the table under "
                f"left multiplication (rank {echelon.dim} of {len(self.names)})"
            )

    # -- preorders ------------------------------------------------------

    def _one_step_masks(self):
        n = len(self.names)
        left = [1 << i for i in range(n)]
        right = list(left)
        for fi, row in enumerate(self._rows):
            for gi, entry in enumerate(row):
                if entry:
                    reached = 0
                    for h in entry:
                        reached |= 1 << h
                    # g <=_L h via f o g, and f <=_R h via f o g
                    left[gi] |= reached
                    right[fi] |= reached
        return left, right

    @staticmethod
    def _closure(masks):
        n = len(masks)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = masks[i]
                scan = acc
                while scan:
                    j = (scan & -scan).bit_length() - 1
                    scan &= scan - 1
                    acc |= masks[j]
                if acc != masks[i]:
                    masks[i] = acc
                    changed = True
        return masks

    def _kept_for_cell(self, key, build):
        """build(), a value of one cell (its strong regularity, its Duflo
        involution): computed on the first call with this key, then kept.
        A build that raised is not kept, so it raises again."""
        if key not in self._cell_values:
            self._cell_values[key] = build()
        return self._cell_values[key]

    def _cell_structure(self) -> CellStructure:
        """Green's cell structure, computed on the first call and kept."""
        if self._cells_cache is None:
            left, right = self._one_step_masks()
            two = [l | r for l, r in zip(left, right)]
            left, right, two = self._closure(left), self._closure(right), self._closure(two)
            self._cells_cache = CellStructure(
                names=tuple(self.names),
                left_masks=tuple(left),
                right_masks=tuple(right),
                two_sided_masks=tuple(two),
                left_cells=_partition_from_masks(self.names, left),
                right_cells=_partition_from_masks(self.names, right),
                two_sided_cells=_partition_from_masks(self.names, two),
            )
        return self._cells_cache


def _partition_from_masks(names, masks) -> tuple:
    n = len(names)
    seen = set()
    cells = []
    for i in range(n):
        if i in seen:
            continue
        cell = [j for j in range(n) if (masks[i] >> j) & 1 and (masks[j] >> i) & 1]
        seen.update(cell)
        cells.append(tuple(sorted(names[j] for j in cell)))
    return tuple(sorted(cells))


def cells(ms: MultiSemigroup) -> CellStructure:
    """Green's cell structure of the multisemigroup (cached on the value)."""
    return ms._cell_structure()


def _require_two_sided_cell(ms: MultiSemigroup, cell) -> tuple:
    cell = tuple(sorted(cell))
    if cell not in cells(ms).two_sided_cells:
        raise CellArgumentError(f"{cell!r} is not a two-sided cell")
    return cell


def is_regular(ms: MultiSemigroup, two_sided_cell) -> bool:
    """No two distinct left (right) cells inside the cell are order-comparable,
    read off the preorder bitmasks at one member of each cell."""
    cell = _require_two_sided_cell(ms, two_sided_cell)
    struct = cells(ms)
    members = set(cell)
    for masks, partition in (
        (struct.left_masks, struct.left_cells),
        (struct.right_masks, struct.right_cells),
    ):
        sub = [ms._index[c[0]] for c in partition if set(c) <= members]
        for a in sub:
            for b in sub:
                if a != b and (masks[a] >> b) & 1:
                    return False
    return True


def is_strongly_regular(ms: MultiSemigroup, two_sided_cell) -> bool:
    """Regular, and every left-cell/right-cell intersection inside is a
    singleton.  Decided once per cell and kept on the multisemigroup."""
    cell = _require_two_sided_cell(ms, two_sided_cell)
    return ms._kept_for_cell(("strongly_regular", cell), lambda: _strongly_regular(ms, cell))


def _strongly_regular(ms: MultiSemigroup, cell: tuple) -> bool:
    if not is_regular(ms, cell):
        return False
    struct = cells(ms)
    members = set(cell)
    lefts = [set(c) for c in struct.left_cells if set(c) <= members]
    rights = [set(c) for c in struct.right_cells if set(c) <= members]
    return all(len(l & r) == 1 for l in lefts for r in rights)


def duflo(ms: MultiSemigroup, left_cell) -> str:
    """The Duflo involution of a left cell in a strongly regular two-sided cell.

    For strongly regular cells this is the unique element of L intersected
    with {F* : F in L}; general Duflo detection is out of scope.  Found once
    per left cell and kept on the multisemigroup; a cell that raised raises
    again.
    """
    left_cell = tuple(sorted(left_cell))
    return ms._kept_for_cell(("duflo", left_cell), lambda: _duflo(ms, left_cell))


def _duflo(ms: MultiSemigroup, left_cell: tuple) -> str:
    struct = cells(ms)
    if left_cell not in struct.left_cells:
        raise CellArgumentError(f"{left_cell!r} is not a left cell")
    two_sided = struct.two_sided_cell_of(left_cell[0])
    if not is_strongly_regular(ms, two_sided):
        raise UnsupportedCellError(
            "Duflo involutions are only computed in strongly regular cells"
        )
    return _duflo_in(ms, struct, left_cell)


def _duflo_in(ms: MultiSemigroup, struct: CellStructure, left_cell: tuple) -> str:
    """`duflo` of a sorted left cell already known to lie in a strongly
    regular two-sided cell."""
    starred = {ms.star[f] for f in left_cell}
    inter = sorted(set(left_cell) & starred)
    if len(inter) != 1:
        raise DataInconsistencyError(
            f"L intersect L* = {inter!r} is not a singleton for {left_cell!r}"
        )
    g = inter[0]
    if ms.star[g] not in struct.right_cell_of(g):
        raise DataInconsistencyError(
            f"star of Duflo candidate {g!r} left its right cell"
        )
    return g


def duflo_multiplicity(ms: MultiSemigroup, f: str) -> int:
    """Multiplicity of the Duflo involution of F's left cell in F* o F."""
    struct = cells(ms)
    g = duflo(ms, struct.left_cell_of(f))
    return ms.compose(ms.star[f], f).get(g, 0)


def duflo_multiplicity_constant_on_right_cells(ms: MultiSemigroup, two_sided_cell) -> bool:
    """True iff the Duflo multiplicity is constant on each right cell of the cell."""
    cell = _require_two_sided_cell(ms, two_sided_cell)
    if not is_strongly_regular(ms, cell):
        raise UnsupportedCellError("the multiplicity condition needs a strongly regular cell")
    struct = cells(ms)
    members = set(cell)
    # one Duflo involution per left cell, not one per member, kept as duflo keeps it
    involution = {
        left: ms._kept_for_cell(("duflo", left), lambda left=left: _duflo_in(ms, struct, left))
        for left in struct.left_cells
        if set(left) <= members
    }
    for right in struct.right_cells:
        if not set(right) <= members:
            continue
        values = {
            ms.compose(ms.star[f], f).get(involution[struct.left_cell_of(f)], 0) for f in right
        }
        if len(values) != 1:
            return False
    return True


def identity_products_clean(ms: MultiSemigroup) -> bool:
    """True iff identities only ever appear in products of two identities."""
    identities = {ms._index[m.name] for m in ms.morphisms.values() if m.is_identity}
    for fi, row in enumerate(ms._rows):
        for gi, entry in enumerate(row):
            if entry and not identities.isdisjoint(entry):
                if fi not in identities or gi not in identities:
                    return False
    return True
