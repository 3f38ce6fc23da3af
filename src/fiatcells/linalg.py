"""Exact linear algebra over the rationals.

An exact rational is held as an `int` when it is integral and as a
`Fraction` only when it is not: `frac` normalises a value to that form and
every division goes through `quo`, which keeps it, so integral inputs never
leave int arithmetic.

There is one vector form, the sparse vector `SVec`: a dict sending an index
to a nonzero value.  Algebra elements, the rows of a `Subspace` and its
residues (`reduce`) are sparse vectors, and a matrix is column-sparse: a
tuple of columns, each a sparse vector (`sp_*` below); an algebra's
structure constants and every action matrix are held that way.  `sp_apply`
forms the combination of a matrix's columns that a sparse vector gives, so
it also combines sparse vectors (the columns) and multiplies algebra
elements, with ints where the values are integral.  Once built, a
column-sparse matrix is never mutated, neither the tuple nor its column
dicts: `sp_lincomb` of a unit coefficient vector returns the stored matrix
itself, so a generator's action is read, not copied, and a bimodule may
share an algebra's structure constants.

Dense tuples appear only at the boundary: `sparse` reads a dense sequence
in, the echelon engine takes rows in either form, and the solver outputs
(`nullspace`, `rref` and `basis_fraction_rows`, `solve`, `inverse`), like
`dot` and `mat_mul`, are dense tuples.

The elimination engine works on sparse integer rows (incoming rational
rows are scaled to integer rows) and stores them primitive, with positive
leading coefficient.  Inserting a row only forward-reduces it; the stored
rows are back-substituted once, when they are read, into the reduced
echelon form, which is canonical, so subspace equality is syntactic.  A
`Subspace` keeps the echelon it was read off and answers its membership
and reduction queries from it.

Rows of one or two terms, the bulk of what the package solves, are cheap
on both sides of the engine.  Every relation system, asked for its
classes (`quotient_classes`), its rank (`rank`) or its kernel
(`nullspace`, read off the classes), goes through one weighted union-find
(`_union_find`), which solves its one- and two-term rows without
elimination and hands only the longer ones, rewritten over its roots, to a
`SparseEchelon`; otherwise the engine grows spans (`Subspace`, `rref`,
`solve`, `inverse`).  The union-find's row loop copies and calls only
where it must: a sparse row without a stored zero is read as it is, a
one-term row at a root is killed without a `find`, a union whose weight
is an int over 1 is that int without `quo` (a Fraction still goes through
`quo`, so an integral one comes out an int), and the roots are read
inline where the path is already compressed.  Inside the engine, early
returns answer single-entry data exactly as the general path would,
value types included: an empty row, and a one-term row at a column that
is not a pivot, on `insert` and `contains`; a row touching no pivot
column in the forward reduction; an all-int dict in the integer scaling;
and a unit one-entry vector in `sp_apply`, which returns a fresh copy of
its column.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Rational = int | Fraction
Vec = tuple[Rational, ...]
SVec = dict[int, Rational]


def frac(x) -> Rational:
    """The exact value of x: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quo(a, b) -> Rational:
    """The exact quotient a / b, normalised as `frac` does."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return frac(Fraction(a) / b)


def sparse(entries) -> SVec:
    """The sparse form {index: nonzero value} of a dense coordinate sequence."""
    return {i: frac(x) for i, x in enumerate(entries) if x}


def dot(u: Vec, v: Vec) -> Rational:
    return frac(sum(a * b for a, b in zip(u, v, strict=True)))


def mat_mul(a, b):
    bt = list(zip(*b))
    return [tuple(dot(row, col) for col in bt) for row in a]


def _entries(row):
    """The (column, value) pairs of a dense sequence or a sparse dict."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _sparse_int(row) -> dict[int, int]:
    """Scale a row (dense sequence or sparse dict) to an integer dict, a fresh
    one; its content is taken by the caller, once it is reduced."""
    if isinstance(row, dict) and all(type(x) is int for x in row.values()):
        return {j: x for j, x in row.items() if x}
    ints = {}
    denom = 1
    for j, x in _entries(row):
        if not x:
            continue
        if type(x) is not int:
            x = frac(x)
            if type(x) is not int:
                denom = lcm(denom, x.denominator)
        ints[j] = x
    if denom > 1:
        ints = {j: x.numerator * (denom // x.denominator) for j, x in ints.items()}
    return ints


def _content_reduce(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: val // g for j, val in row.items()}
    return row


class SparseEchelon:
    """Echelon form of a row span, kept semi-reduced and reduced on read.

    Rows are stored as primitive integer dicts keyed by the pivot column,
    their minimum column, with a positive pivot entry.  `insert` only
    forward-reduces, so a stored row may be nonzero at later pivot columns;
    `dim`, `insert` and `contains` read that form as it is.  The
    first read of `rows` after the span grew back-substitutes once, from the
    highest pivot down: every stored row is then zero at all other pivot
    columns, and that primitive reduced form is canonical.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}
        self._reduced = True

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        if not self._reduced:
            self._back_substitute()
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _forward_reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Eliminate every pivot column from an integer row, in place, in
        increasing column order; a column that a step fills in joins the
        queue."""
        rows = self._rows
        queue = [c for c in row if c in rows]
        if not queue:
            return row
        heapify(queue)
        while queue:
            c = heappop(queue)
            if c in row:  # else it cancelled after it was queued
                _eliminate(row, c, rows, queue)
        return row

    def _back_substitute(self) -> None:
        rows = self._rows
        no_fill_in = []
        for p in sorted(rows, reverse=True):
            row = rows[p]
            # rows above p are reduced already, so eliminating their pivot
            # columns touches no other pivot column of this row
            later = [c for c in row if c != p and c in rows]
            if later:
                row = dict(row)  # a row read out before stays as it was
                for c in later:
                    _eliminate(row, c, rows, no_fill_in)
                rows[p] = _content_reduce(row)
        self._reduced = True

    def insert(self, row) -> bool:
        """Add a row to the span; return True if the dimension grew."""
        if isinstance(row, dict) and len(row) < 2:
            if not any(row.values()):
                return False
            (c, _), = row.items()
            if c not in self._rows:  # {c: x} is stored primitive
                self._rows[c] = {c: 1}
                self._reduced = False
                return True
        row = self._forward_reduce(_sparse_int(row))
        if not row:
            return False
        c = min(row)
        g = gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {j: v // g for j, v in row.items()}
        self._rows[c] = row
        self._reduced = False
        return True

    def extend(self, rows) -> None:
        for row in rows:
            self.insert(row)

    def reduce(self, row) -> dict[int, Rational]:
        """Residual of a row after eliminating all pivot coordinates (exact)."""
        rows = self.rows
        cur = {j: frac(x) for j, x in _entries(row) if x}
        for c in sorted(cur):
            val = cur.get(c)
            if not val:
                continue
            piv = rows.get(c)
            if piv is None:
                continue
            coef = quo(val, piv[c])
            for j, v in piv.items():
                cur[j] = cur.get(j, 0) - coef * v
        return {j: frac(v) for j, v in cur.items() if v}

    def contains(self, row) -> bool:
        if isinstance(row, dict) and len(row) < 2:
            if not any(row.values()):
                return True
            (c, _), = row.items()
            if c not in self._rows:
                return False
        return not self._forward_reduce(_sparse_int(row))

    def basis_fraction_rows(self) -> list[Vec]:
        """Canonical dense basis: rows sorted by pivot, pivot entries scaled to 1."""
        rows = self.rows
        out = []
        for c in sorted(rows):
            row = rows[c]
            lead = row[c]
            dense = [0] * self.ncols
            for j, v in row.items():
                dense[j] = quo(v, lead)
            out.append(tuple(dense))
        return out


def _eliminate(row: dict[int, int], c: int, rows: dict, queue: list) -> None:
    """row <- mb*row - ma*rows[c] in place, with ma/mb = row[c]/rows[c][c] in
    lowest terms, so that column c cancels.  Zero entries are dropped, and a
    pivot column of `rows` that the step fills in is pushed onto the heap
    `queue`."""
    piv = rows[c]
    a, b = piv[c], row[c]
    g = gcd(a, b)
    ma, mb = b // g, a // g
    if mb != 1:
        for j in row:
            row[j] *= mb
    for j, v in piv.items():
        x = row.get(j)
        if x is None:
            row[j] = -v * ma
            if j in rows:
                heappush(queue, j)
        else:
            x -= v * ma
            if x:
                row[j] = x
            else:
                del row[j]


# -- column-sparse matrices ----------------------------------------------


def sp_identity(n: int):
    return tuple({i: 1} for i in range(n))


def sp_apply(cols, svec: SVec) -> SVec:
    """The combination of the columns with the coefficients svec: the matrix
    applied to the vector, with ints where the values are integral."""
    if len(svec) == 1:
        (q, c), = svec.items()
        if c == 1:
            return dict(cols[q])
    out: SVec = {}
    for q, c in svec.items():
        if not c:
            continue
        for r, v in cols[q].items():
            val = out.get(r, 0) + c * v
            if not val:
                out.pop(r, None)
            elif type(val) is int:
                out[r] = val
            else:
                out[r] = frac(val)
    return out


def sp_compose(a_cols, b_cols):
    """Matrix product a*b of column-sparse matrices, with ints where the
    values are integral: a has one column per row of b, and column q of the
    product is `sp_apply` of a to column q of b, a new dict in every case.
    The two columns that are nearly all of a path basis's traffic are taken
    inline: an empty column gives an empty one, and a column holding one
    entry 1 at p gives a copy of column p of a."""
    out = []
    for col in b_cols:
        if not col:
            out.append({})
            continue
        if len(col) == 1:
            ((p, c),) = col.items()
            if c == 1:
                out.append(dict(a_cols[p]))
                continue
        out.append(sp_apply(a_cols, col))
    return tuple(out)


def sp_diagonal(cols):
    """The diagonal of a column-sparse matrix, or None if it is not diagonal."""
    diag = []
    for q, col in enumerate(cols):
        if len(col) > 1 or (col and q not in col):
            return None
        diag.append(col.get(q, 0))
    return diag


def sp_lincomb(coeffs, mats):
    """The combination of column-sparse matrices with a dense or sparse
    coefficient vector, with ints where the values are integral.  When the
    vector is one entry 1 and zeros, this is the stored matrix itself, as a
    tuple: it must not be written to."""
    terms = [(k, c) for k, c in _entries(coeffs) if c]
    if len(terms) == 1 and terms[0][1] == 1:
        mat = mats[terms[0][0]]
        return mat if type(mat) is tuple else tuple(mat)
    n = len(mats[0]) if mats else 0
    out = [dict() for _ in range(n)]
    for k, c in terms:
        for q, col in enumerate(mats[k]):
            acc = out[q]
            for r, v in col.items():
                val = acc.get(r, 0) + c * v
                if not val:
                    acc.pop(r, None)
                elif type(val) is int:
                    acc[r] = val
                else:
                    acc[r] = frac(val)
    return tuple(out)


def sp_rows(cols, nrows: int):
    rows = [dict() for _ in range(nrows)]
    for q, col in enumerate(cols):
        for r, v in col.items():
            rows[r][q] = v
    return rows


def sp_flatten(cols, nrows: int) -> dict:
    """A column-sparse matrix as one sparse vector, column after column."""
    return {q * nrows + p: v for q, col in enumerate(cols) for p, v in col.items()}


def sp_eq(a_cols, b_cols) -> bool:
    """Whether two column-sparse matrices are equal, column for column,
    compared as two tuples at once; a ValueError when their column counts
    differ."""
    if len(a_cols) != len(b_cols):
        raise ValueError(f"column counts differ: {len(a_cols)} and {len(b_cols)}")
    return tuple(a_cols) == tuple(b_cols)


# -- solving ---------------------------------------------------------------


def _ncols(rows) -> int:
    """The column count of a nonempty row list: one past the largest key of
    any sparse row, else the dense length."""
    return max(max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows)


def rref(rows, ncols: int | None = None) -> list[Vec]:
    """Canonical reduced row echelon basis of the row span."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = _ncols(rows)
    ech = SparseEchelon(ncols)
    ech.extend(rows)
    return ech.basis_fraction_rows()


def _union_find(rows, ncols: int) -> tuple:
    """(roots, dead, ech) of a relation system: roots[k] is (the root of
    column k, the weight of k over it), dead[r] says whether the root r is
    killed, and ech is the echelon of the rows of three or more terms,
    rewritten over the live roots.

    Rows of one or two nonzero terms are solved by a weighted union-find
    (Tarjan, J. ACM 22, 1975) with path compression, without elimination.
    Each component has as root its largest column, and each member k is
    weight[k] times its parent modulo the rows seen; a one-term row kills a
    component, and so does c.p + d.q with p and q in one component whose
    weights disagree, or either in a killed one.  Only the other rows are
    eliminated, rewritten over the live roots, in one SparseEchelon.

    A column is a pivot of the reduced echelon over every row iff a vector
    of the span starts there.  A killed column is in the span, and a live
    non-root p starts p - weight.root, as its root is larger.  The span's
    image over the roots is the span of the rewritten rows, and a vector
    starting at a root starts at it there too, as every other term maps to
    a root at least as large: so a root starts a vector of the span iff it
    is a pivot of the rewritten rows, and the free columns are the live
    roots that are not."""
    parent = list(range(ncols))
    weight = [1] * ncols
    dead = [False] * ncols  # read at roots
    longer = []

    def find(k):
        """(root of k, the weight of k over its root), compressing the path."""
        r = parent[k]
        if r == k:
            return k, 1
        if parent[r] == r:
            return r, weight[k]
        path = [k]
        while parent[r] != r:
            path.append(r)
            r = parent[r]
        w = 1
        for p in reversed(path):
            w = weight[p] * w
            if type(w) is not int:
                w = frac(w)
            parent[p], weight[p] = r, w
        return r, w

    for row in rows:
        # a sparse row is read as it is unless it holds a zero
        if type(row) is not dict or 0 in row.values():
            row = {j: x for j, x in _entries(row) if x}
        n = len(row)
        if n == 1:
            (p,) = row
            dead[p if parent[p] == p else find(p)[0]] = True
        elif n == 2:
            (p, c), (q, d) = row.items()
            (rp, wp), (rq, wq) = find(p), find(q)
            if dead[rp] or dead[rq]:
                dead[rp] = dead[rq] = True
            elif rp == rq:
                if c * wp + d * wq:
                    dead[rp] = True
            else:  # c.wp.rp + d.wq.rq = 0: the smaller root joins the larger
                if rp > rq:
                    rp, wp, c, rq, wq, d = rq, wq, d, rp, wp, c
                num, den = -d * wq, c * wp  # an int over 1 is its own quotient
                weight[rp] = num if den == 1 and type(num) is int else quo(num, den)
                parent[rp] = rq
        elif n:
            longer.append(row)

    roots = []
    for k, r in enumerate(parent):
        roots.append((k, 1) if r == k else (r, weight[k]) if parent[r] == r else find(k))
    ech = SparseEchelon(ncols)
    for terms in longer:
        rewritten = {}
        for j, x in terms.items():
            r, w = roots[j]
            if not dead[r]:
                val = rewritten.get(r, 0) + x * w
                if val:
                    rewritten[r] = val
                else:
                    del rewritten[r]
        if rewritten:
            ech.insert(rewritten)
    return roots, dead, ech


def rank(rows, ncols: int | None = None) -> int:
    """The rank of the rows: ncols minus the free columns of `_union_find`,
    that is ncols - (live roots) + (rank of the rewritten longer rows)."""
    rows = list(rows)
    if not rows:
        return 0
    if ncols is None:
        ncols = _ncols(rows)
    roots, dead, ech = _union_find(rows, ncols)
    live = sum(1 for k, (r, _) in enumerate(roots) if r == k and not dead[k])
    return ncols - live + ech.dim


def quotient_classes(rows, ncols: int) -> tuple:
    """(free, classes) of Q^ncols modulo the span of the rows: free lists the
    columns that are not pivots of the span's reduced echelon, in increasing
    order, and classes[k] is the class of column k over the free columns, a
    tuple of (position in free, coefficient) pairs: ((its position, 1),) for
    a free column, minus the rest of its reduced row over its pivot entry
    for a pivot, () for a column in the span.

    They are read off `_union_find`: the free columns are its live roots
    that are not pivots of its echelon, the class of a root is read off that
    echelon's reduced row, and a column's class is its weight times its
    root's class."""
    roots, dead, ech = _union_find(rows, ncols)
    pivots = ech.rows
    free = [k for k, (r, _) in enumerate(roots) if r == k and not dead[k] and k not in pivots]
    position = {k: pos for pos, k in enumerate(free)}
    root_class = {k: ((pos, 1),) for k, pos in position.items()}
    for c, row in pivots.items():
        lead = row[c]
        root_class[c] = tuple((position[j], quo(-v, lead)) for j, v in row.items() if j != c)
    classes = []
    for r, w in roots:
        if dead[r]:
            classes.append(())
        elif w == 1:
            classes.append(root_class[r])
        else:
            classes.append(tuple((pos, frac(w * x)) for pos, x in root_class[r]))
    return free, classes


def nullspace(rows, ncols: int) -> list[Vec]:
    """Canonical basis of {x : row . x = 0 for every row}, ordered by free
    column, read off `quotient_classes`: the vector of a free column is, at
    each column k, the coefficient of that free column in the class of k."""
    free, classes = quotient_classes(rows, ncols)
    basis = [[0] * ncols for _ in free]
    for k, cls in enumerate(classes):
        for pos, x in cls:
            basis[pos][k] = x
    return [tuple(v) for v in basis]


def solve(rows, rhs) -> Vec | None:
    """One solution x of rows . x = rhs, or None if inconsistent (free vars set
    to 0).  Rows are dense or sparse; the unknowns are counted as rref does."""
    rows = list(rows)
    if not rows:
        return None
    n = _ncols(rows)
    ech = SparseEchelon(n + 1)
    ech.extend({**dict(_entries(row)), n: b} for row, b in zip(rows, rhs, strict=True))
    if n in ech.rows:  # pivot in the rhs column
        return None
    x = [0] * n
    for c, row in ech.rows.items():
        x[c] = quo(row.get(n, 0), row[c])
    return tuple(x)


def inverse(rows) -> list[Vec] | None:
    """Inverse of a square matrix given by dense or sparse rows, or None if
    singular: the right half of the reduced form of [rows | identity]; the
    matrix is invertible exactly when every pivot lies in the left half."""
    rows = list(rows)
    n = len(rows)
    red = rref(({**dict(_entries(row)), n + i: 1} for i, row in enumerate(rows)), 2 * n)
    if not all(row[i] == 1 for i, row in enumerate(red)):
        return None
    return [row[n:] for row in red]


class Subspace:
    """A subspace of Q^n held as its canonical reduced echelon basis: sparse
    rows sorted by pivot, each 1 at its pivot (its least index) and 0 at the
    other pivots.  It keeps the echelon it was read off, which answers
    `contains`, `contains_subspace` and `reduce`; equality and hashing read
    `rows` only."""

    __slots__ = ("ambient", "rows", "_ech")

    def __init__(self, ambient: int, ech: SparseEchelon):
        self.ambient = ambient
        self._ech = ech
        rows = ech.rows
        self.rows = tuple(
            {j: quo(v, rows[c][c]) for j, v in rows[c].items()} for c in sorted(rows)
        )

    @classmethod
    def from_vectors(cls, vectors, ambient: int) -> "Subspace":
        ech = SparseEchelon(ambient)
        ech.extend(vectors)
        return cls(ambient, ech)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(sp_identity(ambient), ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, SparseEchelon(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def contains(self, v) -> bool:
        return self._ech.contains(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(map(self._ech.contains, other.rows))

    def reduce(self, v) -> SVec:
        """Residual of v modulo the subspace (zero at all pivot coordinates)."""
        return self._ech.reduce(v)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.rows + other.rows, self.ambient)

    def intersect(self, other: "Subspace") -> "Subspace":
        k = self.dim
        if k == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # coefficient vectors (c, d) with sum c_i u_i = sum d_j w_j: the
        # kernel of the matrix with columns u_1 .. u_k, -w_1 .. -w_l
        cols = self.rows + tuple({j: -x for j, x in w.items()} for w in other.rows)
        sols = nullspace([r for r in sp_rows(cols, self.ambient) if r], len(cols))
        return Subspace.from_vectors(
            [sp_apply(self.rows, sparse(s[:k])) for s in sols], self.ambient
        )
