"""Basic finite-dimensional associative algebras over Q, given by structure
constants with a designated complete set of primitive orthogonal idempotents.

All computations are exact.  The Jacobson radical is obtained from the
characteristic-zero trace-form criterion and then verified to be a nilpotent
two-sided ideal with semisimple quotient.  Splitness (every e_iAe_i/rad
isomorphic to Q) is part of full validation; non-split input is rejected.

Elements are sparse vectors {index: nonzero value} and the structure
constants are stored column-sparse, the package's one vector and matrix
form (see `linalg`): mult[i] is the matrix of left multiplication by the
i-th basis element, and a product u.v is that of L_u applied to v.  The
unit, the idempotents, the generating set, and the rows of every subspace
derived here are sparse.  Dense coordinates are the boundary only: the
constructor's arguments (the `.alg` input, and the coordinates that
`corner_algebra` and the quotient by the radical compute), the coordinate
view `element` and `mul`, and the text of `describe`.

An algebra is immutable once built, so what is derived from it alone is
computed once and kept on the instance, in one store that only `kept`
reads and writes: its validation, radical, centre, generating set, where
the pieces e_a g e_b of its arrows are nonzero, a path word recipe for its
basis, its corners e_i A e_j, its left and right ideals A e_s and e_s A,
whether it is weakly symmetric and connected, its projective centre (kept
by `bimod.projective_center`), the validated generator actions of its
regular and projective bimodules (kept by `bimod.regular_bimodule` and
`bimod.proj_bimodule`) and the products that define its word actions,
which bimodule validation skips (kept by `bimod._word_products`).  A derivation that raised is not kept, so it raises
again on the next call.  The store is per instance, not keyed by value: two
equal algebras each do their own work.  Kept values are shared, and like
every built matrix never written to.
"""

from __future__ import annotations

import functools

from . import linalg
from .linalg import SVec, Subspace, Vec


class AlgebraError(ValueError):
    pass


class AlgebraValidationError(AlgebraError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FinDimAlgebra:
    def __init__(self, basis, mult, unit, idempotents, name: str = ""):
        """mult[i][j] is the dense coefficient vector of basis[i] * basis[j],
        and unit and idempotents are dense too; each is kept sparse, so that
        self.mult[i] is the column-sparse matrix of x -> basis[i] * x."""
        self.basis = tuple(basis)
        self.name = name
        d = len(self.basis)
        if len(set(self.basis)) != d:
            raise AlgebraError("duplicate basis labels")
        if len(mult) != d or any(len(row) != d for row in mult):
            raise AlgebraError(f"structure constants must form a {d} x {d} table")
        if any(len(v) != d for v in (unit, *idempotents, *(p for row in mult for p in row))):
            raise AlgebraError(f"products, unit and idempotents must have {d} coordinates")
        self.mult = tuple(tuple(linalg.sparse(p) for p in row) for row in mult)
        self.unit = linalg.sparse(unit)
        self.idempotents = tuple(linalg.sparse(e) for e in idempotents)
        self._kept: dict = {}  # read and written by `kept` only

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def unit_index(self) -> int | None:
        """The j with basis[j] the unit, or None when the unit is not a
        basis element."""
        return next((j for j in self.unit if self.unit == {j: 1}), None)

    def __repr__(self):
        label = self.name or ",".join(self.basis)
        return f"FinDimAlgebra({label}, dim={self.dim})"

    def mul(self, u: Vec, v: Vec) -> Vec:
        """The product of dense coordinate vectors, as one."""
        prod = linalg.sp_apply(self.left_mult_matrix(linalg.sparse(u)), linalg.sparse(v))
        return tuple(prod.get(r, 0) for r in range(self.dim))

    def left_mult_matrix(self, v: SVec):
        """Column-sparse matrix of x -> v*x in the algebra basis."""
        return linalg.sp_lincomb(v, self.mult)

    def right_mult_matrix(self, v: SVec):
        """Column-sparse matrix of x -> x*v: column q is basis[q] * v."""
        return tuple(linalg.sp_apply(left, v) for left in self.mult)

    def element(self, label: str) -> Vec:
        """The dense coordinates of a basis element."""
        i = self.basis.index(label)
        return tuple(int(j == i) for j in range(self.dim))

    def describe(self, v: SVec) -> str:
        parts = []
        for i, c in sorted(v.items()):
            lab = self.basis[i]
            if c == 1:
                parts.append(lab)
            elif c == -1:
                parts.append(f"-{lab}")
            else:
                parts.append(f"{c}*{lab}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# -- what is kept on an algebra --------------------------------------------


def kept(algebra: FinDimAlgebra, key, build):
    """build(), a value derived from the algebra alone: computed on the first
    call with this key, then kept on the algebra and returned as it is.  A
    build that raised is not kept."""
    store = algebra._kept
    if key not in store:
        store[key] = build()
    return store[key]


def _kept_per_algebra(fn):
    """fn(algebra, *args) through `kept`, under the key (fn's name, *args)."""
    name = fn.__name__

    @functools.wraps(fn)
    def once(algebra: FinDimAlgebra, *args):
        return kept(algebra, (name, *args), lambda: fn(algebra, *args))

    return once


# -- validation ----------------------------------------------------------


_MAX_REPORTS = 8  # associativity witnesses collected before validate gives up


@_kept_per_algebra
def validate(algebra: FinDimAlgebra) -> None:
    """Check all structural laws exhaustively; raise with witnesses if any fail.
    Kept once it passed, so each algebra is checked once.

    A corner e A e is local with residue field Q when it is one dimension
    above e.rad(A).e, read off the one radical of A: rad(eAe) = e.rad(A).e
    for every idempotent e (Lam, A First Course in Noncommutative Rings,
    section 21), and `radical` has verified rad(A) to be a nilpotent ideal
    with semisimple quotient.  No corner algebra is built.

    Associativity is composed only for the pairs (b_i, b_j) of which neither
    is the unit: once the unit law has passed, (1.b_j)b_k = b_j b_k =
    1.(b_j b_k) and (b_i.1)b_k = b_i b_k = b_i(1.b_k).  When the unit law
    fails, every pair is composed, so its witnesses are all reported."""
    problems = []
    d = algebra.dim
    left, right = algebra.left_mult_matrix(algebra.unit), algebra.right_mult_matrix(algebra.unit)
    for i in range(d):
        if left[i] != {i: 1} or right[i] != {i: 1}:
            problems.append(f"unit law fails on {algebra.basis[i]}")

    one = None if problems else algebra.unit_index
    for i in range(d):
        if i == one:
            continue
        for j in range(d):
            if j == one:
                continue
            # column k of L_{b_i b_j} is (b_i b_j) b_k, of L_{b_i} L_{b_j} b_i (b_j b_k)
            lhs = linalg.sp_lincomb(algebra.mult[i][j], algebra.mult)
            rhs = linalg.sp_compose(algebra.mult[i], algebra.mult[j])
            for k in range(d):
                if lhs[k] != rhs[k]:
                    problems.append(
                        "associativity fails at "
                        f"({algebra.basis[i]}, {algebra.basis[j]}, {algebra.basis[k]})"
                    )
                    if len(problems) >= _MAX_REPORTS:
                        raise AlgebraValidationError(problems)

    idems = algebra.idempotents
    prods = _products(algebra, idems, idems)
    for a, e in enumerate(idems):
        for b in range(len(idems)):
            if prods[a * len(idems) + b] != (e if a == b else {}):
                problems.append(f"idempotents {a + 1}, {b + 1} are not orthogonal idempotents")
    if linalg.sp_apply(idems, dict.fromkeys(range(len(idems)), 1)) != algebra.unit:
        problems.append("idempotents do not sum to the unit")

    if problems:
        raise AlgebraValidationError(problems)

    # ring-theoretic part: local split corners and basicness
    rad = radical(algebra)
    for a, e in enumerate(algebra.idempotents):
        corner = corner_subspace(algebra, a, a)
        left, right = algebra.left_mult_matrix(e), algebra.right_mult_matrix(e)
        corner_rad = linalg.SparseEchelon(d)  # e.rad(A).e
        corner_rad.extend(linalg.sp_apply(left, linalg.sp_apply(right, r)) for r in rad)
        if corner.dim - corner_rad.dim != 1:
            problems.append(
                f"corner {a + 1} is not local with residue field Q "
                f"(dim {corner.dim}, radical dim {corner_rad.dim})"
            )
    for a in range(len(algebra.idempotents)):
        p = left_ideal(algebra, a)
        radp = module_radical(algebra, p, rad)
        if p.dim - radp.dim != 1:
            problems.append(f"projective {a + 1} has top of dimension {p.dim - radp.dim}, not basic")
    if problems:
        raise AlgebraValidationError(problems)


# -- radical, center, socle, Loewy ----------------------------------------


def _trace_gram(algebra: FinDimAlgebra):
    """Gram matrix of (x, y) -> tr(L_{xy}) on the basis, as sparse rows."""
    traces = [sum(col.get(r, 0) for r, col in enumerate(left)) for left in algebra.mult]
    gram = []
    for left in algebra.mult:
        row = {j: sum(c * traces[k] for k, c in col.items()) for j, col in enumerate(left)}
        gram.append({j: t for j, t in row.items() if t})
    return gram


@_kept_per_algebra
def radical(algebra: FinDimAlgebra) -> Subspace:
    """Jacobson radical via the trace form tr(L_x L_y) (characteristic zero),
    verified to be a nilpotent two-sided ideal with semisimple quotient.
    Computed and verified on the first call; later calls return that
    subspace."""
    d = algebra.dim
    rad = Subspace.from_vectors(linalg.nullspace(_trace_gram(algebra), d), d)
    _verify_radical(algebra, rad)
    return rad


def _verify_radical(algebra: FinDimAlgebra, rad: Subspace) -> None:
    d = algebra.dim
    for r in rad:
        # the columns of R_r and L_r are the products b*r and r*b
        if not all(map(rad.contains, algebra.right_mult_matrix(r) + algebra.left_mult_matrix(r))):
            raise AlgebraError("computed radical is not a two-sided ideal")
    power = rad
    for _ in range(d + 1):
        if power.dim == 0:
            break
        power = Subspace.from_vectors(_products(algebra, power, rad), d)
    else:
        raise AlgebraError("computed radical is not nilpotent")
    quotient = _quotient_algebra(algebra, rad)
    if quotient.dim and linalg.nullspace(_trace_gram(quotient), quotient.dim):
        raise AlgebraError("quotient by the computed radical is not semisimple")


def _quotient_algebra(algebra: FinDimAlgebra, ideal: Subspace) -> FinDimAlgebra:
    """Structure constants of A/I on the complement coordinates of I."""
    d = algebra.dim
    pivots = {min(row) for row in ideal}
    free = [j for j in range(d) if j not in pivots]
    if not free:
        return FinDimAlgebra((), (), (), (), name=f"{algebra.name}/I")

    def project(v):
        res = ideal.reduce(v)
        return tuple(res.get(j, 0) for j in free)

    mult = [[project(algebra.mult[i][j]) for j in free] for i in free]
    labels = [algebra.basis[j] for j in free]
    return FinDimAlgebra(labels, mult, project(algebra.unit), [], name=f"{algebra.name}/I")


@_kept_per_algebra
def center(algebra: FinDimAlgebra) -> Subspace:
    """Solution space of xz = zx for every basis element x."""
    d = algebra.dim
    eqs = []
    for i, left in enumerate(algebra.mult):
        right = algebra.right_mult_matrix({i: 1})
        eqs.extend(linalg.sp_rows(linalg.sp_lincomb((1, -1), (left, right)), d))
    return Subspace.from_vectors(linalg.nullspace(eqs, d), d)


@_kept_per_algebra
def left_ideal(algebra: FinDimAlgebra, s: int) -> Subspace:
    """The left ideal A e_s as a subspace: the column space of R_{e_s}."""
    return Subspace.from_vectors(algebra.right_mult_matrix(algebra.idempotents[s]), algebra.dim)


@_kept_per_algebra
def right_ideal(algebra: FinDimAlgebra, s: int) -> Subspace:
    """The right ideal e_s A as a subspace: the column space of L_{e_s}."""
    return Subspace.from_vectors(algebra.left_mult_matrix(algebra.idempotents[s]), algebra.dim)


def _products(algebra: FinDimAlgebra, us, vs) -> list:
    """The products u.v for u in us and v in vs, u outermost, as sparse
    vectors: each L_u applied to v."""
    return [linalg.sp_apply(left, v) for left in map(algebra.left_mult_matrix, us) for v in vs]


def module_radical(algebra: FinDimAlgebra, module: Subspace, rad: Subspace) -> Subspace:
    """rad(A) * M for a left submodule M of the regular module."""
    return Subspace.from_vectors(_products(algebra, rad, module), algebra.dim)


def loewy_length(algebra: FinDimAlgebra, rad: Subspace | None = None) -> int:
    """Smallest k with rad^k * A = 0 for the left regular module."""
    rad = radical(algebra) if rad is None else rad
    current = Subspace.full(algebra.dim)
    k = 0
    while current.dim:
        current = module_radical(algebra, current, rad)
        k += 1
    return k


def socle(algebra: FinDimAlgebra, module: Subspace | None = None, rad: Subspace | None = None) -> Subspace:
    """Annihilator of the radical in a left submodule (default: A itself)."""
    rad = radical(algebra) if rad is None else rad
    module = Subspace.full(algebra.dim) if module is None else module
    d = algebra.dim
    eqs = []
    basis = list(module)
    # solve for combinations of the module basis killed by every radical element
    for x in rad:
        eqs.extend(linalg.sp_rows(_products(algebra, (x,), basis), d))
    if not eqs:
        return module
    coeffs = linalg.nullspace(eqs, len(basis))
    return Subspace.from_vectors([linalg.sp_apply(basis, linalg.sparse(cs)) for cs in coeffs], d)


def top(algebra: FinDimAlgebra, module: Subspace | None = None, rad: Subspace | None = None) -> Subspace:
    """A canonical complement of rad*M in M, representing M/rad M."""
    rad = radical(algebra) if rad is None else rad
    module = Subspace.full(algebra.dim) if module is None else module
    radm = module_radical(algebra, module, rad)
    ech = linalg.SparseEchelon(algebra.dim)
    ech.extend(radm.rows)
    out = [b for b in module if ech.insert(b)]
    return Subspace.from_vectors(out, algebra.dim)


@_kept_per_algebra
def is_weakly_symmetric(algebra: FinDimAlgebra) -> bool:
    """Each projective Ae_i has simple socle isomorphic to its top."""
    rad = radical(algebra)
    for i, e in enumerate(algebra.idempotents):
        soc = socle(algebra, left_ideal(algebra, i), rad)
        if soc.dim != 1:
            return False
        if not linalg.sp_apply(algebra.left_mult_matrix(e), soc.rows[0]):
            return False
    return True


@_kept_per_algebra
def is_connected(algebra: FinDimAlgebra) -> bool:
    """Connectedness of the graph on idempotents with edges where e_i A e_j
    or e_j A e_i is nonzero, read off the kept corners.  For a validated
    algebra, basic and split, this graph has the components of the quiver
    (Assem-Simson-Skowronski, vol. 1, ch. II): an arrow i -> j is a nonzero
    piece of e_i A e_j, and for i != j, e_i A e_j lies in rad, which is
    spanned by products of arrow pieces, so it is nonzero only along a path."""
    n = len(algebra.idempotents)
    if n <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and (corner_dim(algebra, i, j) or corner_dim(algebra, j, i)):
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


@_kept_per_algebra
def corner_subspace(algebra: FinDimAlgebra, i: int, j: int) -> Subspace:
    """The subspace e_i A e_j: the column space of L_{e_i} R_{e_j}.  Where
    e_i (e_j) is the unit, the one idempotent of a local algebra, its factor
    is the identity by the unit law, and the other factor is read alone."""
    e, f = algebra.idempotents[i], algebra.idempotents[j]
    if e == algebra.unit:
        cols = algebra.right_mult_matrix(f)
    elif f == algebra.unit:
        cols = algebra.left_mult_matrix(e)
    else:
        cols = linalg.sp_compose(algebra.left_mult_matrix(e), algebra.right_mult_matrix(f))
    return Subspace.from_vectors(cols, algebra.dim)


def corner_dim(algebra: FinDimAlgebra, i: int, j: int) -> int:
    return corner_subspace(algebra, i, j).dim


def corner_algebra(algebra: FinDimAlgebra, i: int):
    """The corner e_i A e_i as an algebra, together with its subspace in A."""
    sub = corner_subspace(algebra, i, i)

    def coords(v: SVec):
        coeffs = coords_in(sub, v)
        if coeffs is None:
            raise AlgebraError("corner product left the corner subspace")
        return coeffs

    mult = [[coords(v) for v in _products(algebra, (u,), sub.rows)] for u in sub.rows]
    unit_coords = coords(algebra.idempotents[i])
    corner = FinDimAlgebra(
        [f"c{k}" for k in range(sub.dim)],
        mult,
        unit_coords,
        [unit_coords],
        name=f"{algebra.name}.corner{i + 1}",
    )
    return corner, sub


def coords_in(sub: Subspace, v: SVec):
    """Dense coordinates of v in the canonical basis of sub, or None.  Each
    canonical row is 1 at its pivot and 0 at the others, so a member of sub
    is the combination of the rows with its own entries at the pivots."""
    return tuple(v.get(min(row), 0) for row in sub.rows) if sub.contains(v) else None


def subalgebra_closure(algebra: FinDimAlgebra, generators) -> Subspace:
    """Smallest unital subalgebra containing the generators, as a subspace."""
    current = Subspace.from_vectors([algebra.unit, *generators], algebra.dim)
    while True:
        products = _products(algebra, current, current)
        bigger = current.sum(Subspace.from_vectors(products, algebra.dim))
        if bigger.dim == current.dim:
            return current
        current = bigger


def algebra_generators(algebra: FinDimAlgebra) -> list:
    """Idempotents plus a complement of rad^2 in rad (the arrows): a unital
    generating set, as a new list.  The set is computed once per algebra."""
    return list(_generating_set(algebra))


@_kept_per_algebra
def _generating_set(algebra: FinDimAlgebra) -> tuple:
    rad = radical(algebra)
    ech = linalg.SparseEchelon(algebra.dim)
    ech.extend(_products(algebra, rad, rad))
    return tuple(algebra.idempotents) + tuple(r for r in rad if ech.insert(r))


@_kept_per_algebra
def basis_words(algebra: FinDimAlgebra) -> tuple:
    """A path word recipe for every basis element, over algebra_generators
    (the arrows of the bound-quiver presentation kQ/I; Assem, Simson,
    Skowroński, Elements vol. 1, ch. II-III), as (words, recipe).

    Word k is words[k] = (g, w): generator g times the shorter word w, or g
    alone when w is None.  recipe[i] is a tuple of (k, c) pairs with
    basis[i] = sum of c * word k, exactly.  The words are found breadth
    first: g.w for each word w of the last length and each generator g, kept
    when its value is independent of the words kept before, until they form
    a basis; the recipe is the inverse of that basis, certified by
    check_basis_words before it is kept."""
    gens = _generating_set(algebra)
    lefts = [algebra.left_mult_matrix(gen) for gen in gens]
    d = algebra.dim
    ech = linalg.SparseEchelon(d)
    words, values = [], []
    # (g, w, value of g.w) for the candidate words of one length
    candidates = [(g, None, gen) for g, gen in enumerate(gens)]
    while candidates and ech.dim < d:
        level = []
        for g, w, value in candidates:
            if ech.insert(value):
                level.append(len(words))
                words.append((g, w))
                values.append(value)
        candidates = [
            (g, w, linalg.sp_apply(left, values[w])) for w in level for g, left in enumerate(lefts)
        ]
    if ech.dim < d:
        raise AlgebraError("the generators do not span the algebra")
    inverse = linalg.inverse(linalg.sp_rows(values, d))
    recipe = tuple(
        tuple((k, row[i]) for k, row in enumerate(inverse) if row[i]) for i in range(d)
    )
    check_basis_words(algebra, words, recipe)
    return tuple(words), recipe


def check_basis_words(algebra: FinDimAlgebra, words, recipe) -> None:
    """Raise AlgebraError unless each basis element is rebuilt exactly by
    its recipe, every word's value formed from the structure constants as
    its generator times its shorter word."""
    gens = _generating_set(algebra)
    values = []
    for g, w in words:
        gen = gens[g]
        values.append(
            gen if w is None else linalg.sp_apply(algebra.left_mult_matrix(gen), values[w])
        )
    for i, terms in enumerate(recipe):
        if linalg.sp_apply(values, dict(terms)) != {i: 1}:
            raise AlgebraError(
                f"basis element {algebra.basis[i]} is not rebuilt by its word recipe"
            )


@_kept_per_algebra
def arrow_pieces(algebra: FinDimAlgebra) -> tuple:
    """The nonzero pieces e_a g e_b of the arrows g of algebra_generators, as
    (a, b, k) triples with k the index of g in algebra_generators, in the
    order of g, then a, then b."""
    idems = algebra.idempotents
    n = len(idems)
    gens = _generating_set(algebra)
    return tuple(
        (*divmod(p, n), k)  # piece p is e_a g e_b with p = a * n + b
        for k in range(n, len(gens))
        for p, piece in enumerate(_products(algebra, idems, _products(algebra, (gens[k],), idems)))
        if piece
    )
