"""Projective-bimodule calculus over basic weakly symmetric algebras, the
2-category they generate, and verification of its dimension, surjectivity
and separation properties.

A bimodule is finite-dimensional and held by the actions of its algebras'
generators (idempotents, then arrows): a representation of each bound
quiver.  Those action matrices are exact rational, column-sparse, and never
written to once built (see `linalg`).  The action of any other basis
element is derived from them along its path word, in one place
(`_along_words`), and only when something reads it.  The regular and
projective bimodules of an algebra are built and validated once per algebra
and kept on it (`algebra.kept`), as are its actions on its ideals A e_s and
e_s A and its projective centre; every later call shares those action
matrices.  Tensor products over the middle algebra
are computed as honest cokernels of the balancing map, over the idempotent
split (+)_c M e_c (x) e_c N of the pairs of basis vectors, so they provide
an independent check of the closed-form composition rule used for the
multisemigroup table.  The balancing relations of one or two terms are
solved by a weighted union-find and only the longer ones are eliminated
(`linalg.quotient_classes`).  Hom spaces come from one intertwiner solver, which
reads the pairs of diagonal matrices (the idempotents on such a split
basis) instead of eliminating them: each kills the unknowns X[p, q] between
different blocks, and only the other pairs are eliminated, over the
unknowns left.  Where only the dimension is asked (`hom_dim`, the
commutant), `intertwiner_dim` ranks that system with `linalg.rank`, and
where a basis is asked, `linalg.nullspace` reads it off the system's
classes: either way the union-find shared with the tensor's classes
solves the one- and two-term equations without elimination.

Everything is computation over values that are immutable once built: the
only state is what an algebra keeps of itself, and a bimodule keeps only
what it is given.  Isomorphisms are decided exactly, with a
projective or regular side, off the top N / rad N of the other (Nakayama's
lemma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra as alg
from . import linalg
from .linalg import SparseEchelon, Subspace, frac
from .mscell import (
    DataInconsistencyError,
    MultiSemigroup,
    OneMorphism,
    cells,
    duflo,
    identity_products_clean,
    is_strongly_regular,
)
from .report import CheckRecord


class BimoduleError(ValueError):
    pass


# -- bimodules ------------------------------------------------------------


class Bimodule:
    """An (A, B)-bimodule: commuting left A-action and right B-action, held
    by the actions of the generators of its algebras.

    left_gens[k] is the column-sparse matrix of the k-th element of
    alg.algebra_generators(A) acting on the left, and right_gens[k] likewise
    for B on the right: a representation of the bound quiver of each
    algebra, which fixes the bimodule; any other number of actions than one
    per generator is a BimoduleError at construction, checked or not.  The
    actions of the basis elements are derived from them along
    alg.basis_words (`_along_words`) where they are read, and not kept; the
    right action is an anti-homomorphism.  degrees, when present, grade the
    underlying space, one degree per basis vector (any other number is a
    BimoduleError at construction); a shifted copy has all degrees
    lowered.  generator_degrees, for a graded bimodule, holds for each
    generator of the left algebra and then of the right one the one shift
    degrees[p] - degrees[q] of the nonzero entries (p, q) of its action, or
    None where it acts as zero; an action that shifts by two different
    values is a BimoduleError at construction.  generator is (s, t) when
    this is the projective bimodule (A e_s)(x)(e_t B) of proj_bimodule, and
    regular is True when this is regular_bimodule's A in the basis of A.
    The basis vectors are numbered, not labelled: name, for messages and
    repr, is the only text a bimodule keeps.  Nothing is set on a bimodule
    after its construction.
    """

    def __init__(
        self,
        left_algebra: alg.FinDimAlgebra,
        right_algebra: alg.FinDimAlgebra,
        dim: int,
        left_gens,
        right_gens,
        degrees=None,
        name: str = "",
        check: bool = True,
        generator=None,
        regular: bool = False,
    ):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_gens = tuple(left_gens)
        self.right_gens = tuple(right_gens)
        counts = tuple(map(len, map(alg.algebra_generators, (left_algebra, right_algebra))))
        if (len(self.left_gens), len(self.right_gens)) != counts:
            raise BimoduleError(f"{name}: not one action per generator")
        self.degrees = tuple(degrees) if degrees is not None else None
        if self.degrees is not None and len(self.degrees) != dim:
            raise BimoduleError(f"{name}: not one degree per basis vector")
        self.name = name
        self.generator = generator
        self.regular = regular
        if check:
            self.validate()
        self.generator_degrees = None if degrees is None else _generator_degrees(self)

    def __repr__(self):
        return f"Bimodule({self.name or 'unnamed'}, dim={self.dim})"

    def shifted(self, c: int) -> "Bimodule":
        """Grading shift: an element of degree d gets degree d - c."""
        if self.degrees is None:
            raise BimoduleError("cannot shift an ungraded bimodule")
        return Bimodule(
            self.left_algebra,
            self.right_algebra,
            self.dim,
            self.left_gens,
            self.right_gens,
            degrees=[d - c for d in self.degrees],
            name=f"{self.name}<{c}>",
            check=False,
            generator=self.generator,
            regular=self.regular,
        )

    def validate(self) -> None:
        """Check that both actions are unital, that the left action is
        multiplicative and the right one anti-multiplicative, and that they
        commute.  rho is linear on the basis by its derivation.  Products
        are checked on generators only: if rho(g)rho(b) = rho(gb) for every
        generator g and basis element b, the elements a with
        rho(a)rho(b) = rho(ab) for all b form a unital subalgebra containing
        the generators, hence all of the algebra; and actions that commute
        on generators commute everywhere.  That argument takes the algebras
        to be associative with the unit law, so both are put through
        `algebra.validate` (kept per algebra) first: a non-associative
        algebra whose basis elements are single words would otherwise pass,
        as its derived actions are word products by construction.  The
        action of every basis element is derived once per side, here
        (`_along_words`), and dropped on return.

        Some checks hold by construction or are read without a product, so
        the verdict, the order of the checks and the messages are those of
        every product multiplied out:

        - A generator equal to the unit (the one idempotent of a local
          algebra) is left out of both loops: its action is checked to be
          the identity first, and then rho(1)rho(b) = rho(b) = rho(1.b) by
          the unit law, and the identity commutes with every action.  For
          the same reason a basis element b_j equal to the unit is left out
          of the products: rho(g)rho(1) = rho(g) = rho(g.1).
        - A product that defines an action is skipped (`_word_products`):
          where b_j is the word w, b_i the word g.w, and g.b_j = b_i,
          `_along_words` forms rho(b_i) as rho(g)rho(b_j), so that check
          holds whatever the actions are.  On the right, where b_j is the
          generator g alone, b_i the word g.h and b_j.h = b_i, it forms
          rho(b_i) as rho(h)rho(b_j), the right check's product.
        - A generator that acts diagonally (an idempotent on a basis split
          by the idempotents), with g.b_j equal to b_j or 0 (b_j.h on the
          right), scales the rows of rho(b_j): the product is rho(b_j) (is
          0) iff every row where rho(b_j) has an entry is one where the
          diagonal is 1 (is 0).
        - Two generators whose actions are both diagonal commute unchecked,
          and a diagonal D commutes with the other action M iff
          D[r] = D[q] at every entry (r, q) of M."""
        A, B = self.left_algebra, self.right_algebra
        alg.validate(A)
        alg.validate(B)
        gens_a, gens_b = alg.algebra_generators(A), alg.algebra_generators(B)
        ident = linalg.sp_identity(self.dim)
        left_action = _along_words(A, self.left_gens, anti=False)
        if not linalg.sp_eq(linalg.sp_lincomb(A.unit, left_action), ident):
            raise BimoduleError(f"{self.name}: left action is not unital")
        right_action = _along_words(B, self.right_gens, anti=True)
        if not linalg.sp_eq(linalg.sp_lincomb(B.unit, right_action), ident):
            raise BimoduleError(f"{self.name}: right action is not unital")
        lefts = [
            (k, g, lg, linalg.sp_diagonal(lg))
            for k, (g, lg) in enumerate(zip(gens_a, self.left_gens))
            if g != A.unit
        ]
        rights = [
            (k, h, rh, linalg.sp_diagonal(rh))
            for k, (h, rh) in enumerate(zip(gens_b, self.right_gens))
            if h != B.unit
        ]
        for X, gens, actions, anti, failure in (
            (A, lefts, left_action, False, "left action not multiplicative"),
            (B, rights, right_action, True, "right action not anti-multiplicative"),
        ):
            defined, one = _word_products(X, anti), X.unit_index
            for k, g, mat, diag in gens:
                products = X.right_mult_matrix(g) if anti else X.left_mult_matrix(g)
                for j, prod in enumerate(products):
                    i = defined.get((k, j))
                    if j == one or (i is not None and prod == {i: 1}):
                        continue
                    if not _product_holds(mat, diag, actions, j, prod):
                        raise BimoduleError(
                            f"{self.name}: {failure} at ({X.describe(g)}, {X.basis[j]})"
                        )
        for _, g, lg, dg in lefts:
            for _, h, rh, dh in rights:
                if dg is not None and dh is not None:
                    continue
                if dg is not None:
                    commute = _commutes_with_diagonal(dg, rh)
                elif dh is not None:
                    commute = _commutes_with_diagonal(dh, lg)
                else:
                    commute = linalg.sp_eq(linalg.sp_compose(lg, rh), linalg.sp_compose(rh, lg))
                if not commute:
                    raise BimoduleError(
                        f"{self.name}: actions do not commute at "
                        f"({A.describe(g)}, {B.describe(h)})"
                    )


def _product_holds(gen, diag, actions, j, prod) -> bool:
    """Does gen . actions[j] equal the combination prod of the actions?
    Read off the rows of actions[j] where gen is the diagonal diag and prod
    is b_j itself or 0, else multiplied out."""
    if diag is not None and (not prod or prod == {j: 1}):
        value = 1 if prod else 0
        return all(diag[r] == value for col in actions[j] for r in col)
    return linalg.sp_eq(linalg.sp_compose(gen, actions[j]), linalg.sp_lincomb(prod, actions))


def _commutes_with_diagonal(diag, mat) -> bool:
    """Does the diagonal matrix diag commute with mat: diag[r] = diag[q] at
    every entry (r, q) of mat?"""
    return all(diag[r] == diag[q] for q, col in enumerate(mat) for r in col)


def _word_products(A: alg.FinDimAlgebra, anti: bool) -> dict:
    """{(k, j): i} for every product of generator g_k of A (in
    algebra_generators order) and basis element b_j that `_along_words`
    forms as the action of b_i, b_i's recipe being the word (m, w) alone
    with coefficient 1: on the left g_k.b_j, with m = k and b_j the word w,
    and on the right (anti) b_j.g_k, with w the letter g_k and b_j the
    letter g_m, each b_j alone with coefficient 1.  Bimodule.validate skips
    the check of such a product where the structure constants give it as
    b_i.  Computed once per algebra and side, and kept on the algebra."""

    def build():
        words, recipe = alg.basis_words(A)
        # the word each basis element is, where it is one word with coefficient 1
        element = {
            terms[0][0]: i for i, terms in enumerate(recipe) if len(terms) == 1 and terms[0][1] == 1
        }
        # (k, u, n): the word n is g_k times the word u, or on the right the
        # letter u times g_k
        if anti:
            letter = {m: n for n, (m, w) in enumerate(words) if w is None}
            pairs = [
                (words[w][0], letter.get(m), n)
                for n, (m, w) in enumerate(words) if w is not None and words[w][1] is None
            ]
        else:
            pairs = [(k, w, n) for n, (k, w) in enumerate(words)]
        return {(k, element[u]): element[n] for k, u, n in pairs if n in element and u in element}

    return alg.kept(A, ("word_products", anti), build)


def _generator_degrees(M: Bimodule) -> tuple:
    """M.generator_degrees, computed from the actions of the generators; the
    generators themselves are looked up only to name one in an error."""
    out = []
    for side, algebra_, gens in (
        ("left", M.left_algebra, M.left_gens),
        ("right", M.right_algebra, M.right_gens),
    ):
        for k, act in enumerate(gens):
            shifts = {M.degrees[p] - M.degrees[q] for q, col in enumerate(act) for p in col}
            if len(shifts) > 1:
                g = alg.algebra_generators(algebra_)[k]
                raise BimoduleError(
                    f"{M.name}: {side} action of {algebra_.describe(g)} is not homogeneous: "
                    f"it shifts degrees by {sorted(shifts)}"
                )
            out.append(shifts.pop() if shifts else None)
    return tuple(out)


def _along_words(algebra: alg.FinDimAlgebra, generator_actions, anti: bool) -> tuple:
    """The action of every basis element of the algebra, formed from the
    actions of its generators (in algebra_generators order) along
    alg.basis_words: the word g.w acts by rho(g) rho(w), or by rho(w) rho(g)
    for an anti-homomorphism (a right action), one product per word, and a
    basis element by the combination of words its recipe gives.  The one
    place where the action of a basis element is formed."""
    words, recipe = alg.basis_words(algebra)
    mats = []
    for g, w in words:
        gen = generator_actions[g]
        if w is None:
            mats.append(gen)
        elif anti:
            mats.append(linalg.sp_compose(mats[w], gen))
        else:
            mats.append(linalg.sp_compose(gen, mats[w]))
    return tuple(linalg.sp_lincomb(dict(terms), mats) for terms in recipe)


def _kept(A: alg.FinDimAlgebra, key, B: alg.FinDimAlgebra, name: str, build) -> tuple:
    """(dim, left_gens, right_gens, ...) of the (A, B)-bimodule `key` of A:
    built by build() and validated on the first call for that key, then kept
    on A by alg.kept.  A build whose validation raised is not kept."""

    def validated():
        actions = build()
        Bimodule(A, B, *actions[:3], name=name)  # validates
        return actions

    return alg.kept(A, ("bimodule", key), validated)


def regular_bimodule(A: alg.FinDimAlgebra, degrees=None, name=None) -> Bimodule:
    """A as an (A, A)-bimodule in the basis of A: each generator g acts by
    L_g and R_g.  Its actions are built and validated once per algebra;
    every call returns a new Bimodule sharing them, with this call's degrees
    and name."""
    name = name or f"reg({A.name})"

    def build():
        gens = alg.algebra_generators(A)
        left = tuple(map(A.left_mult_matrix, gens))
        return A.dim, left, tuple(map(A.right_mult_matrix, gens))

    dim, left_gens, right_gens = _kept(A, None, A, name, build)
    return Bimodule(
        A,
        A,
        dim,
        left_gens,
        right_gens,
        degrees=degrees,
        name=name,
        check=False,
        regular=True,
    )


def _action_on_subspace_factor(algebra_: alg.FinDimAlgebra, sub: Subspace, left: bool):
    """The action matrices of the generators of the algebra on a left
    (right) ideal, written in the canonical basis of the ideal.

    Each image g.u (u.g) is column u of L_g (of R_g).  Every image is
    checked to lie in the ideal; a canonical row is 1 at its own pivot and 0
    at the others, so a member's coordinates are its entries at the pivots,
    found once per ideal."""
    pivots = [min(row) for row in sub.rows]
    mult = algebra_.left_mult_matrix if left else algebra_.right_mult_matrix
    mats = []
    for act in map(mult, alg.algebra_generators(algebra_)):
        cols = []
        for u in sub.rows:
            img = linalg.sp_apply(act, u)
            if not sub.contains(img):
                raise BimoduleError("ideal is not stable under the action")
            cols.append({r: img[p] for r, p in enumerate(pivots) if p in img})
        mats.append(tuple(cols))
    return sub.rows, mats


def _ideal_action(algebra_: alg.FinDimAlgebra, s: int, left: bool):
    """_action_on_subspace_factor of the left ideal A e_s (the right ideal
    e_s A): built on the first call for that side and idempotent, then kept
    on the algebra, for every projective bimodule with that factor."""
    ideal = alg.left_ideal if left else alg.right_ideal
    return alg.kept(
        algebra_,
        ("ideal_action", left, s),
        lambda: _action_on_subspace_factor(algebra_, ideal(algebra_, s), left),
    )


def proj_bimodule(
    A: alg.FinDimAlgebra,
    s: int,
    B: alg.FinDimAlgebra,
    t: int,
    deg_a=None,
    deg_b=None,
    name=None,
) -> Bimodule:
    """The projective bimodule (A e_s) tensor (e_t B) with the outer actions,
    on the pairs of the canonical bases of the two ideals, generated by
    e_s (x) e_t.  Its actions are built and validated once per (A, s, B, t);
    every call returns a new Bimodule sharing them, with this call's degrees
    and name."""
    name = name or f"P({A.name}e{s + 1}|e{t + 1}{B.name})"
    dim, left_gens, right_gens, ubasis, vbasis = _kept(
        A, (s, B, t), B, name, lambda: _proj_actions(A, s, B, t)
    )
    degrees = None
    if deg_a is not None and deg_b is not None:
        du = [_homogeneous_degree(u, deg_a) for u in ubasis]
        dv = [_homogeneous_degree(v, deg_b) for v in vbasis]
        degrees = [x + y for x in du for y in dv]
    return Bimodule(
        A,
        B,
        dim,
        left_gens,
        right_gens,
        degrees=degrees,
        name=name,
        check=False,
        generator=(s, t),
    )


def _proj_actions(A: alg.FinDimAlgebra, s: int, B: alg.FinDimAlgebra, t: int) -> tuple:
    """(dim, left_gens, right_gens, basis of A e_s, basis of e_t B) of
    (A e_s)(x)(e_t B), on the pairs of the two bases."""
    ubasis, left_mats = _ideal_action(A, s, left=True)
    vbasis, right_mats = _ideal_action(B, t, left=False)
    p, q = len(ubasis), len(vbasis)
    # u (x) v is basis vector u * q + v; a generator acts on its own factor
    left_gens = tuple(
        tuple({r * q + iv: x for r, x in src[iu].items()} for iu in range(p) for iv in range(q))
        for src in left_mats
    )
    right_gens = tuple(
        tuple({iu * q + r: x for r, x in src[iv].items()} for iu in range(p) for iv in range(q))
        for src in right_mats
    )
    return p * q, left_gens, right_gens, tuple(ubasis), tuple(vbasis)


def _homogeneous_degree(v, degs) -> int:
    found = {degs[i] for i in v}
    if len(found) != 1:
        raise BimoduleError("basis vector is not homogeneous for the grading")
    return found.pop()


def direct_sum(bims) -> Bimodule:
    first = bims[0]
    A, B = first.left_algebra, first.right_algebra
    if any(m.left_algebra is not A or m.right_algebra is not B for m in bims):
        raise BimoduleError("direct summands must share the algebra pair")
    dim = sum(m.dim for m in bims)
    offsets = []
    acc = 0
    for m in bims:
        offsets.append(acc)
        acc += m.dim

    def block(mats):
        """One generator's action on the sum: its action on each summand,
        as a diagonal block."""
        return tuple(
            {r + off: v for r, v in col.items()} for off, mat in zip(offsets, mats) for col in mat
        )

    left_gens = [block(mats) for mats in zip(*(m.left_gens for m in bims))]
    right_gens = [block(mats) for mats in zip(*(m.right_gens for m in bims))]
    degrees = None
    if all(m.degrees is not None for m in bims):
        degrees = [d for m in bims for d in m.degrees]
    return Bimodule(
        A,
        B,
        dim,
        left_gens,
        right_gens,
        degrees=degrees,
        name="(+)".join(m.name for m in bims),
        check=False,
    )


def _idempotent_blocks(idempotent_actions, dim: int):
    """For each basis vector, the one idempotent that fixes it while the
    others kill it, given the action matrices of the idempotents on one
    side; None if some basis vector is not of that form."""
    blocks = [None] * dim
    for c, mat in enumerate(idempotent_actions):
        for i, col in enumerate(mat):
            if col == {i: 1} and blocks[i] is None:
                blocks[i] = c
            elif col:
                return None
    return None if None in blocks else blocks


def _members(blocks) -> dict:
    """The basis vectors in each block, in increasing order."""
    out: dict[int, list] = {}
    for i, c in enumerate(blocks):
        out.setdefault(c, []).append(i)
    return out


def tensor_over(M: Bimodule, N: Bimodule) -> Bimodule:
    """M tensor_B N as the cokernel of the balancing map, computed over the
    idempotent split

        M (x)_B N = (+)_c M e_c (x) e_c N / <m.g (x) n - m (x) g.n>.

    When every basis vector of M lies in some M e_c and every one of N in
    some e_c N (each fixed by one idempotent of B, killed by the others,
    read off the idempotents' generator actions), the ambient is the pairs
    of basis vectors in the same block c: the idempotent relations kill
    every other pair.  The relations then come from the nonzero pieces
    e_a g e_b of the arrows g of B's generating set (alg.arrow_pieces keeps
    them per algebra), taken for m in M e_a and n in e_b N, where both terms
    stay in the split: m.(e_a g e_b) = (m.g).e_b is column m of g's action
    kept to block b, and (e_a g e_b).n = e_a.(g.n) is column n kept to
    block a.  Otherwise every pair is kept and every generator (idempotents
    plus arrows) balances every pair, as one block.  Either way the
    relation space spans the full balancing subspace, and the quotient basis
    and actions are those of the cokernel over all pairs.

    The quotient basis and each pair's class come from
    linalg.quotient_classes: the free pairs of the reduced echelon of the
    relations, and the class of each pair over them.  It absorbs relations
    of one or two terms, which are all of them on the projective bimodules
    of a path basis, in a weighted union-find, and eliminates only the
    longer ones, rewritten over the union-find's roots.  The classes are
    held per row of pairs, classes[i][j], and read by list lookup.  A
    generator's induced action column is the combination of the classes of
    the pairs its image touches; only the generators' actions are induced.
    """
    B = M.right_algebra
    if N.left_algebra is not B:
        raise BimoduleError("tensor factors do not share the middle algebra")
    dm, dn = M.dim, N.dim
    e = len(B.idempotents)
    m_blocks = _idempotent_blocks(M.right_gens[:e], dm)
    n_blocks = _idempotent_blocks(N.left_gens[:e], dn)
    if m_blocks is None or n_blocks is None:
        m_blocks, n_blocks = [0] * dm, [0] * dn
        pieces = [(0, 0, k) for k in range(len(M.right_gens))]
    else:
        pieces = alg.arrow_pieces(B)
    m_in, n_in = _members(m_blocks), _members(n_blocks)
    # index[i][j]: the number of the pair (i, j) when i and j share a block,
    # in the order of all pairs, so that the quotient basis is the one the
    # cokernel over all pairs would pick
    index = [[None] * dn for _ in range(dm)]
    pairs = []
    for i in range(dm):
        row = index[i]
        for j in n_in.get(m_blocks[i], ()):
            row[j] = len(pairs)
            pairs.append((i, j))

    def relations():
        for a, b, k in pieces:
            right_g, left_g = M.right_gens[k], N.left_gens[k]
            gns = [
                (j, {r: v for r, v in left_g[j].items() if n_blocks[r] == a})
                for j in n_in.get(b, ())
            ]
            for i in m_in.get(a, ()):
                mg = {r: v for r, v in right_g[i].items() if m_blocks[r] == b}
                row = index[i]
                for j, gn in gns:
                    rel = {index[r][j]: v for r, v in mg.items()}
                    for r, v in gn.items():
                        key = row[r]
                        x = rel.get(key, 0) - v
                        if x:
                            rel[key] = x
                        else:  # m.g (x) n and m (x) g.n cancel here
                            del rel[key]
                    if rel:
                        yield rel

    free, by_pair = linalg.quotient_classes(relations(), len(pairs))
    # classes[i][j]: the class of the pair (i, j), None outside the split;
    # by_column[j][i] likewise
    classes = [[None if k is None else by_pair[k] for k in row] for row in index]
    by_column = list(zip(*classes))
    free_pairs = [pairs[k] for k in free]

    def induced(gens, left_side: bool):
        # for each free pair (i, j): the column of a generator's action it
        # reads and the classes of the pairs (r, j), or (i, r), that reaches
        reads = [(i, by_column[j]) if left_side else (j, classes[i]) for i, j in free_pairs]
        out = []
        for mat in gens:
            cols = []
            for q, reached in reads:
                image = mat[q]
                if len(image) == 1:
                    ((r, v),) = image.items()
                    cls = reached[r]
                    if len(cls) == 1:
                        ((pos, x),) = cls
                        cols.append({pos: frac(v * x)})
                        continue
                col: dict = {}
                for r, v in image.items():
                    for pos, x in reached[r]:
                        col[pos] = col.get(pos, 0) + v * x
                cols.append({pos: frac(x) for pos, x in col.items() if x})
            out.append(tuple(cols))
        return out

    degrees = None
    if M.degrees is not None and N.degrees is not None:
        degrees = [M.degrees[i] + N.degrees[j] for i, j in free_pairs]
    return Bimodule(
        M.left_algebra,
        N.right_algebra,
        len(free),
        induced(M.left_gens, True),
        induced(N.right_gens, False),
        degrees=degrees,
        name=f"({M.name})(x)_{B.name}({N.name})",
        check=False,
    )


# -- hom spaces and isomorphism testing ------------------------------------


def intertwiners(pairs, dm: int, dn: int) -> list:
    """A basis of {X : X.a = b.X for every (a, b) in pairs}, where each a is a
    column-sparse dm x dm matrix and each b a column-sparse dn x dn matrix.

    Each X is column-sparse like the action matrices: a tuple of dm dicts,
    the q-th sending a row index to the nonzero entries of column q.  The
    unknown X[p, q] is numbered p * dm + q, and the basis is the canonical
    one linalg.nullspace gives in that numbering; with no pairs it is the
    dn * dm matrix units.

    A pair of diagonal matrices (the idempotents, on a basis split by them)
    is read, not eliminated: it says X[p, q] (a[q, q] - b[p, p]) = 0, so it
    kills X[p, q] where the two entries differ and says nothing where they
    agree (the unit of a local algebra).  The other pairs are eliminated
    over the live unknowns only, in their order.  Every killed unknown is a
    pivot of the full system and the live pivots are those of the smaller
    one, so the basis is still the canonical one of the full system."""
    eqs, unknowns = _intertwiner_system(pairs, dm, dn)
    mats = []
    for vec_ in linalg.nullspace(eqs, len(unknowns)):
        cols = tuple({} for _ in range(dm))
        for i, v in enumerate(vec_):
            if v:
                p, q = divmod(unknowns[i], dm)
                cols[q][p] = v
        mats.append(cols)
    return mats


def intertwiner_dim(pairs, dm: int, dn: int) -> int:
    """The dimension of the space `intertwiners` gives a basis of: its live
    unknowns minus the rank of its system, with no basis formed.  The rank
    is `linalg.rank`'s, whose union-find solves the one- and two-term
    equations (all of them, on the projectives of k[x]/(x^n) and zigzag
    A2) without elimination."""
    eqs, unknowns = _intertwiner_system(pairs, dm, dn)
    return len(unknowns) - linalg.rank(eqs, len(unknowns))


def _intertwiner_system(pairs, dm: int, dn: int) -> tuple:
    """(equations, unknowns) of `intertwiners`: the live unknowns X[p, q], as
    numbers p * dm + q in increasing order, and the sparse equations of the
    pairs that are not both diagonal, over their positions in that list.
    Each equation is built from the live unknowns that enter it, so a
    position no live unknown reaches costs nothing, and an entry whose
    terms cancel is dropped."""
    live = [True] * (dn * dm)
    rest = []
    for a, b in pairs:
        da, db = linalg.sp_diagonal(a), linalg.sp_diagonal(b)
        if da is None or db is None:
            rest.append((a, b))
            continue
        for p, bp in enumerate(db):
            for q, aq in enumerate(da):
                if aq != bp:
                    live[p * dm + q] = False
    unknowns = [k for k, alive in enumerate(live) if alive]
    eqs = []
    for a, b in rest:
        a_rows = linalg.sp_rows(a, dm)
        # equation (p, q), numbered p * dm + q: (X.a)[p, q] - (b.X)[p, q] = 0
        system = [None] * (dn * dm)
        for i, k in enumerate(unknowns):
            p, r = divmod(k, dm)
            # X[p, r] enters (X.a)[p, q] with a[r, q]: once per q, and
            # before its b terms, so with no entry of its own there yet
            for q, v in a_rows[r].items():
                row = system[k - r + q]
                if row is None:
                    system[k - r + q] = {i: v}
                else:
                    row[i] = v
            # and (b.X)[p2, r] with b[p2, p]
            for p2, v in b[p].items():
                eq = p2 * dm + r
                row = system[eq]
                if row is None:
                    system[eq] = {i: -v}
                elif x := row.get(i, 0) - v:
                    row[i] = x
                else:
                    del row[i]
        eqs.extend(filter(None, system))
    return eqs, unknowns


def hom_space(M: Bimodule, N: Bimodule):
    """Basis of bimodule homomorphisms M -> N: the intertwiners of both
    actions on generators, column-sparse with M.dim columns.  Where the
    idempotents act diagonally, `intertwiners` reads their pairs, so only
    the X[p, q] with p and q in the same idempotent blocks are eliminated."""
    return intertwiners(_hom_pairs(M, N), M.dim, N.dim)


def hom_dim(M: Bimodule, N: Bimodule) -> int:
    """dim Hom(M, N) from the generic system of hom_space, by its rank."""
    return intertwiner_dim(_hom_pairs(M, N), M.dim, N.dim)


def _hom_pairs(M: Bimodule, N: Bimodule) -> list:
    """The pairs (action on M, action on N) of every generator of both
    algebras, which a bimodule map intertwines."""
    if M.left_algebra is not N.left_algebra or M.right_algebra is not N.right_algebra:
        raise BimoduleError("hom space needs a common algebra pair")
    return [*zip(M.left_gens, N.left_gens), *zip(M.right_gens, N.right_gens)]


def corner_columns(N: Bimodule, s: int, t: int) -> tuple:
    """The matrix of m -> e_s.m.e_t on N, for the idempotents e_s, e_t of
    the two algebras (generators s and t): its column m is e_s.m.e_t, and
    its columns span e_s N e_t.  The one idempotent of a local algebra is
    its unit, which acts as the identity, so there the matrix is the other
    factor, read and not formed."""
    left, right = N.left_gens[s], N.right_gens[t]
    if len(N.left_algebra.idempotents) == 1:
        return right
    if len(N.right_algebra.idempotents) == 1:
        return left
    return linalg.sp_compose(left, right)


def read_off(M: Bimodule) -> bool:
    """Is M projective or regular, so that Hom(M, N) is read off N (by the
    Yoneda lemma, or as the centraliser of A in N) and top_iso reads off the
    isomorphisms with M as a side?"""
    return M.generator is not None or M.regular


def iso_test(M: Bimodule, N: Bimodule) -> bool:
    """Exact isomorphism test of M and N: iso_to_direct_power with k = 1,
    based on the projective or regular side."""
    T, B = (M, N) if read_off(N) else (N, M)
    return iso_to_direct_power(T, B, 1)


def iso_to_direct_power(T: Bimodule, B: Bimodule, k: int) -> bool:
    """Exact test of T isomorphic to B^{(+)k}, for B projective or regular:
    the verdict is read off the top of T (top_iso)."""
    return top_iso(T, B, k)


def top_iso(N: Bimodule, B: Bimodule, k: int, degree=None) -> bool:
    """Is N = B^{(+)k}, for B projective or regular?  No when dim N is not
    k dim B and yes when it is 0, before anything else is looked at, for
    every entry (iso_test, iso_to_direct_power, graded_iso_test).
    Otherwise read off top N = N / rad N: by Nakayama's lemma a map into N is onto
    when it is onto the top.  With a degree, that of B's generator, only
    maps homogeneous of degree 0 count.  B = (A e_s)(x)(e_t B'): N = B^k when
    the top has dimension k and e_s N e_t (in the degree) maps onto it, as
    the Yoneda maps of lifts of a basis of the top then sum to an onto
    B^k -> N.  B = A: N = A^k when the top has dimension k|E| and each of k
    rounds finds a central n_j (in the degree) with every e_i.n_j outside
    rad N and the e_i.n of earlier rounds, as (a_j) -> sum a_j.n_j is then
    onto.  If N = A^k, the central n map onto each k-dimensional
    e_i (top N) e_i, so in each round the n failing one i form a proper
    subspace, which the moment curve (1, t, t^2, ...) through the m
    centraliser vectors meets at most m - 1 times: t = 0..|E|(m - 1) finds
    an n.  A B neither projective nor regular is a ValueError: no top
    decides that pair, and no caller asks for one."""
    if N.dim != k * B.dim:
        return False
    if N.dim == 0:
        return True
    if N.left_algebra is not B.left_algebra or N.right_algebra is not B.right_algebra:
        raise BimoduleError("iso test needs a common algebra pair")
    if not read_off(B):
        raise ValueError(f"iso test of {N!r} vs {B!r}: neither is projective or regular")
    rad = radical_echelon(N)
    idems = B.left_algebra.idempotents
    if N.dim - rad.dim != (k * len(idems) if B.regular else k):
        return False
    if B.generator is not None:
        # e_s.m.e_t for each basis vector m (of the degree), until the top is reached
        s, t = B.generator
        for q, col in enumerate(N.right_gens[t]):
            if degree is not None and N.degrees[q] != degree:
                continue
            if rad.insert(linalg.sp_apply(N.left_gens[s], col)) and rad.dim == N.dim:
                return True
        return False
    centre = centralizer(N)
    if degree is not None:
        centre = [{i: v for i, v in n.items() if N.degrees[i] == degree} for n in centre]
        centre = [n for n in centre if n]
    lefts = N.left_gens[: len(idems)]
    for _ in range(k):
        for t in range(len(idems) * (len(centre) - 1) + 1):
            point, power = {}, 1
            for j in range(len(centre)):  # products, as `**` is linted out
                point[j], power = power, power * t
            n = linalg.sp_apply(centre, point)
            tops = [linalg.sp_apply(e, n) for e in lefts]
            if not any(rad.contains(v) for v in tops):
                break
        else:
            return False
        rad.extend(tops)
    return True


# -- Loewy structure of bimodules ------------------------------------------


def _arrow_actions(M: Bimodule) -> list:
    """The actions on M of the arrows of both algebras, their generators
    after the idempotents.  Their images span rad X = rad(A).X + X.rad(B)
    for every sub-bimodule X of M: the arrows span a complement V of rad^2
    in rad, and rad^j.X lies in V.X + rad^(j+1).X, so rad(A).X = V.X."""
    A, B = M.left_algebra, M.right_algebra
    return [*M.left_gens[len(A.idempotents):], *M.right_gens[len(B.idempotents):]]


def radical_echelon(M: Bimodule) -> SparseEchelon:
    """An echelon of rad M, the radical over the enveloping algebra: the
    columns of the arrow actions."""
    ech = SparseEchelon(M.dim)
    for mat in _arrow_actions(M):
        ech.extend(mat)
    return ech


def loewy_length(M: Bimodule) -> int:
    """Smallest k with rad^k M = 0 over the enveloping algebra."""
    mats = _arrow_actions(M)
    current = [{i: 1} for i in range(M.dim)]
    k = 0
    while current:
        k += 1
        ech = SparseEchelon(M.dim)
        for mat in mats:
            for v in current:
                ech.insert(linalg.sp_apply(mat, v))
        current = list(ech.rows.values())
    return k


def socle(M: Bimodule) -> Subspace:
    """Joint annihilator of both radicals inside the bimodule: of the arrows,
    as the elements of rad(A) killing a vector form a left ideal, which is
    all of rad(A) once it holds the arrows (and likewise on the right)."""
    mats = _arrow_actions(M)
    eqs = []
    for mat in mats:
        rows = linalg.sp_rows(mat, M.dim)
        eqs.extend(r for r in rows if r)
    if not eqs:
        return Subspace.full(M.dim)
    return Subspace.from_vectors(linalg.nullspace(eqs, M.dim), M.dim)


# -- the center through projective bimodules -------------------------------


def projective_center(A: alg.FinDimAlgebra) -> Subspace:
    """Subalgebra of the center spanned by 1 and the endomorphisms of the
    regular bimodule A that factor through a projective bimodule.

    A bimodule map A -> A (x) A is fixed by the image of 1, any X in the
    centraliser (A (x) A)^A; a map A (x) A -> A by the image g of 1 (x) 1,
    any g in A: it is x (x) y -> x.g.y.  The composite is multiplication by
    sum X[p, q] b_p g b_q.  Every projective bimodule is a summand of some
    (A (x) A)^k, so every map that factors through one is a sum of these
    composites.  They form an ideal of Z(A) (z times the composite through
    X is the one through z.X), so with 1 they span a subalgebra as they are.
    X runs over the intertwiners of the pairs (R_g^T, L_g) of the
    generators: g.X and X.g have the coefficient matrices L_g X and X R_g^T.
    Computed on the first call; later calls return that subspace."""
    return alg.kept(A, ("projective_center",), lambda: _projective_center(A))


def centralizer(N: Bimodule) -> list:
    """A sparse basis of {n in N : a.n = n.a for every a} for an
    (A, A)-bimodule N: the images of 1 under the bimodule maps A -> N."""
    eqs = []
    for lg, rg in zip(N.left_gens, N.right_gens):
        commutator = linalg.sp_lincomb((1, -1), (lg, rg))
        eqs.extend(r for r in linalg.sp_rows(commutator, N.dim) if r)
    return [linalg.sparse(n) for n in linalg.nullspace(eqs, N.dim)]


def _projective_center(A: alg.FinDimAlgebra) -> Subspace:
    d = A.dim
    pairs = [
        (linalg.sp_rows(A.right_mult_matrix(g), d), A.left_mult_matrix(g))
        for g in alg.algebra_generators(A)
    ]
    rights = [A.right_mult_matrix({q: 1}) for q in range(d)]
    through = [A.unit]
    one = A.unit_index
    for X in intertwiners(pairs, d, d):
        # column q of X is sum_p X[p, q] b_p, so its term is g -> x_q.g.b_q;
        # L_1 and R_1 are the identity (the unit law), so where x_q or b_q
        # is the unit the term is the other factor
        terms = [
            rights[q] if x == A.unit
            else A.left_mult_matrix(x) if q == one
            else linalg.sp_compose(A.left_mult_matrix(x), rights[q])
            for q, x in enumerate(X)
            if x
        ]
        through.extend(linalg.sp_lincomb([1] * len(terms), terms))
    sub = Subspace.from_vectors(through, d)
    if not alg.center(A).contains_subspace(sub):
        raise DataInconsistencyError("through-maps left the center")
    return sub


# -- the 2-category built from weakly symmetric algebras -------------------


@dataclass
class CcxData:
    """Input to the construction: basic connected weakly symmetric algebras,
    one per object, with optional central subalgebras X_i (default: the full
    center; must contain the projective-center and be unital subalgebras)."""

    algebras: tuple
    x_subalgebras: tuple = None
    name: str = "ccx"

    def __post_init__(self):
        self.algebras = tuple(self.algebras)
        if self.x_subalgebras is None:
            self.x_subalgebras = (None,) * len(self.algebras)
        self.x_subalgebras = tuple(self.x_subalgebras)
        if len(self.x_subalgebras) != len(self.algebras):
            raise BimoduleError("one X subalgebra per object required")


@dataclass
class CellRepData:
    """Decategorified cell representation: integer action matrices of every
    1-morphism on the basis of simple classes, for a chosen left cell."""

    left_cell: tuple
    simple_labels: tuple
    actions: dict

    def __post_init__(self):
        n = len(self.simple_labels)
        for name, mat in self.actions.items():
            for row in mat:
                if len(row) != n or any((not isinstance(x, int)) or x < 0 for x in row):
                    raise DataInconsistencyError(
                        f"action of {name} is not a nonnegative integer matrix"
                    )


@dataclass
class CcxBuild:
    data: CcxData
    ms: MultiSemigroup
    cellrep: CellRepData
    x_spaces: tuple
    morphism_info: dict
    _bimodules: dict = field(default_factory=dict)
    gradings: tuple = None  # per-object validated graded algebras (graded layer)
    shifts: dict = None  # per-morphism grading shifts (graded layer)

    def algebra_at(self, i: int) -> alg.FinDimAlgebra:
        return self.data.algebras[i]

    def bimodule(self, name: str) -> Bimodule:
        if name not in self._bimodules:
            info = self.morphism_info[name]
            graded = self.gradings is not None
            if info[0] == "I":
                _, i = info
                deg = self.gradings[i].degrees if graded else None
                bim = regular_bimodule(self.algebra_at(i), degrees=deg, name=name)
            else:
                _, i, j, s, t = info
                A, B = self.algebra_at(i), self.algebra_at(j)
                bim = proj_bimodule(
                    A,
                    s,
                    B,
                    t,
                    deg_a=self.gradings[i].degrees if graded else None,
                    deg_b=self.gradings[j].degrees if graded else None,
                    name=name,
                )
            if graded and self.shifts:
                shift = self.shifts.get(name, 0)
                if shift:
                    bim = bim.shifted(shift)
            self._bimodules[name] = bim
        return self._bimodules[name]

    def info(self, name: str):
        return self.morphism_info[name]


def build_ccx(data: CcxData) -> CcxBuild:
    """Construct the multisemigroup and decategorified cell representation.

    Composition multiplicities follow the closed form dim(e_t A_j e_u); the
    star sends F^{(i,j)}_{st} to F^{(j,i)}_{ts}.
    """
    n = len(data.algebras)
    if n == 0 or n > 9:
        raise BimoduleError("between 1 and 9 algebras supported")
    problems = []
    x_spaces = []
    for i, A in enumerate(data.algebras):
        label = A.name or f"algebra {i + 1}"
        if len(A.idempotents) > 9:
            raise BimoduleError("at most 9 idempotents per algebra supported")
        try:
            alg.validate(A)
        except alg.AlgebraValidationError as exc:
            problems.append(f"{label}: {exc}")
            x_spaces.append(None)
            continue
        if not alg.is_weakly_symmetric(A):
            problems.append(f"{label}: not weakly symmetric")
        if not alg.is_connected(A):
            problems.append(f"{label}: not connected")
        centre = alg.center(A)
        zprime = projective_center(A)
        x = data.x_subalgebras[i]
        if x is None:
            x = centre
        if not centre.contains_subspace(x):
            problems.append(f"{label}: X is not contained in the center")
        if not x.contains_subspace(zprime):
            problems.append(f"{label}: X does not contain the projective center")
        closed = alg.subalgebra_closure(A, list(x.rows))
        if closed != x:
            problems.append(f"{label}: X is not a unital subalgebra")
        x_spaces.append(x)
    if problems:
        raise BimoduleError("; ".join(problems))

    objects = [str(i + 1) for i in range(n)]
    morphisms = []
    info = {}
    for i in range(n):
        name = f"I{i + 1}"
        morphisms.append(OneMorphism(name, objects[i], objects[i], is_identity=True))
        info[name] = ("I", i)
    for i in range(n):
        for j in range(n):
            for s in range(len(data.algebras[i].idempotents)):
                for t in range(len(data.algebras[j].idempotents)):
                    name = f"F{i + 1}{j + 1}_{s + 1}{t + 1}"
                    # tensoring with A_i e_s (x) e_t A_j maps rep(j) to rep(i)
                    morphisms.append(OneMorphism(name, objects[j], objects[i]))
                    info[name] = ("F", i, j, s, t)

    corner_dims = {}
    for j in range(n):
        A = data.algebras[j]
        k = len(A.idempotents)
        corner_dims[j] = [[alg.corner_dim(A, t, u) for u in range(k)] for t in range(k)]

    table = {}
    star = {}
    for m in morphisms:
        if m.is_identity:
            star[m.name] = m.name
        else:
            _, i, j, s, t = info[m.name]
            star[m.name] = f"F{j + 1}{i + 1}_{t + 1}{s + 1}"
    for f in morphisms:
        for g in morphisms:
            if f.src != g.tgt:
                continue
            if f.is_identity and g.is_identity:
                table[(f.name, g.name)] = {f.name: 1}
            elif f.is_identity:
                table[(f.name, g.name)] = {g.name: 1}
            elif g.is_identity:
                table[(f.name, g.name)] = {f.name: 1}
            else:
                _, i, j, s, t = info[f.name]
                _, j2, k, u, v = info[g.name]
                mult = corner_dims[j][t][u]
                target = f"F{i + 1}{k + 1}_{s + 1}{v + 1}"
                table[(f.name, g.name)] = {target: mult} if mult else {}

    ms = MultiSemigroup(objects, morphisms, table, star)
    if not identity_products_clean(ms):
        raise DataInconsistencyError("an identity appeared in a non-identity product")
    struct = cells(ms)
    non_identity = [c for c in struct.two_sided_cells if len(c) > 1 or not ms.morphisms[c[0]].is_identity]
    for cell in non_identity:
        if not is_strongly_regular(ms, cell):
            raise DataInconsistencyError(f"cell {cell!r} is not strongly regular")

    cellrep = _build_cellrep(data, info, corner_dims, morphisms)
    return CcxBuild(
        data=data,
        ms=ms,
        cellrep=cellrep,
        x_spaces=tuple(x_spaces),
        morphism_info=info,
    )


def _build_cellrep(data: CcxData, info, corner_dims, morphisms) -> CellRepData:
    """Action matrices on simple classes for the left cell of F^{(i,1)}_{s,1}."""
    n = len(data.algebras)
    simple_index = {}
    simple_labels = []
    for i in range(n):
        for u in range(len(data.algebras[i].idempotents)):
            simple_index[(i, u)] = len(simple_labels)
            simple_labels.append(f"L{i + 1}.{u + 1}")
    total = len(simple_labels)
    left_cell = tuple(
        sorted(
            name
            for name, inf in info.items()
            if inf[0] == "F" and inf[2] == 0 and inf[4] == 0
        )
    )
    actions = {}
    for m in morphisms:
        mat = [[0] * total for _ in range(total)]
        if m.is_identity:
            _, i = info[m.name]
            for u in range(len(data.algebras[i].idempotents)):
                k = simple_index[(i, u)]
                mat[k][k] = 1
        else:
            _, i, j, s, t = info[m.name]
            col = simple_index[(j, t)]
            for w in range(len(data.algebras[i].idempotents)):
                mat[simple_index[(i, w)]][col] = corner_dims[i][w][s]
        actions[m.name] = tuple(tuple(row) for row in mat)
    return CellRepData(
        left_cell=left_cell,
        simple_labels=tuple(simple_labels),
        actions=actions,
    )


def commutant_dimension(rep: CellRepData) -> int:
    """Dimension of the joint commutant of all action matrices."""
    n = len(rep.simple_labels)
    cols = [
        tuple({r: mat[r][q] for r in range(n) if mat[r][q]} for q in range(n))
        for mat in rep.actions.values()
    ]
    return intertwiner_dim([(m, m) for m in cols], n, n)


# -- verification suites ----------------------------------------------------


def verify_closed_form_composition(build: CcxBuild, seed: int = 0) -> list:
    """Check every composable pair: the honest tensor product is isomorphic
    to the table's closed-form multiple dim(e_t A e_u) of the predicted
    projective bimodule.  seed is accepted and ignored, for callers that
    still pass one."""
    records = []
    ms = build.ms
    for f, g in sorted(ms.table):
        expected = ms.table[(f, g)]
        T = tensor_over(build.bimodule(f), build.bimodule(g))
        values = {"pair": f"{f} o {g}"}
        if not expected:
            ok = T.dim == 0
            values.update({"closed_form": "0", "tensor_dim": T.dim})
        else:
            ((h, k),) = expected.items()
            base = build.bimodule(h)
            values.update(
                {
                    "closed_form": f"{k}*{h}",
                    "closed_form_dim": k * base.dim,
                    "tensor_dim": T.dim,
                }
            )
            ok = iso_to_direct_power(T, base, k)
            values["isomorphic"] = ok
        records.append(
            CheckRecord(
                name=f"closed_form[{f} o {g}]",
                anchor="composition-closed-form",
                values=values,
                passed=ok,
            )
        )
    return records


def verify_dimension_identities(build: CcxBuild) -> list:
    """For H, K in a left cell of the non-identity cell: the 2-morphism space
    dimension factors as dim Hom(P_H, P_K) * dim End(P_G), and the adjoint
    composites K* o H = b G and H o K* = a F carry b = dim Hom(P_H, P_K),
    a = dim End(P_G).  (Here G is the Duflo involution of H and K's own left
    cell; the multiplicity function is read with that normalization.)"""
    ms = build.ms
    cell = build.cellrep.left_cell
    g_name = duflo(ms, cell)
    _, gi, gj, gs, gt = build.info(g_name)
    end_pg = alg.corner_dim(build.algebra_at(gi), gs, gs)
    records = []
    for h in cell:
        _, hi, hj, hs, ht = build.info(h)
        for k in cell:
            _, ki, kj, ks, kt = build.info(k)
            if hi != ki:
                continue  # the 2-morphism space is empty across objects
            A = build.algebra_at(hi)
            hom = hom_dim(build.bimodule(h), build.bimodule(k))
            hom_proj = alg.corner_dim(A, hs, ks)
            b_mult = ms.compose(ms.star[k], h).get(g_name, 0)
            hk_star = ms.compose(h, ms.star[k])
            a_mult = next(iter(hk_star.values()), 0)
            ok = (
                hom == hom_proj * end_pg
                and b_mult == hom_proj
                and a_mult == end_pg
            )
            records.append(
                CheckRecord(
                    name=f"dimension_identity[{h},{k}]",
                    anchor="hom-dimension-product-law",
                    values={
                        "dim_hom": hom,
                        "dim_hom_projectives": hom_proj,
                        "dim_end_duflo": end_pg,
                        "b_multiplicity": b_mult,
                        "a_multiplicity": a_mult,
                    },
                    passed=ok,
                )
            )
    return records


def verify_duflo_hom_dimension(build: CcxBuild) -> list:
    """dim Hom(G, identity) = dim End(P_G) for every Duflo involution
    G = F^{(i,i)}_{ss}, computed by the generic hom-space solver."""
    records = []
    for i, A in enumerate(build.data.algebras):
        for s in range(len(A.idempotents)):
            g = f"F{i + 1}{i + 1}_{s + 1}{s + 1}"
            hom = hom_dim(build.bimodule(g), build.bimodule(f"I{i + 1}"))
            corner = alg.corner_dim(A, s, s)
            records.append(
                CheckRecord(
                    name=f"duflo_hom_dimension[{g}]",
                    anchor="duflo-hom-equals-corner",
                    values={"dim_hom_to_identity": hom, "dim_end_projective": corner},
                    passed=hom == corner,
                )
            )
    return records


def verify_center_surjectivity(build: CcxBuild, expect_surjective: bool) -> list:
    """Does X_i, acting by central multiplication, surject onto End(P_G) for
    the Duflo involution of the default cell?  Reports both dimensions, and
    the record asserts the expectation (predicted negatives are
    counterexample fixtures, not regressions)."""
    ms = build.ms
    g_name = duflo(ms, build.cellrep.left_cell)
    _, gi, _, gs, _ = build.info(g_name)
    A = build.algebra_at(gi)
    e = A.idempotents[gs]
    left, right = A.left_mult_matrix(e), A.right_mult_matrix(e)
    image = Subspace.from_vectors(
        [linalg.sp_apply(left, linalg.sp_apply(right, z)) for z in build.x_spaces[gi]], A.dim
    )
    corner = alg.corner_dim(A, gs, gs)
    surjective = image.dim == corner
    values = {
        "object": gi + 1,
        "dim_image": image.dim,
        "dim_end_projective": corner,
        "surjective": surjective,
    }
    return [
        CheckRecord(
            name=f"center_surjectivity[{g_name}]",
            anchor="center-action-on-duflo-projective",
            values=values,
            passed=surjective == expect_surjective,
            negative=not expect_surjective,
        )
    ]


def verify_center_separation(build: CcxBuild) -> list:
    """For every object, primitive idempotent e and nonzero z in a basis of
    e rad(Z) e: the tensors e (x) z and z (x) e are linearly independent in
    (A e)(x)(e A), so central multiplication on the two sides differs.  They
    are read in A (x) A, into which (A e)(x)(e A) injects, with u (x) v at
    the coordinates p * dim A + q."""
    records = []
    for i, A in enumerate(build.data.algebras):
        d = A.dim
        centre = alg.center(A)
        rad = alg.radical(A)
        rad_centre = centre.intersect(rad)
        for s, e in enumerate(A.idempotents):
            left, right = A.left_mult_matrix(e), A.right_mult_matrix(e)
            corner_rad = Subspace.from_vectors(
                [linalg.sp_apply(left, linalg.sp_apply(right, z)) for z in rad_centre], d
            )
            if corner_rad.dim == 0:
                records.append(
                    CheckRecord(
                        name=f"center_separation[object {i + 1},e{s + 1}]",
                        anchor="central-radical-separation",
                        values={"central_radical_dim": 0, "note": "vacuous"},
                        passed=True,
                    )
                )
                continue
            for z in corner_rad:
                tensors = [
                    {p * d + q: a * b for p, a in u.items() for q, b in v.items()}
                    for u, v in ((e, z), (z, e))
                ]
                independent = linalg.rank(tensors, d * d) == 2
                records.append(
                    CheckRecord(
                        name=f"center_separation[object {i + 1},e{s + 1},z={A.describe(z)}]",
                        anchor="central-radical-separation",
                        values={
                            "element": A.describe(z),
                            "independent": independent,
                        },
                        passed=independent,
                    )
                )
    return records


def verify_commutant(build: CcxBuild) -> list:
    """Decategorified Schur check: the joint commutant of the cell
    representation's action matrices is one-dimensional."""
    dim = commutant_dimension(build.cellrep)
    return [
        CheckRecord(
            name="commutant_dimension",
            anchor="decategorified-schur",
            values={"dim": dim},
            passed=dim == 1,
        )
    ]
