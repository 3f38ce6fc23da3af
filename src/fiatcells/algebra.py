"""Basic finite-dimensional associative algebras over Q, given by structure
constants with a designated complete set of primitive orthogonal idempotents.

All computations are exact.  The Jacobson radical is obtained from the
characteristic-zero trace-form criterion and then verified to be a nilpotent
two-sided ideal with semisimple quotient.  Splitness (every e_iAe_i/rad
isomorphic to Q) is part of full validation; non-split input is rejected.

An algebra is immutable once built, so its radical and its generating set
are computed once and kept on the instance.
"""

from __future__ import annotations

from . import linalg
from .linalg import Subspace, Vec


class AlgebraError(ValueError):
    pass


class AlgebraValidationError(AlgebraError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FinDimAlgebra:
    def __init__(self, basis, mult, unit, idempotents, name: str = ""):
        """mult[i][j] is the coefficient vector of basis[i] * basis[j]."""
        self.basis = tuple(basis)
        self.name = name
        d = len(self.basis)
        self.mult = tuple(tuple(linalg.vec(mult[i][j]) for j in range(d)) for i in range(d))
        self.unit = linalg.vec(unit)
        self.idempotents = tuple(linalg.vec(e) for e in idempotents)
        if len(set(self.basis)) != d:
            raise AlgebraError("duplicate basis labels")
        self._radical: Subspace | None = None
        self._generators: tuple | None = None
        self._projective_center: Subspace | None = None  # kept by bimod.projective_center

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        label = self.name or ",".join(self.basis)
        return f"FinDimAlgebra({label}, dim={self.dim})"

    def mul(self, u: Vec, v: Vec) -> Vec:
        out = [0] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                c = ci * cj
                for r, s in enumerate(self.mult[i][j]):
                    if s:
                        out[r] += c * s
        return tuple(out)

    def left_mult_matrix(self, v: Vec):
        """Matrix of x -> v*x in the algebra basis (rows index coordinates)."""
        cols = [self.mul(v, linalg.unit(self.dim, j)) for j in range(self.dim)]
        return [tuple(col[r] for col in cols) for r in range(self.dim)]

    def right_mult_matrix(self, v: Vec):
        cols = [self.mul(linalg.unit(self.dim, j), v) for j in range(self.dim)]
        return [tuple(col[r] for col in cols) for r in range(self.dim)]

    def element(self, label: str) -> Vec:
        return linalg.unit(self.dim, self.basis.index(label))

    def describe(self, v: Vec) -> str:
        parts = []
        for c, lab in zip(v, self.basis):
            if c == 0:
                continue
            if c == 1:
                parts.append(lab)
            elif c == -1:
                parts.append(f"-{lab}")
            else:
                parts.append(f"{c}*{lab}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# -- validation ----------------------------------------------------------


_MAX_REPORTS = 8  # associativity witnesses collected before validate gives up


def validate(algebra: FinDimAlgebra) -> None:
    """Check all structural laws exhaustively; raise with witnesses if any fail."""
    problems = []
    d = algebra.dim
    basis_vecs = [linalg.unit(d, i) for i in range(d)]

    for i in range(d):
        b = basis_vecs[i]
        if algebra.mul(algebra.unit, b) != b or algebra.mul(b, algebra.unit) != b:
            problems.append(f"unit law fails on {algebra.basis[i]}")

    for i in range(d):
        for j in range(d):
            left = algebra.mult[i][j]
            for k in range(d):
                lhs = algebra.mul(left, basis_vecs[k])
                rhs = algebra.mul(basis_vecs[i], algebra.mult[j][k])
                if lhs != rhs:
                    problems.append(
                        "associativity fails at "
                        f"({algebra.basis[i]}, {algebra.basis[j]}, {algebra.basis[k]})"
                    )
                    if len(problems) >= _MAX_REPORTS:
                        raise AlgebraValidationError(problems)

    total = linalg.zeros(d)
    for a, e in enumerate(algebra.idempotents):
        total = linalg.add(total, e)
        for b, f in enumerate(algebra.idempotents):
            prod = algebra.mul(e, f)
            expected = e if a == b else linalg.zeros(d)
            if prod != expected:
                problems.append(f"idempotents {a + 1}, {b + 1} are not orthogonal idempotents")
    if total != algebra.unit:
        problems.append("idempotents do not sum to the unit")

    if problems:
        raise AlgebraValidationError(problems)

    # ring-theoretic part: local split corners and basicness
    for a in range(len(algebra.idempotents)):
        corner, _ = corner_algebra(algebra, a)
        corner_rad = radical(corner)
        if corner.dim - corner_rad.dim != 1:
            problems.append(
                f"corner {a + 1} is not local with residue field Q "
                f"(dim {corner.dim}, radical dim {corner_rad.dim})"
            )
    rad = radical(algebra)
    for a, e in enumerate(algebra.idempotents):
        p = left_ideal(algebra, e)
        radp = module_radical(algebra, p, rad)
        if p.dim - radp.dim != 1:
            problems.append(f"projective {a + 1} has top of dimension {p.dim - radp.dim}, not basic")
    if problems:
        raise AlgebraValidationError(problems)


# -- radical, center, socle, Loewy ----------------------------------------


def _trace_gram(algebra: FinDimAlgebra):
    """Gram matrix of (x, y) -> tr(L_{xy}) on the basis."""
    d = algebra.dim
    traces = []
    for k in range(d):
        mat = algebra.left_mult_matrix(linalg.unit(d, k))
        traces.append(sum(mat[r][r] for r in range(d)))
    return [
        tuple(
            sum(algebra.mult[i][j][k] * traces[k] for k in range(d))
            for j in range(d)
        )
        for i in range(d)
    ]


def radical(algebra: FinDimAlgebra) -> Subspace:
    """Jacobson radical via the trace form tr(L_x L_y) (characteristic zero),
    verified to be a nilpotent two-sided ideal with semisimple quotient.
    Computed and verified on the first call; later calls return that
    subspace."""
    if algebra._radical is None:
        d = algebra.dim
        rad = Subspace.from_vectors(linalg.nullspace(_trace_gram(algebra), d), d)
        _verify_radical(algebra, rad)
        algebra._radical = rad
    return algebra._radical


def _verify_radical(algebra: FinDimAlgebra, rad: Subspace) -> None:
    d = algebra.dim
    for r in rad:
        for i in range(d):
            b = linalg.unit(d, i)
            if not rad.contains(algebra.mul(b, r)) or not rad.contains(algebra.mul(r, b)):
                raise AlgebraError("computed radical is not a two-sided ideal")
    power = rad
    for _ in range(d + 1):
        if power.dim == 0:
            break
        power = Subspace.from_vectors(
            [algebra.mul(u, v) for u in power for v in rad], d
        )
    else:
        raise AlgebraError("computed radical is not nilpotent")
    quotient = _quotient_algebra(algebra, rad)
    if quotient.dim and linalg.nullspace(_trace_gram(quotient), quotient.dim):
        raise AlgebraError("quotient by the computed radical is not semisimple")


def _quotient_algebra(algebra: FinDimAlgebra, ideal: Subspace) -> FinDimAlgebra:
    """Structure constants of A/I on the complement coordinates of I."""
    d = algebra.dim
    pivots = {next(j for j, x in enumerate(row) if x) for row in ideal}
    free = [j for j in range(d) if j not in pivots]
    if not free:
        return FinDimAlgebra((), (), (), (), name=f"{algebra.name}/I")

    def project(v: Vec):
        res = ideal.reduce(v) if ideal.dim else v
        return tuple(res[j] for j in free)

    n = len(free)
    mult = [
        [
            project(algebra.mul(linalg.unit(d, free[i]), linalg.unit(d, free[j])))
            for j in range(n)
        ]
        for i in range(n)
    ]
    labels = [algebra.basis[j] for j in free]
    return FinDimAlgebra(labels, mult, project(algebra.unit), [], name=f"{algebra.name}/I")


def center(algebra: FinDimAlgebra) -> Subspace:
    """Solution space of xz = zx for every basis element x."""
    d = algebra.dim
    eqs = []
    for i in range(d):
        b = linalg.unit(d, i)
        lm = algebra.left_mult_matrix(b)
        rm = algebra.right_mult_matrix(b)
        for r in range(d):
            eqs.append(tuple(lm[r][c] - rm[r][c] for c in range(d)))
    return Subspace.from_vectors(linalg.nullspace(eqs, d), d)


def left_ideal(algebra: FinDimAlgebra, v: Vec) -> Subspace:
    """The left ideal A*v as a subspace."""
    d = algebra.dim
    return Subspace.from_vectors(
        [algebra.mul(linalg.unit(d, i), v) for i in range(d)], d
    )


def module_radical(algebra: FinDimAlgebra, module: Subspace, rad: Subspace) -> Subspace:
    """rad(A) * M for a left submodule M of the regular module."""
    return Subspace.from_vectors(
        [algebra.mul(r, m) for r in rad for m in module], algebra.dim
    )


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
    rad_mats = [algebra.left_mult_matrix(r) for r in rad]
    basis = list(module)
    # solve for combinations of the module basis killed by every radical element
    for mat in rad_mats:
        images = [linalg.mat_vec(mat, b) for b in basis]
        for r in range(d):
            eqs.append(tuple(img[r] for img in images))
    if not eqs:
        return module
    coeffs = linalg.nullspace(eqs, len(basis))
    vectors = []
    for cs in coeffs:
        v = linalg.zeros(d)
        for c, b in zip(cs, basis):
            if c:
                v = linalg.add(v, linalg.scale(c, b))
        vectors.append(v)
    return Subspace.from_vectors(vectors, d)


def top(algebra: FinDimAlgebra, module: Subspace | None = None, rad: Subspace | None = None) -> Subspace:
    """A canonical complement of rad*M in M, representing M/rad M."""
    rad = radical(algebra) if rad is None else rad
    module = Subspace.full(algebra.dim) if module is None else module
    radm = module_radical(algebra, module, rad)
    ech = linalg.SparseEchelon(algebra.dim)
    ech.extend(radm.rows)
    out = [b for b in module if ech.insert(b)]
    return Subspace.from_vectors(out, algebra.dim)


def is_weakly_symmetric(algebra: FinDimAlgebra) -> bool:
    """Each projective Ae_i has simple socle isomorphic to its top."""
    rad = radical(algebra)
    for i, e in enumerate(algebra.idempotents):
        p = left_ideal(algebra, e)
        soc = socle(algebra, p, rad)
        if soc.dim != 1:
            return False
        (vec_,) = tuple(soc)
        if linalg.is_zero(algebra.mul(e, vec_)):
            return False
    return True


def is_connected(algebra: FinDimAlgebra) -> bool:
    """Connectedness of the graph on idempotents with edges where
    e_i (rad/rad^2) e_j or e_j (rad/rad^2) e_i is nonzero."""
    n = len(algebra.idempotents)
    if n <= 1:
        return True
    rad = radical(algebra)
    rad2 = Subspace.from_vectors(
        [algebra.mul(u, v) for u in rad for v in rad], algebra.dim
    )

    def arrow_count(i: int, j: int) -> int:
        ei, ej = algebra.idempotents[i], algebra.idempotents[j]
        full = Subspace.from_vectors(
            [algebra.mul(ei, algebra.mul(r, ej)) for r in rad], algebra.dim
        )
        inside = Subspace.from_vectors(
            [algebra.mul(ei, algebra.mul(r, ej)) for r in rad2], algebra.dim
        )
        return full.dim - inside.dim

    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and (arrow_count(i, j) or arrow_count(j, i)):
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def corner_subspace(algebra: FinDimAlgebra, i: int, j: int) -> Subspace:
    """The subspace e_i A e_j."""
    d = algebra.dim
    ei, ej = algebra.idempotents[i], algebra.idempotents[j]
    return Subspace.from_vectors(
        [algebra.mul(ei, algebra.mul(linalg.unit(d, k), ej)) for k in range(d)], d
    )


def corner_dim(algebra: FinDimAlgebra, i: int, j: int) -> int:
    return corner_subspace(algebra, i, j).dim


def corner_algebra(algebra: FinDimAlgebra, i: int):
    """The corner e_i A e_i as an algebra, together with its subspace in A."""
    sub = corner_subspace(algebra, i, i)
    basis = list(sub)
    n = len(basis)

    def coords(v: Vec):
        coeffs = _coords_in(sub, v)
        if coeffs is None:
            raise AlgebraError("corner product left the corner subspace")
        return coeffs

    mult = [[coords(algebra.mul(basis[a], basis[b])) for b in range(n)] for a in range(n)]
    unit_coords = coords(algebra.idempotents[i])
    corner = FinDimAlgebra(
        [f"c{k}" for k in range(n)],
        mult,
        unit_coords,
        [unit_coords],
        name=f"{algebra.name}.corner{i + 1}",
    )
    return corner, sub


def _coords_in(sub: Subspace, v: Vec):
    """Coordinates of v in the canonical basis of sub, or None."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in sub.rows]
    coeffs = tuple(v[p] for p in pivots)
    recon = linalg.zeros(sub.ambient)
    for c, row in zip(coeffs, sub.rows):
        if c:
            recon = linalg.add(recon, linalg.scale(c, row))
    return coeffs if recon == tuple(v) else None


def subalgebra_closure(algebra: FinDimAlgebra, generators) -> Subspace:
    """Smallest unital subalgebra containing the generators, as a subspace."""
    current = Subspace.from_vectors([algebra.unit, *generators], algebra.dim)
    while True:
        products = [algebra.mul(u, v) for u in current for v in current]
        bigger = current.sum(Subspace.from_vectors(products, algebra.dim))
        if bigger.dim == current.dim:
            return current
        current = bigger


def algebra_generators(algebra: FinDimAlgebra) -> list:
    """Idempotents plus a complement of rad^2 in rad: a unital generating set,
    as a new list.  The set is computed once per algebra."""
    if algebra._generators is None:
        rad = radical(algebra)
        ech = linalg.SparseEchelon(algebra.dim)
        ech.extend(algebra.mul(u, v) for u in rad for v in rad)
        arrows = [r for r in rad if ech.insert(r)]
        algebra._generators = tuple(algebra.idempotents) + tuple(arrows)
    return list(algebra._generators)
