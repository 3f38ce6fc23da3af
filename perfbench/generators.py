"""Parametric `.alg` generators for the benchmark ladders, with each rung's
expected answers derived from the family formulas.

Two families, each optionally graded:

* k[x]/(x^n): basis 1, x, x2, ..., x{n-1}; graded with deg x = 2 so that
  every corner top degree 2(n-1) is even and the representative shift
  n-1 exists.
* the zigzag algebra of the path A_m (m >= 2 vertices): idempotents e1..em,
  arrows a_i: i -> i+1 and b_i: i+1 -> i, loops w_i = b_i a_i = a_{i-1} b_{i-1}
  at every vertex, all paths of length three zero; graded with arrows in
  degree 1 and loops in degree 2.

The text lists products in the `x*y = z` form of `fiatcells.formats`; a
seed permutes the order of the `basis` line (and nothing else), so the
program sees the same algebra in shuffled coordinates.
"""

from __future__ import annotations

import random


def _render(name, labels, unit, idempotents, products, degrees, perm_seed):
    order = list(labels)
    if perm_seed is not None:
        random.Random(perm_seed).shuffle(order)
    lines = [f"algebra {name}", "basis " + " ".join(order), f"unit = {unit}"]
    lines += [f"idempotent {e}" for e in idempotents]
    lines += [f"{x}*{y} = {z}" for x, y, z in products]
    if degrees is not None:
        lines += [f"deg {lab} = {d}" for lab, d in degrees.items() if d]
    return "\n".join(lines) + "\n"


def _power(k: int) -> str:
    return {0: "1", 1: "x"}.get(k, f"x{k}")


def truncated_poly(n: int, graded: bool = False, perm_seed=None) -> str:
    """`.alg` text of k[x]/(x^n), n >= 1 (deg x = 2 when graded)."""
    labels = [_power(k) for k in range(n)]
    products = [
        (_power(i), _power(j), _power(i + j))
        for i in range(n)
        for j in range(n)
        if i + j < n
    ]
    degrees = {_power(k): 2 * k for k in range(n)} if graded else None
    name = f"x{n}local" + ("-graded" if graded else "")
    return _render(name, labels, "1", ["1"], products, degrees, perm_seed)


def zigzag(m: int, graded: bool = False, perm_seed=None) -> str:
    """`.alg` text of the zigzag algebra of A_m, m >= 2 (arrows in degree 1
    when graded)."""
    if m < 2:
        raise ValueError("the zigzag family starts at m = 2")
    es = [f"e{i}" for i in range(1, m + 1)]
    a = [f"a{i}" for i in range(1, m)]  # a_i = e_{i+1} a_i e_i
    b = [f"b{i}" for i in range(1, m)]  # b_i = e_i b_i e_{i+1}
    w = [f"w{i}" for i in range(1, m + 1)]
    labels = es + a + b + w
    products = [(e, e, e) for e in es]
    for i in range(m - 1):
        src, tgt = es[i], es[i + 1]
        products += [(tgt, a[i], a[i]), (a[i], src, a[i])]
        products += [(src, b[i], b[i]), (b[i], tgt, b[i])]
    for i in range(m):
        products += [(es[i], w[i], w[i]), (w[i], es[i], w[i])]
    for i in range(m - 1):
        products += [(b[i], a[i], w[i]), (a[i], b[i], w[i + 1])]
    degrees = None
    if graded:
        degrees = {lab: 0 for lab in es}
        degrees.update({lab: 1 for lab in a + b})
        degrees.update({lab: 2 for lab in w})
    name = f"zigzagA{m}" + ("-graded" if graded else "")
    return _render(name, labels, " + ".join(es), es, products, degrees, perm_seed)


def expected_truncated_poly(n: int, graded: bool = False) -> dict:
    """Invariants of k[x]/(x^n), n >= 2, from the family formulas.

    Local and symmetric: centre = A, radical (x), Loewy length n, simple
    socle x^{n-1}; the projective centre is 1 plus the Higman ideal
    (x^{n-1}); the tensor square A (x) A has Loewy length 2n - 1; the Duflo
    multiplicity is dim eAe = n.
    """
    out = dict(
        dim=n, radical_dim=n - 1, center_dim=n, projective_center_dim=2,
        loewy=n, bimodule_loewy=2 * n - 1, weakly_symmetric=True,
        connected=True, socle_dim=1, left_cells_in_middle=1, m_duflo=n,
        center_surjective=True,
    )
    if graded:
        # top corner degree 2(n-1); shift and minimal hom degree are half of it
        out.update(
            shifts={"F11_11": n - 1}, min_hom_degree=n - 1,
            top_corner_degree=2 * (n - 1),
        )
    return out


def expected_zigzag(m: int, graded: bool = False) -> dict:
    """Invariants of the zigzag algebra of A_m, m >= 2, from the family
    formulas.

    dim 4m - 2 (m idempotents, 2(m-1) arrows, m loops); the radical drops
    the idempotents; the centre and the projective centre are spanned by 1
    and the loops; the socle is spanned by the loops; every corner e A e is
    span(e, w), so the Duflo multiplicity is 2 and the corner top degree is
    2; there are m left cells in the middle cell, one per column idempotent.
    """
    out = dict(
        dim=4 * m - 2, radical_dim=3 * m - 2, center_dim=m + 1,
        projective_center_dim=m + 1, loewy=3, bimodule_loewy=5,
        weakly_symmetric=True, connected=True, socle_dim=m,
        left_cells_in_middle=m, m_duflo=2, center_surjective=True,
    )
    if graded:
        out.update(
            shifts={f"F11_{s}{t}": 1 for s in range(1, m + 1) for t in range(1, m + 1)},
            min_hom_degree=1,
            top_corner_degree=2,
        )
    return out


def expected_suite_counts(family: str, size: int) -> dict:
    """Records each ccx suite emits on one rung (one object, k idempotents).

    closed form: every composable pair among 1 + k^2 morphisms; dimension
    identities: pairs in the default left cell (k members); Duflo hom: one
    per idempotent; surjectivity and commutant: one each; separation: one
    per basis element of e rad(Z) e, i.e. x^1..x^{n-1} for k[x]/(x^n) and
    the loop w_s at each vertex of a zigzag algebra.
    """
    k = 1 if family == "poly" else size
    separation = size - 1 if family == "poly" else size
    return {
        "composition-closed-form": (1 + k * k) ** 2,
        "hom-dimension-product-law": k * k,
        "duflo-hom-equals-corner": k,
        "center-action-on-duflo-projective": 1,
        "central-radical-separation": separation,
        "decategorified-schur": 1,
    }
