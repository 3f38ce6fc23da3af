"""Bundled fixtures: the small Coxeter groups and the weakly symmetric
algebras exercised by the verification suites, with their frozen expected
values (computed independently: cell data against the Robinson-Schensted
oracle, dimension counts against hand calculations on the monomial bases).
"""

from __future__ import annotations

from importlib import resources

from . import bimod, graded
from .coxeter import coxeter_group
from .formats import parse_algebra
from .hecke import export_multisemigroup

HECKE_FIXTURES = {"s2": "A1", "s3": "A2", "s4": "A3", "b2": "B2"}

ALGEBRA_FILES = {
    "rationals": "rationals.alg",
    "dualnumbers": "dualnumbers.alg",
    "x3local": "x3local.alg",
    "x4local": "x4local.alg",
    "skewext": "skewext.alg",
    "zigzagA2": "zigzagA2.alg",
    "zigzagA2-graded": "zigzagA2_graded.alg",
}

# frozen expectations; dimension counts verified by hand on the monomial bases
EXPECTED = {
    "rationals": dict(
        dim=1, radical_dim=0, center_dim=1, projective_center_dim=1,
        loewy=1, bimodule_loewy=1, weakly_symmetric=True, connected=True,
        socle_dim=1, left_cells_in_middle=1, m_duflo=1, center_surjective=True,
    ),
    "dualnumbers": dict(
        dim=2, radical_dim=1, center_dim=2, projective_center_dim=2,
        loewy=2, bimodule_loewy=3, weakly_symmetric=True, connected=True,
        socle_dim=1, left_cells_in_middle=1, m_duflo=2, center_surjective=True,
        shifts={"F11_11": 1}, min_hom_degree=1, top_corner_degree=2,
    ),
    "x3local": dict(
        dim=3, radical_dim=2, center_dim=3, projective_center_dim=2,
        loewy=3, bimodule_loewy=5, weakly_symmetric=True, connected=True,
        socle_dim=1, left_cells_in_middle=1, m_duflo=3, center_surjective=True,
    ),
    "x4local": dict(
        dim=4, radical_dim=3, center_dim=4, projective_center_dim=2,
        loewy=4, bimodule_loewy=7, weakly_symmetric=True, connected=True,
        socle_dim=1, left_cells_in_middle=1, m_duflo=4, center_surjective=True,
    ),
    "skewext": dict(
        dim=4, radical_dim=3, center_dim=2, projective_center_dim=1,
        loewy=3, bimodule_loewy=5, weakly_symmetric=True, connected=True,
        socle_dim=1, left_cells_in_middle=1, m_duflo=4, center_surjective=False,
    ),
    "zigzagA2": dict(
        dim=6, radical_dim=4, center_dim=3, projective_center_dim=3,
        loewy=3, bimodule_loewy=5, weakly_symmetric=True, connected=True,
        socle_dim=2, left_cells_in_middle=2, m_duflo=2, center_surjective=True,
    ),
}
EXPECTED["zigzagA2-graded"] = dict(
    EXPECTED["zigzagA2"],
    shifts={"F11_11": 1, "F11_12": 1, "F11_21": 1, "F11_22": 1},
    min_hom_degree=1,
    top_corner_degree=2,
)

GRADED_FIXTURES = ("dualnumbers", "zigzagA2-graded")

# fixtures exercised by the property suite over the construction
PROPERTY_FIXTURES = (
    "rationals",
    "dualnumbers",
    "x3local",
    "x4local",
    "skewext",
    "zigzagA2",
)

ALL_FIXTURES = tuple(HECKE_FIXTURES) + tuple(ALGEBRA_FILES)


def fixture_text(filename: str) -> str:
    return resources.files("fiatcells.data").joinpath(filename).read_text()


_cache: dict = {}


def load_algebra(name: str):
    """AlgebraSpec of a bundled algebra fixture."""
    if name not in ALGEBRA_FILES:
        raise KeyError(f"unknown algebra fixture {name!r}")
    key = ("alg", name)
    if key not in _cache:
        _cache[key] = parse_algebra(fixture_text(ALGEBRA_FILES[name]), ALGEBRA_FILES[name])
    return _cache[key]


def hecke_multisemigroup(name: str):
    if name not in HECKE_FIXTURES:
        raise KeyError(f"unknown Coxeter fixture {name!r}")
    key = ("hecke", name)
    if key not in _cache:
        _cache[key] = export_multisemigroup(coxeter_group(HECKE_FIXTURES[name]))
    return _cache[key]


def ccx_build(name: str):
    """CcxBuild of a bundled algebra fixture (X defaults to the center)."""
    spec = load_algebra(name)
    key = ("ccx", name)
    if key not in _cache:
        _cache[key] = bimod.build_ccx(bimod.CcxData(algebras=(spec.algebra,), name=name))
    return _cache[key]


def graded_ccx_build(name: str):
    """Graded CcxBuild; the fixture must carry a grading."""
    spec = load_algebra(name)
    if spec.degrees is None:
        raise KeyError(f"fixture {name!r} carries no grading")
    key = ("gccx", name)
    if key not in _cache:
        ga = graded.GradedAlgebra(spec.algebra, spec.degrees)
        _cache[key] = graded.build_graded_ccx([ga], name=name)
    return _cache[key]


def is_graded(name: str) -> bool:
    return name in ALGEBRA_FILES and load_algebra(name).degrees is not None
