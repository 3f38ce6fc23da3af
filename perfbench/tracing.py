"""Spans and counters around the program's public functions, for traced runs.

`install` rebinds the program's module attributes (and the methods of a few
classes) to wrappers made here; nothing under `src/` changes, and an
untraced run never imports this module.

A span records a call's wall time.  Its layer is the first part of its
name (`linalg`, `algebra`, `bimod`, `graded`, `hecke`, `coxeter`,
`mscell`, `formats`, and `suite` for the verification suites).  Spans are
aggregated as they close, into:

* `calls[name]`: calls of the wrapped functions;
* `busy[name]`: seconds during which at least one span of that name was open;
* `self_s[layer]`: span time minus the time its child spans cover, summed
  over the layer's spans.

Small helpers called in tight loops (echelon rows, subspace tests, algebra
products, multisemigroup lookups) are marked `inner`: called from their own
layer they are only counted, called from another layer they open a span.
Vector helpers such as `linalg.add` are not wrapped; their time is their
caller's self time, as is Laurent-polynomial arithmetic inside `hecke`.
Work the tracer itself does after a call (scanning a returned basis for
coefficient sizes) is charged to layer `trace`, not to the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [layer, seconds covered by child spans]
        self.depth: Counter = Counter()  # span name -> spans of that name open
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.homs_in_iso = 0  # hom spaces solved inside the open iso span

    def wrap(self, name: str, fn, on_exit=None, inner: bool = False, on_enter=None):
        layer = name.split(".", 1)[0]
        stack, depth, calls = self.stack, self.depth, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if inner and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    self._observe(on_exit, args, kwargs, result)
                return result
            if on_enter is not None:
                on_enter(self)
            frame = [layer, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                if not depth[name]:
                    self.busy[name] += elapsed
            if on_exit is not None:
                self._observe(on_exit, args, kwargs, result)
            return result

        return traced

    def _observe(self, on_exit, args, kwargs, result) -> None:
        start = time.perf_counter()
        on_exit(self, args, kwargs, result)
        elapsed = time.perf_counter() - start
        if self.stack:
            self.stack[-1][1] += elapsed
        self.self_s["trace"] += elapsed

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def metrics(self) -> dict:
        """Every per-layer metric of the benchmark, by name."""
        c, calls, busy, own = self.counts, self.calls, self.busy, self.self_s
        inserts = c["linalg.echelon.inserts"]
        return {
            "linalg.self_s": own["linalg"],
            "linalg.echelon.inserts": inserts,
            "linalg.echelon.inserts_grew": c["linalg.echelon.inserts_grew"],
            "linalg.echelon.useful_ratio": (
                c["linalg.echelon.inserts_grew"] / inserts if inserts else 0.0
            ),
            "linalg.nullspace.calls": calls["linalg.nullspace"],
            "linalg.nullspace.unknowns": c["linalg.nullspace.unknowns"],
            "linalg.nullspace.max_unknowns": self.maxima["linalg.nullspace.unknowns"],
            "linalg.rank.calls": calls["linalg.rank"],
            "linalg.max_coeff_bits": self.maxima["linalg.coeff_bits"],
            "algebra.self_s": own["algebra"],
            "algebra.radical.calls": calls["algebra.radical"],
            "algebra.radical.s": busy["algebra.radical"],
            "algebra.validate.s": busy["algebra.validate"],
            "algebra.center.s": busy["algebra.center"],
            "bimod.self_s": own["bimod"],
            "bimod.tensor.calls": calls["bimod.tensor"],
            "bimod.tensor.s": busy["bimod.tensor"],
            "bimod.tensor.ambient": c["bimod.tensor.ambient"],
            "bimod.hom.calls": calls["bimod.hom"],
            "bimod.hom.s": busy["bimod.hom"],
            "bimod.hom.unknowns": c["bimod.hom.unknowns"],
            "bimod.hom.max_unknowns": self.maxima["bimod.hom.unknowns"],
            "bimod.hom.nullity": c["bimod.hom.nullity"],
            "bimod.iso.calls": calls["bimod.iso"],
            "bimod.iso.s": busy["bimod.iso"],
            "bimod.iso.attempts": c["bimod.iso.attempts"],
            "bimod.iso.fallbacks": c["bimod.iso.fallbacks"],
            "bimod.projective_center.s": busy["bimod.projective_center"],
            "bimod.build_ccx.s": busy["bimod.build_ccx"],
            "graded.self_s": own["graded"],
            "graded.star.s": busy["graded.star"],
            "graded.hom_series.calls": calls["graded.hom_series"],
            "graded.hom_series.s": busy["graded.hom_series"],
            "graded.iso.calls": calls["graded.iso"],
            "graded.iso.attempts": c["graded.iso.attempts"],
            "coxeter.group.s": busy["coxeter.group"],
            "hecke.kl_basis.s": busy["hecke.kl_basis"],
            "hecke.export.s": busy["hecke.export"],
            "hecke.products": calls["hecke.product"],
            "hecke.rsk.s": busy["hecke.rsk"],
            "hecke.self_s": own["hecke"],
            "mscell.cells.s": busy["mscell.cells"],
            "mscell.regularity.s": busy["mscell.regularity"],
            "mscell.compose.calls": calls["mscell.compose"],
            "suite.closed_form.s": busy["suite.closed_form"],
            "suite.dimension.s": busy["suite.dimension"],
            "suite.positivity.s": busy["suite.positivity"],
            "suite.dual_shift.s": busy["suite.dual_shift"],
            "formats.parse.s": busy["formats.parse"],
        }


# -- what the spans observe ---------------------------------------------------


def _coeff_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _on_basis(t: Tracer, args, kwargs, result) -> None:
    t.note_max("linalg.coeff_bits", _coeff_bits(result))


def _on_nullspace(t: Tracer, args, kwargs, result) -> None:
    ncols = kwargs["ncols"] if "ncols" in kwargs else args[1]
    t.counts["linalg.nullspace.unknowns"] += ncols
    t.note_max("linalg.nullspace.unknowns", ncols)
    _on_basis(t, args, kwargs, result)


def _on_insert(t: Tracer, args, kwargs, result) -> None:
    t.counts["linalg.echelon.inserts"] += 1
    if result:
        t.counts["linalg.echelon.inserts_grew"] += 1


def _on_rank(t: Tracer, args, kwargs, result) -> None:
    # a rank test inside an isomorphism search is one certificate attempt
    for iso in ("bimod.iso", "graded.iso"):
        if t.depth[iso]:
            t.counts[f"{iso}.attempts"] += 1


def _on_tensor(t: Tracer, args, kwargs, result) -> None:
    t.counts["bimod.tensor.ambient"] += args[0].dim * args[1].dim


def _on_hom(t: Tracer, args, kwargs, result) -> None:
    unknowns = args[0].dim * args[1].dim
    t.counts["bimod.hom.unknowns"] += unknowns
    t.note_max("bimod.hom.unknowns", unknowns)
    t.counts["bimod.hom.nullity"] += len(result)
    if t.depth["bimod.iso"]:
        t.homs_in_iso += 1


def _enter_iso(t: Tracer) -> None:
    t.homs_in_iso = 0


def _on_iso(t: Tracer, args, kwargs, result) -> None:
    # the random search needs one hom space; any further one is the
    # composition-span fallback
    if t.homs_in_iso > 1:
        t.counts["bimod.iso.fallbacks"] += 1


# (module, class or None, attribute, span name, options)
_SPANS = [
    ("linalg", None, "nullspace", "linalg.nullspace", {"on_exit": _on_nullspace}),
    ("linalg", None, "rank", "linalg.rank", {"on_exit": _on_rank}),
    ("linalg", None, "rref", "linalg.rref", {}),
    ("linalg", None, "solve", "linalg.solve", {}),
    ("linalg", None, "inverse", "linalg.inverse", {}),
    ("linalg", None, "mat_mul", "linalg.mat_mul", {}),
    ("linalg", "SparseEchelon", "insert", "linalg.echelon", {"on_exit": _on_insert, "inner": True}),
    ("linalg", "SparseEchelon", "reduce", "linalg.echelon", {"inner": True}),
    ("linalg", "SparseEchelon", "contains", "linalg.echelon", {"inner": True}),
    ("linalg", "SparseEchelon", "basis_fraction_rows", "linalg.echelon",
     {"on_exit": _on_basis, "inner": True}),
    *[("linalg", "Subspace", m, "linalg.subspace", {"inner": True})
      for m in ("from_vectors", "full", "contains", "contains_subspace", "reduce", "sum",
                "intersect")],
    *[("algebra", None, f, f"algebra.{f}", {})
      for f in ("validate", "radical", "center", "left_ideal", "module_radical",
                "loewy_length", "socle", "top", "is_weakly_symmetric", "is_connected",
                "corner_subspace", "corner_dim", "corner_algebra", "subalgebra_closure",
                "algebra_generators")],
    *[("algebra", "FinDimAlgebra", m, "algebra.mul", {"inner": True})
      for m in ("mul", "left_mult_matrix", "right_mult_matrix")],
    ("bimod", None, "tensor_over", "bimod.tensor", {"on_exit": _on_tensor}),
    ("bimod", None, "hom_space", "bimod.hom", {"on_exit": _on_hom}),
    *[("bimod", None, f, "bimod.iso", {"on_enter": _enter_iso, "on_exit": _on_iso})
      for f in ("iso_test", "iso_to_direct_power")],
    *[("bimod", None, f, f"bimod.{f}", {})
      for f in ("projective_center", "build_ccx", "proj_bimodule", "regular_bimodule",
                "direct_sum", "loewy_length", "socle", "commutant_dimension")],
    ("bimod", "Bimodule", "validate", "bimod.validate", {}),
    ("bimod", None, "verify_closed_form_composition", "suite.closed_form", {}),
    ("bimod", None, "verify_dimension_identities", "suite.dimension", {}),
    ("bimod", None, "verify_duflo_hom_dimension", "suite.duflo_hom", {}),
    ("bimod", None, "verify_center_surjectivity", "suite.surjectivity", {}),
    ("bimod", None, "verify_center_separation", "suite.separation", {}),
    ("bimod", None, "verify_commutant", "suite.commutant", {}),
    ("graded", None, "graded_hom_series", "graded.hom_series", {}),
    ("graded", None, "graded_iso_test", "graded.iso", {}),
    ("graded", None, "star_bimodule", "graded.star", {}),
    *[("graded", None, f, f"graded.{f}", {})
      for f in ("build_graded_ccx", "default_shifts", "min_hom_degree_to_identity",
                "top_corner_degree")],
    *[("graded", "GradedAlgebra", m, "graded.hilbert", {"inner": True})
      for m in ("hilbert", "corner_hilbert")],
    ("graded", None, "positivity_check", "suite.positivity", {}),
    ("graded", None, "verify_dual_shift_identity", "suite.dual_shift", {}),
    ("graded", None, "verify_hilbert_transfer", "suite.hilbert_transfer", {}),
    ("coxeter", None, "coxeter_group", "coxeter.group", {}),
    ("hecke", None, "kl_basis", "hecke.kl_basis", {}),
    ("hecke", None, "export_multisemigroup", "hecke.export", {}),
    ("hecke", None, "kl_product_at_one", "hecke.product", {}),
    *[("hecke", None, f, f"hecke.{f}", {})
      for f in ("kl_expand", "multiply", "bar_involution")],
    *[("hecke", None, f, "hecke.rsk", {}) for f in ("rsk_cells", "rsk")],
    ("mscell", None, "cells", "mscell.cells", {}),
    *[("mscell", None, f, "mscell.regularity", {})
      for f in ("is_regular", "is_strongly_regular")],
    *[("mscell", None, f, f"mscell.{f}", {})
      for f in ("duflo", "duflo_multiplicity", "duflo_multiplicity_constant_on_right_cells",
                "identity_products_clean")],
    ("mscell", "MultiSemigroup", "__init__", "mscell.multisemigroup", {}),
    ("mscell", "MultiSemigroup", "compose", "mscell.compose", {"inner": True}),
    *[("formats", None, f, "formats.parse", {})
      for f in ("parse_algebra", "parse_multisemigroup", "parse_ccx")],
    *[("verify", None, f, "suite.report", {})
      for f in ("report_all", "b2_report", "type_a_report", "algebra_report", "ccx_report",
                "graded_report")],
]


def install(tracer: Tracer) -> None:
    """Rebind every listed function, wherever a program module imported it,
    and every listed method, to its traced wrapper."""
    import fiatcells.verify  # noqa: F401  (imports every module traced here)

    modules = [m for n, m in sys.modules.items() if n.startswith("fiatcells.")]
    for mod_name, cls_name, attr, span, options in _SPANS:
        module = sys.modules[f"fiatcells.{mod_name}"]
        if cls_name is not None:
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, **options)))
            else:
                setattr(cls, attr, tracer.wrap(span, raw, **options))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, **options)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
