"""Every name the benchmark's tracer rebinds must exist in the program, so a
refactor that deletes or renames one fails here, not only in a traced run.
What the tracer reads off a returned basis must also keep its meaning."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from fiatcells import linalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _tracing()._SPANS


def test_every_traced_name_resolves():
    spans = _spans()
    assert spans
    missing = []
    for mod_name, cls_name, attr, span, _ in spans:
        module = importlib.import_module(f"fiatcells.{mod_name}")
        if cls_name is None:
            found = callable(getattr(module, attr, None))
        else:
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in cls.__dict__
        if not found:
            missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr} ({span})")
    assert not missing, missing


def _entry_bits(rows):
    """The largest numerator or denominator bit length of the entries of
    dense or sparse rows."""
    entries = [Fraction(x) for row in rows for x in (row.values() if isinstance(row, dict) else row)]
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in entries if x),
        default=0,
    )


def test_coefficient_bits_read_the_entries_of_returned_bases():
    # linalg.max_coeff_bits reads nullspace and basis_fraction_rows results
    # as rows of entries; read as dicts it would measure column indices
    coeff_bits = _tracing()._coeff_bits
    rows = [(3, 1000, 0, 7, 0), (0, 0, 1, 1, 0)]
    kernel = linalg.nullspace(rows, 5)
    ech = linalg.SparseEchelon(5)
    ech.extend(rows)
    basis = ech.basis_fraction_rows()
    for result in (kernel, basis):
        assert _entry_bits(result) == 10
        assert coeff_bits(result) == _entry_bits(result)
