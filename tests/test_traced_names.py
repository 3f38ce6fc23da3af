"""Every name the benchmark's tracer rebinds must exist in the program, so a
refactor that deletes or renames one fails here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._SPANS


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
