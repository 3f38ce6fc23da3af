"""Text file formats for algebras, multisemigroups and 2-category inputs.

Algebra files (.alg)::

    algebra zigzagA2
    basis e1 e2 a b w1 w2
    unit = e1 + e2
    idempotent e1
    idempotent e2
    e1*e1 = e1
    a*b = w2
    b*a = w1
    deg a = 1          # optional grading; unlisted degrees are 0

Unlisted products are zero; a second unit line, or a second deg line for
one label, is refused.  Multisemigroup files (.msg)::

    multisemigroup b2
    object i
    morphism e : i -> i identity
    morphism s : i -> i
    star s = s
    s o s = 2*s

Unlisted composable products are zero.  2-category inputs (.ccx)::

    ccx skewext
    algebra skewext.alg
    x 1 = 1 ; xy       # optional: generators of X per object (default: center)
    shift F11_11 = 1   # optional grading shifts

All parse errors carry the file path and line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .algebra import FinDimAlgebra
from .mscell import MultiSemigroup, MultiSemigroupError, OneMorphism


class ParseError(ValueError):
    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


def _note_line(lines: dict, key, line_no, path, what: str) -> None:
    """Record the line of `key`; a repeat is a ParseError naming the first."""
    if key in lines:
        raise ParseError(path, line_no, f"repeated {what} (first at line {lines[key]})")
    lines[key] = line_no


def _clean_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_][\w.]*)$|^(-?\d+(?:/\d+)?)$")


def parse_combination(expr: str, labels, path, line_no):
    """Parse 'c*x + y - z' into a coefficient vector over labels."""
    out = [Fraction(0)] * len(labels)
    expr = expr.strip()
    if expr == "0":
        return out
    tokens = [t for t in re.split(r"(?=[+-])", expr.replace(" ", "")) if t]
    if not tokens:
        raise ParseError(path, line_no, f"empty expression {expr!r}")
    for tok in tokens:
        if tok in "+-":
            raise ParseError(path, line_no, f"malformed term in {expr!r}")
        sign = 1
        if tok[0] == "+":
            tok = tok[1:]
        elif tok[0] == "-":
            sign = -1
            tok = tok[1:]
        m = _TERM.match(tok)
        if not m:
            raise ParseError(path, line_no, f"cannot parse term {tok!r}")
        try:
            if m.group(3) is not None:
                coef, label = Fraction(m.group(3)), None
            else:
                coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
                label = m.group(2)
        except ZeroDivisionError:
            raise ParseError(path, line_no, f"zero denominator in {tok!r}") from None
        if label is None:
            if "1" not in labels:
                raise ParseError(path, line_no, "bare scalar needs a basis label '1'")
            label = "1"
        if label not in labels:
            raise ParseError(path, line_no, f"unknown basis label {label!r}")
        out[labels.index(label)] += sign * coef
    return out


@dataclass
class AlgebraSpec:
    algebra: FinDimAlgebra
    degrees: tuple | None
    name: str


def parse_algebra(text: str, path="<string>") -> AlgebraSpec:
    name = None
    labels = None
    unit = None
    idempotents = []
    products = {}
    degrees = {}
    seen = {}  # line of the basis, the unit, each product and each degree
    for line_no, line in _clean_lines(text):
        if line.startswith("algebra "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("basis "):
            _note_line(seen, "basis", line_no, path, "basis line")
            labels = line.split()[1:]
            if len(set(labels)) != len(labels):
                raise ParseError(path, line_no, "duplicate basis labels")
        elif re.match(r"unit\s*=", line):
            if labels is None:
                raise ParseError(path, line_no, "unit before basis")
            _note_line(seen, "unit", line_no, path, "unit line")
            unit = parse_combination(line.partition("=")[2], labels, path, line_no)
        elif line.startswith("idempotent "):
            if labels is None:
                raise ParseError(path, line_no, "idempotent before basis")
            idempotents.append(
                parse_combination(line.split(None, 1)[1], labels, path, line_no)
            )
        elif line.startswith("deg "):
            m = re.match(r"deg\s+(\S+)\s*=\s*(-?\d+)$", line)
            if not m or labels is None or m.group(1) not in labels:
                raise ParseError(path, line_no, f"bad degree line {line!r}")
            _note_line(seen, ("deg", m.group(1)), line_no, path, f"deg line for {m.group(1)}")
            degrees[m.group(1)] = int(m.group(2))
        elif "*" in line and "=" in line:
            lhs, _, rhs = line.partition("=")
            parts = lhs.split("*")
            if len(parts) != 2:
                raise ParseError(path, line_no, f"bad product line {line!r}")
            x, y = parts[0].strip(), parts[1].strip()
            if labels is None or x not in labels or y not in labels:
                raise ParseError(path, line_no, f"unknown label in product {line!r}")
            key = (labels.index(x), labels.index(y))
            _note_line(seen, key, line_no, path, f"product {x}*{y}")
            products[key] = parse_combination(rhs, labels, path, line_no)
        else:
            raise ParseError(path, line_no, f"unrecognized line {line!r}")
    if labels is None:
        raise ParseError(path, 0, "missing basis")
    if unit is None:
        raise ParseError(path, 0, "missing unit")
    if not idempotents:
        raise ParseError(path, 0, "missing idempotents")
    d = len(labels)
    zero = [Fraction(0)] * d
    mult = [[products.get((i, j), zero) for j in range(d)] for i in range(d)]
    deg_tuple = tuple(degrees.get(lab, 0) for lab in labels) if degrees else None
    return AlgebraSpec(
        algebra=FinDimAlgebra(labels, mult, unit, idempotents, name=name or "algebra"),
        degrees=deg_tuple,
        name=name or "algebra",
    )


def parse_multisemigroup(text: str, path="<string>") -> MultiSemigroup:
    name = None
    objects = []
    object_lines = {}
    morphisms = {}
    morphism_lines = {}
    star = {}
    star_lines = {}
    table = {}
    table_lines = {}
    morph_re = re.compile(r"morphism\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)(\s+identity)?$")
    prod_re = re.compile(r"(\S+)\s+o\s+(\S+)\s*=\s*(.+)$")
    for line_no, line in _clean_lines(text):
        if line.startswith("multisemigroup "):
            name = line.split(None, 1)[1]
        elif line.startswith("object "):
            obj = line.split(None, 1)[1].strip()
            objects.append(obj)
            object_lines.setdefault(obj, line_no)
        elif line.startswith("morphism "):
            m = morph_re.match(line)
            if not m:
                raise ParseError(path, line_no, f"bad morphism line {line!r}")
            label, src, tgt, ident = m.groups()
            _note_line(morphism_lines, label, line_no, path, f"morphism {label}")
            morphisms[label] = OneMorphism(label, src, tgt, bool(ident))
        elif line.startswith("star "):
            m = re.match(r"star\s+(\S+)\s*=\s*(\S+)$", line)
            if not m:
                raise ParseError(path, line_no, f"bad star line {line!r}")
            _note_line(star_lines, m.group(1), line_no, path, f"star for {m.group(1)}")
            star[m.group(1)] = m.group(2)
        else:
            m = prod_re.match(line)
            if not m:
                raise ParseError(path, line_no, f"unrecognized line {line!r}")
            f, g, rhs = m.groups()
            if f not in morphisms or g not in morphisms:
                raise ParseError(path, line_no, f"unknown morphism in product {line!r}")
            _note_line(table_lines, (f, g), line_no, path, f"product {f} o {g}")
            entry = {}
            rhs = rhs.strip()
            if rhs != "0":
                for term in re.split(r"\+", rhs):
                    term = term.strip()
                    m2 = re.match(r"^(?:(\d+)\s*\*\s*)?(\S+)$", term)
                    if not m2:
                        raise ParseError(path, line_no, f"bad summand {term!r}")
                    mult = int(m2.group(1)) if m2.group(1) else 1
                    h = m2.group(2)
                    if h not in morphisms:
                        raise ParseError(path, line_no, f"unknown summand {h!r}")
                    entry[h] = entry.get(h, 0) + mult
            table[(f, g)] = entry
    if not objects:
        raise ParseError(path, 0, "missing objects")
    if not morphisms:
        raise ParseError(path, 0, "missing morphisms")
    for label in morphisms:
        star.setdefault(label, label)
    try:
        return MultiSemigroup(objects, morphisms.values(), table, star)
    except MultiSemigroupError as exc:
        line_no = (
            table_lines.get(exc.pair)
            or star_lines.get(exc.star)
            # a star with no star line is the default one, set by its morphism line
            or morphism_lines.get(exc.morphism or exc.star)
            or object_lines.get(exc.obj, 0)
        )
        raise ParseError(path, line_no, str(exc)) from exc


def render_multisemigroup(ms: MultiSemigroup, name: str = "exported") -> str:
    lines = [f"multisemigroup {name}"]
    for obj in ms.objects:
        lines.append(f"object {obj}")
    for label in ms.names:
        m = ms.morphisms[label]
        suffix = " identity" if m.is_identity else ""
        lines.append(f"morphism {label} : {m.src} -> {m.tgt}{suffix}")
    for label in ms.names:
        lines.append(f"star {label} = {ms.star[label]}")
    for f, g in sorted(ms.table):
        entry = ms.table[(f, g)]
        if not entry:
            rhs = "0"
        else:
            rhs = " + ".join(
                (f"{k}*{h}" if k != 1 else h) for h, k in sorted(entry.items())
            )
        lines.append(f"{f} o {g} = {rhs}")
    return "\n".join(lines) + "\n"


@dataclass
class CcxSpec:
    name: str
    algebra_paths: list
    x_generators: dict = field(default_factory=dict)  # object index -> [expr strings]
    shifts: dict = field(default_factory=dict)
    x_lines: dict = field(default_factory=dict)  # object index -> line number
    shift_lines: dict = field(default_factory=dict)  # morphism name -> line number


def parse_ccx(text: str, path="<string>") -> CcxSpec:
    name = None
    algebra_paths = []
    x_generators = {}
    x_lines = {}
    shifts = {}
    shift_lines = {}
    for line_no, line in _clean_lines(text):
        if line.startswith("ccx "):
            name = line.split(None, 1)[1]
        elif line.startswith("algebra "):
            algebra_paths.append(line.split(None, 1)[1].strip())
        elif line.startswith("x"):
            m = re.match(r"x(?:\s+(\d+))?\s*=\s*(.+)$", line)
            if not m:
                raise ParseError(path, line_no, f"bad x line {line!r}")
            obj = int(m.group(1)) if m.group(1) else 1
            _note_line(x_lines, obj - 1, line_no, path, f"x line for object {obj}")
            x_generators[obj - 1] = [t.strip() for t in m.group(2).split(";")]
        elif line.startswith("shift "):
            m = re.match(r"shift\s+(\S+)\s*=\s*(-?\d+)$", line)
            if not m:
                raise ParseError(path, line_no, f"bad shift line {line!r}")
            _note_line(shift_lines, m.group(1), line_no, path, f"shift for {m.group(1)}")
            shifts[m.group(1)] = int(m.group(2))
        else:
            raise ParseError(path, line_no, f"unrecognized line {line!r}")
    if not algebra_paths:
        raise ParseError(path, 0, "ccx input needs at least one algebra")
    for obj, line_no in x_lines.items():
        if not 0 <= obj < len(algebra_paths):
            raise ParseError(
                path,
                line_no,
                f"x line names object {obj + 1}, but the objects are 1..{len(algebra_paths)}",
            )
    return CcxSpec(
        name=name or "ccx",
        algebra_paths=algebra_paths,
        x_generators=x_generators,
        shifts=shifts,
        x_lines=x_lines,
        shift_lines=shift_lines,
    )


def load_algebra_file(path) -> AlgebraSpec:
    path = Path(path)
    return parse_algebra(path.read_text(), path)


def load_multisemigroup_file(path) -> MultiSemigroup:
    path = Path(path)
    return parse_multisemigroup(path.read_text(), path)


def load_ccx_file(path):
    """Parse a .ccx file and load its algebras (paths relative to the file)."""
    path = Path(path)
    spec = parse_ccx(path.read_text(), path)
    specs = []
    for rel in spec.algebra_paths:
        target = (path.parent / rel) if not Path(rel).is_absolute() else Path(rel)
        if not target.exists():
            raise ParseError(path, 0, f"referenced algebra file not found: {rel}")
        specs.append(load_algebra_file(target))
    return spec, specs
