"""Laurent polynomials with integer coefficients.

The type of graded Hilbert series and hom series (variable t): read off,
compared, divided exactly, evaluated and formatted, never multiplied.
Hecke-algebra coefficients stay raw {exponent: int} dicts (`hecke`), which
this type only formats in error messages (variable v).  Coefficients live
in a dict keyed by exponent; zero coefficients are never stored, so
equality is structural.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import frac


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): c for e, c in coeffs.items() if c != 0} if coeffs else {}

    def coeff(self, exp: int):
        return self.coeffs.get(exp, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __call__(self, value):
        """Evaluate exactly at an int or Fraction value (value=1 sums the
        coefficients); the result is normalised as `linalg.frac` does."""
        if value == 1:
            return sum(self.coeffs.values())
        return frac(sum(c * Fraction(value) ** e for e, c in self.coeffs.items()))

    @property
    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    @property
    def valuation(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self/other with integer coefficients, else None."""
        if not other:
            return None
        if not self:
            return LaurentPoly()
        # normalize both to ordinary polynomials and long-divide from the top;
        # each quotient coefficient is final once made, so a non-integral one
        # already rules out an integer quotient
        num = {e - self.valuation: c for e, c in self.coeffs.items()}
        den = {e - other.valuation: c for e, c in other.coeffs.items()}
        ddeg = max(den)
        dlead = den[ddeg]
        quo: dict[int, int] = {}
        while num:
            ndeg = max(num)
            if ndeg < ddeg:
                return None
            f, rem = divmod(num[ndeg], dlead)
            if rem:
                return None
            quo[ndeg - ddeg] = f
            for e, c in den.items():
                k = e + ndeg - ddeg
                val = num.get(k, 0) - f * c
                if val:
                    num[k] = val
                else:
                    num.pop(k, None)
        shift = self.valuation - other.valuation
        return LaurentPoly({e + shift: c for e, c in quo.items()})

    def format(self, var: str = "t") -> str:
        """Ascending-degree text form, e.g. '1 + 2*t^2'."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                pow_txt = var if e == 1 else f"{var}^{e}"
                if c == 1:
                    term = pow_txt
                elif c == -1:
                    term = f"-{pow_txt}"
                else:
                    term = f"{c}*{pow_txt}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"LaurentPoly({self.format()!r})"
