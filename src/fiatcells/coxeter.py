"""Small Coxeter groups (types A1-A4 and B2) with ShortLex normal forms,
length, inversion and Bruhat order.

Every group is realised one way: by its reflection representation on the
integer weight lattice, read off a Cartan matrix C.  The generator s acts on
weight coordinates by s(v)_j = v_j - v_s C[s][j], and the orbit of the
regular weight rho = (1, ..., 1) is free: the group is generated as that
orbit, x*s being s applied to x^-1(rho), and keeps only the words and the
tables read off it.  Elements are indexed 0..|W|-1 in ShortLex order of
their canonical reduced words (identity is element 0).  A4 is here for the
Robinson-Schensted oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# type -> (generator names, Cartan matrix)
_CARTAN = {
    "A1": ("1", ((2,),)),
    "A2": ("12", ((2, -1), (-1, 2))),
    "A3": ("123", ((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    "A4": ("1234", ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))),
    "B2": ("st", ((2, -2), (-1, 2))),
}


def _reflect(cartan, s: int, v: tuple) -> tuple:
    """The simple reflection s applied to the weight-coordinate vector v."""
    k = v[s]
    return tuple(vj - k * c for vj, c in zip(v, cartan[s]))


@dataclass
class CoxeterGroup:
    kind: str
    gen_names: tuple
    words: list  # element -> canonical reduced word (tuple of generator indices)
    mult_gen: list  # element, generator -> element (right multiplication)
    inverse: list

    identity: int = 0
    _bruhat_down: list = field(default_factory=list, repr=False)
    _by_length: list = field(default_factory=list, repr=False)

    @property
    def order(self) -> int:
        return len(self.words)

    def length(self, x: int) -> int:
        return len(self.words[x])

    def mult(self, x: int, y: int) -> int:
        for s in self.words[y]:
            x = self.mult_gen[x][s]
        return x

    def name(self, x: int) -> str:
        """Word label: 'e' for the identity, else the canonical word."""
        if x == self.identity:
            return "e"
        return "".join(self.gen_names[s] for s in self.words[x])

    def element_of_name(self, label: str) -> int:
        if label == "e":
            return self.identity
        pos = {g: i for i, g in enumerate(self.gen_names)}
        x = self.identity
        for ch in label:
            x = self.mult_gen[x][pos[ch]]
        return x

    def by_length(self) -> list:
        """The elements in ascending length order (the identity first),
        sorted once per group."""
        if not self._by_length:
            self._by_length = sorted(range(self.order), key=self.length)
        return self._by_length

    def longest(self) -> int:
        return max(range(self.order), key=self.length)

    # -- Bruhat order ---------------------------------------------------

    def _down_sets(self):
        """Bruhat down-set bitmasks via one-letter deletions of canonical words."""
        if self._bruhat_down:
            return self._bruhat_down
        down = [0] * self.order
        for x in self.by_length():
            word = self.words[x]
            mask = 1 << x
            for k in range(len(word)):
                y = self.identity
                for pos, s in enumerate(word):
                    if pos != k:
                        y = self.mult_gen[y][s]
                mask |= down[y]
            down[x] = mask
        self._bruhat_down = down
        return down

    def bruhat_leq(self, x: int, y: int) -> bool:
        """x <= y in Bruhat order (subword property)."""
        return bool((self._down_sets()[y] >> x) & 1)

    def perm(self, x: int) -> tuple:
        """One-line permutation of x (type A only): positions s and s+1
        swapped for each letter s of its canonical word, in order."""
        if not self.kind.startswith("A"):
            raise ValueError("perm() is only available for type A groups")
        one_line = list(range(1, len(self.gen_names) + 2))
        for s in self.words[x]:
            one_line[s], one_line[s + 1] = one_line[s + 1], one_line[s]
        return tuple(one_line)


def _generate(kind, gen_names, cartan) -> CoxeterGroup:
    """ShortLex BFS over the orbit of rho: elements leave the queue in
    index order, and reflecting each one by every generator both finds the
    new elements and fills its row of `mult_gen`."""
    gens = range(len(cartan))
    rho = (1,) * len(cartan)
    words = [()]
    reps = [rho]  # grows while it is walked: the BFS queue
    rep_index = {rho: 0}
    mult_gen = []
    for x, v in enumerate(reps):
        row = []
        for s in gens:
            r = _reflect(cartan, s, v)
            y = rep_index.setdefault(r, len(reps))
            if y == len(reps):
                reps.append(r)
                words.append(words[x] + (s,))
            row.append(y)
        mult_gen.append(row)
    n = len(reps)
    inverse = [0] * n
    for x in range(n):
        y = 0
        for s in reversed(words[x]):
            y = mult_gen[y][s]
        inverse[x] = y
        v = reps[x]
        for s in words[y]:
            v = _reflect(cartan, s, v)
        if v != rho:
            raise AssertionError("inverse computation failed")
    return CoxeterGroup(kind, tuple(gen_names), words, mult_gen, inverse)


def coxeter_group(kind: str) -> CoxeterGroup:
    """Construct a supported Coxeter group, 'A1' to 'A4' or 'B2', from its
    row of the Cartan-matrix table."""
    kind = kind.upper()
    if kind not in _CARTAN:
        raise ValueError(f"unsupported Coxeter type {kind!r}")
    names, cartan = _CARTAN[kind]
    return _generate(kind, names, cartan)
