"""Small Coxeter groups (types A1, A2, A3 and B2) with ShortLex normal
forms, length, inversion and Bruhat order.

Type A_n is realized by one-line permutations of {1,..,n+1}; B2 by signed
permutations of {1,2}.  Elements are indexed 0..|W|-1 in ShortLex order of
their canonical reduced words (identity is element 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _perm_compose(u, v):
    # (u * v)(i) = u(v(i)); one-line tuples over 1..n
    return tuple(u[v[i] - 1] for i in range(len(u)))


def _signed_compose(u, v):
    # signed permutations of {1,2}: u[i-1] = +-j means u sends i to +-j
    out = []
    for i in range(len(u)):
        t = v[i]
        img = u[abs(t) - 1]
        out.append(img if t > 0 else -img)
    return tuple(out)


@dataclass
class CoxeterGroup:
    kind: str
    gen_names: tuple
    words: list  # element -> canonical reduced word (tuple of generator indices)
    word_index: dict
    mult_gen: list  # element, generator -> element (right multiplication)
    inverse: list
    reps: list  # underlying faithful representation (permutations)

    identity: int = 0
    _bruhat_down: list = field(default_factory=list, repr=False)
    _by_length: list = field(default_factory=list, repr=False)
    _bar_t: list = field(default_factory=list, repr=False)  # see bar_t_table

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

    def bar_t_table(self, build) -> list:
        """hecke's table of bar(T_w) over the group: build(self) on the first
        call, then kept on the group."""
        if not self._bar_t:
            self._bar_t = build(self)
        return self._bar_t

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

    def perm(self, x: int):
        """Underlying one-line permutation (type A only)."""
        if not self.kind.startswith("A"):
            raise ValueError("perm() is only available for type A groups")
        return self.reps[x]


def _generate(kind, gen_names, gen_reps, compose, identity_rep) -> CoxeterGroup:
    """ShortLex BFS over the faithful representation."""
    words = [()]
    word_index = {(): 0}
    reps = [identity_rep]
    rep_index = {identity_rep: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in range(len(gen_reps)):
                r = compose(reps[x], gen_reps[s])
                if r not in rep_index:
                    w = words[x] + (s,)
                    rep_index[r] = len(reps)
                    word_index[w] = len(reps)
                    reps.append(r)
                    words.append(w)
                    nxt.append(rep_index[r])
        frontier = nxt
    n = len(reps)
    mult_gen = [
        [rep_index[compose(reps[x], gen_reps[s])] for s in range(len(gen_reps))]
        for x in range(n)
    ]
    inverse = [0] * n
    for x in range(n):
        y = 0
        for s in reversed(words[x]):
            y = mult_gen[y][s]
        inverse[x] = y
        if compose(reps[x], reps[y]) != identity_rep:
            raise AssertionError("inverse computation failed")
    return CoxeterGroup(kind, tuple(gen_names), words, word_index, mult_gen, inverse, reps)


def coxeter_group(kind: str) -> CoxeterGroup:
    """Construct a supported Coxeter group: 'A1', 'A2', 'A3' or 'B2'."""
    kind = kind.upper()
    if kind in ("A1", "A2", "A3"):
        n = int(kind[1])
        size = n + 1
        identity = tuple(range(1, size + 1))
        gens = []
        for i in range(n):
            g = list(identity)
            g[i], g[i + 1] = g[i + 1], g[i]
            gens.append(tuple(g))
        names = tuple(str(i + 1) for i in range(n))
        return _generate(kind, names, gens, _perm_compose, identity)
    if kind == "B2":
        identity = (1, 2)
        s = (2, 1)  # swap
        t = (1, -2)  # sign change on the second coordinate
        return _generate(kind, ("s", "t"), [s, t], _signed_compose, identity)
    raise ValueError(f"unsupported Coxeter type {kind!r}")


def permutation_element(group: CoxeterGroup, perm) -> int:
    """Element of a type-A group with the given one-line permutation."""
    perm = tuple(perm)
    for x in range(group.order):
        if group.reps[x] == perm:
            return x
    raise ValueError(f"{perm!r} is not an element of {group.kind}")
