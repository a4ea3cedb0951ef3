"""Fundamental group of a quiver presentation.

Generators are the arrows; a spanning tree from the base point is
killed, and every relation with at least two summand paths identifies
those paths pairwise.  Words are tuples of signed 1-based generator
indices read left to right.  Identification of the resulting finitely
presented group goes through the integer abelianization and a bounded
coset enumeration (HLT with relator-cycle marks), which is skipped when
a free factor in the abelianization already shows that it cannot close.
Neither claims infiniteness: "exceeded" means only that the HLT
definition order ran out of cosets, or would have.
"""
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import Union

from .exactlinalg import EchelonBasis, smith_normal_form
from .kcat import QuiverPresentation

Word = tuple[int, ...]


@dataclass(frozen=True)
class FPGroup:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        n = len(self.generators)
        for w in self.relators:
            for x in w:
                if x == 0 or abs(x) > n:
                    raise ValueError(f"relator letter {x} out of range")

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return " ".join(self.generators[abs(x) - 1] +
                        ("" if x > 0 else "^-1") for x in w)


def inverse_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass
class Pi1Result:
    group: FPGroup
    base: str
    tree: tuple[str, ...]
    warnings: tuple[str, ...]


def pi1_presentation(p: QuiverPresentation, b0: str) -> Pi1Result:
    """Free group on the arrows modulo the spanning-tree arrows and, for
    each relation w₁ + ... + w_m with m ≥ 2, the words w₁wⱼ⁻¹.  Monomial
    relations contribute nothing.  The tree is grown breadth-first from
    b0 in arrow declaration order."""
    if b0 not in p.vertices:
        raise ValueError(f"unknown base vertex {b0!r}")
    index = {a.name: i + 1 for i, a in enumerate(p.arrows)}
    neighbours: dict[str, list[tuple[str, str]]] = {v: [] for v in p.vertices}
    for a in p.arrows:
        neighbours[a.source].append((a.target, a.name))
        neighbours[a.target].append((a.source, a.name))
    seen = {b0}
    tree: list[str] = []
    queue = deque([b0])
    while queue:
        v = queue.popleft()
        for w, name in neighbours[v]:
            if w not in seen:
                seen.add(w)
                tree.append(name)
                queue.append(w)
    if seen != set(p.vertices):
        raise ValueError("underlying graph is not connected")

    def word_of_path(path: tuple[str, ...]) -> Word:
        # paths compose right to left, so the walk traverses them reversed
        return tuple(index[a] for a in reversed(path))

    relators: list[Word] = [(index[a],) for a in tree]
    for rel in p.relations:
        terms = list(rel)
        if len(terms) < 2:
            continue
        first = word_of_path(terms[0][1])
        for _, path in terms[1:]:
            relators.append(free_reduce(first + inverse_word(
                word_of_path(path))))

    warnings: list[str] = []
    col: dict[tuple[str, ...], int] = {}
    span = EchelonBasis(0)
    independent = True
    for rel in p.relations:
        row: dict[int, Fraction] = {}
        for coeff, path in rel:
            j = col.setdefault(path, len(col))
            row[j] = row.get(j, 0) + coeff
        independent &= span.add(row)
    if not independent:
        warnings.append("supplied relations are k-linearly dependent")

    grp = FPGroup(tuple(a.name for a in p.arrows), tuple(relators))
    return Pi1Result(grp, b0, tuple(tree), tuple(warnings))


def _exponent_rows(g: FPGroup) -> list[list[int]]:
    """The relator exponent matrix: one row per relator, one column per
    generator."""
    gens = range(1, len(g.generators) + 1)
    return [[c[x] - c[-x] for x in gens] for c in map(Counter, g.relators)]


def abelianization(g: FPGroup) -> list[int]:
    """Invariant factors of the relator exponent matrix, with trivial
    factors dropped; [1] marks the trivial group, zeros record free
    rank."""
    factors = smith_normal_form(_exponent_rows(g), cols=len(g.generators))
    out = [d for d in factors if d != 1]
    return out if out else [1]


def _root(w: Word) -> tuple[Word, int]:
    """(u, k) with w = uᵏ and u as short as possible."""
    n = len(w)
    p = next(p for p in range(1, n + 1)
             if n % p == 0 and w[:p] * (n // p) == w)
    return w[:p], n // p


def bounded_order(g: FPGroup, max_cosets: int) -> Union[int, str]:
    """Coset enumeration over the trivial subgroup, HLT style: at each
    live coset in turn, scan and fill every relator, then complete the
    row.  A relator w = uᵏ with k > 1 that scans closed at coset c also
    traces closed at every c·uʲ, where its scan would define nothing and
    find no coincidence; those cosets are marked done for that relator
    and skipped, so the definitions and coincidences are exactly those
    of plain HLT.  Returns the group order if the table closes after at
    most max_cosets coset definitions (dead cosets included), else
    "exceeded": this definition order ran out of cosets, which says
    nothing about finiteness.

    The table is one list per signed letter, indexed by coset (0 is
    undefined and coset 0 a placeholder).  A relator holds the lists of
    its letters and of their inverses in word order, so a scan step is
    one list index, and its marks are one bytearray indexed by coset.
    These lists double as cosets are defined, never sized by max_cosets.

    A closed table proves the group finite, so when the abelianization
    has a free factor the enumeration can only run out: "exceeded" is
    returned at once, without defining a coset.  The factor exists
    exactly when the exponent matrix has rank below the number of
    generators over Q, which one elimination decides."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    span = EchelonBasis(0)
    for row in _exponent_rows(g):
        span.add({j: e for j, e in enumerate(row) if e})
    if len(span) < len(g.generators):
        return "exceeded"
    n = len(g.generators)
    letters = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    column = {x: [0, 0] for x in letters}
    pairs = [(column[x], column[-x]) for x in letters]
    # per relator w = uᵏ: the lists of w and of its inverse letters, the
    # last index, the marks, the lists of u, and k - 1
    relators = [([column[x] for x in w], [column[-x] for x in w],
                 len(w) - 1, bytearray(2), [column[x] for x in u], k - 1)
                for w in map(free_reduce, g.relators) if w
                for u, k in [_root(w)]]
    parent = [0, 1]  # parent[c] == c for every coset not yet merged
    top = 2  # the next coset to define

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(a: int, b: int) -> None:
        queue: deque[int] = deque()

        def merge(u: int, v: int) -> None:
            u, v = rep(u), rep(v)
            if u == v:
                return
            if u > v:
                u, v = v, u
            parent[v] = u
            queue.append(v)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            for col, inv in pairs:
                d = col[dead]
                if not d:
                    continue
                col[dead] = 0
                u, v = rep(dead), rep(d)
                if col[u]:
                    merge(col[u], v)
                else:
                    col[u] = v
                u, v = rep(d), rep(dead)
                if inv[u]:
                    merge(inv[u], v)
                else:
                    inv[u] = v

    def grow() -> None:
        # double every list indexed by coset in place, so that the
        # relators keep holding the table's lists
        size = len(parent)
        parent.extend(range(size, 2 * size))
        for col in (*column.values(), *(r[3] for r in relators)):
            col.extend(bytes(size))

    # entries may name dead cosets only after a coincidence, and a live
    # coset is its own parent, so rep() runs only on dead ones
    idx = 1
    while idx < top:
        if parent[idx] != idx:
            idx += 1
            continue
        for fwd, inv, last, done, ucols, k in relators:
            if done[idx]:
                continue
            f = b = idx  # scan and fill w at idx
            i, j = 0, last
            while True:
                while i <= j:
                    f2 = fwd[i][f]
                    if not f2:
                        break
                    f = f2 if parent[f2] == f2 else rep(f2)
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                    break
                while j >= i:
                    b2 = inv[j][b]
                    if not b2:
                        break
                    b = b2 if parent[b2] == b2 else rep(b2)
                    j -= 1
                if j < i:
                    coincidence(f, b)
                    break
                if j == i:
                    fwd[i][f] = b
                    inv[i][b] = f
                    break
                if top > max_cosets:
                    return "exceeded"
                if top == len(parent):
                    grow()
                fwd[i][f] = top
                inv[i][top] = f
                f = top
                top += 1
                i += 1
            if parent[idx] != idx:
                break
            # w = uᵏ traces closed at the live coset idx, hence at every
            # idx·uʲ
            c = idx
            for _ in range(k):
                for col in ucols:
                    c = col[c]
                    if parent[c] != c:
                        c = rep(c)
                done[c] = 1
        else:
            for col, inv in pairs:
                if not col[idx]:
                    if top > max_cosets:
                        return "exceeded"
                    if top == len(parent):
                        grow()
                    col[idx] = top
                    inv[top] = idx
                    top += 1
        idx += 1
    return sum(map(eq, parent[1:top], range(1, top)))  # the live cosets
