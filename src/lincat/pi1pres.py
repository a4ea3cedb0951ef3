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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
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
    n = len(g.generators)
    rows = []
    for w in g.relators:
        row = [0] * n
        for x in w:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return rows


def abelianization(g: FPGroup) -> list[int]:
    """Invariant factors of the relator exponent matrix, with trivial
    factors dropped; [1] marks the trivial group, zeros record free
    rank."""
    factors = smith_normal_form(_exponent_rows(g), cols=len(g.generators))
    out = [d for d in factors if d != 1]
    return out if out else [1]


class _Exceeded(Exception):
    pass


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
    find no coincidence; those (coset, relator) pairs are marked done
    and skipped, so the definitions and coincidences are exactly those
    of plain HLT.  Returns the group order if the table closes after at
    most max_cosets coset definitions (dead cosets included), else
    "exceeded": this definition order ran out of cosets, which says
    nothing about finiteness.

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
    relators = [(w, *_root(w)) for w in map(free_reduce, g.relators) if w]
    n = len(g.generators)
    letters = list(range(1, n + 1)) + [-i for i in range(1, n + 1)]
    # table[x][c] is c·x, 0 if undefined: one list per signed letter x,
    # a negative x indexing from the end (table[0] is unused); coset 0
    # is a placeholder, so coset c is entry c of every list
    table: list[list[int]] = [[]] + [[0, 0] for _ in letters]
    columns = table[1:]
    parent = [0, 1]
    done: set[tuple[int, int]] = set()

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, x: int) -> None:
        d = len(parent)
        if d > max_cosets:
            raise _Exceeded
        parent.append(d)
        for col in columns:
            col.append(0)
        table[x][c] = d
        table[-x][d] = c

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
            for x in letters:
                col, inv = table[x], table[-x]
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

    def scan_and_fill(start: int, w: Word) -> None:
        # entries may name dead cosets only after a coincidence, and a
        # live coset is its own parent, so rep() runs only on dead ones
        f = b = start
        i, j = 0, len(w) - 1
        while True:
            while i <= j:
                f2 = table[w[i]][f]
                if not f2:
                    break
                f = f2 if parent[f2] == f2 else rep(f2)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                b2 = table[-w[j]][b]
                if not b2:
                    break
                b = b2 if parent[b2] == b2 else rep(b2)
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[w[i]][f] = b
                table[-w[i]][b] = f
                return
            define(f, w[i])

    def mark_cycle(c: int, r: int, u: Word, k: int) -> None:
        # w = uᵏ traces closed at the live coset c, hence at every c·uʲ
        for _ in range(k - 1):
            for x in u:
                c = rep(table[x][c])
            done.add((c, r))

    try:
        idx = 1
        while idx < len(parent):
            if parent[idx] != idx:
                idx += 1
                continue
            for r, (w, u, k) in enumerate(relators):
                if k > 1 and (idx, r) in done:
                    continue
                scan_and_fill(idx, w)
                if parent[idx] != idx:
                    break
                if k > 1:
                    mark_cycle(idx, r, u, k)
            else:
                for x in letters:
                    if not table[x][idx]:
                        define(idx, x)
            idx += 1
    except _Exceeded:
        return "exceeded"
    return sum(1 for c in range(1, len(parent)) if parent[c] == c)
