"""Finite groups given by explicit multiplication tables.

Covering automorphism groups, quotient actions, grading groups, and
character domains all share this representation.  Isomorphism testing is
exhaustive backtracking over generator images, which is fine at the
intended scale (orders well under a hundred).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class Group:
    elements: tuple[str, ...]
    identity: str
    table: dict[tuple[str, str], str]  # (s, t) -> s * t

    def __post_init__(self):
        problems = self.check()
        if problems:
            raise ValueError("not a group table: " + "; ".join(problems))
        self._inv = self._inverses()

    @classmethod
    def by_construction(cls, elements: tuple[str, ...], identity: str,
                        table: dict[tuple[str, str], str]) -> "Group":
        """The group of a table that is one by construction, built
        without check(): the caller states why, as for a composition
        table of bijections closed under composition.  Tables read from
        outside the program go through Group(...), which checks."""
        grp = cls.__new__(cls)
        grp.elements, grp.identity, grp.table = elements, identity, table
        grp._inv = grp._inverses()
        return grp

    def _inverses(self) -> dict[str, str]:
        return {s: t for s in self.elements for t in self.elements
                if self.table[(s, t)] == self.identity}

    def check(self) -> list[str]:
        problems = []
        named = set(self.elements)
        if len(named) != len(self.elements):
            problems.append("duplicate element names")
        if self.identity not in named:
            problems.append("identity not among elements")
            return problems
        for s in self.elements:
            for t in self.elements:
                if self.table.get((s, t)) not in named:
                    problems.append(f"missing or foreign product {s}*{t}")
                    return problems
        for s in self.elements:
            if self.table[(self.identity, s)] != s or self.table[(s, self.identity)] != s:
                problems.append(f"{self.identity} is not a two-sided identity on {s}")
        for s in self.elements:
            row = {self.table[(s, t)] for t in self.elements}
            col = {self.table[(t, s)] for t in self.elements}
            if len(row) != len(self.elements) or len(col) != len(self.elements):
                problems.append(f"{s} is not invertible")
        # Light's test: the g with (x·g)·y = x·(g·y) for all x, y are
        # closed under products and hold the identity, so on a table
        # without other problems a generating set decides; the cubic
        # scan only names the first failing triple
        if not problems and self._light():
            return problems
        mul, els = self.mul, self.elements
        for a in els:
            for b in els:
                for c in els:
                    if mul(mul(a, b), c) != mul(a, mul(b, c)):
                        problems.append(f"associativity fails on ({a},{b},{c})")
                        return problems
        return problems

    def _light(self) -> bool:
        """(x·g)·y = x·(g·y) for every generator g and all x, y."""
        tab, els = self.table, self.elements
        for g in self.generators():
            gy = [(y, tab[(g, y)]) for y in els]
            for x in els:
                xg = tab[(x, g)]
                if any(tab[(xg, y)] != tab[(x, z)] for y, z in gy):
                    return False
        return True

    def mul(self, s: str, t: str) -> str:
        return self.table[(s, t)]

    def inv(self, s: str) -> str:
        return self._inv[s]

    def order(self) -> int:
        return len(self.elements)

    def element_order(self, s: str) -> int:
        n, cur = 1, s
        while cur != self.identity:
            cur = self.mul(cur, s)
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(self.mul(s, t) == self.mul(t, s)
                   for s in self.elements for t in self.elements)

    def generated_subgroup(self, gens: Sequence[str]) -> set[str]:
        """The words in gens, found by multiplying on the right by each
        of them; in a finite group they are the subgroup gens generate."""
        closure = {self.identity}
        frontier = [self.identity]
        for s in frontier:  # the frontier grows while it is read
            for g in gens:
                prod = self.mul(s, g)
                if prod not in closure:
                    closure.add(prod)
                    frontier.append(prod)
        return closure

    def generators(self) -> list[str]:
        """Greedy small generating set in element order."""
        gens: list[str] = []
        span = {self.identity}
        for s in self.elements:
            if s not in span:
                gens.append(s)
                span = self.generated_subgroup(gens)
        return gens

    def label(self) -> str:
        """Cosmetic isomorphism-type guess from order statistics.  The
        table is the authoritative description."""
        n = self.order()
        if n == 1:
            return "trivial"
        orders = sorted(self.element_order(s) for s in self.elements)
        if n in orders:
            return f"C{n}"
        if self.is_abelian():
            return f"abelian of order {n}, exponent {max(orders)}"
        if n % 2 == 0:
            half = n // 2
            involutions = sum(1 for o in orders if o == 2)
            if involutions == half + (1 if half % 2 == 0 else 0) and half in orders:
                return f"D{half}"
        return f"nonabelian of order {n}"


def cyclic_group(n: int) -> Group:
    """C_n with elements e, g, g2, ..., g{n-1}."""
    if n < 1:
        raise ValueError("order must be positive")
    names = ["e"] + ["g" if i == 1 else f"g{i}" for i in range(1, n)]
    # addition mod n: a group by construction
    table = {(names[i], names[j]): names[(i + j) % n]
             for i in range(n) for j in range(n)}
    return Group.by_construction(tuple(names), "e", table)


def _extend_iso(g1: Group, g2: Group, gens: list[str],
                images: list[str]) -> Optional[dict[str, str]]:
    """Grow the partial map gens -> images to a full homomorphism by
    closing under products; None on any clash."""
    mapping = {g1.identity: g2.identity}
    for a, b in zip(gens, images):
        mapping[a] = b
    changed = True
    while changed:
        changed = False
        for a in list(mapping):
            for b in list(mapping):
                prod = g1.mul(a, b)
                img = g2.mul(mapping[a], mapping[b])
                if prod in mapping:
                    if mapping[prod] != img:
                        return None
                else:
                    mapping[prod] = img
                    changed = True
    if len(mapping) != g1.order() or len(set(mapping.values())) != g1.order():
        return None
    return mapping


def find_isomorphism(g1: Group, g2: Group) -> Optional[dict[str, str]]:
    """Explicit isomorphism g1 -> g2, or None.  Backtracks over images of
    a greedy generating set, pruned by element orders."""
    if g1.order() != g2.order():
        return None
    orders2: dict[int, list[str]] = {}
    for s in g2.elements:
        orders2.setdefault(g2.element_order(s), []).append(s)
    gens = g1.generators()

    def backtrack(i: int, images: list[str]) -> Optional[dict[str, str]]:
        if i == len(gens):
            return _extend_iso(g1, g2, gens, images)
        for cand in orders2.get(g1.element_order(gens[i]), []):
            result = backtrack(i + 1, images + [cand])
            if result is not None:
                return result
        return None

    if not gens:
        return {g1.identity: g2.identity}
    return backtrack(0, [])
