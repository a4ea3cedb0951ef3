"""Coverings of linear categories.

A covering is a functor that is surjective on objects and restricts to
isomorphisms between stars, block by block over each fibre.  Everything
else here rides on one rigidity fact: a morphism of coverings is
determined by its value on a single object, so deck transformation groups
are found by seeding one object over a fibre and propagating through star
isomorphisms, and are multiplied by where they send that object.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactlinalg import Matrix, solve
from .groups import Group
from .kcat import (LinCat, LinFunctor, functor_compose,
                   functor_equal, functor_is_isomorphism, identity_functor,
                   is_connected, validate_functor)


@dataclass
class StarDecomposition:
    """All morphisms into and out of one object, ordered by object then
    basis index; the endomorphism space contributes to both halves, so it
    is counted twice in the total."""
    base: str
    outgoing: dict[str, tuple[str, ...]]  # y -> basis of hom(base, y)
    incoming: dict[str, tuple[str, ...]]  # y -> basis of hom(y, base)
    total_dim: int


def star(c: LinCat, x: str) -> StarDecomposition:
    if x not in c.objects:
        raise ValueError(f"unknown object {x!r}")
    outgoing = {y: c.hom[(x, y)] for y in c.objects}
    incoming = {y: c.hom[(y, x)] for y in c.objects}
    total = sum(len(v) for v in outgoing.values()) + \
        sum(len(v) for v in incoming.values())
    return StarDecomposition(x, outgoing, incoming, total)


def fibre(f: LinFunctor, b: str) -> list[str]:
    """Objects over b, in source declaration order."""
    if b not in f.target.objects:
        raise ValueError(f"unknown base object {b!r}")
    return [x for x in f.source.objects if f.object_map[x] == b]


def _star_matrix(f: LinFunctor, x: str, b1: str, direction: str) -> Matrix:
    """The map (⊕ over the fibre of b1 of homs between x and the fibre)
    -> hom between f(x) and b1, as a column-block matrix in fibre order."""
    b0 = f.object_map[x]
    if direction == "out":
        rows = f.target.dim(b0, b1)
        blocks = [f.matrices[(x, y)] for y in fibre(f, b1)]
    else:
        rows = f.target.dim(b1, b0)
        blocks = [f.matrices[(y, x)] for y in fibre(f, b1)]
    m = Matrix.zeros(f.source.field, rows, 0)
    for b in blocks:
        m = m.hstack(b)
    return m


@dataclass
class CoveringReport:
    ok: bool
    surjective: bool
    failures: list[tuple[str, str, str]]  # (fibre object, base object, direction)

    def message(self) -> str:
        if self.ok:
            return "covering: all star blocks bijective"
        if not self.surjective:
            return "not surjective on objects"
        x, b1, d = self.failures[0]
        return (f"star block not bijective at ({x}, {b1}), "
                f"{'outgoing' if d == 'out' else 'incoming'} half")


def check_covering(f: LinFunctor) -> CoveringReport:
    """Object surjectivity plus per-fibre block bijectivity of both star
    halves at every source object."""
    hit = set(f.object_map.values())
    surjective = hit == set(f.target.objects)
    failures: list[tuple[str, str, str]] = []
    from .exactlinalg import rank
    for x in f.source.objects:
        for b1 in f.target.objects:
            for direction in ("out", "in"):
                m = _star_matrix(f, x, b1, direction)
                if m.rows != m.cols or rank(m) != m.rows:
                    failures.append((x, b1, direction))
    return CoveringReport(surjective and not failures, surjective, failures)


@dataclass
class CoveringMorphism:
    """(H, J) with H over the fibres and J an automorphism of the base
    fixing objects; the defining equation is G∘H = J∘F."""
    h: LinFunctor
    j: LinFunctor


def validate_morphism(m: CoveringMorphism, f: LinFunctor,
                      g: LinFunctor) -> list[str]:
    problems = []
    if f.target != g.target:
        problems.append("coverings have different bases")
        return problems
    base = f.target
    if m.j.source != base or m.j.target != base:
        problems.append("J is not an endofunctor of the base")
        return problems
    if any(m.j.object_map[x] != x for x in base.objects):
        problems.append("J moves objects")
    if not functor_is_isomorphism(m.j):
        problems.append("J is not an isomorphism")
    if m.h.source != f.source or m.h.target != g.source:
        problems.append("H does not run from the first covering to the second")
        return problems
    if validate_functor(m.h):
        problems.append("H is not functorial")
    if not functor_equal(functor_compose(g, m.h), functor_compose(m.j, f)):
        problems.append("G∘H differs from J∘F")
    return problems


def check_morphism(m: CoveringMorphism, f: LinFunctor, g: LinFunctor) -> bool:
    return not validate_morphism(m, f, g)


def extend_morphism(f: LinFunctor, g: LinFunctor, j: LinFunctor,
                    x0: str, d0: str) -> Optional[LinFunctor]:
    """The unique H with H(x0) = d0 and G∘H = J∘F, or None.

    Seeds the object map at x0 and propagates through star solves: the
    image of a basis morphism out of a mapped object must lie in a single
    fibre block, which pins down the image of the neighbouring object.
    After propagation every matrix entry is recovered by solving inside
    its block, then functoriality and G∘H = J∘F are verified globally
    (propagation alone guarantees uniqueness, not existence).
    """
    c, d, base = f.source, g.source, f.target
    if g.target != base or j.source != base or j.target != base:
        raise ValueError("functors do not share the base category")
    if any(j.object_map[x] != x for x in base.objects):
        raise ValueError("J must fix objects")
    if not functor_is_isomorphism(j):
        raise ValueError("J must be an isomorphism")
    if x0 not in c.objects or d0 not in d.objects:
        raise ValueError("unknown seed objects")
    if g.object_map[d0] != f.object_map[x0]:
        raise ValueError(f"seed mismatch: G({d0}) != F({x0}) on the base")

    def jf_vector(name: str, x: str, y: str) -> list:
        comb = j.apply(f.apply_name(name))
        return base.vector(comb, f.object_map[x], f.object_map[y])

    def locate_block(x: str, y: str, direction: str) -> Optional[str]:
        """Which fibre object over F(y) receives hom(x, y) (or emits
        hom(y, x)) given the image of x; None on a spread or a miss."""
        names = c.hom[(x, y)] if direction == "out" else c.hom[(y, x)]
        first = names[0]
        if direction == "out":
            vec = jf_vector(first, x, y)
        else:
            vec = jf_vector(first, y, x)
        m = _star_matrix(g, omap[x], f.object_map[y], direction)
        sol = solve(m, vec)
        if sol is None:
            return None
        blocks = fibre(g, f.object_map[y])
        found = None
        pos = 0
        for e in blocks:
            width = d.dim(omap[x], e) if direction == "out" else d.dim(e, omap[x])
            if any(not s.is_zero() for s in sol[pos:pos + width]):
                if found is not None:
                    return None
                found = e
            pos += width
        return found

    omap = {x0: d0}
    queue = [x0]
    while queue:
        x = queue.pop(0)
        for y in c.objects:
            for direction in ("out", "in"):
                names = c.hom[(x, y)] if direction == "out" else c.hom[(y, x)]
                if not names:
                    continue
                e = locate_block(x, y, direction)
                if e is None:
                    return None
                if y in omap:
                    if omap[y] != e:
                        return None
                else:
                    omap[y] = e
                    queue.append(y)
    if len(omap) != len(c.objects):
        raise ValueError("source category is not connected; "
                         "the extension is not determined")

    mats = {}
    for (x, y), names in c.hom.items():
        block = g.matrices[(omap[x], omap[y])]
        cols = []
        for n in names:
            sol = solve(block, jf_vector(n, x, y))
            if sol is None:
                return None
            cols.append(sol)
        mats[(x, y)] = Matrix.from_cols(c.field, cols, nrows=block.cols)
    h = LinFunctor(c, d, omap, mats)
    if validate_functor(h):
        return None
    if not functor_equal(functor_compose(g, h), functor_compose(j, f)):
        return None
    return h


@dataclass
class CoveringGroup:
    """Deck transformations (H, 1) of one covering, with an explicit
    multiplication table.  The table is authoritative; label() is a
    cosmetic isomorphism-type guess."""
    covering: LinFunctor
    group: Group
    functors: dict[str, LinFunctor]
    seed_object: str
    seed_fibre: tuple[str, ...]

    def order(self) -> int:
        return self.group.order()

    def functor(self, name: str) -> LinFunctor:
        return self.functors[name]

    def label(self) -> str:
        return self.group.label()

    def name_of(self, h: LinFunctor) -> Optional[str]:
        """The element equal to h, or None.  By rigidity only the element
        sharing h's seed image can be equal to it."""
        seed = h.object_map.get(self.seed_object)
        for n, cand in self.functors.items():
            if cand.object_map[self.seed_object] == seed:
                return n if functor_equal(cand, h) else None
        return None


def aut1(f: LinFunctor) -> CoveringGroup:
    """All deck transformations of a covering with connected source,
    found by seeding the first object x0 over its fibre.

    The table rests on rigidity: a deck transformation is the unique
    extension of its seed image h(x0), so
    - h1∘h2 is the element whose seed image is h1(h2(x0));
    - the extension of x0 ↦ x0 is the identity functor, named e;
    - an element fixing any object y agrees with the identity at y, so it
      is the identity: the action on objects is free.
    No functor is composed or compared.
    """
    c = f.source
    if not is_connected(c).connected:
        raise ValueError("covering source is not connected")
    x0 = c.objects[0]
    fib = tuple(fibre(f, f.object_map[x0]))
    j = identity_functor(f.target)
    functors: dict[str, LinFunctor] = {}
    for d0 in fib:  # x0 comes first: fibres keep declaration order
        h = extend_morphism(f, f, j, x0, d0)
        if h is None and d0 == x0:
            raise ValueError("identity extension failed; input is not a covering")
        if h is not None:
            functors[f"g{len(functors)}" if functors else "e"] = h
    by_seed = {h.object_map[x0]: n for n, h in functors.items()}
    table = {(n1, n2): by_seed[h1.object_map[h2.object_map[x0]]]
             for n1, h1 in functors.items() for n2, h2 in functors.items()}
    group = Group(tuple(functors), "e", table)
    return CoveringGroup(f, group, functors, x0, fib)


def galois_obstruction(f: LinFunctor, grp: CoveringGroup) -> Optional[str]:
    """None if grp = aut1(f) is transitive on the seed fibre, otherwise a
    reason string; aut1 has already refused a disconnected source."""
    if grp.order() != len(grp.seed_fibre):
        return (f"deck group of order {grp.order()} cannot be transitive on "
                f"a fibre of size {len(grp.seed_fibre)}")
    return None


@dataclass
class LambdaResult:
    """The induced homomorphism between deck groups of a morphism of
    Galois coverings, with its kernel identified as the deck group of H."""
    source_group: CoveringGroup
    target_group: CoveringGroup
    mapping: dict[str, str]
    surjective: bool
    kernel: tuple[str, ...]
    h_group: CoveringGroup
    kernel_matches_h_group: bool
    h_is_covering: bool
    h_is_galois: bool

    def ok(self) -> bool:
        return (self.surjective and self.kernel_matches_h_group
                and self.h_is_covering and self.h_is_galois)


def lambda_map(m: CoveringMorphism, f: LinFunctor, g: LinFunctor) -> LambdaResult:
    """For each deck transformation h of F, the unique deck transformation
    λ(h) of G with λ(h)∘H = H∘h; F and G must be coverings.

    By rigidity no composite is formed: H∘h is a morphism F -> G with
    seed image H(h(x0)), and G being Galois, exactly one deck
    transformation k of G sends H(x0) there; k∘H is a morphism with the
    same seed image, so k∘H = H∘h and λ(h) = k.
    """
    problems = validate_morphism(m, f, g)
    if problems:
        raise ValueError("invalid covering morphism: " + "; ".join(problems))
    gf = aut1(f)
    gg = aut1(g)
    for cover, grp in ((f, gf), (g, gg)):
        reason = galois_obstruction(cover, grp)
        if reason is not None:
            raise ValueError(f"covering is not Galois: {reason}")
    if set(m.h.object_map.values()) != set(g.source.objects):
        raise ValueError("H is not surjective on objects")

    x0 = f.source.objects[0]
    hx0 = m.h.object_map[x0]
    by_seed = {k.object_map[hx0]: n for n, k in gg.functors.items()}
    mapping = {n: by_seed[m.h.object_map[h.object_map[x0]]]
               for n, h in gf.functors.items()}
    surjective = set(mapping.values()) == set(gg.group.elements)
    kernel = tuple(n for n, v in mapping.items() if v == "e")

    h_report = check_covering(m.h)
    h_group = aut1(m.h)
    kernel_ok = (len(kernel) == h_group.order() and
                 all(h_group.name_of(gf.functors[n]) is not None
                     for n in kernel))
    h_galois = h_report.ok and galois_obstruction(m.h, h_group) is None
    return LambdaResult(gf, gg, mapping, surjective, kernel, h_group,
                        kernel_ok, h_report.ok, h_galois)
