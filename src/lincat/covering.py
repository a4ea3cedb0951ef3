"""Coverings of linear categories.

A covering is a k-linear functor that is surjective on objects and
restricts to isomorphisms between stars, block by block over each fibre.
check_covering decides all three, once per functor.  Everything
else here rides on one rigidity fact: a morphism of coverings is
determined by its value on a single object, so deck transformation groups
are found by seeding one object over a fibre and propagating through star
isomorphisms, and are multiplied by where they send that object.  Only
generators are extended, and only their object maps are kept: the other
elements are products, found by composing object maps.  A morphism is
held as its object map alone; walk keeps none of its columns.

The star block of F at a source object x towards a base object b is the
map from the hom spaces between x and the fibre over b to the hom space
between F(x) and b; it is kept as sparse columns, ordered by fibre
position and then by basis position.  check_covering builds every star
block that holds columns in one pass over the nonzero hom pairs of the
source and decides each with one exactlinalg.inverse; a block with no
columns is bijective exactly when its base hom is zero.  Its
CoveringReport carries validate_functor's violations and the star
table: the inverse of every bijective block that holds columns.  The
report is kept on the functor it was made for, so every caller that
needs a verdict or a star block of F calls check_covering(F), and each
functor is validated once and each of its star blocks inverted once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .exactlinalg import Matrix, inverse
from .groups import Group
from .kcat import LinFunctor, Violation, is_connected, validate_functor


def fibre(f: LinFunctor, b: str) -> list[str]:
    """Objects over b, in source declaration order."""
    if b not in f.target.objects:
        raise ValueError(f"unknown base object {b!r}")
    return [x for x in f.source.objects if f.object_map[x] == b]


# the position range of one fibre object's block inside a star block:
# (fibre object, first position, last position)
Owner = tuple[str, int, int]


@dataclass
class CoveringReport:
    """check_covering's verdict, with its star table."""
    ok: bool
    surjective: bool
    failures: list[tuple[str, str, str]]  # (fibre object, base object, direction)
    violations: list[Violation]  # validate_functor's
    # (x, b, direction) -> (inverse, owner) for each bijective star block
    # that holds columns
    stars: dict[tuple[str, str, str], tuple[Matrix, list[Owner]]] = field(
        default=None, repr=False, compare=False)

    def message(self) -> str:
        if self.ok:
            return "covering: all star blocks bijective"
        if self.violations:
            return f"not a functor: {self.violations[0]}"
        if not self.surjective:
            return "not surjective on objects"
        x, b1, d = self.failures[0]
        return (f"star block not bijective at ({x}, {b1}), "
                f"{'outgoing' if d == 'out' else 'incoming'} half")


def check_covering(f: LinFunctor) -> CoveringReport:
    """Whether f is a covering: a k-functor (validate_functor), surjective
    on objects, with both star halves bijective block by block over each
    fibre at every source object; with the star table of the inverses
    of the bijective blocks that hold columns.  The report is made on
    the first call and kept on f, which is never mutated (see
    LinFunctor): later calls return the same report."""
    if f._covering is None:
        f._covering = _covering_report(f)
    return f._covering


def _covering_report(f: LinFunctor) -> CoveringReport:
    """check_covering's work.  Each nonzero hom(x,y) of the source adds
    its columns to the outgoing star of x towards F(y) and to the
    incoming star of y towards F(x); pairs run x-major in declaration
    order, so the columns fall in fibre order.  A block that holds
    columns is bijective exactly when its base hom has as many basis
    names and exactlinalg.inverse inverts it.  A block with no
    columns is bijective exactly when its base hom is zero, so only the
    blocks towards the neighbours of F(x) in the base are looked for.
    Failures are listed by source object, then base object, in
    declaration order, the outgoing half first."""
    src, tgt, omap = f.source, f.target, f.object_map
    surjective = set(omap.values()) == set(tgt.objects)
    cols: dict[tuple[str, str, str], list[dict]] = {}
    owner: dict[tuple[str, str, str], list[Owner]] = {}
    for (x, y), m in f.matrices.items():
        for key, e in (((x, omap[y], "out"), y), ((y, omap[x], "in"), x)):
            at = cols.setdefault(key, [])
            owner.setdefault(key, []).extend(
                [(e, len(at), len(at) + m.cols - 1)] * m.cols)
            at.extend(m.columns)
    failures: list[tuple[str, str, str]] = []
    stars: dict[tuple[str, str, str], tuple[Matrix, list[Owner]]] = {}
    for key, block in cols.items():
        x, b, direction = key
        n = tgt.dim(omap[x], b) if direction == "out" else tgt.dim(b, omap[x])
        inv = (inverse(Matrix(src.field, n, n, tuple(block)))
               if len(block) == n else None)
        if inv is None:
            failures.append(key)
        else:
            stars[key] = (inv, owner[key])
    near: dict[str, list[tuple[str, str]]] = {b: [] for b in tgt.objects}
    for b0, b1 in tgt.hom:
        near[b0].append((b1, "out"))
        near[b1].append((b0, "in"))
    for x in src.objects:
        for b, direction in near[omap[x]]:
            if (x, b, direction) not in cols:
                failures.append((x, b, direction))
    if failures:
        at_src = {x: i for i, x in enumerate(src.objects)}
        at_tgt = {b: i for i, b in enumerate(tgt.objects)}
        failures.sort(key=lambda k: (at_src[k[0]], at_tgt[k[1]],
                                     k[2] != "out"))
    violations = validate_functor(f)
    return CoveringReport(surjective and not failures and not violations,
                          surjective, failures, violations, stars)


class _Extension:
    """What extending morphisms F -> G needs that no seed changes, built
    once per (F, G) and shared by every seed: each basis image F(n) as a
    sparse column, whether F and G are functors (read from
    check_covering, see extend_morphism), and the star table of G, from
    check_covering(g).  G must be a covering: a visited star block that
    is not bijective raises ValueError.  walk finds a morphism's object
    map."""

    def __init__(self, f: LinFunctor, g: LinFunctor):
        if g.target != f.target:
            raise ValueError("functors do not share the base category")
        self.f, self.g = f, g
        report = check_covering(g)
        self.functorial = (not check_covering(f).violations
                           and not report.violations)
        self.image = {n: col for pair, m in f.matrices.items()
                      for n, col in zip(f.source.hom[pair], m.columns)}
        self.stars, self.failed = report.stars, set(report.failures)
        self.empty = (Matrix(g.source.field, 0, 0, ()), [])

    def star(self, x: str, b: str, direction: str
             ) -> tuple[Matrix, list[Owner]]:
        """The star table's entry for G's star block at x towards the
        fibre of b; a bijective block with no columns is 0×0."""
        key = (x, b, direction)
        entry = self.stars.get(key)
        if entry is not None:
            return entry
        if key in self.failed:
            raise ValueError(
                f"G is not a covering: star block at ({x}, {b}), "
                f"{'outgoing' if direction == 'out' else 'incoming'} "
                "half, is not bijective")
        return self.empty

    def walk(self, x0: str, d0: str) -> Optional[dict[str, str]]:
        """The object map of the unique H with H(x0) = d0 and G∘H = F,
        or None: extend_morphism's propagation, which reads every column
        of H once and keeps none."""
        f, g = self.f, self.g
        c, d = f.source, g.source
        if x0 not in c.objects or d0 not in d.objects:
            raise ValueError("unknown seed objects")
        if g.object_map[d0] != f.object_map[x0]:
            raise ValueError(f"seed mismatch: G({d0}) != F({x0}) on the base")
        fmap, image = f.object_map, self.image
        omap = {x0: d0}
        placed: set[str] = set()  # basis names whose column was read
        queue = [x0]
        for x in queue:  # the queue grows while it is read
            hx = omap[x]
            for direction, names, far in (("out", c.leaving[x], c.target_of),
                                          ("in", c.arriving[x], c.source_of)):
                for n in names:
                    if n in placed:
                        continue
                    y = far(n)
                    inv, owner = self.star(hx, fmap[y], direction)
                    cand = inv(image[n])
                    if not cand:
                        return None
                    e, _, last = owner[min(cand)]
                    if max(cand) > last:
                        return None  # spread over several blocks
                    if y not in omap:
                        omap[y] = e
                        queue.append(y)
                    elif omap[y] != e:
                        return None
                    placed.add(n)
        if len(omap) != len(c.objects):
            raise ValueError("source category is not connected; "
                             "the extension is not determined")
        if not self.functorial:
            return None
        return omap


def extend_morphism(f: LinFunctor, g: LinFunctor, x0: str, d0: str
                    ) -> Optional[dict[str, str]]:
    """The object map of the unique morphism (H, 1): F -> G with
    H(x0) = d0, that is G∘H = F, or None.

    G must be a covering; every caller checks this with check_covering,
    whose report (kept on G) also supplies G's star table here.  A star
    block of G that propagation needs and that is not bijective raises
    ValueError.

    Rigidity: once H(x) is known, a basis morphism n out of or into x
    has H(n) inside G's star block at H(x) towards the fibre of the
    neighbour's image, and G maps that block bijectively, so H(n) is the
    star inverse applied to F(n).  It must lie in a single fibre block,
    which names the neighbour's image; a spread or a conflict with an
    earlier assignment means no H exists.  Propagation from x0 thus
    fixes every object and every matrix column of the only candidate
    (_Extension.walk).  When F and G are functors it is a morphism:
    G∘H = F holds column by column, and G(H(g∘f)) = F(g)∘F(f) =
    G(H(g)∘H(f)), likewise for units, with G injective on each hom
    space; otherwise no seed extends.  Both verdicts are read from
    check_covering.

    The library never needs H as a functor.  By rigidity two morphisms
    that agree at one object are equal, so morphisms compose, compare
    and act on each other as their object maps do: deck groups, λ, the
    G-set of morphisms, universality and the factorization through the
    quotient are all decided on object maps.
    """
    return _Extension(f, g).walk(x0, d0)


@dataclass
class CoveringGroup:
    """Deck transformations (H, 1) of one covering, with an explicit
    multiplication table.  The table is authoritative; label() is a
    cosmetic isomorphism-type guess.

    Each element is kept as its object map, generators included: aut1
    builds no functor (see extend_morphism)."""
    group: Group
    object_maps: dict[str, dict[str, str]]
    seed_fibre: tuple[str, ...]

    def order(self) -> int:
        return self.group.order()

    def label(self) -> str:
        return self.group.label()


def _closure(x0: str, gens: list[dict[str, str]]
             ) -> dict[str, dict[str, str]]:
    """The object maps of all products of gens, keyed by the image of
    x0: a search from the first, which must be the identity, multiplying
    on the left by each of the others."""
    out = {x0: gens[0]}
    queue = [gens[0]]
    for u in queue:  # the queue grows while it is read
        for g in gens[1:]:
            v = {x: g[y] for x, y in u.items()}
            if v[x0] not in out:
                out[v[x0]] = v
                queue.append(v)
    return out


def aut1(f: LinFunctor) -> CoveringGroup:
    """All deck transformations of a covering with connected source,
    found by seeding the first object x0 over its fibre and extending
    generators only.  f must be a covering: its check_covering report
    refuses it otherwise (ValueError, with the report's message), and
    supplies the star table.  A disconnected source is refused too.

    Everything rests on rigidity: a deck transformation is the unique
    extension of its seed image h(x0), so
    - h1∘h2 is the element whose seed image is h1(h2(x0)), and object
      maps compose as maps of source objects;
    - the extension of x0 ↦ x0 is the identity functor, named e;
    - an element fixing any object y agrees with the identity at y, so it
      is the identity: the action on objects is free.
    Seeds are taken in fibre order, and a seed that a product of the
    elements extended so far already reaches is not extended: after each
    new generator, the object maps are closed under composition (orbit
    closure, as in Schreier–Sims).  A seed that does not extend stays
    unreached, since a product reaching it would be a deck
    transformation with that seed image.  Each new generator at least
    doubles the group, so on a Galois covering at most 1 + log2 |fibre|
    seeds are extended.
    Elements are named e, g1, g2, … by seed image in fibre order.  No
    functor is built, composed or compared (see CoveringGroup).
    """
    grp = _deck_group(f)
    if grp is None:
        raise ValueError("covering source is not connected")
    return grp


def _deck_group(f: LinFunctor) -> Optional[CoveringGroup]:
    """aut1(f), or None when the source of the covering f is not
    connected.

    Its table is a group by construction, so no axiom is checked: the
    entry of (d1, d2) names the object map maps[d1]∘maps[d2], by its
    seed image maps[d1][d2], and maps holds every product of the
    generators.  So the table is the composition table of a finite set
    of bijections of the objects closed under composition, which holds
    the identity map (e) and the inverse of each map, a power of it;
    rigidity makes the seed image name each map once."""
    report = check_covering(f)
    if not report.ok:
        raise ValueError(f"not a covering: {report.message()}")
    c = f.source
    if not is_connected(c).connected:
        return None
    x0 = c.objects[0]
    fib = tuple(fibre(f, f.object_map[x0]))
    ext = _Extension(f, f)
    # x0 ↦ x0 extends to the identity, so it needs no walk
    gens = [{x: x for x in c.objects}]  # object maps of the generators
    maps = _closure(x0, gens)  # seed image -> object map
    for d0 in fib:
        if d0 in maps:
            continue
        omap = ext.walk(x0, d0)
        if omap is not None:
            gens.append(omap)
            maps = _closure(x0, gens)
    name = {d0: f"g{k}" if k else "e"
            for k, d0 in enumerate(d0 for d0 in fib if d0 in maps)}
    table = {(name[d1], name[d2]): name[maps[d1][d2]]
             for d1 in name for d2 in name}
    group = Group.by_construction(tuple(name.values()), "e", table)
    return CoveringGroup(group, {name[d0]: maps[d0] for d0 in name}, fib)


def galois_obstruction(grp: CoveringGroup) -> Optional[str]:
    """None if the deck group grp is transitive on its seed fibre, else a
    reason string; aut1 has already refused a disconnected source."""
    if grp.order() != len(grp.seed_fibre):
        return (f"deck group of order {grp.order()} cannot be transitive on "
                f"a fibre of size {len(grp.seed_fibre)}")
    return None


@dataclass
class LambdaResult:
    """λ on the names of deck transformations, with its kernel."""
    source_group: CoveringGroup
    target_group: CoveringGroup
    mapping: dict[str, str]
    kernel: tuple[str, ...]


def lambda_map(f: LinFunctor, g: LinFunctor, d0: str) -> LambdaResult:
    """λ for the morphism (H, 1): F -> G seeded at x0 ↦ d0, x0
    the first object of F's source: for each deck transformation h of F,
    the unique deck transformation λ(h) of G with λ(h)∘H = H∘h.  Refused
    with ValueError, in this order: a seed that does not extend (or
    that walk refuses), F or G not Galois.  H is only walked: G∘H = F
    and H is a functor by construction (see extend_morphism).  H∘h is
    the morphism with seed image H(h(x0)), and so is k∘H for the one
    deck transformation k of G with k(d0) = H(h(x0)): λ(h) = k.  What
    the paper proves of every such H is not recomputed:

    (a) H is onto and star-bijective.  F's star block at x towards b is
        G's block at H(x) after the direct sum, over d ∈ G⁻¹(b), of H's
        blocks at x towards d.  Both F's and G's blocks are bijective,
        so each of H's is.  So hom(H(x), d) ≠ 0 forces d into H's
        image, and so does hom(d, H(x)) ≠ 0; G's source is connected,
        so H is onto.
    (b) λ is onto.  Take k in Aut(G).  By (a), k(d0) = H(x1) for some
        x1, and F(x1) = G(k(d0)) = F(x0).  F is Galois, so some h has
        h(x0) = x1.  Then H∘h and k∘H agree at x0, so they are equal
        by rigidity.
    (c) ker λ = Aut(H).  λ(h) = e exactly when H∘h = H, and every deck
        transformation u of H is one of F: F∘u = G∘H∘u = F.
    (d) H is Galois.  Take x1 and x2 in one fibre of H, so of F.  F is
        Galois, so some h sends x1 to x2.  Then H∘h and H agree at x1,
        so H∘h = H.
    """
    if not f.source.objects:
        raise ValueError("covering source is not connected")
    x0 = f.source.objects[0]
    omap = _Extension(f, g).walk(x0, d0)
    if omap is None:
        raise ValueError("no morphism between the coverings from "
                         f"seed {x0} -> {d0}")
    gf = aut1(f)
    gg = aut1(g)
    for grp in (gf, gg):
        reason = galois_obstruction(grp)
        if reason is not None:
            raise ValueError(f"covering is not Galois: {reason}")
    by_seed = {k[d0]: n for n, k in gg.object_maps.items()}
    mapping = {n: by_seed[omap[h[x0]]] for n, h in gf.object_maps.items()}
    kernel = tuple(n for n, v in mapping.items() if v == "e")
    return LambdaResult(gf, gg, mapping, kernel)
