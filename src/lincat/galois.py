"""Free group actions, categorical quotients, and the Galois analysis.

The quotient C/G is built on the representative model: objects are
orbits, hom(α, β) is the direct sum of the homs from the chosen
representative of α to every member of β, and composition translates the
middle object back into representative position by the unique group
element that freeness provides.  Basis names are inherited from the
source, so quotient structure constants can be compared literally.

A Galois covering is analysed on the object maps of its deck group
alone, structure_iso included: no column of a covering morphism is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .covering import (CoveringGroup, _deck_group, _Extension, fibre,
                       galois_obstruction)
from .groups import Group
from .kcat import (LinCat, LinComb, LinFunctor, compose, functor_equal,
                   identity_functor, is_connected, validate_functor)


@dataclass
class GroupAction:
    """A finite group acting by automorphisms, freely on objects; the
    axioms are decided when it is built (check_action), and ValueError
    refuses an action that fails one with its first problem."""
    group: Group
    functors: dict[str, LinFunctor]
    category: LinCat

    def __post_init__(self):
        problem = check_action(self)
        if problem is not None:
            raise ValueError(problem)

    def apply_object(self, s: str, x: str) -> str:
        return self.functors[s].object_map[x]


def check_action(a: GroupAction) -> Optional[str]:
    """The first problem of a as a free action by automorphisms, or None.

    With F_e = 1, F_(s·g) = F_s∘F_g for every generator g gives
    F_(s·t) = F_s∘F_t by induction on the length of t as a word in the
    generators, so every F_t is a product of generators' functors and
    functorial when theirs are: no other element or pair is checked.
    Each F_g is then an automorphism, as F_g^(ord g) = F_e = 1."""
    grp, fs = a.group, a.functors
    for s in fs:
        if s not in grp.elements:
            return f"functors names {s!r}, which is not a group element"
    for s in grp.elements:
        if s not in fs:
            return f"no functor for group element {s}"
        if fs[s].source != a.category or fs[s].target != a.category:
            return f"functor of {s} is not an endofunctor of the category"
    if not functor_equal(fs[grp.identity], identity_functor(a.category)):
        return "identity element does not act as the identity functor"
    gens = grp.generators()
    for g in gens:
        if validate_functor(fs[g]):
            return f"functor of {g} is not functorial"
    for g in gens:
        for s in grp.elements:
            sg = grp.mul(s, g)
            if not _composes_to(fs[s], fs[g], fs[sg]):
                return f"action is not compatible: {s}·{g} ≠ {sg} on functors"
    for s in grp.elements:
        if s != grp.identity:
            for x in a.category.objects:
                if a.apply_object(s, x) == x:
                    return f"action is not free: {s}·{x} = {x}"
    return None


def _composes_to(fs: LinFunctor, fg: LinFunctor, h: LinFunctor) -> bool:
    """Whether fs∘fg = h, for three endofunctors of one category:
    compared object map by object map, then block by block and column
    by column, each column of fs∘fg made as it is compared; no
    composite is built."""
    gmap, smap, hmats = fg.object_map, fs.object_map, h.matrices
    if any(smap[gmap[x]] != y for x, y in h.object_map.items()):
        return False
    for (x, y), m in fg.matrices.items():
        outer = fs.block(gmap[x], gmap[y])
        for col, want in zip(m.columns, hmats[(x, y)].columns):
            if outer(col) != want:
                return False
    return True


@dataclass
class QuotientResult:
    quotient: LinCat
    projection: LinFunctor


def quotient(a: GroupAction) -> QuotientResult:
    """The categorical quotient with its projection covering.

    Objects are orbits, named by their lexicographically least member,
    which also serves as the representative.  hom(α, β) is spanned by the
    source bases of hom(rep(α), y) over all y in β, inheriting names.

    The action was decided when it was built, and the acting group is
    the deck group of the projection P, which is not rebuilt: each
    P∘s = P, so every s is a deck transformation; the images of the
    first object run over its orbit, which is its whole fibre; and by
    rigidity a deck transformation is fixed by that image, so there are
    no others.  P is thus a Galois covering.
    """
    c, fs = a.category, a.functors
    if not is_connected(c).connected:
        raise ValueError("quotient requires a connected category")
    orbit_of: dict[str, str] = {}
    orbit_names: list[str] = []  # each orbit is named by its representative
    for x in c.objects:
        if x in orbit_of:
            continue
        orbit = {a.apply_object(s, x) for s in a.group.elements}
        rep = min(orbit)
        for y in orbit:
            orbit_of[y] = rep
        orbit_names.append(rep)
    members: dict[str, list[str]] = {rep: [] for rep in orbit_names}
    for x in c.objects:
        members[orbit_of[x]].append(x)  # declaration order within each orbit

    # unique translator: translate[(rep, y)] = s with s·rep = y
    translate: dict[tuple[str, str], str] = {}
    for rep in orbit_names:
        for s in a.group.elements:
            translate[(rep, a.apply_object(s, rep))] = s

    hom: dict[tuple[str, str], tuple[str, ...]] = {}
    for alpha in orbit_names:
        for beta in orbit_names:
            names = tuple(n for y in members[beta] for n in c.basis(alpha, y))
            if names:
                hom[(alpha, beta)] = names

    identities = {alpha: c.identity(alpha) for alpha in orbit_names}

    comp: dict[tuple[str, str], LinComb] = {}
    for alpha in orbit_names:
        for beta in orbit_names:
            for y in members[beta]:
                fns = c.basis(alpha, y)
                if not fns:
                    continue
                fu = fs[translate[(beta, y)]]
                images = [(gn, fu.apply_name(gn)) for gamma in orbit_names
                          for gn in hom.get((beta, gamma), ())]
                for fn in fns:
                    for gn, gu in images:
                        result = compose(c, gu, {fn: c.field.one()})
                        if result:
                            comp[(gn, fn)] = result

    q = LinCat(c.field, tuple(orbit_names), hom, comp, identities)

    omap = {x: orbit_of[x] for x in c.objects}
    back: dict[str, LinComb] = {}  # n out of x goes to u⁻¹·n, u·rep = x
    for x in c.objects:
        fu_inv = fs[a.group.inv(translate[(orbit_of[x], x)])]
        for n in c.leaving[x]:
            back[n] = fu_inv.apply_name(n)
    return QuotientResult(q, LinFunctor.on_basis(c, q, omap, back))


@dataclass
class GaloisResult:
    galois: bool
    group: Optional[CoveringGroup]
    reason: Optional[str]


def is_galois(f: LinFunctor) -> GaloisResult:
    """Connected source and deck group transitive on the seed fibre; the
    free action makes transitivity equivalent to |group| = |fibre|.  f
    must be a covering: ValueError refuses it otherwise with its
    check_covering message, as aut1 does, which also decides whether
    the source is connected."""
    grp = _deck_group(f)
    if grp is None:
        return GaloisResult(False, None, "source category is not connected")
    reason = galois_obstruction(grp)
    return GaloisResult(reason is None, grp, reason)


def _galois_group(f: LinFunctor) -> CoveringGroup:
    """The deck group of a Galois covering; ValueError otherwise."""
    gal = is_galois(f)
    if not gal.galois:
        raise ValueError(f"covering is not Galois: {gal.reason}")
    return gal.group


def structure_iso(f: LinFunctor) -> dict[str, str]:
    """The object map of the isomorphism F' with F'∘P = F, P the
    projection onto the quotient of F's source by its deck group
    (see quotient): the orbit {k(x) : k} of x is named by its least
    member, as quotient names orbits, and goes to F(x); orbits come in
    the order of their first members in the source.  No category or
    functor is built.  F' is not checked, as the paper proves that it
    is an isomorphism with F'∘P = F:

    (f) Summing dim hom(x, y) over the fibres of b and b', where
        hom(b, b') ≠ 0, by F's outgoing and then its incoming star
        blocks shows that the two fibres have one size; the base is
        connected, so all fibres do.  Each fibre is a union of free
        orbits, so for a Galois covering the fibres are the orbits, and
        F' is bijective on objects.  On hom(α, β), F' is F's star block
        at rep α, which is bijective.  F'∘P = F and functoriality follow
        from F∘u = F for each deck transformation u.
    """
    maps = _galois_group(f).object_maps.values()
    omap: dict[str, str] = {}
    named: set[str] = set()  # the members of the orbits named so far
    for x in f.source.objects:
        if x not in named:
            orbit = {k[x] for k in maps}
            named |= orbit
            omap[min(orbit)] = f.object_map[x]
    return omap


def hom_coverings(u: LinFunctor, f: LinFunctor) -> list[dict[str, str]]:
    """All morphisms (H, 1) from one Galois covering to another over the
    same base, by the image of the first object u0 of U, in fibre order.

    By rigidity a morphism is fixed by that image, and for a morphism H₀
    and a deck transformation k of F, k∘H₀ is the morphism with seed
    image k(H₀(u0)).  F being Galois, it is the quotient by its deck
    group (see structure_iso), so each fibre of F is one orbit: either
    the first seed of the fibre extends to some H₀ and the morphisms
    are the k∘H₀, one per seed, or no seed extends.  So one seed is
    extended, and the others' object maps are compositions of object
    maps.  Each morphism is its object map (see extend_morphism)."""
    return _hom_coverings(u, f)[0]


def _hom_coverings(u: LinFunctor, f: LinFunctor
                   ) -> tuple[list[dict[str, str]], CoveringGroup]:
    """hom_coverings(u, f) and the deck group of u; an f equal to u, such
    as a second copy decoded from the same file, shares u's deck group."""
    if u.target != f.target:
        raise ValueError("coverings do not share a base")
    gu = _galois_group(u)
    gf = gu if f == u else _galois_group(f)
    u0 = u.source.objects[0]
    fib = fibre(f, u.object_map[u0])
    h0 = _Extension(u, f).walk(u0, fib[0])
    if h0 is None:
        return [], gu
    deck = {k[fib[0]]: k for k in gf.object_maps.values()}
    return [{x: deck[c0][y] for x, y in h0.items()} for c0 in fib], gu


@dataclass
class GSetReport:
    homs: list[dict[str, str]]  # object maps, as hom_coverings gives them
    isotropy: tuple[str, ...]


def gset_analysis(u: LinFunctor, f: LinFunctor) -> GSetReport:
    """The morphisms U -> F, with the isotropy subgroup of the first, H₀,
    under the deck group of U acting by precomposition: the h, in element
    order, with H₀(h(u0)) = H₀(u0), as by rigidity H₀∘h is the morphism
    with that seed image.  Only object maps are read.

    (e) The G-set is transitive: for a morphism H₁, H₁(u0) = H₀(u1) for
        some u1 by (a) of lambda_map, and U(u1) = U(u0), so as in (b)
        some h has H₀∘h = H₁.  So |homs| · |isotropy| = |Aut(U)|, and
        the isotropy of H₀ is ker λ for H₀, which is normal.
    """
    homs, gu = _hom_coverings(u, f)
    if not homs:
        raise ValueError("no morphisms between the coverings; "
                         "the action is empty")
    u0 = u.source.objects[0]
    h0 = homs[0]
    isotropy = tuple(name for name in gu.group.elements
                     if h0[gu.object_maps[name][u0]] == h0[u0])
    return GSetReport(homs, isotropy)


@dataclass
class UniversalReport:
    ok: bool
    pairs_checked: int
    violations: list[tuple[int, str, str]]  # (family index, u0, c0)


def check_universal(u: LinFunctor, family: list[LinFunctor]
                    ) -> UniversalReport:
    """Relative universality: for every covering in the family and every
    compatible seed pair, a morphism (H, 1) out of u exists (uniqueness
    per seed is forced by rigidity).  No claim is made beyond the family.
    Family members must be coverings (see extend_morphism).
    """
    _galois_group(u)
    violations = []
    checked = 0
    for idx, f in enumerate(family):
        if f.target != u.target:
            raise ValueError(f"family member {idx} has a different base")
        ext = _Extension(u, f)
        for u0 in u.source.objects:
            for c0 in fibre(f, u.object_map[u0]):
                checked += 1
                if ext.walk(u0, c0) is None:
                    violations.append((idx, u0, c0))
    return UniversalReport(not violations, checked, violations)
