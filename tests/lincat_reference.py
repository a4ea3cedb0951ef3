"""Library code that only the tests call, kept here as helpers and
references.

Helpers: `comb_add`, `comb_scale` and `comb_eq` on combinations of basis
names; `functor_compose` and `functor_is_isomorphism` on whole functors;
`morphism_functor`, a morphism of coverings built as a functor from its
object map, and `deck_functors`, every functor of a deck group, built
the same way; `make_category`,
a LinCat builder that coerces plain numbers into the field;
`trivial_grading`; `presentation_to_doc` and `dump_path`,
the writer side of the presentation format; the fixtures
`cyclic_reduction`, `twisted_cover`, `disconnected_double_kronecker`,
`shift_functor` and `shift_subgroup_action`; `derivation_space`, the kernel of the
Leibniz system that h1 ranks, as Derivations; `derivation_apply`,
`derivation_apply_name` and `derivation_sub` on Derivations; and
`rebased`, a category in another basis of each hom space.

References: `reference_validate_derivation` checks the Leibniz rule on
every composable basis pair by composing combinations,
`reference_derivation_vectors` solves the Leibniz system with a row for
every composable basis pair, unit names included, and
`reference_derivation_space`, `reference_inner_span` and
`reference_inner_basis` solve it and span the inner derivations as the
library once did.
They are the oracles for `_derivation_vectors`, `_inner_generators` and
`h1`.  `is_inner` decides whether a derivation is inner by membership in
that span: the oracle for `delta_is_inner`.  `reference_covering_report` builds a Matrix for
every star block and inverts each one up front, as check_covering once
did; `reference_hom_coverings` extends every seed of the fibre into a
whole functor, and `reference_gset_analysis` reads its action table
from those functors and decides transitivity, normality of the
isotropy (`is_normal`) and the orbit-stabilizer count, as
hom_coverings and gset_analysis once did;
`reference_structure_iso` builds the factorization through the quotient
that structure_iso once built, and `reference_structure_problems`
checks it as structure_iso once did.
`CoveringMorphism` is a pair (H, J); `reference_validate_morphism`
checks it by composing G∘H and J∘F and comparing them, and
`reference_lambda_map` takes a whole morphism, re-validates it and
identifies each kernel element with an element of aut1(H) by comparing
functors (`reference_name_of`), and decides surjectivity, the kernel
and whether H is Galois, as lambda_map once did.
"""
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional, Sequence, Union

from lincat.cohomology import (Derivation, _derivation_vectors, _derivations,
                               _inner_generators, _layout, _products)
from lincat.covering import (CoveringGroup, CoveringReport, aut1,
                             check_covering, extend_morphism, fibre,
                             galois_obstruction)
from lincat.exactlinalg import EchelonBasis, FieldSpec, Matrix, inverse
from lincat.fixtures import CoverFixture, Q, cyclic_cover, kronecker
from lincat.formats import FORMAT_VERSION, canonical_dumps
from lincat.galois import (GroupAction, QuotientResult, _galois_group,
                           quotient)
from lincat.grading import Grading, grading_on_basis
from lincat.groups import Group, cyclic_group
from lincat.kcat import (Arrow, LinCat, LinComb, LinFunctor, PresentResult,
                         QuiverPresentation, _reduced, compose, functor_equal,
                         functor_from_arrows, present, validate_functor)
from linalg_reference import matrix_sub


# -- helpers -----------------------------------------------------------------

def comb_add(field: FieldSpec, a: LinComb, b: LinComb) -> LinComb:
    out = dict(a)
    for n, s in b.items():
        out[n] = out.get(n, 0) + s
    return _reduced(field, out)


def comb_scale(field: FieldSpec, s, a: LinComb) -> LinComb:
    return _reduced(field, {n: s * v for n, v in a.items()})


def comb_eq(a: LinComb, b: LinComb) -> bool:
    return {n: s for n, s in a.items() if s} == \
        {n: s for n, s in b.items() if s}


def functor_compose(g: LinFunctor, f: LinFunctor) -> LinFunctor:
    """g ∘ f."""
    if f.target != g.source:
        raise ValueError("functors not composable: middle categories differ")
    omap = {x: g.object_map[f.object_map[x]] for x in f.source.objects}
    mats = {(x, y): g.block(f.object_map[x], f.object_map[y]) @ m
            for (x, y), m in f.matrices.items()}
    return LinFunctor(f.source, g.target, omap, mats)


def functor_is_isomorphism(f: LinFunctor) -> bool:
    """Bijective on objects and invertible on every hom space.  An
    invertible block on each nonzero source pair sends the nonzero pairs
    injectively to nonzero target pairs, so with as many of them on both
    sides every zero source pair has a zero image."""
    images = {f.object_map[x] for x in f.source.objects}
    return (len(images) == len(f.source.objects) == len(f.target.objects)
            and len(f.source.pairs) == len(f.target.pairs)
            and all(inverse(m) is not None for m in f.matrices.values()))


def morphism_functor(f: LinFunctor, g: LinFunctor,
                     omap: dict[str, str]) -> LinFunctor:
    """The morphism (H, 1): F -> G with object map omap, a map that
    extend_morphism returned, as a functor.  For n: x -> y, the column
    of H(n) is the inverse of G's outgoing star block at H(x) towards
    the fibre of F(y), read from G's star table, applied to F(n) and
    read inside the block of H(y): G is injective on each star, so H(n)
    is the only preimage of F(n) there."""
    stars = check_covering(g).stars
    c, d = f.source, g.source
    mats = {}
    for (x, y), m in f.matrices.items():
        inv, owner = stars[(omap[x], f.object_map[y], "out")]
        cols = []
        for col in m.columns:
            cand = inv(col)
            first = owner[min(cand)][1]
            cols.append({i - first: a for i, a in cand.items()})
        mats[(x, y)] = Matrix(c.field, d.dim(omap[x], omap[y]), m.cols,
                              tuple(cols))
    return LinFunctor(c, d, omap, mats)


def deck_functors(f: LinFunctor, grp: CoveringGroup
                  ) -> dict[str, LinFunctor]:
    """Every element's functor, in element order, for the deck group grp
    of the covering f."""
    return {n: morphism_functor(f, f, grp.object_maps[n])
            for n in grp.group.elements}


def make_category(field: FieldSpec, objects: Sequence[str],
                  hom: dict[tuple[str, str], Sequence[str]],
                  comp: dict[tuple[str, str], dict],
                  identities: dict[str, dict]) -> LinCat:
    """LinCat with plain ints/Fractions/strings coerced to field elements."""
    def coerce(c: dict) -> LinComb:
        return {n: field.scalar(v) for n, v in c.items()}
    return LinCat(field, tuple(objects), hom,
                  {k: coerce(v) for k, v in comp.items()},
                  {x: coerce(c) for x, c in identities.items()})


def trivial_grading(c: LinCat, group: Optional[Group] = None) -> Grading:
    """Everything in the identity component."""
    return grading_on_basis(
        c, group if group is not None else cyclic_group(1), {})


def presentation_to_doc(p: QuiverPresentation) -> dict:
    rels = []
    for rel in p.relations:
        rels.append([{"coeff": str(Fraction(c)), "path": list(path)}
                     for c, path in rel])
    return {"kind": "presentation", "format_version": FORMAT_VERSION,
            "vertices": list(p.vertices),
            "arrows": [{"name": a.name, "source": a.source,
                        "target": a.target} for a in p.arrows],
            "relations": rels,
            "length_bound": p.length_bound}


def dump_path(path: Union[str, Path], doc: dict) -> None:
    Path(path).write_text(canonical_dumps(doc), encoding="utf-8")


def shift_functor(total: PresentResult, n: int, k: int = 1) -> LinFunctor:
    """Index-shift automorphism i -> i + k (mod n) of the n-fold cyclic
    cover."""
    omap = {}
    images = {}
    for i in range(n):
        j = (i + k) % n
        omap[f"s{i}"] = f"s{j}"
        omap[f"t{i}"] = f"t{j}"
        images[f"a{i}"] = {f"a{j}": 1}
        images[f"b{i}"] = {f"b{j}": 1}
    return functor_from_arrows(total, total.category, omap, images)


def shift_subgroup_action(n: int, k: int, field: FieldSpec = Q
                          ) -> GroupAction:
    """The order n/gcd(n,k) cyclic subgroup generated by the index shift
    by k, acting on the n-fold cyclic cover."""
    total = cyclic_cover(n, field).total
    grp = cyclic_group(n // gcd(n, k))
    functors = {name: shift_functor(total, n, (i * k) % n)
                for i, name in enumerate(grp.elements)}
    return GroupAction(grp, functors, total.category)


def cyclic_reduction(n: int, m: int, field: FieldSpec = Q
                     ) -> tuple[CoverFixture, CoverFixture, LinFunctor]:
    """The index-reduction morphism from the n-fold to the m-fold cyclic
    cover (m dividing n): (s_i, t_i) -> (s_{i mod m}, t_{i mod m})."""
    if n % m != 0:
        raise ValueError("m must divide n")
    base = kronecker(field)
    top = cyclic_cover(n, field, base)
    bottom = cyclic_cover(m, field, base)
    omap = {}
    images = {}
    for i in range(n):
        j = i % m
        omap[f"s{i}"] = f"s{j}"
        omap[f"t{i}"] = f"t{j}"
        images[f"a{i}"] = {f"a{j}": 1}
        images[f"b{i}"] = {f"b{j}": 1}
    h = functor_from_arrows(top.total, bottom.total.category, omap, images)
    return top, bottom, h


def twisted_cover(n: int, field: FieldSpec = Q,
                  base: Optional[PresentResult] = None) -> LinFunctor:
    """The n-fold cyclic cover with a0 sent to a + b: a covering that is
    not Galois for n > 1."""
    fix = cyclic_cover(n, field, base)
    images = {f"{c}{i}": {c: 1} for c in "ab" for i in range(n)}
    images["a0"] = {"a": 1, "b": 1}
    return functor_from_arrows(fix.total, fix.base.category,
                               fix.functor.object_map, images)


def disconnected_double_kronecker(field: FieldSpec = Q) -> PresentResult:
    q = QuiverPresentation(
        ("s", "t", "s'", "t'"),
        (Arrow("a", "s", "t"), Arrow("b", "s", "t"),
         Arrow("a'", "s'", "t'"), Arrow("b'", "s'", "t'")), (), 1)
    return present(q, field)


def derivation_space(c: LinCat) -> list[Derivation]:
    """The kernel basis of the Leibniz system that h1 ranks
    (_derivation_vectors), as Derivations."""
    return _derivations(c, _derivation_vectors(c))


def derivation_apply(d: Derivation, comb: LinComb) -> LinComb:
    """The image of a combination under d."""
    c = d.category
    pair = c.comb_pair(comb)
    if pair is None:
        return {}
    image = d.matrices[pair]({c.position[n]: s for n, s in comb.items() if s})
    return {c.hom[pair][i]: a for i, a in image.items()}


def derivation_apply_name(d: Derivation, n: str) -> LinComb:
    return derivation_apply(d, {n: d.category.field.one()})


def derivation_sub(d: Derivation, e: Derivation) -> Derivation:
    return Derivation(d.category, {p: matrix_sub(m, e.matrices[p])
                                   for p, m in d.matrices.items()})


def rebased(c: LinCat, change: dict[tuple[str, str], Matrix]) -> LinCat:
    """c in the basis whose j-th element of hom(x,y) is column j of
    change[(x,y)] in the declared basis (the declared basis where change
    has no key), named after the declared name at that place with a
    prime.  Any c, associative or not, goes to an isomorphic structure;
    an identity may become a combination of several names."""
    mats = {pair: change.get(pair, Matrix.identity(c.field, len(names)))
            for pair, names in c.hom.items()}
    invs = {pair: inverse(m) for pair, m in mats.items()}
    hom = {pair: tuple(n + "'" for n in names)
           for pair, names in c.hom.items()}

    def column(pair, j) -> LinComb:
        return {c.hom[pair][i]: a for i, a in mats[pair].columns[j].items()}

    def renamed(comb, x, y) -> LinComb:
        coords = invs[(x, y)](c.coords(comb, x, y))
        return {hom[(x, y)][i]: a for i, a in coords.items()}

    comp = {}
    for (x, y), fs in hom.items():
        for (y2, w), gs in hom.items():
            if y2 != y or (x, w) not in hom:
                continue
            for jf, f in enumerate(fs):
                for jg, g in enumerate(gs):
                    prod = compose(c, column((y, w), jg), column((x, y), jf))
                    if prod:
                        comp[(g, f)] = renamed(prod, x, w)
    return LinCat(c.field, c.objects, hom, comp,
                  {x: renamed(c.identities[x], x, x) for x in c.objects})


# -- references --------------------------------------------------------------

def _pair_order(c: LinCat) -> list[tuple[str, str]]:
    return [(x, y) for x in c.objects for y in c.objects if c.dim(x, y)]


def reference_validate_derivation(d: Derivation) -> list[str]:
    """Leibniz on every composable basis pair; shapes and key set."""
    c = d.category
    problems = []
    if set(d.matrices) != set(_pair_order(c)):
        return ["matrix keys do not match the nonzero hom pairs"]
    for pair in _pair_order(c):
        n = c.dim(*pair)
        m = d.matrices[pair]
        if (m.rows, m.cols) != (n, n):
            problems.append(f"matrix for hom{pair} is {m.rows}x{m.cols}")
    if problems:
        return problems
    one = c.field.one()
    for f in c.basis_names():
        x, y = c.pair_of(f)
        for g in c.basis_names():
            y2, w = c.pair_of(g)
            if y2 != y:
                continue
            lhs = derivation_apply(d, compose(c, {g: one}, {f: one})) or {}
            rhs_comb = comb_add(
                c.field, compose(c, {g: one}, derivation_apply_name(d, f)),
                compose(c, derivation_apply_name(d, g), {f: one}))
            if not comb_eq(lhs, rhs_comb):
                problems.append(f"Leibniz fails on ({g}, {f})")
    return problems


def reference_sparse_derivation(c: LinCat, d: Derivation) -> dict:
    offset, _ = _layout(c)
    out = {}
    for pair, at in offset.items():
        n = c.dim(*pair)
        for j, col in enumerate(d.matrices[pair].columns):
            for i, a in col.items():
                out[at + i * n + j] = a
    return out


def reference_derivation_of(c: LinCat, vec: dict) -> Derivation:
    offset, _ = _layout(c)
    starts = list(offset.values())
    cols = {pair: [{} for _ in range(c.dim(*pair))] for pair in c.pairs}
    for k in sorted(vec):
        pair = c.pairs[bisect_right(starts, k) - 1]
        i, j = divmod(k - offset[pair], c.dim(*pair))
        cols[pair][j][i] = vec[k]
    return Derivation(c, {pair: Matrix(c.field, len(m), len(m), tuple(m))
                          for pair, m in cols.items()})


def reference_derivation_vectors(c: LinCat) -> list[dict]:
    """Kernel basis of the Leibniz system with a row for every composable
    basis pair, as sparse vectors of unknowns (see _layout)."""
    offset, total = _layout(c)
    prod = _products(c)
    system = EchelonBasis(c.field.characteristic)
    for f in c.basis_names():
        x, y = c.pair_of(f)
        jf = c.position[f]
        for g in c.leaving[y]:
            w = c.target_of(g)
            nxw = c.dim(x, w)
            if nxw == 0:
                # zero target space: both sides vanish identically
                continue
            jg = c.position[g]
            # D(g∘f) - g∘D(f) - D(g)∘f = 0, one row per coordinate r
            rows: list[dict] = [{} for _ in range(nxw)]
            for m, a in prod.get((g, f), ()):
                for r in range(nxw):
                    k = offset[(x, w)] + r * nxw + m
                    rows[r][k] = rows[r].get(k, 0) + a
            for i, fi in enumerate(c.hom[(x, y)]):
                k = offset[(x, y)] + i * c.dim(x, y) + jf
                for r, a in prod.get((g, fi), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for i, gi in enumerate(c.hom[(y, w)]):
                k = offset[(y, w)] + i * c.dim(y, w) + jg
                for r, a in prod.get((gi, f), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for row in rows:
                system.add(row)
    return system.kernel(total)


def reference_derivation_space(c: LinCat) -> list[Derivation]:
    offset, _ = _layout(c)
    # coordinate r of D(1_x) is a linear form in the entries of D's
    # End(x) matrix, with the coordinates of 1_x as coefficients
    kills: list[tuple[str, dict]] = []
    for x in c.objects:
        if (x, x) in offset:
            at, n = offset[(x, x)], c.dim(x, x)
            kills.extend((x, {at + r * n + c.position[m]: s
                              for m, s in c.identities[x].items()})
                         for r in range(n))
    red = c.field.reduce
    out = []
    for v in reference_derivation_vectors(c):
        for x, form in kills:
            if red(sum(v.get(k, 0) * s for k, s in form.items())):
                raise ValueError("input is not a category: derivation does "
                                 f"not kill identity of {x}")
        out.append(reference_derivation_of(c, v))
    return out


def reference_inner_span(c: LinCat) -> EchelonBasis:
    e = EchelonBasis(c.field.characteristic)
    for g in _inner_generators(c):
        e.add(g)
    return e


def reference_inner_basis(c: LinCat) -> list[Derivation]:
    """The echelon basis of reference_inner_span, as Derivations."""
    return [reference_derivation_of(c, v)
            for v in reference_inner_span(c).rows().values()]


def is_inner(d: Derivation) -> bool:
    """Whether d lies in the span of the inner derivations."""
    c = d.category
    return reference_sparse_derivation(c, d) in reference_inner_span(c)


def reference_covering_report(f: LinFunctor) -> CoveringReport:
    """check_covering's report as it was made when every star block was
    inverted up front: the star table is a dict of each bijective
    block's inverse with its owner list.  Each nonzero hom(x,y) of the
    source adds its columns to the outgoing star of x towards F(y) and
    to the incoming star of y towards F(x); pairs run x-major in
    declaration order, so the columns fall in fibre order."""
    src, tgt, omap = f.source, f.target, f.object_map
    surjective = set(omap.values()) == set(tgt.objects)
    cols: dict[tuple[str, str, str], list[dict]] = {}
    owner: dict[tuple[str, str, str], list[tuple[str, int, int]]] = {}
    for (x, y) in src.pairs:
        m = f.matrices[(x, y)]
        for key, e in (((x, omap[y], "out"), y), ((y, omap[x], "in"), x)):
            at = cols.setdefault(key, [])
            owner.setdefault(key, []).extend(
                [(e, len(at), len(at) + m.cols - 1)] * m.cols)
            at.extend(m.columns)
    failures: list[tuple[str, str, str]] = []
    stars = {}
    for x in src.objects:
        for b in tgt.objects:
            for key, rows in (((x, b, "out"), tgt.dim(omap[x], b)),
                              ((x, b, "in"), tgt.dim(b, omap[x]))):
                block = tuple(cols.get(key, ()))
                inv = inverse(Matrix(src.field, rows, len(block), block))
                if inv is None:
                    failures.append(key)
                else:
                    stars[key] = (inv, owner.get(key, []))
    violations = validate_functor(f)
    return CoveringReport(surjective and not failures and not violations,
                          surjective, failures, violations, stars)


def reference_hom_coverings(u: LinFunctor, f: LinFunctor
                            ) -> tuple[list[LinFunctor], CoveringGroup]:
    """hom_coverings(u, f) as it was made when every seed of the fibre
    was extended into a whole functor, with the deck group of u."""
    if u.target != f.target:
        raise ValueError("coverings do not share a base")
    gu = _galois_group(u)
    _galois_group(f)
    u0 = u.source.objects[0]
    out = []
    for c0 in fibre(f, u.object_map[u0]):
        omap = extend_morphism(u, f, u0, c0)
        if omap is not None:
            out.append(morphism_functor(u, f, omap))
    return out, gu


def is_normal(grp: Group, subset: Sequence[str]) -> bool:
    """Whether subset is closed under conjugation in grp."""
    sset = set(subset)
    return all(grp.mul(grp.mul(g, h), grp.inv(g)) in sset
               for g in grp.elements for h in sset)


@dataclass
class ReferenceGSetReport:
    """gset_analysis's report as it was made with every verdict decided."""
    homs: list[LinFunctor]
    transitive: bool
    isotropy: tuple[str, ...]
    isotropy_normal: bool
    orbit_stabilizer_ok: bool  # |homs| · |isotropy| = |deck group|
    action: dict[tuple[int, str], int]  # (hom index, deck element) -> index


def reference_gset_analysis(u: LinFunctor, f: LinFunctor
                            ) -> ReferenceGSetReport:
    """gset_analysis on the functors of reference_hom_coverings: the
    action table is read from the seed images of whole functors, and
    transitivity, normality of the isotropy subgroup and the
    orbit-stabilizer count are decided from it."""
    homs, gu = reference_hom_coverings(u, f)
    if not homs:
        raise ValueError("no morphisms between the coverings; "
                         "the action is empty")
    u0 = u.source.objects[0]
    by_seed = {h.object_map[u0]: i for i, h in enumerate(homs)}
    action = {(i, name): by_seed[h.object_map[deck[u0]]]
              for i, h in enumerate(homs)
              for name, deck in gu.object_maps.items()}
    orbit = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for name in gu.group.elements:
            j = action[(i, name)]
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    transitive = len(orbit) == len(homs)
    isotropy = tuple(name for name in gu.group.elements
                     if action[(0, name)] == 0)
    normal = is_normal(gu.group, isotropy)
    os_ok = len(homs) * len(isotropy) == gu.order()
    return ReferenceGSetReport(homs, transitive, isotropy, normal, os_ok,
                               action)


@dataclass
class ReferenceFactorization:
    """F = F'∘P through the quotient by the deck group, as structure_iso
    once built it."""
    quotient_result: QuotientResult
    iso: LinFunctor  # F': quotient -> base


def reference_structure_iso(f: LinFunctor) -> ReferenceFactorization:
    """structure_iso as it was made when it built the factorization: the
    quotient of f's source by the deck group, acting by its functors, and
    F' on the quotient's basis names, each a name of f's source, read
    from f.  ValueError refuses a covering that is not Galois."""
    grp = _galois_group(f)
    qres = quotient(GroupAction(grp.group, deck_functors(f, grp), f.source))
    q = qres.quotient
    omap = {alpha: f.object_map[alpha] for alpha in q.objects}
    iso = LinFunctor.on_basis(q, f.target, omap,
                              {n: f.apply_name(n) for n in q.basis_names()})
    return ReferenceFactorization(qres, iso)


def reference_structure_problems(f: LinFunctor, res: ReferenceFactorization
                                 ) -> list[str]:
    """The checks structure_iso once made of its factorization."""
    iso, qres = res.iso, res.quotient_result
    problems = []
    if validate_functor(iso):
        problems.append("factorization is not functorial")
    if not functor_is_isomorphism(iso):
        problems.append("factorization is not an isomorphism")
    if not functor_equal(functor_compose(iso, qres.projection), f):
        problems.append("factorization does not recover the covering")
    return problems


@dataclass
class CoveringMorphism:
    """(H, J) with H over the fibres and J an automorphism of the base
    fixing objects; the defining equation is G∘H = J∘F."""
    h: LinFunctor
    j: LinFunctor


def reference_validate_morphism(m: CoveringMorphism, f: LinFunctor,
                                g: LinFunctor) -> list[str]:
    """Every problem of m as a morphism F -> G, by whole functors."""
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
    if check_covering(m.h).violations:
        problems.append("H is not functorial")
    if not functor_equal(functor_compose(g, m.h), functor_compose(m.j, f)):
        problems.append("G∘H differs from J∘F")
    return problems


def reference_name_of(f: LinFunctor, grp: CoveringGroup, h: LinFunctor
                      ) -> Optional[str]:
    """The element of grp, the deck group of f, equal to h, or None: only
    the element sharing h's seed image can be equal to it, and its
    functor is compared."""
    x0 = f.source.objects[0]
    seed = h.object_map.get(x0)
    for n, omap in grp.object_maps.items():
        if omap[x0] == seed:
            same = functor_equal(morphism_functor(f, f, omap), h)
            return n if same else None
    return None


@dataclass
class ReferenceLambdaResult:
    """λ with the kernel identified as the deck group of H, and every
    verdict on it decided."""
    source_group: CoveringGroup
    target_group: CoveringGroup
    mapping: dict[str, str]
    surjective: bool
    kernel: tuple[str, ...]
    h_group: CoveringGroup
    kernel_matches_h_group: bool
    h_is_galois: bool


def reference_lambda_map(m: CoveringMorphism, f: LinFunctor,
                         g: LinFunctor) -> ReferenceLambdaResult:
    """lambda_map on a whole morphism: validated first, and each kernel
    element's functor compared with aut1(H)'s elements."""
    problems = reference_validate_morphism(m, f, g)
    if problems:
        raise ValueError("invalid covering morphism: " + "; ".join(problems))
    gf = aut1(f)
    gg = aut1(g)
    for grp in (gf, gg):
        reason = galois_obstruction(grp)
        if reason is not None:
            raise ValueError(f"covering is not Galois: {reason}")
    if set(m.h.object_map.values()) != set(g.source.objects):
        raise ValueError("H is not surjective on objects")

    x0 = f.source.objects[0]
    hx0 = m.h.object_map[x0]
    by_seed = {k[hx0]: n for n, k in gg.object_maps.items()}
    mapping = {n: by_seed[m.h.object_map[h[x0]]]
               for n, h in gf.object_maps.items()}
    surjective = set(mapping.values()) == set(gg.group.elements)
    kernel = tuple(n for n, v in mapping.items() if v == "e")

    h_group = aut1(m.h)
    kernel_ok = (len(kernel) == h_group.order() and
                 all(reference_name_of(m.h, h_group, morphism_functor(
                     f, f, gf.object_maps[n])) is not None for n in kernel))
    h_galois = galois_obstruction(h_group) is None
    return ReferenceLambdaResult(gf, gg, mapping, surjective, kernel,
                                 h_group, kernel_ok, h_galois)
