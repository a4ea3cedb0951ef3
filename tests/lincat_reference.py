"""Library code that only the tests call, kept here as helpers and
references.

Helpers: `comb_add`, `comb_scale` and `comb_eq` on combinations of basis
names; `make_category`, a LinCat builder that coerces plain numbers into
the field; `trivial_grading`; `presentation_to_doc` and `dump_path`,
the writer side of the presentation format; the fixtures
`cyclic_reduction`, `disconnected_double_kronecker`, `shift_functor` and
`shift_subgroup_action`; `derivation_space`, the kernel of the
Leibniz system that h1 ranks, as Derivations; and `rebased`, a
category in another basis of each hom space.

References: `reference_validate_derivation` checks the Leibniz rule on
every composable basis pair by composing combinations,
`reference_derivation_vectors` solves the Leibniz system with a row for
every composable basis pair, unit names included, and
`reference_derivation_space`, `reference_inner_span` and
`reference_inner_basis` solve it and span the inner derivations as the
library once did.
They are the oracles for `_derivation_vectors`, `_inner_generators`,
`h1` and `is_inner`.
"""
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional, Sequence, Union

from lincat.cohomology import (Derivation, _derivation_vectors, _derivations,
                               _inner_generators, _layout, _products)
from lincat.exactlinalg import EchelonBasis, FieldSpec, Matrix, inverse
from lincat.fixtures import CoverFixture, Q, cyclic_cover, kronecker
from lincat.formats import FORMAT_VERSION, canonical_dumps
from lincat.galois import GroupAction
from lincat.grading import Grading, grading_on_basis
from lincat.groups import Group, cyclic_group
from lincat.kcat import (Arrow, LinCat, LinComb, LinFunctor, PresentResult,
                         QuiverPresentation, _reduced, compose,
                         functor_from_arrows, present)


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
            lhs = d.apply(compose(c, {g: one}, {f: one})) or {}
            rhs_comb = comb_add(c.field,
                                compose(c, {g: one}, d.apply_name(f)),
                                compose(c, d.apply_name(g), {f: one}))
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
            for v in reference_inner_span(c).rows.values()]
