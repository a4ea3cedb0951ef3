"""Derivations, first Hochschild cohomology, and the Euler embedding of
additive characters.

A derivation is a family of endomorphisms of the hom spaces satisfying
the Leibniz rule against composition.  The space of derivations is the
kernel of one exact linear system; the inner ones are spanned by
commutator families attached to endomorphism choices at each object.
Additive characters of a finite group land in k⁺, so the character
space is zero in characteristic 0 and computed by linear algebra over
F_p otherwise.  delta turns a character into the derivation scaling a
degree-s homogeneous morphism by χ(s).
"""
from bisect import bisect_right
from dataclasses import dataclass

from .exactlinalg import EchelonBasis, FieldSpec, Matrix
from .groups import Group
from .kcat import LinCat, LinComb, _product
from .grading import Grading, is_connected_grading


@dataclass
class Derivation:
    """matrices[(x,y)] acts on coordinates in the declared basis of
    hom(x,y); pairs of dimension zero are omitted."""
    category: LinCat
    matrices: dict[tuple[str, str], Matrix]

    def apply(self, comb: LinComb) -> LinComb:
        c = self.category
        pair = c.comb_pair(comb)
        if pair is None:
            return {}
        image = self.matrices[pair]({c.position[n]: s
                                     for n, s in comb.items() if s})
        return {c.hom[pair][i]: a for i, a in image.items()}

    def apply_name(self, n: str) -> LinComb:
        return self.apply({n: self.category.field.one()})

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.category,
                          {p: m + other.matrices[p]
                           for p, m in self.matrices.items()})

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation(self.category,
                          {p: m - other.matrices[p]
                           for p, m in self.matrices.items()})


def validate_derivation(d: Derivation) -> list[str]:
    """Leibniz on every composable basis pair; shapes and key set.

    D(g∘f) − g∘D(f) − D(g)∘f is summed from the sparse columns of D and
    the structure constants, the equations of derivation_space's rows."""
    c = d.category
    problems = []
    if set(d.matrices) != set(c.pairs):
        return ["matrix keys do not match the nonzero hom pairs"]
    for pair in c.pairs:
        n = c.dim(*pair)
        m = d.matrices[pair]
        if (m.rows, m.cols) != (n, n):
            problems.append(f"matrix for hom{pair} is {m.rows}x{m.cols}")
    if problems:
        return problems
    image: dict[str, list] = {}  # D(n) as (name, value) terms
    for pair in c.pairs:
        names = c.hom[pair]
        for n, col in zip(names, d.matrices[pair].columns):
            image[n] = [(names[i], a) for i, a in col.items()]
    comp, red = c.comp, c.field.reduce
    for f in c.basis_names():
        for g in c.leaving[c.target_of(f)]:
            acc: dict = {}
            for n, s in comp.get((g, f), {}).items():
                for r, a in image[n]:
                    acc[r] = acc.get(r, 0) + s * a
            _product(comp, ((g, -1),), image[f], acc)
            _product(comp, image[g], ((f, -1),), acc)
            if any(red(v) for v in acc.values()):
                problems.append(f"Leibniz fails on ({g}, {f})")
    return problems


def _layout(c: LinCat) -> tuple[dict[tuple[str, str], int], int]:
    """Offset of each nonzero hom pair's matrix in the flattened unknowns,
    and their total count; entry (i, j) of hom(x,y)'s matrix sits at
    offset + i * dim(x,y) + j."""
    offset = {}
    total = 0
    for pair in c.pairs:
        offset[pair] = total
        total += c.dim(*pair) ** 2
    return offset, total


def _products(c: LinCat) -> dict[tuple[str, str], list[tuple[int, object]]]:
    """g∘f for every nonzero basis product, as (coordinate, value): a
    position in hom(source f, target g)."""
    pos = c.position
    return {key: [(pos[n], s) for n, s in comb.items()]
            for key, comb in c.comp.items()}


def _sparse_derivation(c: LinCat, d: Derivation) -> dict:
    """The entries of d as one sparse vector of unknowns (see _layout)."""
    offset, _ = _layout(c)
    out = {}
    for pair, at in offset.items():
        n = c.dim(*pair)
        for j, col in enumerate(d.matrices[pair].columns):
            for i, a in col.items():
                out[at + i * n + j] = a
    return out


def _derivations(c: LinCat, vecs: list[dict]) -> list[Derivation]:
    """The derivations whose entries are the sparse vectors of unknowns
    vecs, of canonical nonzero values (see _layout)."""
    offset, _ = _layout(c)
    starts = list(offset.values())
    out = []
    for vec in vecs:
        cols = {pair: [{} for _ in range(c.dim(*pair))] for pair in c.pairs}
        for k in sorted(vec):
            pair = c.pairs[bisect_right(starts, k) - 1]
            i, j = divmod(k - offset[pair], c.dim(*pair))
            cols[pair][j][i] = vec[k]
        out.append(Derivation(c, {pair: Matrix(c.field, len(m), len(m),
                                               tuple(m))
                                  for pair, m in cols.items()}))
    return out


def derivation_space(c: LinCat) -> list[Derivation]:
    """Kernel basis of the Leibniz system over all composable basis
    pairs.  Unknowns are the entries of one square matrix per nonzero
    hom pair; the equations are sparse rows, one per output coordinate
    of each composite, read off the structure constants."""
    return _derivations(c, _derivation_vectors(c))


def _derivation_vectors(c: LinCat) -> list[dict]:
    """derivation_space's basis as sparse vectors of unknowns (see
    _layout)."""
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


def _inner_generators(c: LinCat) -> list[dict]:
    """f ↦ u∘f − f∘u for each basis endomorphism u, flattened sparsely."""
    offset, _ = _layout(c)
    prod = _products(c)
    gens = []
    for o in c.objects:
        for u in c.basis(o, o):
            v: dict = {}
            for f in c.arriving[o]:
                pair = c.pair_of(f)
                at, n, jf = offset[pair], c.dim(*pair), c.position[f]
                for i, a in prod.get((u, f), ()):
                    k = at + i * n + jf
                    v[k] = v.get(k, 0) + a
            for f in c.leaving[o]:
                pair = c.pair_of(f)
                at, n, jf = offset[pair], c.dim(*pair), c.position[f]
                for i, a in prod.get((f, u), ()):
                    k = at + i * n + jf
                    v[k] = v.get(k, 0) - a
            gens.append(v)
    return gens


def _span(c: LinCat, vecs: list[dict]) -> EchelonBasis:
    """The span of sparse vectors of unknowns (see _layout)."""
    e = EchelonBasis(c.field.characteristic)
    for v in vecs:
        e.add(v)
    return e


def inner_derivations(c: LinCat) -> list[Derivation]:
    """Basis of the span of f ↦ α_y∘f − f∘α_x with α ranging over a
    basis of the direct sum of all endomorphism spaces: the generators
    that raise the rank, in order."""
    e = EchelonBasis(c.field.characteristic)
    return _derivations(c, [e.normalize(g) for g in _inner_generators(c)
                            if e.add(g)])


@dataclass
class H1Result:
    dimension: int
    derivation_dim: int
    inner_dim: int
    representatives: list[Derivation]


def h1(c: LinCat) -> H1Result:
    """dim(derivations) − dim(inner), with coset representatives taken
    from the derivation basis itself: the basis elements that raise the
    rank over the inner span and the representatives before them."""
    ders = _derivation_vectors(c)
    span = _span(c, _inner_generators(c))
    inner_dim = len(span)
    reps = [v for v in ders if span.add(v)]
    if len(span) != len(ders):
        raise ValueError("input is not a category: inner derivation "
                         "outside the derivation space")
    return H1Result(len(ders) - inner_dim, len(ders), inner_dim,
                    _derivations(c, reps))


def is_inner(d: Derivation) -> bool:
    c = d.category
    return _sparse_derivation(c, d) in _span(c, _inner_generators(c))


def in_derivation_space(d: Derivation) -> bool:
    c = d.category
    return _sparse_derivation(c, d) in _span(c, _derivation_vectors(c))


# -- characters ------------------------------------------------------------


@dataclass
class Character:
    group: Group
    field: FieldSpec
    values: dict[str, object]  # group element -> field element

    def __call__(self, s: str):
        return self.values[s]

    def is_zero(self) -> bool:
        return not any(self.values.values())


def validate_character(chi: Character) -> list[str]:
    problems = []
    grp = chi.group
    if set(chi.values) != set(grp.elements):
        return ["value keys do not match the group elements"]
    if chi.values[grp.identity]:
        problems.append("nonzero value at the identity")
    red = chi.field.reduce
    for s in grp.elements:
        for t in grp.elements:
            if chi.values[grp.mul(s, t)] != red(chi.values[s] + chi.values[t]):
                problems.append(f"not additive on ({s}, {t})")
    return problems


def characters(grp: Group, field: FieldSpec) -> list[Character]:
    """Basis of the additive characters group → k⁺.  A finite group has
    no nonzero map into a torsion-free k⁺, so the basis is empty in
    characteristic 0."""
    if field.characteristic == 0:
        return []
    elems = list(grp.elements)
    idx = {s: i for i, s in enumerate(elems)}
    system = EchelonBasis(field.characteristic)
    system.add({idx[grp.identity]: 1})
    for s in elems:
        for t in elems:
            # χ(s) + χ(t) − χ(st) = 0; add reduces the entries
            row: dict = {}
            for u, a in ((s, 1), (t, 1), (grp.mul(s, t), -1)):
                row[idx[u]] = row.get(idx[u], 0) + a
            system.add(row)
    return [Character(grp, field, {s: v.get(idx[s], 0) for s in elems})
            for v in system.kernel(len(elems))]


# -- the Euler derivation of a character ------------------------------------


def _require_scalar_endos(c: LinCat) -> None:
    for x in c.objects:
        if c.dim(x, x) != 1:
            raise ValueError(f"End({x}) has dimension {c.dim(x, x)}, "
                             "expected 1")


def delta(c: LinCat, z: Grading, chi: Character) -> Derivation:
    """Derivation scaling each homogeneous element of degree s by χ(s);
    defined when every endomorphism ring is spanned by the identity.

    It satisfies Leibniz by construction, so it is not checked: χ is
    additive, and a composite of homogeneous columns of degrees s and t
    is homogeneous of degree t·s in a grading."""
    _require_scalar_endos(c)
    if z.category != c:
        raise ValueError("grading does not belong to the category")
    if chi.group != z.group:
        raise ValueError("character group does not match the grading group")
    if chi.field != c.field:
        raise ValueError("character field does not match the category field")
    bad = validate_character(chi)
    if bad:
        raise ValueError(bad[0])
    mats, inv = {}, z.inverses
    for pair, labels in z.degrees.items():
        cb = z.basis[pair]
        # cb · diag(χ(labels)): column j of cb scaled by χ of its degree
        scaled = tuple(cb({j: chi.values[s]}) for j, s in enumerate(labels))
        mats[pair] = Matrix(c.field, cb.rows, cb.cols, scaled) @ inv[pair]
    return Derivation(c, mats)


def delta_injectivity_check(c: LinCat, z: Grading) -> bool:
    """True iff no nonzero character maps to an inner derivation.  Only
    defined for connected gradings; the embedding argument breaks
    without connectivity, so disconnected input is refused.

    δ is linear, so this holds iff δ of a character basis χ₁…χₘ is
    independent modulo the inner span:
    rank[inner | δ(χ₁)…δ(χₘ)] = rank(inner) + m."""
    _require_scalar_endos(c)
    if not is_connected_grading(z).connected:
        raise ValueError("grading is not connected; refusing the check")
    span = _span(c, _inner_generators(c))
    chars = characters(z.group, c.field)
    return all(span.add(_sparse_derivation(c, delta(c, z, chi)))
               for chi in chars)
