"""Finite k-linear categories given by structure constants.

A category here is a finite object list, a chosen basis for every hom
space, and explicit composition constants on basis pairs.  Morphisms are
finitely supported linear combinations of basis names; basis names are
globally unique so a combination knows which hom space it lives in.  Only
the nonzero hom spaces are stored: `hom` is keyed by the nonzero pairs in
object-major order, and `dim(x, y)` and `basis(x, y)` serve the zero ones.

A category is typed and unital when it is built: every composite of
basis names lies in hom(source f, target g), and every identity is a
nonzero two-sided unit; LinCat refuses anything else with ValueError.
Associativity is left to validate_category, which callers run on
demand.

A category also indexes its composable pairs when it is built: `pairs`
lists the keys of `hom`, `leaving[x]`/`arriving[x]` the basis names
with source/target x in `basis_names()` order, `position[n]` the
coordinate of n in its hom space, and `unit_name[x]` the basis name u
with id_x = 1·u, for each x whose identity is one.  Axiom sweeps walk
these instead of scanning all pairs of objects or basis names, and
decide a unit law on u by one lookup in `comp`.

Also here: k-linear functors, connectivity, and compilation of
quiver-with-relations presentations into categories with a certified
path-monomial basis.  A functor stores a block only for each nonzero
hom pair of its source, as an exactlinalg Matrix: column j is the image
of the j-th basis morphism, a sparse vector over the target basis.
`LinFunctor.block(x, y)` serves the zero-column matrix of a zero pair,
and composition (a sparse product per block), equality, inversion and
validation walk the stored blocks only.  Every functor built from the
images of basis morphisms goes through `LinFunctor.on_basis`, which
writes each image straight into a sparse column.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dcfield
from fractions import Fraction
from typing import Optional

from .exactlinalg import EchelonBasis, FieldSpec, Matrix

# morphism = finitely supported combination of basis names with field
# elements as coefficients (see FieldSpec), zero coeffs dropped
LinComb = dict[str, object]


def _reduced(field: FieldSpec, comb: dict) -> LinComb:
    """comb with its coefficients, sums or products of field elements,
    reduced and the zero ones dropped."""
    red = field.reduce
    return {n: a for n, s in comb.items() if (a := red(s))}


def comb_str(field: FieldSpec, comb: LinComb) -> str:
    if not comb:
        return "0"
    parts = []
    for n in sorted(comb):
        s = comb[n]
        parts.append(n if s == 1 else f"({field.format(s)})*{n}")
    return " + ".join(parts)


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance; `where` names the offending data."""
    kind: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass
class LinCat:
    field: FieldSpec
    objects: tuple[str, ...]
    hom: dict[tuple[str, str], tuple[str, ...]]
    comp: dict[tuple[str, str], LinComb]  # (g, f) -> g∘f; missing key = zero
    identities: dict[str, LinComb]

    def __post_init__(self):
        self.objects = tuple(self.objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        at = {x: i for i, x in enumerate(self.objects)}
        for (x, y) in self.hom:
            if x not in at or y not in at:
                raise ValueError(f"hom pair ({x},{y}) references unknown objects")
        hom = {}
        for pair in sorted(self.hom, key=lambda p: (at[p[0]], at[p[1]])):
            if self.hom[pair]:
                hom[pair] = tuple(self.hom[pair])
        self.hom = hom
        self._pair = pair = {}
        self.position = position = {}
        for p, names in hom.items():
            for i, n in enumerate(names):
                if n in pair:
                    raise ValueError(f"basis name {n!r} declared twice")
                pair[n] = p
                position[n] = i
        self.pairs = tuple(hom)
        by_name = sorted(hom)  # the pairs in basis_names() order
        self._names = tuple(n for p in by_name for n in hom[p])
        self.leaving = leaving = {x: [] for x in self.objects}
        self.arriving = arriving = {x: [] for x in self.objects}
        for (x, y) in by_name:
            leaving[x].extend(hom[(x, y)])
            arriving[y].extend(hom[(x, y)])
        # one pass over the structure constants: each term is checked
        # and reduced, and the zero ones dropped
        fld, comp = self.field, {}
        red = fld.reduce
        for (g, f), comb in self.comp.items():
            pg, pf = pair.get(g), pair.get(f)
            if pg is None or pf is None:
                raise ValueError(f"comp key ({g},{f}) references unknown basis names")
            if pf[1] != pg[0]:
                raise ValueError(f"comp key ({g},{f}) is not a composable pair")
            want = (pf[0], pg[1])
            kept = {}
            for n, s in comb.items():
                if pair.get(n) == want:
                    if a := red(s):
                        kept[n] = a
                elif n not in pair:
                    raise ValueError(f"comp value for ({g},{f}) uses unknown name {n!r}")
                elif red(s):
                    raise ValueError(f"{g}∘{f} has a term {n} outside hom{want}")
            if kept:
                comp[(g, f)] = kept
        self.comp = comp
        for x in self.identities:
            if x not in at:
                raise ValueError(f"identity declared for unknown object {x}")
        identities = {}
        for x in self.objects:
            if x not in self.identities:
                raise ValueError(f"no identity declared for object {x}")
            for n in self.identities[x]:
                if pair.get(n) != (x, x):
                    raise ValueError(f"identity of {x} uses {n!r} outside End({x})")
            identities[x] = _reduced(fld, self.identities[x])
            if not identities[x]:
                raise ValueError(f"identity of {x} is zero")
        self.identities = identities
        one = fld.one()
        self.unit_name = units = {x: n for x, i in identities.items()
                                  for n in i if i == {n: one}}
        # each unit law holds when u∘n = n in comp, or else when the sum
        # from the structure constants is n as summed, or once reduced
        for (x, y) in by_name:
            ux, uy = units.get(x), units.get(y)
            for n in hom[(x, y)]:
                want = {n: one}
                if comp.get((uy, n)) != want:
                    left = _product(comp, identities[y].items(), ((n, one),),
                                    {})
                    if left != want and (left := _reduced(fld, left)) != want:
                        raise ValueError(f"id_{y} ∘ {n} = {comb_str(fld, left)}")
                if comp.get((n, ux)) != want:
                    right = _product(comp, ((n, one),),
                                     identities[x].items(), {})
                    if right != want and (right := _reduced(fld, right)) != want:
                        raise ValueError(f"{n} ∘ id_{x} = {comb_str(fld, right)}")

    # -- basis bookkeeping ------------------------------------------------
    def pair_of(self, name: str) -> tuple[str, str]:
        return self._pair[name]

    def source_of(self, name: str) -> str:
        return self._pair[name][0]

    def target_of(self, name: str) -> str:
        return self._pair[name][1]

    def basis(self, x: str, y: str) -> tuple[str, ...]:
        """The basis names of hom(x,y), empty when hom(x,y) is zero."""
        return self.hom.get((x, y), ())

    def dim(self, x: str, y: str) -> int:
        return len(self.basis(x, y))

    def basis_names(self) -> list[str]:
        return list(self._names)

    def comb_pair(self, comb: LinComb) -> Optional[tuple[str, str]]:
        """The single hom pair supporting comb; None if comb = 0."""
        pairs = {self._pair[n] for n, s in comb.items() if s}
        if not pairs:
            return None
        if len(pairs) > 1:
            raise ValueError(f"combination spread over several hom spaces: {sorted(pairs)}")
        return pairs.pop()

    def coords(self, comb: LinComb, x: str, y: str) -> dict[int, object]:
        """Coordinates of comb in the declared basis of hom(x,y), as a
        sparse vector {position: value}."""
        vec = {}
        for n, s in comb.items():
            if not s:
                continue
            if self._pair[n] != (x, y):
                raise ValueError(f"{n} is not in hom({x},{y})")
            vec[self.position[n]] = s
        return vec

    def identity(self, x: str) -> LinComb:
        return dict(self.identities[x])


def compose(c: LinCat, g: LinComb, f: LinComb) -> LinComb:
    """Bilinear extension of the structure constants; raises on a
    non-composable pair of nonzero morphisms."""
    pf, pg = c.comb_pair(f), c.comb_pair(g)
    if pf is None or pg is None:
        return {}
    if pf[1] != pg[0]:
        raise ValueError(f"cannot compose hom{pg} after hom{pf}")
    return _reduced(c.field, _product(c.comp, g.items(), f.items(), {}))


def _product(comp: dict, g, f, acc: dict) -> dict:
    """Add to acc, unreduced, the composite g∘f of two morphisms given as
    (basis name, value) terms, by the bilinear extension of the
    structure constants comp; return acc."""
    for gn, gs in g:
        for fn, fs in f:
            coeff = gs * fs
            for n, s in comp.get((gn, fn), {}).items():
                acc[n] = acc.get(n, 0) + coeff * s
    return acc


def validate_category(c: LinCat) -> list[Violation]:
    """Associativity on all composable basis triples.  A LinCat composes
    inside its hom spaces and has two-sided units by construction, so
    this is the one category axiom left to check."""
    out: list[Violation] = []
    comp, fld, one = c.comp, c.field, c.field.one()
    for f in c.basis_names():
        unit_f = ((f, one),)
        for g in c.leaving[c.target_of(f)]:
            gf = comp.get((g, f), {}).items()
            for h in c.leaving[c.target_of(g)]:
                hg = comp.get((h, g), {}).items()
                if not gf and not hg:
                    continue  # both sides are zero
                lhs = _reduced(fld, _product(comp, ((h, one),), gf, {}))
                rhs = _reduced(fld, _product(comp, hg, unit_f, {}))
                if lhs != rhs:
                    out.append(Violation("assoc", (h, g, f),
                                         f"({h}∘{g})∘{f} = {comb_str(fld, rhs)} but "
                                         f"{h}∘({g}∘{f}) = {comb_str(fld, lhs)}"))
    return out


@dataclass
class LinFunctor:
    """k-linear functor.  matrices[(x,y)] sends coordinates in the source
    basis of hom(x,y) to coordinates in the target basis of
    hom(object_map[x], object_map[y]): columns indexed by source basis.

    Only the nonzero source pairs keep a block, in `source.pairs` order;
    the block of a zero hom space is the zero-column matrix, which
    block(x, y) serves.  A block into a zero target hom has no rows and
    may be left out: it is restored as the zero-row matrix.  An
    object_map key or a block naming an object outside the source is
    refused.  Every block given is shape-checked, zero-column ones
    included, and the first bad pair in object order is refused.

    A functor is not mutated after construction: covering.check_covering
    keeps its verdict in `_covering` and returns it on every later call.
    That field takes no part in construction, equality or repr, so
    `replace()` makes a functor with no verdict yet."""
    source: LinCat
    target: LinCat
    object_map: dict[str, str]
    matrices: dict[tuple[str, str], Matrix]
    _covering: object = dcfield(default=None, init=False, compare=False,
                                repr=False)

    def __post_init__(self):
        src, tgt, omap = self.source, self.target, self.object_map
        if tgt.field != src.field:
            raise ValueError(f"source field {src.field} differs from target "
                             f"field {tgt.field}")
        for x in src.objects:
            if x not in omap:
                raise ValueError(f"object_map misses {x}")
            if omap[x] not in tgt.leaving:  # keyed by the objects
                raise ValueError(f"object_map sends {x} to undeclared {omap[x]}")
        objs, mats = src.leaving, self.matrices  # leaving: keyed by objects
        for x in omap:
            if x not in objs:
                raise ValueError(f"object_map names {x!r}, which is not a "
                                 "source object")
        for pair in mats:
            if pair[0] not in objs or pair[1] not in objs:
                raise ValueError(f"matrix for hom{pair} names an object "
                                 "outside the source")

        # block shapes are read from the hom tables: rows from the target
        # hom of the image pair, columns from the source hom
        shom, thom = src.hom, tgt.hom

        def shape(pair):
            return (len(thom.get((omap[pair[0]], omap[pair[1]]), ())),
                    len(shom.get(pair, ())))

        bad = [p for p, m in mats.items() if (m.rows, m.cols) != shape(p)]
        kept = {}
        for p, names in shom.items():  # the nonzero pairs, in order
            m = mats.get(p)
            if m is None:
                if (omap[p[0]], omap[p[1]]) in thom:
                    bad.append(p)
                m = Matrix.zeros(src.field, 0, len(names))
            kept[p] = m
        if bad:
            at = {x: i for i, x in enumerate(src.objects)}
            pair = min(bad, key=lambda p: (at[p[0]], at[p[1]]))
            if pair not in mats:
                raise ValueError(f"no matrix for hom{pair}")
            m, want = mats[pair], shape(pair)
            raise ValueError(f"matrix for hom{pair} is {m.rows}x{m.cols}, "
                             f"expected {want[0]}x{want[1]}")
        self.matrices = kept

    def block(self, x: str, y: str) -> Matrix:
        """The matrix of hom(x,y), zero-column when hom(x,y) is zero."""
        m = self.matrices.get((x, y))
        if m is None:
            return Matrix.zeros(self.source.field, self.target.dim(
                self.object_map[x], self.object_map[y]), 0)
        return m

    @staticmethod
    def on_basis(source: LinCat, target: LinCat, object_map: dict[str, str],
                 assignment: dict[str, dict]) -> "LinFunctor":
        """Builder from images of basis morphisms (plain coeffs allowed);
        a basis morphism missing from assignment goes to zero."""
        fld = target.field
        mats = {}
        for (x, y), names in source.hom.items():
            fx, fy = object_map[x], object_map[y]
            cols = []
            for n in names:
                comb = {m: fld.scalar(v)
                        for m, v in assignment.get(n, {}).items()}
                cols.append(target.coords(comb, fx, fy))
            mats[(x, y)] = Matrix(fld, target.dim(fx, fy), len(cols),
                                  tuple(cols))
        return LinFunctor(source, target, dict(object_map), mats)

    def apply(self, comb: LinComb) -> LinComb:
        """Image of a single-hom-pair combination."""
        pair = self.source.comb_pair(comb)
        if pair is None:
            return {}
        pos = self.source.position
        image = self.matrices[pair]({pos[n]: s for n, s in comb.items() if s})
        names = self.target.basis(self.object_map[pair[0]],
                                  self.object_map[pair[1]])
        return {names[i]: a for i, a in image.items()}

    def apply_name(self, n: str) -> LinComb:
        return self.apply({n: self.source.field.one()})


def identity_functor(c: LinCat) -> LinFunctor:
    return LinFunctor(c, c, {x: x for x in c.objects},
                      {pair: Matrix.identity(c.field, c.dim(*pair))
                       for pair in c.pairs})


def functor_equal(f: LinFunctor, g: LinFunctor) -> bool:
    return (f.source == g.source and f.target == g.target
            and f.object_map == g.object_map and f.matrices == g.matrices)


def validate_functor(f: LinFunctor) -> list[Violation]:
    """Unit preservation and functoriality on all composable basis pairs.

    Both sides of F(g∘f) = F(g)∘F(f) are summed from the columns of F
    and the structure constants of the two categories, and reduced
    once."""
    out: list[Violation] = []
    src, tgt, omap = f.source, f.target, f.object_map
    fld = tgt.field
    image: dict[str, list] = {}  # F(n) as (name, value) terms
    for (x, y), m in f.matrices.items():
        rows = tgt.basis(omap[x], omap[y])
        for n, col in zip(src.hom[(x, y)], m.columns):
            image[n] = [(rows[i], a) for i, a in col.items()]

    def push(comb: LinComb) -> LinComb:
        acc: dict = {}
        for n, s in comb.items():
            for t, a in image[n]:
                acc[t] = acc.get(t, 0) + s * a
        return _reduced(fld, acc)

    # where id_x is one name u and F(u) = id_F(x), every pair (u, f) and
    # (g, u) holds by the unit laws of both categories
    kept = set()
    for x in src.objects:
        img = push(src.identities[x])
        if img != tgt.identities[omap[x]]:  # both reduced
            out.append(Violation("functor-unit", (x,),
                                 f"F(id_{x}) = {comb_str(fld, img)} ≠ id_{omap[x]}"))
        elif x in src.unit_name:
            kept.add(src.unit_name[x])
    for fn in src.basis_names():
        if fn in kept:
            continue
        for gn in src.leaving[src.target_of(fn)]:
            if gn in kept:
                continue
            lhs = push(src.comp.get((gn, fn), {}))
            rhs = _reduced(fld, _product(tgt.comp, image[gn], image[fn], {}))
            if lhs != rhs:
                out.append(Violation("functor-comp", (gn, fn),
                                     f"F({gn}∘{fn}) = {comb_str(fld, lhs)} but "
                                     f"F({gn})∘F({fn}) = {comb_str(fld, rhs)}"))
    return out


# -- connectivity -----------------------------------------------------------

@dataclass
class ConnectivityReport:
    connected: bool
    components: list[list[str]]


def is_connected(c: LinCat) -> ConnectivityReport:
    """Components of the object graph whose edges are the nonzero hom
    spaces, traversed in either direction; breadth first from each root
    in declaration order.  Connected means one component, so the empty
    category is not connected."""
    neighbours: dict[str, list[str]] = {x: [] for x in c.objects}
    for (x, y) in c.pairs:
        neighbours[x].append(y)
        neighbours[y].append(x)
    seen: set[str] = set()
    components: list[list[str]] = []
    for root in c.objects:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for cur in comp:  # comp grows while it is read: a BFS queue
            for nxt in neighbours[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.append(nxt)
        components.append(comp)
    return ConnectivityReport(len(components) == 1, components)


# -- quiver presentations ---------------------------------------------------

@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


# one relation = sum of coefficiented parallel paths; paths are arrow-name
# tuples in composition order, rightmost arrow applied first
RelationTerm = tuple[Fraction, tuple[str, ...]]
Relation = tuple[RelationTerm, ...]


class TruncationError(ValueError):
    """Raised when the declared length bound does not truncate exactly."""

    def __init__(self, witness: tuple[str, ...], bound: int):
        self.witness = witness
        self.bound = bound
        super().__init__(
            f"path {'*'.join(witness)} of length {len(witness)} is not in the "
            f"relation ideal, so truncation at length {bound} is unsound")


@dataclass
class QuiverPresentation:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]
    length_bound: int

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.arrows = tuple(self.arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} references an undeclared vertex")
            if not a.name:
                raise ValueError("empty arrow name")
            if "*" in a.name or any(ch.isspace() for ch in a.name):
                raise ValueError(f"arrow name {a.name!r} may not contain '*' or spaces")
            if a.name[0].isdigit() or a.name[0] in "+-":
                raise ValueError(f"arrow name {a.name!r} may not start like a number")
        self._arrow = {a.name: a for a in self.arrows}
        norm_rels = []
        for rel in self.relations:
            terms = tuple((Fraction(coeff), tuple(path)) for coeff, path in rel)
            if not terms:
                raise ValueError("empty relation")
            ends = set()
            for coeff, path in terms:
                if not path:
                    raise ValueError("relation paths must have length >= 1")
                for name in path:
                    if name not in self._arrow:
                        raise ValueError(
                            f"relation path {'*'.join(path)!r} names "
                            f"undeclared arrow {name!r}")
                ends.add((self.path_source(path), self.arrow(path[0]).target))
            if len(ends) > 1:
                raise ValueError(f"relation mixes non-parallel paths: {sorted(ends)}")
            # a term with coefficient zero is no term, and a relation
            # with no other term is zero, which relates nothing
            if terms := tuple(t for t in terms if t[0]):
                norm_rels.append(terms)
        self.relations = tuple(norm_rels)
        if self.length_bound < 1:
            raise ValueError("length bound must be >= 1")

    def arrow(self, name: str) -> Arrow:
        return self._arrow[name]

    def path_source(self, path: tuple[str, ...]) -> str:
        # composition order: the rightmost arrow is applied first
        for left, right in zip(path, path[1:]):
            if self.arrow(left).source != self.arrow(right).target:
                raise ValueError(f"path {'*'.join(path)} is not composable")
        return self.arrow(path[-1]).source


def path_name(path: tuple[str, ...], vertex: Optional[str] = None) -> str:
    if not path:
        return f"1_{vertex}"
    return "*".join(path)


@dataclass
class PresentResult:
    """The presented category and, for each of its nonzero homs in the
    same order, the paths whose names form its basis."""
    category: LinCat
    basis_paths: dict[tuple[str, str], list[tuple[str, ...]]]


def present(p: QuiverPresentation, field: FieldSpec) -> PresentResult:
    """Compile a quiver with relations into a category.

    Hom spaces are spanned by the paths of length <= N modulo the
    relation ideal I.  Paths are ordered by length, then
    lexicographically in the order they apply their arrows, by
    declaration index.  A relation coefficient whose denominator p
    divides raises ZeroDivisionError naming it; terms that vanish in the
    field are dropped before anything else is read off a relation.

    I is compiled by a Gröbner basis in that order (`_GroebnerBasis`):
    rules lead → tail with lead − tail in I.  A path is standard when no
    leading word occurs in it.  The normal form of a path is that of its
    last arrow applied to the normal form of the rest, rewritten until
    only standard paths are left.  The basis of each hom is its standard
    paths of length <= N; a structure constant is the normal form of a
    product.

    N is accepted iff every path of length N+1 has normal form 0.  The
    rules are built to degree N+1, and on to 2N (every relation, and
    overlaps up to length 2N) only when that fails.  A refusal raises
    TruncationError naming the first path of length in (N, 2N] whose
    normal form is not 0, in the first pair, vertex-major, that has one:
    for homogeneous relations a path outside I, as the rules then decide
    I up to degree 2N.

    An accepted N is a theorem.  The paths of length N+1 rewrite to 0 by
    rules in I, so I holds every path longer than N: a product longer
    than N is zero, and every larger bound gives this category.  The
    standard paths of length <= N span kQ/I, as every rule lies in I.
    They are independent: with the paths of length N+1 as rules of tail
    0, `_GroebnerBasis.close` resolves every ambiguity, so by the
    diamond lemma they are a basis of kQ/I.  Normal forms are then
    unique, which lets `product` build one from its prefixes.
    """
    n = p.length_bound
    relations = []  # dicts path -> field element, zero terms dropped
    for rel in p.relations:
        terms: dict = {}
        for coeff, path in rel:
            terms[path] = terms.get(path, 0) + field.scalar(coeff)
        if terms := _reduced(field, terms):
            relations.append(terms)
    basis_paths, product = _rewrite(p, field, relations)
    hom = {pair: tuple(path_name(t, pair[0]) for t in ts)
           for pair, ts in basis_paths.items()}

    one = field.one()
    identities = {x: {path_name((), x): one} for x in p.vertices}
    leaving: dict[str, list] = {x: [] for x in p.vertices}
    for (y, z), g_list in basis_paths.items():
        leaving[y].append((z, list(zip(g_list, hom[(y, z)]))))
    comp: dict[tuple[str, str], LinComb] = {}
    for (x, y), f_list in basis_paths.items():
        f_named = list(zip(f_list, hom[(x, y)]))
        for z, g_named in leaving[y]:
            for ft, f in f_named:
                room = n - len(ft)
                for gt, g in g_named:
                    # a basis path is its own normal form, and a path
                    # longer than N lies in the ideal, as N was accepted
                    if not gt:
                        comp[(g, f)] = {f: one}
                    elif not ft:
                        comp[(g, f)] = {g: one}
                    elif len(gt) <= room and (gf := product(gt, ft, (x, z))):
                        comp[(g, f)] = gf

    return PresentResult(LinCat(field, p.vertices, hom, comp, identities),
                         basis_paths)


def _rewrite(p: QuiverPresentation, field: FieldSpec, relations: list):
    """present's decision, basis and products, by the Gröbner basis of
    the relations.  Returns the basis paths of each nonzero hom, in
    vertex-major order, and product(g, f, pair): the product g∘f of two
    basis paths of length >= 1, as a combination of the basis names of
    hom(pair), memoized by its word."""
    n = p.length_bound
    number = {a.name: i for i, a in enumerate(p.arrows)}
    gb = _GroebnerBasis(field, [
        {tuple(number[a] for a in reversed(path)): c for path, c in r.items()}
        for r in relations], [(a.source, a.target) for a in p.arrows], 2 * n)
    names = [a.name for a in p.arrows]
    leaving: dict[str, list] = {x: [] for x in p.vertices}
    for i, a in enumerate(p.arrows):
        leaving[a.source].append((i, a.target))
    red = field.reduce

    def standard(t):  # t is a standard word and an arrow: test suffixes
        for k in gb.lengths:
            if k > len(t):
                break
            if t[-k:] in gb.rules:
                return False
        return True

    # levels[k]: for each source and nonzero normal form (up to a factor
    # if it has one term) the first path of length k with it, as (source,
    # word, target, normal form or None if standard).  Each extends the
    # first path of another normal form.  When no rule's tail is shorter
    # than its lead, normal forms keep their length, so a path that is
    # not standard is never the first nonzero one of its pair and length.
    levels = [[(x, (), x, None) for x in p.vertices]]

    def walk(top):
        falls = any(len(t) < len(lead) for lead, tail in gb.rules.items()
                    for t in tail)
        while len(levels) <= top and levels[-1]:
            seen, nxt = set(), []
            for x, w, y, nf in levels[-1]:
                for i, z in leaving[y]:
                    t = w + (i,)
                    if nf is None and standard(t):
                        seen.add(t)
                        nxt.append((x, t, z, None))
                    elif falls:
                        acc: dict = {}
                        for s, c in (nf or {w: 1}).items():
                            for u, b in gb.normal_form(s + (i,)).items():
                                acc[u] = acc.get(u, 0) + c * b
                        acc = {u: r for u, a in acc.items() if (r := red(a))}
                        key = next(iter(acc)) if len(acc) == 1 else \
                            frozenset(acc.items())
                        if acc and key not in seen:
                            seen.add(key)
                            nxt.append((x, t, z, acc))
            levels.append(nxt)

    def rules_within(k):  # the rules that rewrite words of length <= k
        return {w: tail for w, tail in gb.rules.items() if len(w) <= k}

    at = {x: i for i, x in enumerate(p.vertices)}
    gb.extend(n + 1)
    walk(n + 1)
    if len(levels) > n + 1 and levels[n + 1]:
        before = rules_within(n + 1)
        gb.extend()
        if rules_within(n + 1) != before:
            del levels[1:]
        walk(2 * n)
        longer = [(at[x], at[y], len(w), w) for level in levels[n + 1:]
                  for x, w, y, _ in level]
        if longer:
            w = min(longer)[3]  # in the first pair, the first in path order
            raise TruncationError(tuple(names[i] for i in reversed(w)), n)
    before = rules_within(n)
    gb.close(n)
    if rules_within(n) != before:
        del levels[1:]
        walk(n)
    basis_paths: dict[tuple[str, str], list] = {}
    position, word = {}, {}
    for x, w, y, nf in sorted((entry for level in levels[:n + 1]
                               for entry in level),
                              key=lambda entry: (at[entry[0]], at[entry[2]])):
        if nf is None:
            path = tuple(names[i] for i in reversed(w))
            ts = basis_paths.setdefault((x, y), [])
            position[w] = len(ts)
            word[path] = w
            ts.append(path)
    # products by their word, which is not empty; normal forms are unique
    name = {w: path_name(path) for path, w in word.items() if w}
    known = {w: {basis_name: 1} for w, basis_name in name.items()}
    memo = gb.memo
    memo.update((w, {w: 1}) for w in name)

    def product(g, f, pair):
        w = word[f] + word[g]
        if w not in known:
            # the normal form of w is that of (the normal form of w
            # without its last arrow)·(that arrow), so each product is
            # one step from its longest prefix met before, f at worst
            k = len(w)
            while w[:k] not in memo:
                k -= 1
            nf = memo[w[:k]]
            for j in range(k, len(w)):
                a, acc = w[j:j + 1], {}
                for s, c in nf.items():
                    for t, b in (memo.get(s + a)
                                 or gb.normal_form(s + a)).items():
                        acc[t] = acc.get(t, 0) + c * b
                nf = memo[w[:j + 1]] = {t: r for t, c in acc.items()
                                        if (r := red(c))}
            known[w] = {name[s]: nf[s] for s in sorted(nf, key=position.get)}
        return known[w]

    return basis_paths, product


class _GroebnerBasis:
    """A Gröbner basis of the ideal I of a path algebra that some
    relations generate, on a worklist bounded in length.

    A word is a path as the tuple of its arrows' declaration indices in
    the order they apply, ordered by length, then as tuples.  `rules`
    maps each leading word to its tail, smaller words with lead − tail
    in I (E. L. Green, "Noncommutative Gröbner bases, and projective
    resolutions", 1999).  The worklist holds relations, and overlaps of
    two leading words (a proper suffix of one is a prefix of the other)
    up to length `reach`.  The items of the lowest degree (longest word)
    are rewritten and reduced against each other; each pivot row is a
    new rule.  When relations mix lengths, a rule can be shorter than
    its items (degree fall), and a rule whose leading word contains a
    new one goes back on the list.  For homogeneous relations, once
    degree d is worked off, the rules rewrite each element of I of
    degree <= d to 0 (diamond lemma, G. M. Bergman, Adv. Math. 29,
    1978).  `bound`, set by `close`, makes longer words zero.
    """

    def __init__(self, field: FieldSpec, relations: list[dict],
                 ends: list[tuple[str, str]], reach: int):
        self.field = field
        self.ends = ends  # the source and target of each arrow
        self.reach = reach
        self.bound: Optional[int] = None
        self.rules: dict[tuple[int, ...], dict] = {}
        self.lengths: list[int] = []  # of the leading words, increasing
        self.memo: dict = {}  # normal forms by the rules as they stand
        # degree -> relations (dicts word -> value) and overlaps (leading
        # word, leading word, length of the common part)
        self.pending: dict[int, list] = {}
        for r in relations:
            self._queue(r)

    def _queue(self, relation: dict) -> None:
        if self.bound is not None:
            relation = {w: a for w, a in relation.items()
                        if len(w) <= self.bound}
        if relation:
            self.pending.setdefault(max(map(len, relation)), []).append(
                relation)

    def extend(self, top: Optional[int] = None) -> None:
        """Work off the items of degree up to top, or all of them."""
        rules, red, pending = self.rules, self.field.reduce, self.pending
        while pending and (top is None or min(pending) <= top):
            vecs = []
            for item in pending.pop(min(pending)):
                if type(item) is tuple:  # overlap: lead1 = p·s, lead2 = s·q
                    lead1, lead2, k = item
                    if lead1 not in rules or lead2 not in rules:
                        continue  # it went back on the list
                    p, q = lead1[:-k], lead2[k:]
                    item = {t + q: a for t, a in rules[lead1].items()}
                    for t, a in rules[lead2].items():
                        item[p + t] = item.get(p + t, 0) - a
                vec: dict = {}
                for w, a in item.items():
                    for s, b in self.normal_form(w).items():
                        vec[s] = vec.get(s, 0) + a * b
                if vec := {s: r for s, a in vec.items() if (r := red(a))}:
                    vecs.append(vec)
            if vecs:
                self._add(vecs)

    def _add(self, vecs: list[dict]) -> None:
        """Add the rules that rewritten items, none of them 0, give."""
        rules, red = self.rules, self.field.reduce
        if all(len(vec) == 1 for vec in vecs):
            # monomials: each word is a leading word with no tail
            new = list(dict.fromkeys(s for vec in vecs for s in vec))
            rules.update((s, {}) for s in new)
        else:
            # larger words get smaller columns, so each pivot is the
            # leading word of its row
            words = sorted({s for vec in vecs for s in vec},
                           key=lambda w: (len(w), w), reverse=True)
            column = {s: j for j, s in enumerate(words)}
            e = EchelonBasis(self.field.characteristic)
            for vec in vecs:
                e.add({column[s]: a for s, a in vec.items()})
            rows = e.rows()
            new = [words[j] for j in rows]
            for j, row in rows.items():
                rules[words[j]] = {words[i]: red(-a)
                                   for i, a in row.items() if i != j}
        # the normal form of a word shorter than every new leading word
        # keeps its value
        short = min(map(len, new))
        self.memo = {w: nf for w, nf in self.memo.items() if len(w) < short}
        fresh, sizes = set(new), {len(s) for s in new}
        # a rule whose leading word contains a new one goes back on the list
        for lead in [w for w in rules if len(w) > short and any(
                w[i:i + k] in fresh for k in sizes if k < len(w)
                for i in range(len(w) - k + 1))]:
            relation = {t: -a for t, a in rules.pop(lead).items()}
            relation[lead] = 1
            self._queue(relation)
        self.lengths = sorted({len(w) for w in rules})
        new = [s for s in new if s in rules]
        fresh = set(new)
        # the overlaps of each ordered pair of leading words, one of them
        # new; those of two monomials are zero
        for a in rules:
            for b in rules if a in fresh else new:
                if rules[a] or rules[b]:
                    for k in range(max(1, len(a) + len(b) - self.reach),
                                   min(len(a), len(b))):
                        if a[-k:] == b[:k]:
                            self.pending.setdefault(
                                len(a) + len(b) - k, []).append((a, b, k))
        if self.bound is not None:
            for s in new:
                self._implied(s)

    def _implied(self, lead: tuple[int, ...]) -> None:
        """Queue u·tail·v for the rule at lead and every u, v with
        |u·lead·v| = max(bound + 1, |lead|): u·lead·v is zero then.  A
        tail that keeps the lead's length implies nothing."""
        tail, ends, k = self.rules[lead], self.ends, len(lead)
        m = max(0, self.bound + 1 - k)
        if all(len(t) + m > self.bound for t in tail):
            return
        around = {(0, lead)}  # (|v|, u·lead·v as a word)
        for _ in range(m):
            around = {c for j, w in around for c in [
                (j + 1, (i,) + w) for i, e in enumerate(ends)
                if e[1] == ends[w[0]][0]] + [
                (j, w + (i,)) for i, e in enumerate(ends)
                if e[0] == ends[w[-1]][1]]}
        for j, w in sorted(around):
            self._queue({w[:j] + t + w[j + k:]: a for t, a in tail.items()})

    def close(self, bound: int) -> None:
        """Make every word longer than bound zero, once every word of
        length bound + 1 is known to lie in I, and work off the relations
        still waiting and what each rule implies.  A longer overlap is a
        zero word whose rewrites are implied: overlaps stop at bound."""
        waiting = [item for items in self.pending.values() for item in items
                   if type(item) is dict]
        self.pending, self.bound, self.reach = {}, bound, bound
        for r in waiting:
            self._queue(r)
        for lead in list(self.rules):
            self._implied(lead)
        self.extend()

    def _rewrite_once(self, w: tuple[int, ...]) -> Optional[list]:
        """w rewritten once, at its leftmost shortest leading word, as
        (word, value) terms, or to 0 when it is longer than `bound`;
        None when w is standard."""
        if self.bound is not None and len(w) > self.bound:
            return []
        rules = self.rules
        for i in range(len(w)):
            for k in self.lengths:
                if i + k > len(w):
                    break
                tail = rules.get(w[i:i + k])
                if tail is not None:
                    return [(w[:i] + t + w[i + k:], a) for t, a in tail.items()]
        return None

    def normal_form(self, word: tuple[int, ...]) -> dict:
        """word as a combination of standard words, rewriting the leftmost
        shortest leading word first; `memo` keeps the normal form of each
        word met on the way.  A stack, not recursion: a chain of rewrites
        may be as long as the words of one length are many."""
        memo, red = self.memo, self.field.reduce
        rewritten: dict = {}  # word -> its rewrites, while they wait
        stack = [word]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
            elif w in rewritten:  # its rewrites, pushed above it, are done
                acc: dict = {}
                for s, a in rewritten.pop(w):
                    for t, b in memo[s].items():
                        acc[t] = acc.get(t, 0) + a * b
                memo[w] = {t: r for t, c in acc.items() if (r := red(c))}
                stack.pop()
            elif (kids := self._rewrite_once(w)) is None:
                memo[w] = {w: 1}
                stack.pop()
            else:
                rewritten[w] = kids
                stack.extend(s for s, _ in kids if s not in memo)
        return memo[word]


def functor_from_arrows(src: PresentResult, target: LinCat,
                        object_map: dict[str, str],
                        arrow_images: dict[str, dict]) -> LinFunctor:
    """Functor out of a presented category, determined by images of the
    arrows.  Images of basis paths are computed by composing the arrow
    images in the target; the empty path goes to the identity."""
    fld = target.field
    images = {a: {m: fld.scalar(v) for m, v in img.items()}
              for a, img in arrow_images.items()}
    on_paths: dict[str, LinComb] = {}  # basis name -> its image
    for (x, _), rep_paths in src.basis_paths.items():
        for t in rep_paths:
            if not t:
                comb = target.identity(object_map[x])
            else:
                comb = images[t[-1]]
                for a in reversed(t[:-1]):
                    comb = compose(target, images[a], comb)
            on_paths[path_name(t, x)] = comb
    return LinFunctor.on_basis(src.category, target, object_map, on_paths)
