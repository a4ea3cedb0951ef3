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

from .exactlinalg import EchelonBasis, FieldSpec, Matrix, complement

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
                ends.add((self.path_source(path), self._arrow[path[0]].target))
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
            if self._arrow[left].source != self._arrow[right].target:
                raise ValueError(f"path {'*'.join(path)} is not composable")
        return self._arrow[path[-1]].source


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


def _enumerate_paths(p: QuiverPresentation, maxlen: int
                     ) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """The paths of length <= maxlen from x to y, keyed by (x, y) for the
    pairs some path joins only.  Each list runs by increasing length;
    within a length, shorter paths are extended in turn by the arrows
    leaving their target, in declaration order."""
    leaving: dict[str, list[Arrow]] = {x: [] for x in p.vertices}
    for a in p.arrows:
        leaving[a.source].append(a)
    out: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    cur = [((), x, x) for x in p.vertices]
    for length in range(maxlen + 1):
        if length:
            cur = [((a.name,) + t, x, a.target)
                   for t, x, y in cur for a in leaving[y]]
        for t, x, y in cur:
            out.setdefault((x, y), []).append(t)
    return out


def present(p: QuiverPresentation, field: FieldSpec) -> PresentResult:
    """Compile a quiver with relations into a category.

    Hom spaces are spanned by the paths of length <= N modulo the
    relation ideal I.  The bound N is accepted when every path of length
    N+1 is shown to lie in I; then every longer path does too (it ends
    in one), so the category does not depend on N, and a product longer
    than N is zero.  Otherwise TruncationError names the first path of
    length in (N, 2N] not shown to lie in I, pairs taken in vertex-major
    order and paths in the order below: for homogeneous relations a path
    outside I, for others one outside the span that `_eliminate` checks,
    which may refuse a bound that I admits.  A relation coefficient
    whose denominator p divides raises ZeroDivisionError naming it;
    terms that vanish in the field are dropped before anything else is
    read off a relation.

    Paths are ordered by length, then lexicographically in the order
    they apply their arrows, by declaration index.  The basis of each
    hom is greedy in that order: its standard paths, those that are not
    the largest term of an element of I.  A structure constant is the
    normal form of a product, its unique expression in standard paths.

    When every relation is homogeneous (all its terms of one length), I
    is graded and is compiled by a Gröbner basis in that order, built up
    to degree N+1 (and up to 2N only to name a witness): normal forms
    come from rewriting, and N is accepted iff no standard path has
    length N+1.  Any other presentation is decided by elimination over
    all paths of length <= 2N, with `_eliminate`.
    """
    n = p.length_bound
    relations = []  # dicts path -> field element, zero terms dropped
    for rel in p.relations:
        terms: dict = {}
        for coeff, path in rel:
            terms[path] = terms.get(path, 0) + field.scalar(coeff)
        if terms := _reduced(field, terms):
            relations.append(terms)
    if all(len({len(t) for t in r}) == 1 for r in relations):
        basis_paths, product = _rewrite(p, field, relations)
    else:
        basis_paths, product = _eliminate(p, field, relations)
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


def _eliminate(p: QuiverPresentation, field: FieldSpec, relations: list):
    """present by elimination: the span S of the u·r·v whose terms all
    have length <= 2N, in the paths of length <= 2N of each pair that a
    path joins, and a greedy complement of S.  N is accepted iff every
    path of length in (N, 2N] lies in S.  Then every path longer than N
    lies in I, so for each u·r·v with |u| + |v| + (shortest term of r)
    <= N, its terms of length <= 2N lie in I as well; they are added to
    S when some relation's lengths spread by more than N, the only case
    where S misses one of them.  Returns the basis paths of each nonzero
    hom, in vertex-major order, and product(g, f, pair): the product g∘f
    of two basis paths, as a combination of the basis names of hom(pair).
    """
    n = p.length_bound
    paths = _enumerate_paths(p, 2 * n)
    at = {x: i for i, x in enumerate(p.vertices)}
    pairs = sorted(paths, key=lambda pair: (at[pair[0]], at[pair[1]]))
    rels = []  # (source, target, shortest, longest term length, terms)
    for terms in relations:
        first = next(iter(terms))
        lengths = [len(path) for path in terms]
        # QuiverPresentation checked that each path composes
        rels.append((p.arrow(first[-1]).source, p.arrow(first[0]).target,
                     min(lengths), max(lengths), terms.items()))
    index = {pair: {t: i for i, t in enumerate(plist)}
             for pair, plist in paths.items()}

    def solve(pair, accepted):
        x, y = pair
        idx = index[pair]
        gens: list[dict] = []
        for u, v, lo, hi, terms in rels:
            room = max(2 * n - hi, n - lo) if accepted else 2 * n - hi
            mids = paths.get((x, u), ())
            # path lists run by increasing length, so the first path too
            # long for the room left ends each loop
            for left in paths.get((v, y), ()):
                if len(left) > room:
                    break
                for mid in mids:
                    k = len(left) + len(mid)
                    if k > room:
                        break
                    vec: dict = {}
                    for path, coeff in terms:
                        if k + len(path) <= 2 * n:
                            vec[idx[left + path + mid]] = coeff
                    gens.append(vec)
        # shortest paths first, then declaration order
        dim = len(paths[pair])
        return complement(field.characteristic, dim, gens, range(dim))

    solved = {}
    for pair in pairs:
        reps, project = solved[pair] = solve(pair, False)
        for t in paths[pair]:
            # a path lies in the span iff it projects to zero
            if len(t) > n and project[index[pair][t]]:
                raise TruncationError(t, n)
    if any(hi - lo > n for _, _, lo, hi, _ in rels):
        solved = {pair: solve(pair, True) for pair in pairs}
    basis_paths = {pair: [paths[pair][j] for j in reps]
                   for pair, (reps, _) in solved.items() if reps}
    names = {pair: [path_name(t, pair[0]) for t in ts]
             for pair, ts in basis_paths.items()}

    def product(g, f, pair):
        coords = solved[pair][1][index[pair][g + f]]
        return {names[pair][i]: a for i, a in sorted(coords.items())}

    return basis_paths, product


def _rewrite(p: QuiverPresentation, field: FieldSpec, relations: list):
    """present by a Gröbner basis, for homogeneous relations.  In a
    graded ideal, degree N+1 decides the bound: the bound is accepted
    iff no path of length N+1 is standard.  Only a refusal builds the
    basis on to degree 2N, for the first standard path longer than N in
    the first pair that has one; in a pair, the first path of a length
    that lies outside I is the smallest standard path of that length.
    Returns the basis paths of each nonzero hom, in vertex-major order,
    and product(g, f, pair): the product g∘f of two basis paths of length
    >= 1, as a combination of the basis names of hom(pair), memoized by
    its word."""
    n = p.length_bound
    number = {a.name: i for i, a in enumerate(p.arrows)}
    gb = _GroebnerBasis(field, [
        {tuple(number[a] for a in reversed(path)): c for path, c in r.items()}
        for r in relations])
    leaving: dict[str, list] = {x: [] for x in p.vertices}
    for i, a in enumerate(p.arrows):
        leaving[a.source].append((i, a.name, a.target))

    # for each vertex x, the standard words leaving x in path order, as
    # (word, path, target), and where its longest ones start
    trees = {x: [((), (), x)] for x in p.vertices}
    level = {x: 0 for x in p.vertices}

    def grow(shortest, longest):
        """Add the standard words of lengths shortest..longest to the
        trees.  They are closed under prefixes, so the words of each
        length are those one shorter extended by an arrow, when no
        leading word ends the result."""
        gb.extend(longest)
        rules = gb.rules
        for length in range(shortest, longest + 1):
            ends = [k for k in gb.lengths if k <= length]
            for x, tree in trees.items():
                start, level[x] = level[x], len(tree)
                for w, path, y in tree[start:level[x]]:
                    for i, a, z in leaving[y]:
                        s = w + (i,)
                        for k in ends:
                            if s[-k:] in rules:
                                break
                        else:
                            tree.append((s, (a,) + path, z))

    at = {x: i for i, x in enumerate(p.vertices)}
    grow(1, n + 1)
    if any(len(tree[-1][0]) > n for tree in trees.values()):
        grow(n + 2, 2 * n)
        for tree in trees.values():
            first: dict = {}  # target -> its first path longer than N
            for w, path, y in tree:
                if len(w) > n:
                    first.setdefault(y, path)
            if first:
                raise TruncationError(first[min(first, key=at.get)], n)
    basis_paths: dict[tuple[str, str], list] = {}
    position, word = {}, {}
    for x, tree in trees.items():
        for w, path, y in sorted(tree, key=lambda entry: at[entry[2]]):
            ts = basis_paths.setdefault((x, y), [])
            position[w] = len(ts)
            word[path] = w
            ts.append(path)
    # normal forms by word, and products by their word, which is not empty
    memo = {w: {w: 1} for w in position}
    name = {w: path_name(path) for path, w in word.items() if w}
    known = {w: {basis_name: 1} for w, basis_name in name.items()}
    red = field.reduce

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
                                 or gb.normal_form(s + a, memo)).items():
                        acc[t] = acc.get(t, 0) + c * b
                nf = memo[w[:j + 1]] = {t: r for t, c in acc.items()
                                        if (r := red(c))}
            known[w] = {name[s]: nf[s] for s in sorted(nf, key=position.get)}
        return known[w]

    return basis_paths, product


class _GroebnerBasis:
    """A reduced Gröbner basis of a graded ideal of a path algebra, built
    degree by degree up to a bound and extended on demand.

    A word is a path as the tuple of its arrows' declaration indices in
    the order they apply, so tuples of one length compare as present
    orders paths.  `rules` maps each leading word of the basis to its
    tail: the leading word is congruent to the tail modulo the ideal,
    and the tail is a combination of smaller standard words (E. L.
    Green, "Noncommutative Gröbner bases, and projective resolutions",
    1999).  Degree d takes the relations of degree d and the overlaps of
    two leading words (a proper suffix of one is a prefix of the other)
    that span d arrows, rewritten by the rules of lower degree, and
    reduces them against each other.  By the diamond lemma (G. M.
    Bergman, Adv. Math. 29, 1978) the rules of degree <= d then rewrite
    each word of length <= d to its normal form."""

    def __init__(self, field: FieldSpec, relations: list[dict]):
        self.field = field
        self.rules: dict[tuple[int, ...], dict] = {}
        self.lengths: list[int] = []  # of the leading words, increasing
        self.degree = 0  # the rules of every degree up to this one are in
        # degree -> relations (dicts word -> value) and overlaps (leading
        # word, leading word, length of the common part)
        self.pending: dict[int, list] = {}
        for r in relations:
            self.pending.setdefault(len(next(iter(r))), []).append(r)

    def extend(self, top: int) -> None:
        """Add the rules of every degree up to top."""
        rules, red = self.rules, self.field.reduce
        for d in range(self.degree + 1, top + 1):
            if d not in self.pending:
                continue
            memo: dict = {}  # normal forms by the rules of lower degree
            vecs = []
            for item in self.pending.pop(d):
                if type(item) is tuple:  # overlap: lead1 = p·s, lead2 = s·q
                    lead1, lead2, k = item
                    p, q = lead1[:-k], lead2[k:]
                    item = {t + q: a for t, a in rules[lead1].items()}
                    for t, a in rules[lead2].items():
                        item[p + t] = item.get(p + t, 0) - a
                vec: dict = {}
                for w, a in item.items():
                    for s, b in self.normal_form(w, memo).items():
                        vec[s] = vec.get(s, 0) + a * b
                if vec := {s: r for s, a in vec.items() if (r := red(a))}:
                    vecs.append(vec)
            if all(len(vec) == 1 for vec in vecs):
                # monomials: each word is a leading word with no tail
                new = list(dict.fromkeys(s for vec in vecs for s in vec))
                rules.update((s, {}) for s in new)
            else:
                # larger words get smaller columns, so each pivot is the
                # leading word of its row
                words = sorted({s for vec in vecs for s in vec}, reverse=True)
                column = {s: j for j, s in enumerate(words)}
                e = EchelonBasis(self.field.characteristic)
                for vec in vecs:
                    e.add({column[s]: a for s, a in vec.items()})
                new = [words[j] for j in sorted(e.rows)]
                for j in sorted(e.rows):
                    rules[words[j]] = {words[i]: a
                                       for i, a in e.tail(j).items()}
            if new:
                self.lengths.append(d)
            # the overlaps of each ordered pair of leading words, one of
            # them new; those of two monomials are zero
            fresh = set(new)
            for a in rules:
                for b in rules if a in fresh else new:
                    if rules[a] or rules[b]:
                        for k in range(1, min(len(a), len(b))):
                            if a[-k:] == b[:k]:
                                self.pending.setdefault(
                                    len(a) + len(b) - k, []).append((a, b, k))
        self.degree = max(self.degree, top)

    def _rewrite_once(self, w: tuple[int, ...]) -> Optional[list]:
        """w rewritten once, at its leftmost shortest leading word, as
        (word, value) terms; None when w is standard."""
        rules = self.rules
        for i in range(len(w)):
            for k in self.lengths:
                if i + k > len(w):
                    break
                tail = rules.get(w[i:i + k])
                if tail is not None:
                    return [(w[:i] + t + w[i + k:], a) for t, a in tail.items()]
        return None

    def normal_form(self, word: tuple[int, ...], memo: dict) -> dict:
        """word as a combination of standard words, rewriting the leftmost
        shortest leading word first; memo keeps the normal form of each
        word met on the way.  A stack, not recursion: a chain of rewrites
        may be as long as the words of one length are many."""
        red = self.field.reduce
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
