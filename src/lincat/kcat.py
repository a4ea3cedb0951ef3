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

from .exactlinalg import FieldSpec, Matrix, complement

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

    Hom spaces are spanned by paths of length <= N modulo the span of
    {u·r·v : r a relation, all terms of length <= 2N}.  Soundness of the
    cut at N requires every path of length in (N, 2N] to lie in that span;
    this is checked and TruncationError reports the first witness, pairs
    taken in vertex-major order.  The surviving basis is greedy
    path-monomial: shortest paths first, then declaration order.  A
    relation coefficient whose denominator p divides raises
    ZeroDivisionError naming it.

    The cost follows the paths that exist, not the pairs of objects:
    only pairs joined by a path of length <= 2N are eliminated and
    checked, each basis path is composed only with the basis paths
    leaving its target, and `basis_paths` lists the nonzero homs only.
    """
    n = p.length_bound
    paths = _enumerate_paths(p, 2 * n)
    at = {x: i for i, x in enumerate(p.vertices)}
    pairs = sorted(paths, key=lambda pair: (at[pair[0]], at[pair[1]]))
    relations = []  # (source, target, room left for u and v, terms)
    for rel in p.relations:
        first = rel[0][1]
        # QuiverPresentation checked that each path composes
        relations.append((p.arrow(first[-1]).source, p.arrow(first[0]).target,
                          2 * n - max(len(path) for _, path in rel),
                          [(field.scalar(coeff), path) for coeff, path in rel]))
    basis_paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    projections: dict[tuple[str, str], list[dict]] = {}
    index: dict[tuple[str, str], dict[tuple[str, ...], int]] = {}

    for pair in pairs:
        x, y = pair
        plist = paths[pair]
        dim = len(plist)
        idx = index[pair] = {t: i for i, t in enumerate(plist)}
        gens: list[dict] = []
        for u, v, room, terms in relations:
            mids = paths.get((x, u), ())
            # path lists run by increasing length, so the first path too
            # long for the room left ends each loop
            for left in paths.get((v, y), ()):
                if len(left) > room:
                    break
                for mid in mids:
                    if len(left) + len(mid) > room:
                        break
                    vec: dict = {}
                    for coeff, path in terms:
                        j = idx[left + path + mid]
                        vec[j] = vec.get(j, 0) + coeff
                    gens.append(vec)
        # shortest paths first, then declaration order
        reps, project = complement(field.characteristic, dim, gens,
                                   range(dim))
        for t in plist:
            # a path lies in the span iff it projects to zero
            if len(t) > n and project[idx[t]]:
                raise TruncationError(t, n)
        if reps:
            basis_paths[pair] = [plist[j] for j in reps]
        projections[pair] = project

    hom = {pair: tuple(path_name(t, pair[0]) for t in ts)
           for pair, ts in basis_paths.items()}

    def comb_of_path(t: tuple[str, ...], pair: tuple[str, str]) -> LinComb:
        coords = projections[pair][index[pair][t]]
        return {hom[pair][i]: a for i, a in sorted(coords.items())}

    identities = {x: comb_of_path((), (x, x)) for x in p.vertices}
    leaving: dict[str, list] = {x: [] for x in p.vertices}
    for (y, z), g_list in basis_paths.items():
        leaving[y].append((z, g_list))
    comp: dict[tuple[str, str], LinComb] = {}
    for (x, y), f_list in basis_paths.items():
        for z, g_list in leaving[y]:
            for ft in f_list:
                for gt in g_list:
                    comb = comb_of_path(gt + ft, (x, z))
                    if comb:
                        comp[(path_name(gt, y), path_name(ft, x))] = comb

    return PresentResult(LinCat(field, p.vertices, hom, comp, identities),
                         basis_paths)


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
