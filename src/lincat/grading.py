"""Group gradings of linear categories.

A grading assigns to every hom space a decomposition into degree
components indexed by a finite group.  Components are carried by a
change-of-basis matrix per hom pair (columns are the homogeneous
elements in declared coordinates) plus one degree label per column, so
the declared basis itself need not be homogeneous.  A Grading decides
the grading axioms when it is built.  The module also covers the
grading induced by a Galois covering, relabeling under
a change of fibre objects, homogeneous walks and their degrees, the
connectivity of a grading, and the smash-product covering that inverts
the induced-grading construction.
"""
from collections import deque
from dataclasses import dataclass, field as dcfield
from typing import Optional

from .exactlinalg import EchelonBasis, Matrix, dense, inverse
from .groups import Group, trivial_group
from .kcat import LinCat, LinComb, LinFunctor, _product, identity_functor
from .covering import fibre
from .galois import is_galois


@dataclass
class Grading:
    """degrees[(x,y)][j] labels column j of basis[(x,y)].  Keys are the
    hom pairs of positive dimension.

    A grading is one when it is built: every change of basis is square
    and invertible, every label is a group element, every identity has
    degree e, and every composite of homogeneous columns is homogeneous
    of the product degree.  Grading refuses anything else with
    ValueError, naming the first problem: the key sets, then per pair in
    sorted order its shape, label count, labels and invertibility, then
    the identities, then the products.

    It keeps what deciding that computed, so that no caller inverts a
    block or composes a column again: `inverses`, the inverse of each
    change-of-basis block; `identity_coords[x]`, the coordinates of 1_x
    in the homogeneous basis of End(x); and `products`, keyed by (g, f)
    with f = (x, y, jf) the jf-th homogeneous column of hom(x,y) and
    g = (y, w, jg), the coordinates of each nonzero g∘f in the
    homogeneous basis of hom(x,w).  These take no part in construction,
    equality or repr, and a grading is not mutated once built."""
    group: Group
    category: LinCat
    basis: dict[tuple[str, str], Matrix]
    degrees: dict[tuple[str, str], tuple[str, ...]]
    inverses: dict[tuple[str, str], Matrix] = dcfield(
        init=False, compare=False, repr=False)
    identity_coords: dict[str, dict] = dcfield(
        init=False, compare=False, repr=False)
    products: dict[tuple[tuple, tuple], dict] = dcfield(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        self.degrees = {k: tuple(v) for k, v in self.degrees.items()}
        c, grp, degrees = self.category, self.group, self.degrees
        want = set(c.hom)
        if set(self.basis) != want:
            raise ValueError(f"basis keys {sorted(set(self.basis) ^ want)} "
                             "do not match the nonzero hom pairs")
        if set(degrees) != want:
            raise ValueError("degree keys do not match the nonzero hom pairs")
        invs: dict[tuple[str, str], Matrix] = {}
        for pair in sorted(want):
            n = len(c.hom[pair])
            m = self.basis[pair]
            if (m.rows, m.cols) != (n, n):
                raise ValueError(f"hom{pair}: change of basis is "
                                 f"{m.rows}x{m.cols}, expected {n}x{n}")
            if len(degrees[pair]) != n:
                raise ValueError(f"hom{pair}: {len(degrees[pair])} degree "
                                 f"labels for {n} columns")
            bad = [d for d in degrees[pair] if d not in grp.elements]
            if bad:
                raise ValueError(f"hom{pair}: unknown degree labels {bad}")
            invs[pair] = inverse(m)
            if invs[pair] is None:
                raise ValueError(f"hom{pair}: change of basis is singular")

        def support_degrees(coords, pair) -> set:
            return {degrees[pair][j] for j in coords}

        ids = {x: invs[(x, x)](c.coords(c.identities[x], x, x))
               for x in c.objects}
        for x, coords in ids.items():
            if degs := support_degrees(coords, (x, x)) - {grp.identity}:
                raise ValueError(f"identity of {x} meets degrees "
                                 f"{sorted(degs)}")
        # homogeneous columns as (basis name, value) terms; their products
        # are summed from the structure constants, inside hom(x,w)
        cols = {pair: [[(c.hom[pair][i], a) for i, a in col.items()]
                       for col in self.basis[pair].columns]
                for pair in want}
        red = c.field.reduce
        prods: dict[tuple[tuple, tuple], dict] = {}
        for (x, y) in sorted(want):
            # the nonzero pairs leaving y, sorted: leaving[y] is in that order
            for (_, w) in dict.fromkeys(map(c.pair_of, c.leaving[y])):
                if (x, w) not in invs:
                    continue
                for jf, s in enumerate(degrees[(x, y)]):
                    f_col = cols[(x, y)][jf]
                    for jg, t in enumerate(degrees[(y, w)]):
                        acc = _product(c.comp, cols[(y, w)][jg], f_col, {})
                        vec = {c.position[n]: r for n, v in acc.items()
                               if (r := red(v))}
                        if not vec:
                            continue
                        coords = invs[(x, w)](vec)
                        prods[((y, w, jg), (x, y, jf))] = coords
                        degs = support_degrees(coords, (x, w))
                        ts = grp.mul(t, s)
                        if degs - {ts}:
                            raise ValueError(
                                f"hom({x},{y}) column {jf} (degree {s}) "
                                f"composed with hom({y},{w}) column {jg} "
                                f"(degree {t}) meets degrees {sorted(degs)}"
                                f", expected {ts}")
        self.inverses, self.identity_coords, self.products = invs, ids, prods

    def component_columns(self, x: str, y: str, s: str) -> list[int]:
        return [j for j, d in enumerate(self.degrees[(x, y)]) if d == s]


def trivial_grading(c: LinCat, group: Optional[Group] = None) -> Grading:
    """Everything in the identity component."""
    return grading_on_basis(
        c, group if group is not None else trivial_group(), {})


def grading_on_basis(c: LinCat, group: Group,
                     degree_of: dict[str, str]) -> Grading:
    """Grading whose homogeneous basis is the declared one, with the
    given degree per basis name; identities default to degree e."""
    basis = {}
    degrees = {}
    for pair, names in c.hom.items():
        basis[pair] = Matrix.identity(c.field, len(names))
        degrees[pair] = tuple(degree_of.get(n, group.identity) for n in names)
    return Grading(group, c, basis, degrees)


def induced_grading(f: LinFunctor, fibre_choice: dict[str, str]) -> Grading:
    """Grading of the base of a Galois covering by its deck group: the
    degree-s component of hom(b,c) is the image of hom(x_b, s·x_c) for
    the chosen fibre objects x.  Star bijectivity makes the images of
    each hom(b,c) a basis of it."""
    base = f.target
    for b in fibre_choice:
        if b not in base.leaving:  # keyed by the objects
            raise ValueError(f"fibre choice names {b!r}, which is not an "
                             "object of the base")
    res = is_galois(f)
    if not res.galois:
        raise ValueError(f"not a Galois covering: {res.reason}")
    grp = res.group
    for b in base.objects:
        if fibre_choice.get(b) not in fibre(f, b):
            raise ValueError(f"fibre choice {fibre_choice.get(b)!r} for {b} "
                             "is not in the fibre")
    basis = {}
    degrees = {}
    for (b, c) in base.hom:
        xb = fibre_choice[b]
        block = None
        labels: list[str] = []
        for s in grp.group.elements:
            sxc = grp.apply_object(s, fibre_choice[c])
            m = f.block(xb, sxc)
            block = m if block is None else block.hstack(m)
            labels.extend([s] * m.cols)
        basis[(b, c)] = block
        degrees[(b, c)] = tuple(labels)
    return Grading(grp.group, base, basis, degrees)


def regrade(z: Grading, t: dict[str, str]) -> Grading:
    """Same homogeneous basis; the label s of a (b -> c)-element becomes
    t_c·s·t_b⁻¹."""
    grp = z.group
    for x in t:
        if x not in z.category.leaving:  # keyed by the objects
            raise ValueError(f"shift names {x!r}, which is not an object "
                             "of the category")
    for x in z.category.objects:
        if t.get(x) not in grp.elements:
            raise ValueError(f"no group element assigned to object {x}")
    degrees = {}
    for (b, c), labels in z.degrees.items():
        tb_inv = grp.inv(t[b])
        degrees[(b, c)] = tuple(grp.mul(t[c], grp.mul(s, tb_inv))
                                for s in labels)
    return Grading(grp, z.category, dict(z.basis), degrees)


# -- homogeneous walks ---------------------------------------------------


@dataclass(frozen=True)
class HWalkStep:
    """One homogeneous basis element, traversed forward (+1) or backward
    (-1).  src and tgt are the element's own endpoints regardless of
    direction."""
    src: str
    tgt: str
    index: int
    sign: int

    @property
    def start(self) -> str:
        return self.src if self.sign == 1 else self.tgt

    @property
    def end(self) -> str:
        return self.tgt if self.sign == 1 else self.src


@dataclass(frozen=True)
class HomogeneousWalk:
    start: str
    steps: tuple[HWalkStep, ...] = ()

    @property
    def end(self) -> str:
        return self.steps[-1].end if self.steps else self.start

    def concat(self, other: "HomogeneousWalk") -> "HomogeneousWalk":
        """self followed by other."""
        if other.start != self.end:
            raise ValueError("walks do not chain")
        return HomogeneousWalk(self.start, self.steps + other.steps)


def validate_hwalk(z: Grading, w: HomogeneousWalk) -> list[str]:
    problems = []
    if w.start not in z.category.objects:
        return [f"unknown start object {w.start!r}"]
    at = w.start
    for i, st in enumerate(w.steps):
        if (st.src, st.tgt) not in z.degrees or \
                not 0 <= st.index < len(z.degrees[(st.src, st.tgt)]):
            problems.append(f"step {i}: no homogeneous element "
                            f"{st.index} in hom({st.src},{st.tgt})")
            break
        if st.sign not in (1, -1):
            problems.append(f"step {i}: bad sign {st.sign}")
            break
        if st.start != at:
            problems.append(f"step {i}: starts at {st.start}, walk is at {at}")
            break
        at = st.end
    return problems


def walk_degree(z: Grading, w: HomogeneousWalk) -> str:
    """Ordered product of signed step degrees, rightmost factor from the
    first step."""
    problems = validate_hwalk(z, w)
    if problems:
        raise ValueError(problems[0])
    grp = z.group
    d = grp.identity
    for st in w.steps:
        s = z.degrees[(st.src, st.tgt)][st.index]
        if st.sign == -1:
            s = grp.inv(s)
        d = grp.mul(s, d)
    return d


@dataclass
class GradingConnectivity:
    connected: bool
    missing: tuple[tuple[str, str], ...]
    walks: dict[tuple[str, str], HomogeneousWalk]


def is_connected_grading(z: Grading) -> GradingConnectivity:
    """Breadth-first search on states (object, group element) with a
    transition per homogeneous basis element and direction; connected
    iff every (c, s) is reachable from (b, e).  The transition relation
    is symmetric, so one search from the first object decides the
    condition for every start object."""
    c = z.category
    grp = z.group
    states = [(o, g) for o in c.objects for g in grp.elements]
    if not states:
        return GradingConnectivity(True, (), {})
    # the moves out of each object: (next object, degree, step)
    moves: dict[str, list] = {o: [] for o in c.objects}
    for (x, y), labels in z.degrees.items():
        for j, d in enumerate(labels):
            moves[x].append((y, d, HWalkStep(x, y, j, 1)))
            moves[y].append((x, grp.inv(d), HWalkStep(x, y, j, -1)))
    start = (c.objects[0], grp.identity)
    walks = {start: HomogeneousWalk(c.objects[0])}
    queue = deque([start])
    while queue:
        o, g = queue.popleft()
        here = walks[(o, g)]
        for y, d, step in moves[o]:
            nxt = (y, grp.mul(d, g))
            if nxt not in walks:
                walks[nxt] = HomogeneousWalk(here.start, here.steps + (step,))
                queue.append(nxt)
    missing = tuple(s for s in states if s not in walks)
    return GradingConnectivity(not missing, missing, walks)


# -- the smash covering --------------------------------------------------


@dataclass
class SmashResult:
    category: LinCat
    projection: LinFunctor
    object_pairs: dict[str, tuple[str, str]]


def _unit_row(col: dict) -> Optional[int]:
    """The row of a sparse column that is a unit vector, else None."""
    if len(col) == 1:
        (i, a), = col.items()
        if a == 1:
            return i
    return None


def smash(b: LinCat, z: Grading) -> SmashResult:
    """Covering with one object copy per group element whose hom from
    (x,g) to (y,h) is the degree-(h·g⁻¹) component of hom(x,y).  With a
    trivial group this is b itself under the identity projection.

    Its structure constants are those of the grading in its homogeneous
    basis, which building the grading computed: every nonzero product
    of two homogeneous columns and every identity, renamed here into
    the copy of each source object.  No composite is recomputed."""
    if z.category is not b and z.category != b:
        raise ValueError("grading does not belong to the category")
    grp = z.group
    if grp.order() == 1:
        return SmashResult(b, identity_functor(b),
                           {o: (o, grp.identity) for o in b.objects})

    def oname(x: str, g: str) -> str:
        return f"{x}@{g}"

    object_pairs = {oname(x, g): (x, g) for x in b.objects
                    for g in grp.elements}
    # name each homogeneous column once per source copy; unit columns
    # keep the declared name as their stem
    stems: dict[tuple[str, str], list[str]] = {}
    for (x, y), names in b.hom.items():
        row = []
        for j in range(len(names)):
            u = _unit_row(z.basis[(x, y)].columns[j])
            row.append(names[u] if u is not None else f"{x}>{y}#{j}")
        stems[(x, y)] = row

    hom: dict[tuple[str, str], list[str]] = {}
    blocks: dict[tuple[str, str], list[dict]] = {}  # projection columns
    for (x, y), row in stems.items():
        columns = z.basis[(x, y)].columns
        for g in grp.elements:
            for j, d in enumerate(z.degrees[(x, y)]):
                key = (oname(x, g), oname(y, grp.mul(d, g)))
                hom.setdefault(key, []).append(f"{row[j]}@{g}")
                blocks.setdefault(key, []).append(columns[j])

    def rename(x: str, w: str, coords: dict, g: str) -> LinComb:
        return {f"{stems[(x, w)][j]}@{g}": a for j, a in coords.items()}

    comp: dict[tuple[str, str], LinComb] = {}
    for ((y, w, jg), (x, _, jf)), coords in z.products.items():
        f_stem, g_stem = stems[(x, y)][jf], stems[(y, w)][jg]
        s = z.degrees[(x, y)][jf]
        for g in grp.elements:
            comp[(f"{g_stem}@{grp.mul(s, g)}", f"{f_stem}@{g}")] = \
                rename(x, w, coords, g)
    identities = {oname(x, g): rename(x, x, z.identity_coords[x], g)
                  for x in b.objects for g in grp.elements}

    cat = LinCat(b.field, tuple(object_pairs), hom, comp, identities)
    mats = {(xg, yh): Matrix(b.field, b.dim(object_pairs[xg][0],
                                            object_pairs[yh][0]),
                             len(cs), tuple(cs))
            for (xg, yh), cs in blocks.items()}
    proj = LinFunctor(cat, b, {o: p[0] for o, p in object_pairs.items()},
                      mats)
    return SmashResult(cat, proj, object_pairs)


# -- comparing gradings --------------------------------------------------


def component_span(z: Grading, x: str, y: str, s: str) -> tuple:
    """Canonical row-reduced basis of the degree-s component of
    hom(x,y), as a tuple of coordinate rows: the nonzero rows of the
    reduced row echelon form of its homogeneous columns, by pivot."""
    c = z.category
    e = EchelonBasis(c.field.characteristic)
    for j in z.component_columns(x, y, s):
        e.add(z.basis[(x, y)].columns[j])
    return tuple(tuple(dense(c.field, e.rows[p], c.dim(x, y)))
                 for p in sorted(e.rows))


def same_components(z1: Grading, z2: Grading,
                    relabel: Optional[dict[str, str]] = None) -> bool:
    """Degreewise equality of the component subspaces, after renaming
    z1's group elements through `relabel` (default: identical names)."""
    if z1.category != z2.category:
        return False
    rl = relabel if relabel is not None else \
        {s: s for s in z1.group.elements}
    if sorted(rl) != sorted(z1.group.elements) or \
            sorted(rl.values()) != sorted(z2.group.elements):
        return False
    if set(z1.basis) != set(z2.basis):
        return False
    for pair in z1.basis:
        for s in z1.group.elements:
            if component_span(z1, *pair, s) != \
                    component_span(z2, *pair, rl[s]):
                return False
    return True
