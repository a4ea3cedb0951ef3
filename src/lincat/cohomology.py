"""Derivations, first Hochschild cohomology, and the Euler embedding of
additive characters.

A derivation is a family of endomorphisms of the hom spaces satisfying
the Leibniz rule against composition.  The space of derivations is the
kernel of one exact linear system; the inner ones are spanned by
commutator families attached to endomorphism choices at each object.
Additive characters of a finite group land in k⁺, so the character
space is zero in characteristic 0 and computed by linear algebra over
F_p otherwise.  delta turns a character into the derivation scaling a
degree-s homogeneous morphism by χ(s).  δ(χ) is inner iff a potential
φ on the objects has χ(deg h) = φ_y − φ_x for every homogeneous column
h: x → y, which one search over the objects decides; on a connected
grading only χ = 0 has one, so δ embeds the characters into H1, as
the paper proves.
"""
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .exactlinalg import EchelonBasis, FieldSpec, Matrix
from .groups import Group
from .kcat import LinCat
from .grading import Grading, is_connected_grading


@dataclass
class Derivation:
    """matrices[(x,y)] acts on coordinates in the declared basis of
    hom(x,y); pairs of dimension zero are omitted."""
    category: LinCat
    matrices: dict[tuple[str, str], Matrix]


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


def _derivation_vectors(c: LinCat, prod: Optional[dict] = None
                        ) -> list[dict]:
    """Kernel basis of the Leibniz system, as sparse vectors of unknowns
    (see _layout): the unknowns are the entries of one square matrix
    per nonzero hom pair, and the equations are sparse rows, one per
    output coordinate of the composite g∘f of basis names, read off the
    structure constants prod, _products(c), built here when not given.

    The rows of a pair (g, f) where exactly one of g, f is a unit name
    (c.unit_name: an identity that is one basis name with coefficient
    one) are left out; the row space they span with the rest does not
    change, so neither do its reduced echelon form and the kernel basis.
    LinCat makes u∘n = n∘u = n for a unit name u, so the row of (u, f)
    reads D(f) − D(f) − D(u)∘f = −D(u)∘f and that of (g, u) reads
    −g∘D(u), while the rows of (u, u) say −D(u) = 0: each left-out row
    is a combination of those.  Associativity is not assumed, so h1
    still finds a non-associative category out."""
    offset, total = _layout(c)
    if prod is None:
        prod = _products(c)
    units = set(c.unit_name.values())
    dim = {pair: len(names) for pair, names in c.hom.items()}
    system = EchelonBasis(c.field.characteristic)
    for f in c.basis_names():
        x, y = xy = c.pair_of(f)
        jf, f_unit = c.position[f], f in units
        at_xy, n_xy = offset[xy], dim[xy]
        for g in c.leaving[y]:
            if (g in units) != f_unit:
                continue
            w = c.target_of(g)
            nxw = dim.get((x, w), 0)
            if nxw == 0:
                # zero target space: both sides vanish identically
                continue
            at_xw, at_yw, n_yw = offset[(x, w)], offset[(y, w)], dim[(y, w)]
            jg = c.position[g]
            # D(g∘f) - g∘D(f) - D(g)∘f = 0, one row per coordinate r
            rows: list[dict] = [{} for _ in range(nxw)]
            for m, a in prod.get((g, f), ()):
                for r in range(nxw):
                    rows[r][at_xw + r * nxw + m] = a
            for i, fi in enumerate(c.hom[xy]):
                k = at_xy + i * n_xy + jf
                for r, a in prod.get((g, fi), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for i, gi in enumerate(c.hom[(y, w)]):
                k = at_yw + i * n_yw + jg
                for r, a in prod.get((gi, f), ()):
                    rows[r][k] = rows[r].get(k, 0) - a
            for row in rows:
                system.add(row)
    return system.kernel(total)


def _inner_generators(c: LinCat, prod: Optional[dict] = None
                      ) -> list[dict]:
    """f ↦ u∘f − f∘u for each basis endomorphism u, flattened sparsely;
    prod is _products(c), built here when not given."""
    offset, _ = _layout(c)
    if prod is None:
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
    prod = _products(c)
    ders = _derivation_vectors(c, prod)
    span = _span(c, _inner_generators(c, prod))
    inner_dim = len(span)
    reps = [v for v in ders if span.add(v)]
    if len(span) != len(ders):
        raise ValueError("input is not a category: inner derivation "
                         "outside the derivation space")
    return H1Result(len(ders) - inner_dim, len(ders), inner_dim,
                    _derivations(c, reps))


# -- characters ------------------------------------------------------------


@dataclass
class Character:
    """An additive character group → k⁺, decided when it is built:
    ValueError refuses one with validate_character's first problem."""
    group: Group
    field: FieldSpec
    values: dict[str, object]  # group element -> field element

    def __post_init__(self):
        problem = validate_character(self)
        if problem is not None:
            raise ValueError(problem)

    def __call__(self, s: str):
        return self.values[s]


def validate_character(chi: Character) -> Optional[str]:
    """The first problem of chi as an additive character, or None.

    With χ(e) = 0, χ(s·g) = χ(s) + χ(g) for every generator g gives
    χ(s·t) = χ(s) + χ(t) by induction on the length of t as a word in
    the generators, as in galois.check_action: no other pair is
    checked."""
    grp = chi.group
    if set(chi.values) != set(grp.elements):
        return "value keys do not match the group elements"
    if chi.values[grp.identity]:
        return "nonzero value at the identity"
    red = chi.field.reduce
    for g in grp.generators():
        for s in grp.elements:
            if chi.values[grp.mul(s, g)] != red(chi.values[s] + chi.values[g]):
                return f"not additive on ({s}, {g})"
    return None


def characters(grp: Group, field: FieldSpec) -> list[Character]:
    """Basis of the additive characters group → k⁺.  A finite group has
    no nonzero map into a torsion-free k⁺, so the basis is empty in
    characteristic 0.  The additivity rows are those of
    validate_character, on generators only: they cut out the same
    space, so the reduced echelon form and the kernel basis are the
    ones of the system on all pairs."""
    if field.characteristic == 0:
        return []
    elems = list(grp.elements)
    idx = {s: i for i, s in enumerate(elems)}
    system = EchelonBasis(field.characteristic)
    system.add({idx[grp.identity]: 1})
    for g in grp.generators():
        for s in elems:
            # χ(s) + χ(g) − χ(s·g) = 0; add reduces the entries
            row: dict = {}
            for u, a in ((s, 1), (g, 1), (grp.mul(s, g), -1)):
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


def _require_delta_input(c: LinCat, z: Grading, chi: Character) -> None:
    """Refuse what delta is not defined on, with the first problem."""
    _require_scalar_endos(c)
    if z.category != c:
        raise ValueError("grading does not belong to the category")
    if chi.group != z.group:
        raise ValueError("character group does not match the grading group")
    if chi.field != c.field:
        raise ValueError("character field does not match the category field")


def delta(c: LinCat, z: Grading, chi: Character) -> Derivation:
    """Derivation scaling each homogeneous element of degree s by χ(s);
    defined when every endomorphism ring is spanned by the identity.

    It satisfies Leibniz by construction, so it is not checked: χ is
    additive, and a composite of homogeneous columns of degrees s and t
    is homogeneous of degree t·s in a grading.  It is inner iff a
    potential φ on the objects has χ(deg h) = φ_y − φ_x for every
    homogeneous column h: x → y, as delta_is_inner decides."""
    _require_delta_input(c, z, chi)
    mats, inv = {}, z.inverses
    for pair, labels in z.degrees.items():
        cb = z.basis[pair]
        # cb · diag(χ(labels)): column j of cb scaled by χ of its degree
        scaled = tuple(cb({j: chi.values[s]}) for j, s in enumerate(labels))
        mats[pair] = Matrix(c.field, cb.rows, cb.cols, scaled) @ inv[pair]
    return Derivation(c, mats)


def delta_is_inner(c: LinCat, z: Grading, chi: Character) -> bool:
    """Whether delta(c, z, chi) is inner, without building it or the
    inner span; exact for any grading, connected or not.

    With End(x) = k·1_x, an inner derivation is ad φ for scalars φ_x,
    and it sends a homogeneous column h: x → y to φ_y·h − h·φ_x =
    (φ_y − φ_x)·h, while δ(χ) sends it to χ(deg h)·h.  The columns are
    a basis of every hom space, so δ(χ) = ad φ iff
    χ(deg h) = φ_y − φ_x for every column h.  One breadth-first search
    per component of the object graph sets φ from φ = 0 at its first
    object along each column it crosses, and checks every column
    against φ."""
    _require_delta_input(c, z, chi)
    red, value = c.field.reduce, chi.values
    moves: dict[str, list] = {o: [] for o in c.objects}
    for (x, y), labels in z.degrees.items():
        for s in labels:
            moves[x].append((y, value[s]))
            moves[y].append((x, -value[s]))
    potential: dict = {}
    for root in c.objects:
        if root in potential:
            continue
        potential[root] = 0
        component = [root]
        for x in component:  # the component grows while it is read
            for y, a in moves[x]:
                want = red(potential[x] + a)
                if y not in potential:
                    potential[y] = want
                    component.append(y)
                elif potential[y] != want:
                    return False
    return True


def delta_injectivity_check(c: LinCat, z: Grading) -> bool:
    """True iff no nonzero character maps to an inner derivation, which
    the paper proves for every grading this accepts: δ is the canonical
    monomorphism from the characters into H1.  It refuses a category
    with some End(x) ≠ k·1_x, where δ is not defined, a disconnected
    grading, where the statement can fail (over F_2, the Kronecker
    quiver with both arrows of degree g in C2 has χ(g) = 1 and δ(χ)
    inner), and a grading of another category.  So it builds no inner
    span, no character and no δ.

    Proof.  Let χ be additive with δ(χ) inner.  By delta_is_inner some
    potential φ has χ(s) = φ_y − φ_x for every homogeneous column
    h: x → y of degree s.  A homogeneous walk with steps h_1, …, h_n,
    each taken forward or backward, from (x₀, e) to (x₀, g) has degree
    g = ∏ s_i^(±1), so χ(g) = Σ ±χ(s_i) = Σ ±(φ_(y_i) − φ_(x_i)), the
    difference of φ between the walk's last and first object:
    φ_x₀ − φ_x₀ = 0.  A connected grading has such a walk for every g,
    so χ = 0."""
    _require_scalar_endos(c)
    if not is_connected_grading(z).connected:
        raise ValueError("grading is not connected; refusing the check")
    if z.category != c:
        raise ValueError("grading does not belong to the category")
    return True
