"""Grading helpers for the tests.  `homogeneous_comb` gives the j-th
homogeneous column of hom(x,y) as a combination of basis names; no
library code calls it any more, and the comb-based references of
test_validation_differential.py and test_smash_differential.py keep
it.  `zero_composite_path` builds x -> y -> z with b∘a = 0, and
`composite_in_a_zero_hom` the same data with b∘a = a, which LinCat
refuses.

`graded_nakayama` builds the C_n-graded cyclic Nakayama categories
that the benchmark's cohomology workload runs delta and delta-inj on.

`reference_validate_grading` is the comb-based grading check that
Grading's construction replaced: it lists every problem, where
construction refuses with the first.  It reads the four fields of a
grading, so it also runs on `grading_fields`, data that Grading may
refuse; `built_grading` builds such data, or gives the refusal's text.

`reference_decided` is the loop Grading's construction ran before it
summed its products from the structure constants: it composes every
pair of homogeneous columns of every composable (x, y, w).  It gives
the inverses, identity coordinates and products a Grading keeps, in
their order, or the text of the first problem.

`reference_grading` is Grading's construction as it was before
monomial blocks got their own path: it sums every product from the
structure constants and applies the inverse blocks to the sums, for
any blocks.  It gives what `reference_decided` gives.

`reference_walks` is the search is_connected_grading ran before it kept
one parent step per state: a walk per reached state, in discovery
order, each built by extending its parent's.
"""
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

from lincat.exactlinalg import FieldSpec, dense, inverse
from lincat.fixtures import Q
from lincat.grading import (Grading, HomogeneousWalk, HWalkStep,
                            grading_on_basis)
from linalg_reference import apply_dense
from lincat.groups import cyclic_group
from lincat.kcat import (Arrow, LinComb, QuiverPresentation, _product,
                         compose, present)
from lincat_reference import make_category


def homogeneous_comb(z: Grading, x: str, y: str, j: int) -> LinComb:
    names = z.category.hom[(x, y)]
    return {names[i]: a for i, a in z.basis[(x, y)].columns[j].items()}


def zero_composite_path(ba=None):
    """x -> y -> z with hom(x,z) = 0, and b∘a = ba (zero if not given:
    any other value composes outside hom(x,z))."""
    return make_category(Q, ("x", "y", "z"),
                         {("x", "x"): ["1_x"], ("y", "y"): ["1_y"],
                          ("z", "z"): ["1_z"], ("x", "y"): ["a"],
                          ("y", "z"): ["b"]},
                         {("1_y", "a"): {"a": 1}, ("a", "1_x"): {"a": 1},
                          ("1_z", "b"): {"b": 1}, ("b", "1_y"): {"b": 1},
                          ("b", "a"): ba or {},
                          **{(f"1_{o}", f"1_{o}"): {f"1_{o}": 1}
                             for o in "xyz"}},
                         {o: {f"1_{o}": 1} for o in "xyz"})


def composite_in_a_zero_hom():
    """x -> y -> z with hom(x,z) = 0 and b∘a = a: not a category, so
    LinCat refuses it."""
    return zero_composite_path({"a": 1})


def grading_fields(z, **changes) -> SimpleNamespace:
    """The group, category, basis and degrees of z, with some of them
    replaced, unchecked."""
    fields = dict(group=z.group, category=z.category, basis=z.basis,
                  degrees=z.degrees)
    return SimpleNamespace(**{**fields, **changes})


def built_grading(z):
    """The Grading built from z's fields, or the text of its refusal."""
    try:
        return Grading(z.group, z.category, z.basis, z.degrees)
    except ValueError as e:
        return str(e)


def reference_validate_grading(z):
    """Empty iff z is a grading: invertible change of basis everywhere,
    degree labels in the group, identities of degree e, and composites of
    homogeneous elements homogeneous of the product degree."""
    problems = []
    c = z.category
    grp = z.group
    want = {pair for pair, names in c.hom.items() if names}
    if set(z.basis) != want:
        problems.append(f"basis keys {sorted(set(z.basis) ^ want)} do not "
                        "match the nonzero hom pairs")
        return problems
    if set(z.degrees) != want:
        problems.append("degree keys do not match the nonzero hom pairs")
        return problems
    invs = {}
    for pair in sorted(want):
        n = len(c.hom[pair])
        m = z.basis[pair]
        if (m.rows, m.cols) != (n, n):
            problems.append(f"hom{pair}: change of basis is {m.rows}x{m.cols},"
                            f" expected {n}x{n}")
            continue
        if len(z.degrees[pair]) != n:
            problems.append(f"hom{pair}: {len(z.degrees[pair])} degree labels"
                            f" for {n} columns")
            continue
        bad = [d for d in z.degrees[pair] if d not in grp.elements]
        if bad:
            problems.append(f"hom{pair}: unknown degree labels {bad}")
            continue
        inv = inverse(m)
        if inv is None:
            problems.append(f"hom{pair}: change of basis is singular")
            continue
        invs[pair] = inv
    if problems:
        return problems

    def support_degrees(coords, pair):
        return {z.degrees[pair][j] for j, a in enumerate(coords) if a}

    for x in c.objects:
        pair = (x, x)
        if pair not in invs:
            continue
        coords = apply_dense(invs[pair],
                             dense(c.field, c.coords(c.identity(x), x, x),
                                   c.dim(x, x)))
        degs = support_degrees(coords, pair)
        if degs - {grp.identity}:
            problems.append(f"identity of {x} meets degrees "
                            f"{sorted(degs - {grp.identity})}")
    for (x, y) in sorted(want):
        for (y2, w) in sorted(want):
            if y2 != y or (x, w) not in invs:
                continue
            for jf, s in enumerate(z.degrees[(x, y)]):
                f_comb = homogeneous_comb(z, x, y, jf)
                for jg, t in enumerate(z.degrees[(y, w)]):
                    g_comb = homogeneous_comb(z, y, w, jg)
                    prod = compose(c, g_comb, f_comb)
                    if not prod:
                        continue
                    coords = apply_dense(invs[(x, w)], dense(
                        c.field, c.coords(prod, x, w), c.dim(x, w)))
                    degs = support_degrees(coords, (x, w))
                    ts = grp.mul(t, s)
                    if degs - {ts}:
                        problems.append(
                            f"hom({x},{y}) column {jf} (degree {s}) composed "
                            f"with hom({y},{w}) column {jg} (degree {t}) "
                            f"meets degrees {sorted(degs)}, expected {ts}")
    return problems


def reference_decided(z):
    """(inverses, identity_coords, products) of z's fields as Grading
    keeps them, or the text of Grading's refusal, by composing every
    pair of homogeneous columns."""
    c, grp, degrees = z.category, z.group, z.degrees
    want = set(c.hom)
    if set(z.basis) != want:
        return (f"basis keys {sorted(set(z.basis) ^ want)} "
                "do not match the nonzero hom pairs")
    if set(degrees) != want:
        return "degree keys do not match the nonzero hom pairs"
    invs = {}
    for pair in sorted(want):
        n = len(c.hom[pair])
        m = z.basis[pair]
        if (m.rows, m.cols) != (n, n):
            return (f"hom{pair}: change of basis is "
                    f"{m.rows}x{m.cols}, expected {n}x{n}")
        if len(degrees[pair]) != n:
            return f"hom{pair}: {len(degrees[pair])} degree labels for {n} " \
                "columns"
        bad = [d for d in degrees[pair] if d not in grp.elements]
        if bad:
            return f"hom{pair}: unknown degree labels {bad}"
        invs[pair] = inverse(m)
        if invs[pair] is None:
            return f"hom{pair}: change of basis is singular"

    def support_degrees(coords, pair):
        return {degrees[pair][j] for j in coords}

    ids = {x: invs[(x, x)](c.coords(c.identities[x], x, x))
           for x in c.objects}
    for x, coords in ids.items():
        if degs := support_degrees(coords, (x, x)) - {grp.identity}:
            return f"identity of {x} meets degrees {sorted(degs)}"
    cols = {pair: [[(c.hom[pair][i], a) for i, a in col.items()]
                   for col in z.basis[pair].columns]
            for pair in want}
    red = c.field.reduce
    prods = {}
    for (x, y) in sorted(want):
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
                        return (f"hom({x},{y}) column {jf} (degree {s}) "
                                f"composed with hom({y},{w}) column {jg} "
                                f"(degree {t}) meets degrees {sorted(degs)}"
                                f", expected {ts}")
    return invs, ids, prods


def reference_grading(z):
    """(inverses, identity_coords, products) of z's fields as Grading
    keeps them, or the text of Grading's refusal, by summing each
    product of homogeneous columns from the structure constants."""
    c, grp, degrees = z.category, z.group, z.degrees
    want = set(c.hom)
    if set(z.basis) != want:
        return (f"basis keys {sorted(set(z.basis) ^ want)} "
                "do not match the nonzero hom pairs")
    if set(degrees) != want:
        return "degree keys do not match the nonzero hom pairs"
    invs = {}
    for pair in sorted(want):
        n = len(c.hom[pair])
        m = z.basis[pair]
        if (m.rows, m.cols) != (n, n):
            return (f"hom{pair}: change of basis is "
                    f"{m.rows}x{m.cols}, expected {n}x{n}")
        if len(degrees[pair]) != n:
            return f"hom{pair}: {len(degrees[pair])} degree labels for {n} " \
                "columns"
        bad = [d for d in degrees[pair] if d not in grp.elements]
        if bad:
            return f"hom{pair}: unknown degree labels {bad}"
        invs[pair] = inverse(m)
        if invs[pair] is None:
            return f"hom{pair}: change of basis is singular"

    def support_degrees(coords, pair):
        return {degrees[pair][j] for j in coords}

    ids = {x: invs[(x, x)](c.coords(c.identities[x], x, x))
           for x in c.objects}
    for x, coords in ids.items():
        if degs := support_degrees(coords, (x, x)) - {grp.identity}:
            return f"identity of {x} meets degrees {sorted(degs)}"
    occurs = {}
    for pair in want:
        names = c.hom[pair]
        for j, col in enumerate(z.basis[pair].columns):
            for i, a in col.items():
                occurs.setdefault(names[i], []).append((j, a))
    pos = c.position
    sums = {}
    for (gn, fn), comb in c.comp.items():
        x, y = c.pair_of(fn)
        w = c.target_of(gn)
        terms = [(pos[n], v) for n, v in comb.items()]
        for jg, b in occurs.get(gn, ()):
            for jf, a in occurs.get(fn, ()):
                ab = a * b
                acc = sums.setdefault((x, y, w, jf, jg), {})
                for i, v in terms:
                    acc[i] = acc.get(i, 0) + ab * v
    prods = {}
    for key in sorted(sums):
        x, y, w, jf, jg = key
        coords = invs[(x, w)](sums[key])
        if not coords:
            continue
        prods[((y, w, jg), (x, y, jf))] = coords
        degs = support_degrees(coords, (x, w))
        s, t = degrees[(x, y)][jf], degrees[(y, w)][jg]
        ts = grp.mul(t, s)
        if degs - {ts}:
            return (f"hom({x},{y}) column {jf} (degree {s}) "
                    f"composed with hom({y},{w}) column {jg} "
                    f"(degree {t}) meets degrees {sorted(degs)}"
                    f", expected {ts}")
    return invs, ids, prods


def decided(z):
    """What Grading keeps of z's fields, as reference_decided gives it,
    or the text of its refusal."""
    got = built_grading(z)
    if isinstance(got, str):
        return got
    return got.inverses, got.identity_coords, got.products


def graded_nakayama(m, length, n, p):
    """The cyclic quiver x0 -> ... -> x(m-1) -> x0 modulo the paths of
    length `length`, over F_p, graded by C_n: a path has the degree
    g^k when it passes the arrow x(m-1) -> x0 k times."""
    arrows = tuple(Arrow(f"u{i}", f"x{i}", f"x{(i + 1) % m}")
                   for i in range(m))
    zero_paths = tuple(((Fraction(1), tuple(f"u{(i + s) % m}" for s in
                                            reversed(range(length)))),)
                       for i in range(m))
    q = QuiverPresentation(tuple(f"x{i}" for i in range(m)), arrows,
                           zero_paths, length - 1)
    c = present(q, FieldSpec(p)).category
    grp = cyclic_group(n)
    degree = {name: grp.elements[name.split("*").count(f"u{m - 1}") % n]
              for name in c.basis_names()}
    return c, grading_on_basis(c, grp, degree)


def reference_walks(z):
    """A walk of fewest steps from (first object, e) to each reached
    state (object, group element), in breadth-first discovery order."""
    c, grp = z.category, z.group
    if not c.objects:
        return {}
    moves = {o: [] for o in c.objects}
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
    return walks
