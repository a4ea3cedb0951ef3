"""Differential test of validate_category, validate_derivation and the
grading check against the comb-based checks they replaced, kept as
references (the grading one in grading_reference.py).  The library sums
each Leibniz equation, each product of homogeneous columns and each
side of an associativity law from the raw structure constants; the
references send every basis product through compose, comb_pair,
Derivation.apply and vector.  Both must return the same problem lists,
in the same order, and refuse the same inputs with the same message.

Grading decides its axioms when it is built, so it must refuse exactly
the data on which the grading reference lists a problem, with the first
one's text.

The reference category check also decides composite ranges, identities
and unit laws, which LinCat now decides when it is built.  So the
reference runs on an unchecked copy of the edited data, and LinCat must
refuse exactly the inputs on which it reports one of those, with the
first such report's text; on the others validate_category must equal
its associativity reports."""
import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lincat.cohomology import (Derivation, characters, delta,
                               derivation_space, inner_derivations,
                               validate_derivation)
from lincat.covering import fibre
from lincat.exactlinalg import FieldSpec, Matrix
from grading_reference import (built_grading, grading_fields,
                               reference_validate_grading)
from linalg_reference import from_rows, row_major
from lincat.fixtures import (F2, Q, cover_f1, cyclic_cover, kronecker,
                             loop_square_zero, square_cover)
from lincat.grading import (Grading, grading_on_basis, induced_grading,
                            trivial_grading)
from lincat.groups import cyclic_group
from lincat import kcat
from lincat.kcat import (Arrow, LinCat, QuiverPresentation, Violation,
                         _reduced, comb_add, comb_eq, comb_str, compose,
                         present, validate_category)

F3, F5 = FieldSpec(3), FieldSpec(5)


# -- the references ----------------------------------------------------------

def reference_comp_range_violations(c):
    """Basis products g∘f with a term outside hom(source f, target g)."""
    out = []
    for (g, f), comb in c.comp.items():
        want = (c.source_of(f), c.target_of(g))
        for n in comb:
            if c.pair_of(n) != want:
                out.append(Violation("comp-range", (g, f),
                                     f"{g}∘{f} has a term {n} outside hom{want}"))
                break
    return out


def reference_validate_category(c):
    """Axiom check: composition lands in the right hom space, identities
    are two-sided units, composition is associative on all basis triples."""
    out = reference_comp_range_violations(c)
    for x in c.objects:
        if not c.identities[x]:
            out.append(Violation("identity-zero", (x,), f"identity of {x} is zero"))
    for n in c.basis_names():
        x, y = c.pair_of(n)
        f = {n: c.field.one()}
        left = compose(c, c.identity(y), f)
        if not comb_eq(left, f):
            out.append(Violation("unit-left", (y, n),
                                 f"id_{y} ∘ {n} = {comb_str(c.field, left)}"))
        right = compose(c, f, c.identity(x))
        if not comb_eq(right, f):
            out.append(Violation("unit-right", (n, x),
                                 f"{n} ∘ id_{x} = {comb_str(c.field, right)}"))
    def in_range(comb, pair):
        return all(c.pair_of(n) == pair for n in comb)

    one = c.field.one()
    for f in c.basis_names():
        x, y = c.pair_of(f)
        for g in c.leaving[y]:
            z = c.target_of(g)
            gf = c.comp.get((g, f), {})
            if not in_range(gf, (x, z)):
                continue  # already reported as comp-range
            for h in c.leaving[z]:
                w = c.target_of(h)
                hg = c.comp.get((h, g), {})
                if not in_range(hg, (y, w)):
                    continue
                lhs = compose(c, {h: one}, gf)
                rhs = compose(c, hg, {f: one})
                if not comb_eq(lhs, rhs):
                    out.append(Violation("assoc", (h, g, f),
                                         f"({h}∘{g})∘{f} = {comb_str(c.field, rhs)} but "
                                         f"{h}∘({g}∘{f}) = {comb_str(c.field, lhs)}"))
    return out


def _pair_order(c):
    return [(x, y) for x in c.objects for y in c.objects if c.dim(x, y)]


def reference_validate_derivation(d):
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


def outcome(check, value):
    """The problem list, or the type and text of the refusal."""
    try:
        return check(value)
    except Exception as e:  # the references may refuse with any type
        return (type(e).__name__, str(e))


def assert_same(check, reference, value):
    got = outcome(check, value)
    assert got == outcome(reference, value)
    return got


# -- inputs ------------------------------------------------------------------

def triangle(field):
    """r -> s -> t with c = b∘a, objects declared out of sorted order."""
    q = QuiverPresentation(
        ("t", "s", "r"),
        (Arrow("a", "r", "s"), Arrow("b", "s", "t"), Arrow("c", "r", "t")),
        (((Fraction(1), ("b", "a")), (Fraction(-1), ("c",))),),  2)
    return present(q, field).category


def truncated_loop(field, n):
    """k[u]/(u^n)."""
    q = QuiverPresentation(("x",), (Arrow("u", "x", "x"),),
                           (((Fraction(1), ("u",) * n),),), n - 1)
    return present(q, field).category


def zero_composite_path(field):
    """x -> y -> z with b∘a = 0, so hom(x,z) = 0."""
    q = QuiverPresentation(("x", "y", "z"),
                           (Arrow("a", "x", "y"), Arrow("b", "y", "z")),
                           (((Fraction(1), ("b", "a")),),), 1)
    return present(q, field).category


def slots(c):
    """Where the structure constants of c live: each composable pair of
    basis names (g, f), then each object's identity."""
    return [(g, f) for f in c.basis_names()
            for g in c.leaving[c.target_of(f)]] + list(c.objects)


def edit(c, slot, name, value):
    """The products and identities of c with the coefficient of `name`
    in `slot` (see slots) set to `value`."""
    comp, identities = dict(c.comp), dict(c.identities)
    table = comp if isinstance(slot, tuple) else identities
    table[slot] = {**table.get(slot, {}), name: c.field.scalar(value)}
    return comp, identities


def names_for(c, slot):
    """The names an edit of `slot` may use: any basis name for a product,
    the basis of End(x) for the identity of x."""
    return c.basis_names() if isinstance(slot, tuple) else c.basis(slot, slot)


def unchecked(c, comp, identities):
    """c with other products and identities, reduced as LinCat reduces
    them but not checked: what the reference category check reads."""
    u = copy.copy(c)
    u.comp = {k: r for k, v in comp.items() if (r := _reduced(c.field, v))}
    u.identities = {x: _reduced(c.field, v) for x, v in identities.items()}
    return u


def built(c, comp, identities):
    """The category LinCat builds on c's hom spaces, or its refusal."""
    try:
        return LinCat(c.field, c.objects, c.hom, comp, identities)
    except ValueError as e:
        return str(e)


def assert_category_agrees(c, comp, identities):
    """LinCat refuses the data iff the reference reports a composite
    range, identity or unit violation, with the first one's text;
    otherwise validate_category gives the reference's reports, which are
    all associativity failures.  Returns the kinds reported."""
    ref = reference_validate_category(unchecked(c, comp, identities))
    linear = [v for v in ref if v.kind != "assoc"]
    got = built(c, comp, identities)
    if linear:
        assert got == linear[0].detail
    else:
        assert validate_category(got) == ref
    return {v.kind for v in ref}


def broken_edits():
    """(category, basis product, new value): a composite with a term in
    another hom space, one spread over two hom spaces, a wrong composite
    inside its own hom space, and a composite whose hom space is zero."""
    out = []
    for field in (Q, F2, F3):
        k = kronecker(field).category
        out.append((k, ("1_t", "1_t"), {"a": 1}))
        out.append((k, ("1_t", "1_t"), {"1_t": 1, "a": 1}))
        out.append((k, ("1_t", "a"), {"b": 1}))
        out.append((zero_composite_path(field), ("b", "a"), {"a": 1}))
    return out


def sound_categories():
    return [kronecker(Q).category, kronecker(F2).category,
            kronecker(F5).category, loop_square_zero(F3).category,
            triangle(Q), triangle(F2), triangle(F3), triangle(F5),
            truncated_loop(F3, 3), truncated_loop(Q, 4),
            zero_composite_path(F5), cyclic_cover(3, F2).total.category,
            square_cover().base.category]


def family(c, entries):
    """The family of matrices on c's nonzero hom pairs with the given
    flat entries, in the layout of the Leibniz system."""
    mats, at = {}, 0
    for pair in c.pairs:
        n = c.dim(*pair)
        mats[pair] = row_major(c.field, n, n, entries[at:at + n * n])
        at += n * n
    return mats


def identity_family(c):
    return {pair: Matrix.identity(c.field, c.dim(*pair)) for pair in c.pairs}


def derivation_cases():
    """(category, derivations): every derivation basis element, every
    inner generator, and the identity family (a derivation only in
    characteristic 2 or where all composites vanish)."""
    out = []
    for c in sound_categories():
        ders = derivation_space(c) + inner_derivations(c)
        out.append((c, ders + [Derivation(c, identity_family(c))]))
    return out


DERIVATIONS = derivation_cases()


def kf2_grading():
    c = kronecker(F2).category
    return grading_on_basis(c, cyclic_group(2), {"a": "e", "b": "g"})


def mixed_kronecker_grading(field, order):
    """Homogeneous columns a+b (degree e) and a−b (degree g)."""
    c = kronecker(field).category
    z = grading_on_basis(c, cyclic_group(order), {})
    basis = dict(z.basis)
    basis[("s", "t")] = from_rows(field, [[1, 1], [1, -1]])
    degrees = dict(z.degrees)
    degrees[("s", "t")] = ("e", "g")
    return Grading(z.group, c, basis, degrees)


def induced(fix):
    f = fix.functor
    return induced_grading(f, {b: fibre(f, b)[0] for b in f.target.objects})


def assert_grading_agrees(z):
    """Grading refuses z's fields iff the reference lists a problem,
    with the first one's text; returns the reference's problems."""
    ref = reference_validate_grading(z)
    got = built_grading(z)
    assert got == ref[0] if ref else isinstance(got, Grading), (got, ref)
    return ref


def grading_cases():
    """Fourteen gradings, then the data of three that are not."""
    out = [kf2_grading(), mixed_kronecker_grading(F3, 3),
           mixed_kronecker_grading(F5, 2), mixed_kronecker_grading(Q, 2),
           induced(cover_f1()), induced(cyclic_cover(3, F2)),
           induced(cyclic_cover(4, F3)), induced(square_cover()),
           trivial_grading(loop_square_zero(F5).category, cyclic_group(2)),
           grading_on_basis(truncated_loop(F3, 3), cyclic_group(3),
                            {"u": "g", "u*u": "g2"})]
    for field, order in ((Q, 3), (F2, 2), (F3, 3), (F5, 5)):
        out.append(grading_on_basis(triangle(field), cyclic_group(order),
                                    {"a": "g", "b": "g", "c": "g2"
                                     if order > 2 else "e"}))
    # composites of the wrong degree: b∘a = c has degree e, not g2
    for field in (Q, F2, F3):
        z = grading_on_basis(triangle(field), cyclic_group(3), {})
        out.append(grading_fields(z, degrees={
            pair: tuple({"a": "g", "b": "g"}.get(n, "e") for n in names)
            for pair, names in z.category.hom.items()}))
    return out


GRADINGS = grading_cases()


# -- fixtures ----------------------------------------------------------------

def test_derivation_problems_agree_on_fixtures():
    outcomes = [assert_same(validate_derivation,
                            reference_validate_derivation, d)
                for _, ders in DERIVATIONS for d in ders]
    # the sweep sees valid derivations and Leibniz failures
    assert [] in outcomes
    assert any(isinstance(o, list) and o for o in outcomes)


def test_delta_derivations_agree():
    for z in GRADINGS[:14]:
        c = z.category
        if any(c.dim(x, x) != 1 for x in c.objects):
            continue
        for chi in characters(z.group, c.field):
            assert assert_same(validate_derivation,
                               reference_validate_derivation,
                               delta(c, z, chi)) == []


def test_derivation_key_and_shape_problems_agree():
    c = triangle(F3)
    mats = identity_family(c)
    assert_same(validate_derivation, reference_validate_derivation,
                Derivation(c, {}))
    for pair in c.pairs:
        bad = dict(mats)
        bad[pair] = Matrix.zeros(F3, c.dim(*pair) + 1, c.dim(*pair))
        assert assert_same(validate_derivation,
                           reference_validate_derivation,
                           Derivation(c, bad))


def test_grading_problems_agree_on_fixtures():
    outcomes = [assert_grading_agrees(z) for z in GRADINGS]
    assert outcomes[:14] == [[]] * 14
    assert all(outcomes[14:])  # the wrong composites


def test_composites_outside_hom_spaces_are_refused():
    """The categories that the grading and derivation checks once had to
    refuse are refused when they are built, with the reference category
    check's first report; that includes a composite into a zero hom
    space, which the grading reference passes over."""
    refused = []
    for c, key, comb in broken_edits():
        comp = {**c.comp, key: {n: c.field.scalar(a) for n, a in comb.items()}}
        assert assert_category_agrees(c, comp, c.identities) - {"assoc"}
        refused.append(built(c, comp, c.identities))
    assert refused[:4] == ["1_t∘1_t has a term a outside hom('t', 't')",
                           "1_t∘1_t has a term a outside hom('t', 't')",
                           "id_t ∘ a = b",
                           "b∘a has a term a outside hom('x', 'z')"]


def test_validate_category_composes_no_combination(monkeypatch):
    """validate_category sums both sides of each law from the structure
    constants: compose, comb_pair and comb_eq are never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("validate_category composed combinations")
    cases = sound_categories()
    want = [reference_validate_category(c) for c in cases]
    for name in ("compose", "comb_eq"):
        monkeypatch.setattr(kcat, name, refuse)
    monkeypatch.setattr(LinCat, "comb_pair", refuse)
    assert [validate_category(c) for c in cases] == want == [[]] * len(cases)


def test_category_edits_agree_exhaustively():
    """Every single structure constant of five small categories set to 0
    and to 2, one at a time: each input is refused exactly when the
    reference reports a linear axiom, and otherwise has the reference's
    associativity failures."""
    seen = set()
    for c in (kronecker(F3).category, triangle(Q), truncated_loop(F3, 3),
              zero_composite_path(F5), loop_square_zero(Q).category):
        for slot in slots(c):
            for name in names_for(c, slot):
                for value in (0, 2):
                    kinds = assert_category_agrees(c, *edit(c, slot, name,
                                                           value))
                    seen.add(min(kinds - {"assoc"}, default=min(
                        kinds, default="valid")))
    assert seen == {"valid", "assoc", "comp-range", "identity-zero",
                    "unit-left", "unit-right"}


# -- perturbations -----------------------------------------------------------

def pick(seq, i):
    return seq[i % len(seq)]


EDITED = sound_categories() + [cyclic_cover(4, F3).total.category,
                               square_cover().total.category]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(-3, 3))
def test_one_changed_structure_constant(case, slot, name, value):
    c = pick(EDITED, case)
    s = pick(slots(c), slot)
    assert_category_agrees(c, *edit(c, s, pick(names_for(c, s), name),
                                    value))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(-3, 3))
def test_one_changed_derivation_entry(case, which, entry, value):
    c, ders = pick(DERIVATIONS, case)
    d = pick(ders, which)
    flat = [a for pair in c.pairs for a in d.matrices[pair].entries]
    flat[entry % len(flat)] = c.field.scalar(value)
    assert_same(validate_derivation, reference_validate_derivation,
                Derivation(c, family(c, flat)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_one_swapped_degree_label(case, pair, column, label):
    z = pick(GRADINGS, case)
    key = pick(sorted(z.degrees), pair)
    labels = list(z.degrees[key])
    labels[column % len(labels)] = pick(z.group.elements, label)
    assert_grading_agrees(grading_fields(
        z, degrees={**z.degrees, key: tuple(labels)}))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(-2, 3))
def test_one_scaled_basis_column(case, pair, column, factor):
    z = pick(GRADINGS, case)
    key = pick(sorted(z.basis), pair)
    m = z.basis[key]
    j = column % m.cols
    s = m.field.scalar(factor)
    entries = [m.field.reduce(a * s) if k % m.cols == j else a
               for k, a in enumerate(m.entries)]
    assert_grading_agrees(grading_fields(z, basis={
        **z.basis, key: row_major(m.field, m.rows, m.cols, entries)}))
