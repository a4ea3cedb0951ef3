"""Differential test of check_covering and validate_functor against the
checks they replaced, kept here verbatim as references (zero blocks are
read through LinFunctor.block, since functors store only nonzero ones).
The library builds every star block in one pass over the nonzero hom
pairs and inverts it on its sparse columns, and sums functoriality on
raw values; the references rank a dense star matrix per (object, base
object, half) and send every basis product through compose.  Both must
give the same CoveringReport (verdicts, failures in order, violations,
message), on fixtures over Q, F_2, F_3 and F_5 and on
perturbations of them."""
from hypothesis import given, settings, strategies as st

from lincat import registry
from lincat.covering import CoveringReport, check_covering, fibre
from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (Q, F2, corrupted_collapse, cover_f0, cover_f1,
                             cover_f2, cyclic_cover, cyclic_reduction,
                             identity_cover, square_cover)
from lincat.formats import action_from_doc, functor_from_doc
from lincat.kcat import (LinFunctor, Violation, comb_add, comb_eq,
                         comb_scale, comb_str, compose, functor_from_arrows,
                         validate_functor)
from linalg_reference import rank, row_major

F3, F5 = FieldSpec(3), FieldSpec(5)
FIELDS = (Q, F2, F3, F5)


# -- the references ----------------------------------------------------------

def reference_star_matrix(f, x, b1, direction):
    """The map (⊕ over the fibre of b1 of homs between x and the fibre)
    -> hom between f(x) and b1, as a column-block matrix in fibre order."""
    b0 = f.object_map[x]
    if direction == "out":
        rows = f.target.dim(b0, b1)
        blocks = [f.block(x, y) for y in fibre(f, b1)]
    else:
        rows = f.target.dim(b1, b0)
        blocks = [f.block(y, x) for y in fibre(f, b1)]
    ent = [a for i in range(rows) for b in blocks for a in b.row(i)]
    return row_major(f.source.field, rows, sum(b.cols for b in blocks), ent)


def reference_check_covering(f):
    """Object surjectivity plus per-fibre block bijectivity of both star
    halves at every source object, and functoriality by the reference
    below."""
    hit = set(f.object_map.values())
    surjective = hit == set(f.target.objects)
    failures = []
    for x in f.source.objects:
        for b1 in f.target.objects:
            for direction in ("out", "in"):
                m = reference_star_matrix(f, x, b1, direction)
                if m.rows != m.cols or rank(m) != m.rows:
                    failures.append((x, b1, direction))
    violations = reference_validate_functor(f)
    return CoveringReport(surjective and not failures and not violations,
                          surjective, failures, violations)


def reference_validate_functor(f):
    """Unit preservation and functoriality on all composable basis pairs,
    with each basis image computed once."""
    out = []
    src, tgt = f.source, f.target
    for x in src.objects:
        img = f.apply(src.identity(x))
        want = tgt.identity(f.object_map[x])
        if not comb_eq(img, want):
            out.append(Violation("functor-unit", (x,),
                                 f"F(id_{x}) = {comb_str(tgt.field, img)} ≠ id_{f.object_map[x]}"))
    image = {}  # f.apply_name(n), read off the columns
    for (x, y) in src.pairs:
        m = f.matrices[(x, y)]
        rows = tgt.hom[(f.object_map[x], f.object_map[y])]
        for j, n in enumerate(src.hom[(x, y)]):
            image[n] = {t: a for t, a in zip(rows, m.entries[j::m.cols])
                        if a}
    for fn in src.basis_names():
        for gn in src.leaving[src.target_of(fn)]:
            lhs = {}
            for n, s in src.comp.get((gn, fn), {}).items():
                lhs = comb_add(tgt.field, lhs,
                               comb_scale(tgt.field, s, image[n]))
            rhs = compose(tgt, image[gn], image[fn])
            if not comb_eq(lhs, rhs):
                out.append(Violation("functor-comp", (gn, fn),
                                     f"F({gn}∘{fn}) = {comb_str(tgt.field, lhs)} but "
                                     f"F({gn})∘F({fn}) = {comb_str(tgt.field, rhs)}"))
    return out


# -- inputs --------------------------------------------------------------------

def twisted_cover(n, field):
    """The n-fold cyclic cover with a0 sent to a + b: a covering that is
    not Galois for n > 1."""
    fix = cyclic_cover(n, field)
    images = {f"{c}{i}": {c: 1} for c in "ab" for i in range(n)}
    images["a0"] = {"a": 1, "b": 1}
    return functor_from_arrows(fix.total, fix.base.category,
                               fix.functor.object_map, images)


def registry_functors():
    out = []
    names = [n for n in registry.fixture_names() if n != "cyclic-cover-n"]
    for name in names + [f"cyclic-cover-{n}" for n in range(1, 7)]:
        for doc in registry.fixture_files(name).values():
            if isinstance(doc, dict) and doc.get("kind") == "functor":
                out.append((name, functor_from_doc(doc)))
            if isinstance(doc, dict) and doc.get("kind") == "action":
                for s, g in action_from_doc(doc).functors.items():
                    out.append((f"{name}:{s}", g))
    return out


def pool():
    out = registry_functors()
    for field in FIELDS:
        for make in (cover_f0, cover_f1, cover_f2, corrupted_collapse,
                     identity_cover):
            fix = make(field)
            out.append((f"{fix.name}/{field}", fix.functor))
        for n in range(1, 7):
            out.append((f"cyclic-cover-{n}/{field}",
                        cyclic_cover(n, field).functor))
            out.append((f"twisted-{n}/{field}", twisted_cover(n, field)))
        for n, m in ((2, 1), (4, 2), (6, 2), (6, 3)):
            top, bottom, h = cyclic_reduction(n, m, field)
            out.append((f"reduction-{n}-{m}/{field}", h))
    out.append(("square-cover/F_2", square_cover().functor))
    return out


POOL = pool()


def assert_same(label, f):
    report, ref = check_covering(f), reference_check_covering(f)
    assert (report.ok, report.surjective, report.failures,
            report.violations) == \
        (ref.ok, ref.surjective, ref.failures, ref.violations), label
    assert report.message() == ref.message(), label
    assert validate_functor(f) == ref.violations, label
    return report


def test_fixture_pool_is_broad():
    reports = [check_covering(f) for _, f in POOL]
    assert sum(r.ok for r in reports) >= 60
    assert sum(not r.ok for r in reports) >= 4  # corrupted, non-surjective
    assert all(validate_functor(f) == [] for _, f in POOL)


def test_every_fixture_agrees():
    for label, f in POOL:
        assert_same(label, f)


def test_star_table_inverts_the_reference_star_matrices():
    """Every bijective star block, 0x0 ones included, has an inverse
    that undoes the reference star matrix column by column, and each
    position names the fibre object of its block."""
    for label, f in POOL:
        report = check_covering(f)
        one = f.source.field.one()
        for (x, b, direction), (inv, owner) in report.stars.items():
            m = reference_star_matrix(f, x, b, direction)
            assert m.rows == m.cols, label
            for j, col in enumerate(m.columns):
                assert inv(col) == {j: one}, (label, x, b, direction)
            at = 0
            for e in fibre(f, b):
                width = f.block(x, e).cols if direction == "out" \
                    else f.block(e, x).cols
                assert owner[at:at + width] == \
                    [(e, at, at + width - 1)] * width, label
                at += width
            assert at == len(owner)
        bijective = {(x, b, d) for x in f.source.objects
                     for b in f.target.objects for d in ("out", "in")
                     if (x, b, d) not in report.failures}
        assert set(report.stars) == bijective, label


# -- perturbations -------------------------------------------------------------

def _replace(f, pair, m):
    return LinFunctor(f.source, f.target, dict(f.object_map),
                      {**f.matrices, pair: m})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_one_entry_changed(data):
    label, f = data.draw(st.sampled_from(POOL))
    pair = data.draw(st.sampled_from(sorted(f.matrices)))
    m = f.matrices[pair]
    if not m.entries:
        return
    i = data.draw(st.integers(0, len(m.entries) - 1))
    v = f.source.field.scalar(data.draw(st.integers(-2, 4)))
    ent = m.entries[:i] + (v,) + m.entries[i + 1:]
    assert_same(f"{label} {pair}[{i}]={v}",
                _replace(f, pair, row_major(m.field, m.rows, m.cols, ent)))


def test_unit_moved_at_one_object():
    # F(id_x) scaled by 0 or 2 at the first and at the last object: the
    # pairs with an identity factor there are checked, the rest skipped
    for label, f in POOL:
        fld = f.source.field
        for x in {f.source.objects[0], f.source.objects[-1]}:
            m = f.matrices[(x, x)]
            for s in {fld.zero(), fld.scalar(2)}:
                ent = tuple(fld.reduce(s * a) for a in m.entries)
                g = _replace(f, (x, x), row_major(fld, m.rows, m.cols, ent))
                found = validate_functor(g)
                assert found == reference_validate_functor(g), (label, x, s)
                assert found, (label, x, s)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_one_block_scaled(data):
    label, f = data.draw(st.sampled_from(POOL))
    pair = data.draw(st.sampled_from(sorted(f.matrices)))
    m = f.matrices[pair]
    fld = f.source.field
    s = fld.scalar(data.draw(st.sampled_from([0, 2, 3, -1])))
    ent = tuple(fld.reduce(s * a) for a in m.entries)
    assert_same(f"{label} {pair}*{s}",
                _replace(f, pair, row_major(m.field, m.rows, m.cols, ent)))


def _swaps():
    """Functors with the images of two source objects exchanged, wherever
    the blocks still have the right shapes."""
    out = []
    for label, f in POOL:
        objs = f.source.objects
        for i, x in enumerate(objs):
            for y in objs[i + 1:]:
                if f.object_map[x] == f.object_map[y]:
                    continue
                omap = dict(f.object_map, **{x: f.object_map[y],
                                             y: f.object_map[x]})
                try:
                    g = LinFunctor(f.source, f.target, omap, f.matrices)
                except ValueError:
                    continue
                out.append((f"{label} {x}<->{y}", g))
    return out


SWAPS = _swaps()


def test_swaps_exist_and_break_coverings():
    assert len(SWAPS) >= 20
    assert any(not check_covering(g).ok for _, g in SWAPS)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SWAPS))
def test_two_object_images_swapped(case):
    assert_same(*case)
