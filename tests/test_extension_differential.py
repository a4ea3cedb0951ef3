"""Differential test of extend_morphism against the solve-based extension
it replaced, kept here as the reference: the library inverts each star
block of G once per (F, G, J) and reads every column of H off the star
inverse, the reference re-solves the stars for every seed and then solves
each column again inside its block.  Both must agree on every seed."""
import pytest

from lincat.covering import (aut1, check_covering, extend_morphism,
                             fibre)
from lincat.exactlinalg import FieldSpec, Matrix, dense
from lincat.fixtures import (corrupted_collapse, cover_f0, cover_f1,
                             cover_f2, cyclic_cover, cyclic_reduction,
                             discrete, identity_cover, kronecker)
from lincat.kcat import (LinFunctor, functor_compose, functor_equal,
                         functor_from_arrows, functor_is_isomorphism,
                         identity_functor, validate_functor)
from linalg_reference import from_cols, from_rows, solve

F3, F5 = FieldSpec(3), FieldSpec(5)


def reference_star_matrix(f, x, b1, direction):
    b0 = f.object_map[x]
    if direction == "out":
        rows = f.target.dim(b0, b1)
        blocks = [f.block(x, y) for y in fibre(f, b1)]
    else:
        rows = f.target.dim(b1, b0)
        blocks = [f.block(y, x) for y in fibre(f, b1)]
    m = Matrix.zeros(f.source.field, rows, 0)
    for b in blocks:
        m = m.hstack(b)
    return m


def reference_extend(f, g, j, x0, d0):
    """The solve-based extend_morphism, verbatim in behaviour."""
    c, d, base = f.source, g.source, f.target
    if g.target != base or j.source != base or j.target != base:
        raise ValueError("functors do not share the base category")
    if any(j.object_map[x] != x for x in base.objects):
        raise ValueError("J must fix objects")
    if not functor_is_isomorphism(j):
        raise ValueError("J must be an isomorphism")
    if x0 not in c.objects or d0 not in d.objects:
        raise ValueError("unknown seed objects")
    if g.object_map[d0] != f.object_map[x0]:
        raise ValueError("seed mismatch")

    def jf_vector(name, x, y):
        comb = j.apply(f.apply_name(name))
        fx, fy = f.object_map[x], f.object_map[y]
        return dense(base.field, base.coords(comb, fx, fy), base.dim(fx, fy))

    def locate_block(x, y, direction):
        names = c.basis(x, y) if direction == "out" else c.basis(y, x)
        if direction == "out":
            vec = jf_vector(names[0], x, y)
        else:
            vec = jf_vector(names[0], y, x)
        m = reference_star_matrix(g, omap[x], f.object_map[y], direction)
        sol = solve(m, vec)
        if sol is None:
            return None
        found = None
        pos = 0
        for e in fibre(g, f.object_map[y]):
            width = d.dim(omap[x], e) if direction == "out" \
                else d.dim(e, omap[x])
            if any(sol[pos:pos + width]):
                if found is not None:
                    return None
                found = e
            pos += width
        return found

    omap = {x0: d0}
    queue = [x0]
    while queue:
        x = queue.pop(0)
        for y in c.objects:
            for direction in ("out", "in"):
                names = c.basis(x, y) if direction == "out" else c.basis(y, x)
                if not names:
                    continue
                e = locate_block(x, y, direction)
                if e is None:
                    return None
                if y in omap:
                    if omap[y] != e:
                        return None
                else:
                    omap[y] = e
                    queue.append(y)
    if len(omap) != len(c.objects):
        raise ValueError("source category is not connected")
    mats = {}
    for (x, y), names in c.hom.items():
        block = g.block(omap[x], omap[y])
        cols = []
        for n in names:
            sol = solve(block, jf_vector(n, x, y))
            if sol is None:
                return None
            cols.append(sol)
        mats[(x, y)] = from_cols(c.field, cols, nrows=block.cols)
    h = LinFunctor(c, d, omap, mats)
    if validate_functor(h):
        return None
    if not functor_equal(functor_compose(g, h), functor_compose(j, f)):
        return None
    return h


def kronecker_automorphisms(field):
    """Object-fixing automorphisms J of the Kronecker category."""
    k = kronecker(field).category
    ids = {"1_s": {"1_s": 1}, "1_t": {"1_t": 1}}
    for a, b in (({"a": 1}, {"b": 1}), ({"b": 1}, {"a": 1}),
                 ({"a": 2}, {"b": 1}), ({"a": 1, "b": 1}, {"b": 1})):
        yield LinFunctor.on_basis(k, k, {"s": "s", "t": "t"},
                                  dict(ids, a=a, b=b))


def assert_agree(label, f, g, j, seeds=None):
    """Both extensions on every seed (x0, d0) with G(d0) = F(x0); returns
    the number of seeds that extend."""
    if seeds is None:
        seeds = [(x0, d0) for x0 in f.source.objects
                 for d0 in fibre(g, f.object_map[x0])]
    hits = 0
    for x0, d0 in seeds:
        new = extend_morphism(f, g, j, x0, d0)
        ref = reference_extend(f, g, j, x0, d0)
        assert (new is None) == (ref is None), (label, x0, d0)
        if new is not None:
            assert functor_equal(new, ref), (label, x0, d0)
            hits += 1
    return hits


def test_every_seed_of_the_covering_matrix(covering_matrix):
    for fix in covering_matrix:
        j = identity_functor(fix.base.category)
        hits = assert_agree(fix.name, fix.functor, fix.functor, j)
        # each seed x0 has |deck group| images that extend
        group = aut1(fix.functor).order()
        assert hits == group * len(fix.total.category.objects), fix.name


@pytest.mark.parametrize("field", [FieldSpec(0), F3, FieldSpec(2)],
                         ids=str)
def test_cross_pairs_of_double_covers(field):
    fixes = [make(field) for make in (cover_f0, cover_f1, cover_f2,
                                      identity_cover)]
    hits = 0
    for f in fixes:
        for g in fixes:
            for j in kronecker_automorphisms(field):
                if not functor_is_isomorphism(j):
                    continue  # a -> 2a is singular over F_2
                hits += assert_agree(f"{f.name}->{g.name}", f.functor,
                                     g.functor, j)
    assert hits > 0


def test_kronecker_cyclic_covers():
    covers = {n: cyclic_cover(n) for n in (1, 2, 3, 4)}
    base = covers[1].base.category
    j = identity_functor(base)
    for n, top in covers.items():
        for m, bottom in covers.items():
            assert_agree(f"{n}->{m}", top.functor, bottom.functor, j)
    for j in kronecker_automorphisms(FieldSpec(0)):
        assert_agree("3->3 over J", covers[3].functor, covers[3].functor, j)


@pytest.mark.parametrize("n,m,field", [(4, 2, F3), (6, 3, F5),
                                       (4, 2, FieldSpec(2)),
                                       (4, 2, FieldSpec(0))], ids=str)
def test_cyclic_reductions(n, m, field):
    top, bottom, _ = cyclic_reduction(n, m, field)
    j = identity_functor(top.base.category)
    assert assert_agree(f"{n}->{m}", top.functor, bottom.functor, j) == \
        m * len(top.total.category.objects)
    assert_agree(f"{m}->{n}", bottom.functor, top.functor, j)
    for fix in (top, bottom):
        assert_agree(fix.name, fix.functor, fix.functor, j)
        assert_agree(fix.name + " to the base", fix.functor,
                     identity_functor(fix.base.category), j)


ARROWS_F0 = {"a0": {"a": 1}, "a1": {"a": 1}, "b0": {"b": 1}, "b1": {"b": 1}}


def unscaled_f0(fix):
    """F0 with 1_s0 sent to 2·1_s: every star block is bijective, but it
    is not a functor, so it is not a covering."""
    f = functor_from_arrows(fix.total, fix.base.category,
                            fix.functor.object_map, ARROWS_F0)
    f = LinFunctor(f.source, f.target, f.object_map,
                   {**f.matrices,
                    ("s0", "s0"): from_rows(FieldSpec(0), [[2]])})
    report = check_covering(f)
    assert report.surjective and not report.failures and report.stars
    assert not report.ok and report.violations == validate_functor(f) != []
    return f


def test_inputs_only_the_global_checks_or_zero_images_refuse():
    fix = cover_f0()
    j = identity_functor(fix.base.category)
    # G is not a functor, so the only H with G∘H = J∘F sends an identity
    # to half an identity: no seed extends, and G has no deck group
    unscaled = unscaled_f0(fix)
    assert assert_agree("F0->unscaled", fix.functor, unscaled, j) == 0
    with pytest.raises(ValueError, match="not a covering"):
        aut1(unscaled)
    # F sends a0 to zero: the candidate image of a0 names no block
    zero_a0 = functor_from_arrows(fix.total, fix.base.category,
                                  fix.functor.object_map,
                                  dict(ARROWS_F0, a0={}))
    assert assert_agree("zero a0->F0", zero_a0, fix.functor, j) == 0


def test_non_functorial_f_or_j_extends_no_seed():
    """J∘F is checked once per context: a star-bijective F or a
    block-invertible J that is not a functor makes J∘F send 1_s to
    2·1_s, so the candidate H is not a functor on any seed."""
    fix = cover_f0()
    base = fix.base.category
    unscaled = unscaled_f0(fix)
    assert assert_agree("unscaled->F0", unscaled, fix.functor,
                        identity_functor(base)) == 0
    scaled_j = LinFunctor.on_basis(
        base, base, {"s": "s", "t": "t"},
        {"1_s": {"1_s": 2}, "1_t": {"1_t": 1}, "a": {"a": 1}, "b": {"b": 1}})
    assert functor_is_isomorphism(scaled_j) and validate_functor(scaled_j)
    assert assert_agree("F0->F0 over scaled J", fix.functor, fix.functor,
                        scaled_j) == 0


def test_arrows_sent_into_a_zero_base_hom_extend_no_seed():
    """F sends a and b of the Kronecker category to 0 in hom(o0, o1) = 0
    of discrete(2).  G = 1 is a covering whose 0x0 star blocks are
    bijective, so propagation finds no candidate: no seed extends, and
    nothing is refused."""
    k, base = kronecker().category, discrete().category
    f = LinFunctor.on_basis(k, base, {"s": "o0", "t": "o1"},
                            {"1_s": {"1_o0": 1}, "1_t": {"1_o1": 1}})
    g = identity_functor(base)
    assert check_covering(g).ok and not validate_functor(f)
    assert assert_agree("Kronecker->discrete", f, g, g) == 0


def test_singular_star_block_raises():
    bad = corrupted_collapse()
    j = identity_functor(bad.base.category)
    for f in (bad.functor, cover_f0().functor):
        with pytest.raises(ValueError, match="not bijective"):
            extend_morphism(f, bad.functor, j, "s0", "s0")
    with pytest.raises(ValueError, match="not bijective"):
        aut1(bad.functor)
