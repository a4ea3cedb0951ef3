"""Category core: structure-constant axioms, functors, connectivity,
presentations.  Oracle values are hand-derived dimension and composition
facts recorded next to each assertion."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat import formats as fm
from lincat import registry
from lincat.exactlinalg import FieldSpec, Matrix, inverse
from lincat.fixtures import (F2, Q, cover_f0, cover_f2, cyclic_cover,
                             cyclic_cover_quiver, discrete,
                             disconnected_double_kronecker, identity_cover,
                             kronecker, kronecker_double, loop_square_zero,
                             square_base, square_cover, swap_functor)
from lincat.kcat import (Arrow, LinCat, LinFunctor, QuiverPresentation,
                         TruncationError, comb_eq, compose, functor_compose,
                         functor_equal, functor_from_arrows,
                         functor_is_isomorphism, identity_functor,
                         inverse_functor, is_connected, present,
                         validate_category, validate_functor)
from linalg_reference import from_rows


# -- validate_category -------------------------------------------------------

def test_kronecker_is_valid():
    k = kronecker().category
    assert validate_category(k) == []
    # one-dimensional endomorphism spaces, two-dimensional hom(s, t)
    assert k.dim("s", "s") == 1 and k.dim("t", "t") == 1
    assert k.dim("s", "t") == 2 and k.dim("t", "s") == 0


def test_unit_axiom_violation_detected():
    # e∘e = 0 yet e is the identity: refused when built
    with pytest.raises(ValueError, match="^id_x ∘ e = 0$"):
        LinCat.make(Q, ["x"], {("x", "x"): ["e"]}, {}, {"x": {"e": 1}})
    # e∘e = 2e over Q: both laws fail, and the left one is reported
    with pytest.raises(ValueError, match=r"^id_x ∘ e = \(2\)\*e$"):
        LinCat.make(Q, ["x"], {("x", "x"): ["e"]}, {("e", "e"): {"e": 2}},
                    {"x": {"e": 1}})
    with pytest.raises(ValueError, match="^identity of x is zero$"):
        LinCat.make(FieldSpec(3), ["x"], {("x", "x"): ["e"]},
                    {("e", "e"): {"e": 1}}, {"x": {"e": 3}})


def test_double_cover_is_valid():
    c = kronecker_double().category
    assert validate_category(c) == []
    assert c.dim("s0", "t0") == 1 and c.dim("s0", "t1") == 1
    assert c.dim("t0", "s0") == 0


def test_comp_range_violation_detected():
    def build(u_ex):
        return LinCat.make(
            Q, ["x", "y"],
            {("x", "x"): ["ex"], ("y", "y"): ["ey"], ("x", "y"): ["u", "v"]},
            {("ex", "ex"): {"ex": 1}, ("ey", "ey"): {"ey": 1},
             ("u", "ex"): u_ex, ("v", "ex"): {"v": 1},
             ("ey", "u"): {"u": 1}, ("ey", "v"): {"v": 1}},
            {"x": {"ex": 1}, "y": {"ey": 1}})
    assert validate_category(build({"u": 1})) == []
    # u∘ex landing in the wrong hom space is refused when built
    with pytest.raises(ValueError, match=r"^u∘ex has a term ex outside "
                       r"hom\('x', 'y'\)$"):
        build({"ex": 1})
    # a term that reduces to zero is not a term
    assert build({"u": 1, "ex": 0}).comp[("u", "ex")] == {"u": 1}


# -- compose -----------------------------------------------------------------

def test_compose_unit_law():
    k = kronecker().category
    one = k.field.one()
    assert compose(k, k.identity("t"), {"a": one}) == {"a": one}
    assert compose(k, {"a": one}, k.identity("s")) == {"a": one}


def test_compose_square_base_relation():
    # in the relation quotient, g∘(a+b) = g∘a + g∘b with g∘b rewritten
    b = square_base().category
    one = b.field.one()
    got = compose(b, {"g": one}, {"a": one, "b": one})
    assert got == {"g*a": one, "d*a": one}


def test_compose_bilinearity():
    k = kronecker().category
    f = k.field
    lhs = compose(k, {"1_t": f.scalar(2)}, {"a": f.scalar(3)})
    assert lhs == {"a": f.scalar(6)}


def test_compose_rejects_noncomposable():
    k = kronecker().category
    one = k.field.one()
    with pytest.raises(ValueError):
        compose(k, {"a": one}, {"a": one})


def test_compose_zero_is_zero():
    k = kronecker().category
    assert compose(k, {}, {"a": k.field.one()}) == {}
    assert compose(k, {"a": k.field.one()}, {}) == {}


# -- functors ----------------------------------------------------------------

def test_double_cover_functors_are_valid():
    assert validate_functor(cover_f0().functor) == []
    assert validate_functor(cover_f2().functor) == []
    assert validate_functor(identity_functor(kronecker().category)) == []


def test_functor_violation_detected():
    fix = cover_f0()
    # break unit preservation: send 1_s0 to 2·1_s
    bad = functor_from_arrows(
        fix.total, fix.base.category, fix.functor.object_map,
        {"a0": {"a": 1}, "a1": {"a": 1}, "b0": {"b": 1}, "b1": {"b": 1}})
    bad.matrices[("s0", "s0")] = from_rows(Q, [[2]])
    assert any(v.kind == "functor-unit" for v in validate_functor(bad))


@pytest.mark.parametrize("field,a_image,lines", [
    (Q, "1/2", [
        "functor-unit at ('s',): F(id_s) = (2)*1_s ≠ id_s",
        "functor-comp at ('1_s', '1_s'): F(1_s∘1_s) = (2)*1_s but "
        "F(1_s)∘F(1_s) = (4)*1_s",
        "functor-comp at ('a', '1_s'): F(a∘1_s) = (1/2)*a but "
        "F(a)∘F(1_s) = a",
        "functor-comp at ('b', '1_s'): F(b∘1_s) = b but "
        "F(b)∘F(1_s) = (2)*b",
    ]),
    (FieldSpec(3), 2, [
        "functor-unit at ('s',): F(id_s) = (2 mod 3)*1_s ≠ id_s",
        "functor-comp at ('1_s', '1_s'): F(1_s∘1_s) = (2 mod 3)*1_s but "
        "F(1_s)∘F(1_s) = 1_s",
        "functor-comp at ('a', '1_s'): F(a∘1_s) = (2 mod 3)*a but "
        "F(a)∘F(1_s) = a",
        "functor-comp at ('b', '1_s'): F(b∘1_s) = b but "
        "F(b)∘F(1_s) = (2 mod 3)*b",
    ]),
], ids=["Q", "F_3"])
def test_validate_functor_diagnostic_text(field, a_image, lines):
    # 1_s ↦ 2·1_s and a ↦ (1/2)·a: scalars render as "(2)" or "(2 mod 3)",
    # a coefficient reduced to 1 drops its parentheses
    k = kronecker(field).category
    f = LinFunctor.on_basis(k, k, {"s": "s", "t": "t"},
                            {"1_s": {"1_s": 2}, "1_t": {"1_t": 1},
                             "a": {"a": a_image}, "b": {"b": 1}})
    assert [str(v) for v in validate_functor(f)] == lines


def reference_validate_functor(f):
    """validate_functor as it was: one apply per composable basis pair,
    found by scanning every basis name."""
    out = []
    src, tgt = f.source, f.target
    for x in src.objects:
        img = f.apply(src.identity(x))
        if not comb_eq(img, tgt.identity(f.object_map[x])):
            out.append(("functor-unit", (x,)))
    for fn in src.basis_names():
        for gn in src.basis_names():
            if src.source_of(gn) != src.target_of(fn):
                continue
            lhs = f.apply(src.comp.get((gn, fn), {}))
            rhs = compose(tgt, f.apply_name(gn), f.apply_name(fn))
            if not comb_eq(lhs, rhs):
                out.append(("functor-comp", (gn, fn)))
    return out


def scaled_cube_zero_loop():
    """k[u]/(u^3) on the basis 1_x, u, w = u∘u/2: u∘u = 2w."""
    comp = {("1_x", n): {n: 1} for n in ("1_x", "u", "w")}
    comp.update({(n, "1_x"): {n: 1} for n in ("u", "w")})
    comp[("u", "u")] = {"w": 2}
    return LinCat.make(Q, ["x"], {("x", "x"): ["1_x", "u", "w"]}, comp,
                       {"x": {"1_x": 1}})


@pytest.mark.parametrize("u,w,valid", [
    ({"u": 3}, {"w": 9}, True),
    ({"u": 1, "w": 1}, {"w": 1}, True),
    ({"u": 3}, {"w": 3}, False),
    ({"w": 1}, {"w": 1}, False),
])
def test_validate_functor_matches_pairwise_reference(u, w, valid):
    c = scaled_cube_zero_loop()
    assert validate_category(c) == []
    f = LinFunctor.on_basis(c, c, {"x": "x"},
                            {"1_x": {"1_x": 1}, "u": u, "w": w})
    found = validate_functor(f)
    assert [(v.kind, v.where) for v in found] == \
        reference_validate_functor(f)
    assert (found == []) == valid


@pytest.mark.parametrize("unit", [
    {"1_x": 2}, {"1_x": 1, "u": 1}, {"u": 1}, {}])
def test_validate_functor_checks_unit_pairs_where_the_unit_moves(unit):
    # F(1_x) ≠ 1_x, so the pairs with a factor 1_x are not decided by the
    # unit laws and must be checked one by one
    c = scaled_cube_zero_loop()
    f = LinFunctor.on_basis(c, c, {"x": "x"},
                            {"1_x": unit, "u": {"u": 3}, "w": {"w": 9}})
    found = validate_functor(f)
    assert [(v.kind, v.where) for v in found] == \
        reference_validate_functor(f)
    assert found[0].where == ("x",)
    assert any("1_x" in v.where for v in found[1:])


def test_functor_composition_matches_pointwise():
    fix = cover_f0()
    sw = swap_functor(fix.total)
    comp = functor_compose(fix.functor, sw)
    # the index swap is a deck transformation of this covering
    assert functor_equal(comp, fix.functor)


def test_functor_compose_through_zero_hom_spaces():
    k = kronecker().category
    d = discrete(n=2).category
    kill = LinFunctor.on_basis(k, d, {"s": "o0", "t": "o1"},
                               {"1_s": {"1_o0": 1}, "1_t": {"1_o1": 1}})
    embed = LinFunctor.on_basis(d, k, {"o0": "s", "o1": "t"},
                                {"1_o0": {"1_s": 1}, "1_o1": {"1_t": 1}})
    for g, f in ((embed, kill), (kill, embed), (kill, identity_functor(k)),
                 (identity_functor(d), kill)):
        gf = functor_compose(g, f)
        assert validate_functor(gf) == []
        for (x, y), m in f.matrices.items():
            mid = (f.object_map[x], f.object_map[y])
            assert gf.matrices[(x, y)] == g.block(*mid) @ m
    # the arrows of k die in d: 2x0 after 0x2 is the 2x2 zero block
    assert functor_compose(embed, kill).matrices[("s", "t")] == \
        Matrix.zeros(Q, 2, 2)


def discrete_into_kronecker():
    """o0 -> s, o1 -> t: bijective on objects, an isomorphism on every
    nonzero hom space of the source, but hom(s,t) is not hit."""
    k = kronecker().category
    d = discrete(n=2).category
    return LinFunctor.on_basis(d, k, {"o0": "s", "o1": "t"},
                               {"1_o0": {"1_s": 1}, "1_o1": {"1_t": 1}})


def test_zero_source_hom_under_a_nonzero_target_hom_is_not_an_isomorphism():
    embed = discrete_into_kronecker()
    assert validate_functor(embed) == []
    assert all(inverse(m) is not None for m in embed.matrices.values())
    assert not functor_is_isomorphism(embed)


def test_explicit_zero_column_blocks_are_not_stored():
    embed = discrete_into_kronecker()
    explicit = LinFunctor(embed.source, embed.target, embed.object_map,
                          {**embed.matrices,
                           ("o0", "o1"): Matrix.zeros(Q, 2, 0),
                           ("o1", "o0"): Matrix.zeros(Q, 0, 0)})
    assert functor_equal(explicit, embed)
    assert set(explicit.matrices) == {("o0", "o0"), ("o1", "o1")}
    assert explicit.block("o0", "o1") == Matrix.zeros(Q, 2, 0)
    assert explicit.block("o1", "o0") == Matrix.zeros(Q, 0, 0)


def test_wrongly_shaped_zero_column_block_is_refused():
    embed = discrete_into_kronecker()

    def build(drop, pair, m):
        mats = {p: b for p, b in embed.matrices.items() if p != drop}
        return LinFunctor(embed.source, embed.target, embed.object_map,
                          {**mats, pair: m})
    with pytest.raises(ValueError, match=r"^matrix for hom\('o0', 'o1'\) "
                                         r"is 1x0, expected 2x0$"):
        build(None, ("o0", "o1"), Matrix.zeros(Q, 1, 0))
    # the first bad pair in object order is named, missing or misshaped
    with pytest.raises(ValueError, match=r"^no matrix for hom\('o0', 'o0'\)$"):
        build(("o0", "o0"), ("o1", "o0"), Matrix.zeros(Q, 1, 0))
    with pytest.raises(ValueError, match=r"^matrix for hom\('o1', 'o0'\) "
                                         r"is 1x0, expected 0x0$"):
        build(("o1", "o1"), ("o1", "o0"), Matrix.zeros(Q, 1, 0))


def test_unknown_objects_in_object_map_or_blocks_are_refused():
    embed = discrete_into_kronecker()
    with pytest.raises(ValueError, match=r"^object_map names 'zz', which is "
                                         r"not a source object$"):
        LinFunctor(embed.source, embed.target,
                   {**embed.object_map, "zz": "s"}, embed.matrices)
    for pair in (("zz", "o0"), ("o0", "qq")):
        with pytest.raises(ValueError, match=re.escape(
                f"matrix for hom{pair} names an object outside")):
            LinFunctor(embed.source, embed.target, embed.object_map,
                       {**embed.matrices, pair: Matrix.zeros(Q, 1, 1)})


def test_swap_is_not_deck_for_asymmetric_cover():
    fix = cover_f2()
    sw = swap_functor(fix.total)
    assert not functor_equal(functor_compose(fix.functor, sw), fix.functor)


def test_inverse_functor():
    fix = cover_f0()
    sw = swap_functor(fix.total)
    assert functor_is_isomorphism(sw)
    assert functor_equal(functor_compose(sw, inverse_functor(sw)),
                         identity_functor(fix.total.category))
    assert not functor_is_isomorphism(fix.functor)


def test_full_matrix_category_onto_k_is_not_an_isomorphism():
    # M₂(k) as a category on objects a, b with every hom space k, sent to
    # k by every basis element ↦ 1_t: a functor, invertible on every hom
    # space, square blocks, onto the objects, and yet not injective on them
    objs = ("a", "b")
    hom = {(x, y): [f"e{x}{y}"] for x in objs for y in objs}
    comp = {(f"e{y}{z}", f"e{x}{y}"): {f"e{x}{z}": 1}
            for x in objs for y in objs for z in objs}
    m2 = LinCat.make(Q, objs, hom, comp, {x: {f"e{x}{x}": 1} for x in objs})
    k = LinCat.make(Q, ["t"], {("t", "t"): ["1_t"]},
                    {("1_t", "1_t"): {"1_t": 1}}, {"t": {"1_t": 1}})
    f = LinFunctor.on_basis(m2, k, {"a": "t", "b": "t"},
                            {n: {"1_t": 1} for names in hom.values()
                             for n in names})
    assert validate_category(m2) == [] and validate_functor(f) == []
    assert not functor_is_isomorphism(f)
    with pytest.raises(ValueError, match="not an isomorphism"):
        inverse_functor(f)


# -- connectivity --------------------------------------------------------

def test_kronecker_connected():
    rep = is_connected(kronecker().category)
    assert rep.connected and len(rep.components) == 1
    assert is_connected(kronecker_double().category).connected


def test_disjoint_union_disconnected():
    rep = is_connected(disconnected_double_kronecker().category)
    assert not rep.connected
    assert sorted(len(c) for c in rep.components) == [2, 2]


# -- the sparse hom representation -------------------------------------------

def _sample_categories():
    """Every category in a registry fixture file (the documents decoded,
    the text presentations presented over Q) and both sides of
    cyclic_cover(1..8)."""
    out = {}
    for n in range(1, 9):
        fix = cyclic_cover(n)
        out[f"cyclic_cover({n}) total"] = fix.total.category
        out[f"cyclic_cover({n}) base"] = fix.base.category
    for name in registry.fixture_names():
        if name == "cyclic-cover-n":
            continue
        for filename, content in registry.fixture_files(name).items():
            if isinstance(content, str):
                res = present(fm.presentation_from_text(content), Q)
                out[filename] = res.category
                continue
            if content["kind"] == "category":
                out[filename] = fm.category_from_doc(content)
            elif content["kind"] == "functor":
                for side in ("source", "target"):
                    out[f"{filename} {side}"] = \
                        fm.category_from_doc(content[side])
            elif "category" in content:  # an action or a grading
                out[filename] = fm.category_from_doc(content["category"])
    return out


REPRESENTED = _sample_categories()


@pytest.mark.parametrize("name", sorted(REPRESENTED))
def test_only_nonzero_homs_are_stored(name):
    c = REPRESENTED[name]
    assert all(c.hom.values())
    assert tuple(c.hom) == c.pairs
    # object-major order, which star column order and the layout of the
    # Leibniz unknowns follow
    assert list(c.hom) == [(x, y) for x in c.objects for y in c.objects
                           if (x, y) in c.hom]
    for x in c.objects:
        for y in c.objects:
            if (x, y) not in c.hom:
                assert c.dim(x, y) == 0 and c.basis(x, y) == ()
            else:
                assert c.basis(x, y) == c.hom[(x, y)]
    explicit = LinCat(c.field, c.objects,
                      {(x, y): c.basis(x, y)
                       for x in reversed(c.objects) for y in c.objects},
                      c.comp, c.identities)
    assert explicit == c
    assert list(explicit.hom) == list(c.hom)


def test_coords_are_sparse_and_refuse_other_homs():
    k = kronecker().category
    assert k.coords({"b": 3, "a": 0}, "s", "t") == {1: 3}
    assert k.coords({}, "t", "s") == {}
    with pytest.raises(ValueError, match=r"^a is not in hom\(t,s\)$"):
        k.coords({"a": 1}, "t", "s")
    # on_basis refuses an image outside the target hom, zero ones included
    with pytest.raises(ValueError, match=r"^1_o0 is not in hom\(o0,o1\)$"):
        LinFunctor.on_basis(k, discrete(n=2).category, {"s": "o0", "t": "o1"},
                            {"1_s": {"1_o0": 1}, "1_t": {"1_o1": 1},
                             "a": {"1_o0": 1}})


@pytest.mark.parametrize("n", range(1, 9))
def test_presented_cyclic_cover_stores_its_nonzero_pairs_only(n):
    # 1_si, 1_ti, ai: si -> ti and bi: si -> t(i+1); for n = 1 the two
    # arrows share a hom space
    res = present(cyclic_cover_quiver(n), Q)
    assert len(res.category.hom) == (3 if n == 1 else 4 * n)
    assert list(res.basis_paths) == list(res.category.hom)


# -- presentations -----------------------------------------------------------

def test_present_kronecker():
    res = kronecker()
    assert res.category.dim("s", "t") == 2
    assert res.category.dim("t", "s") == 0
    assert res.category.hom[("s", "t")] == ("a", "b")


def test_present_square_base_dimensions():
    # 4 length-2 paths minus 2 independent relations
    res = square_base()
    assert res.category.dim("x", "z") == 2
    assert validate_category(res.category) == []
    # both rewrites: g∘b = d∘a and d∘b = g∘a hold in the quotient
    b = res.category
    one = b.field.one()
    assert compose(b, {"g": one}, {"b": one}) == {"d*a": one}
    assert compose(b, {"d": one}, {"b": one}) == {"g*a": one}


def test_present_truncated_polynomial_loop():
    res = loop_square_zero()
    c = res.category
    assert c.hom[("x", "x")] == ("1_x", "u")
    one = c.field.one()
    assert compose(c, {"u": one}, {"u": one}) == {}
    assert validate_category(c) == []


def test_present_rejects_unsound_truncation():
    # a free loop is infinite-dimensional: no bound can be exact
    q = QuiverPresentation(("x",), (Arrow("u", "x", "x"),), (), 1)
    with pytest.raises(TruncationError) as exc:
        present(q, Q)
    assert exc.value.witness == ("u", "u")


def test_present_commuting_cube_zero_pair_over_f3():
    # k[u,v]/(uv - vu, u^3, v^3) with bound 4: the monomials v^j u^i,
    # i, j < 3, shortest first; paths grow by arrows in declaration
    # order, so v*u comes before u*v and is the one kept
    q = QuiverPresentation(
        ("x",), (Arrow("u", "x", "x"), Arrow("v", "x", "x")),
        (((Fraction(1), ("u", "v")), (Fraction(-1), ("v", "u"))),
         ((Fraction(1), ("u", "u", "u")),),
         ((Fraction(1), ("v", "v", "v")),)), 4)
    res = present(q, FieldSpec(3))
    assert sum(res.category.dim(*pair) for pair in res.category.pairs) == 9
    assert res.basis_paths[("x", "x")] == [
        (), ("u",), ("v",), ("u", "u"), ("v", "u"), ("v", "v"),
        ("v", "u", "u"), ("v", "v", "u"), ("v", "v", "u", "u")]
    assert validate_category(res.category) == []


def test_present_cube_zero_loop():
    q = QuiverPresentation(("x",), (Arrow("u", "x", "x"),),
                           (((Fraction(1), ("u", "u", "u")),),), 2)
    res = present(q, Q)
    c = res.category
    assert c.hom[("x", "x")] == ("1_x", "u", "u*u")
    one = c.field.one()
    assert compose(c, {"u": one}, {"u*u": one}) == {}
    assert validate_category(c) == []


def test_presented_categories_always_validate():
    for res in (kronecker(), kronecker_double(), square_base(),
                square_cover().total, cyclic_cover(3).total,
                loop_square_zero()):
        assert validate_category(res.category) == []


def test_relation_endpoint_mismatch_rejected():
    with pytest.raises(ValueError):
        QuiverPresentation(
            ("x", "y"), (Arrow("u", "x", "y"), Arrow("v", "y", "x")),
            (((Fraction(1), ("u",)), (Fraction(1), ("v",))),), 1)


# -- associativity on random linear combinations ----------------------------

scalar_q = st.integers(-4, 4).map(lambda n: Q.scalar(n))


@st.composite
def end_comb(draw):
    c = loop_square_zero().category
    return {"1_x": draw(scalar_q), "u": draw(scalar_q)}


@given(end_comb(), end_comb(), end_comb())
@settings(max_examples=40, deadline=None)
def test_compose_associative_on_random_combs(f, g, h):
    c = loop_square_zero().category
    lhs = compose(c, h, compose(c, g, f))
    rhs = compose(c, compose(c, h, g), f)
    assert comb_eq(lhs, rhs)


@given(st.lists(scalar_q, min_size=2, max_size=2),
       st.lists(scalar_q, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_compose_associative_in_quotient(fs, gs):
    b = square_base().category
    fld = b.field
    f = {"a": fld.scalar(fs[0]), "b": fld.scalar(fs[1])}
    g = {"g": fld.scalar(gs[0]), "d": fld.scalar(gs[1])}
    h = b.identity("z")
    lhs = compose(b, h, compose(b, g, f))
    rhs = compose(b, compose(b, h, g), f)
    assert comb_eq(lhs, rhs)
