"""Coverings: star counts, the covering criterion, unique extension of
morphisms, deck groups, and the induced map between deck groups."""
from dataclasses import replace

import pytest

from lincat.covering import (aut1, check_covering, extend_morphism, fibre,
                             galois_obstruction, lambda_map)
from lincat.fixtures import (Q, corrupted_collapse, cover_f0, cover_f1,
                             cover_f2, cyclic_cover, discrete, identity_cover,
                             kronecker, swap_functor)
from lincat.kcat import (LinFunctor, QuiverPresentation, functor_equal,
                         identity_functor, is_connected, present)
from lincat_reference import (CoveringMorphism, cyclic_reduction,
                              deck_functors, disconnected_double_kronecker,
                              functor_compose, functor_is_isomorphism,
                              morphism_functor, reference_lambda_map,
                              reference_validate_morphism)


# -- stars -------------------------------------------------------------------

def star_dim(c, x):
    """The basis morphisms out of and into x; End(x) counts twice."""
    return len(c.leaving[x]) + len(c.arriving[x])


def test_star_dimensions_kronecker():
    k = kronecker().category
    # End twice (2) plus the two arrows: 4 on both sides
    assert star_dim(k, "s") == 4
    assert star_dim(k, "t") == 4
    assert k.leaving["s"] == ["1_s", "a", "b"]
    assert k.arriving["t"] == ["a", "b", "1_t"]


def test_star_single_object():
    c = present(QuiverPresentation(("x",), (), (), 1), Q).category
    assert star_dim(c, "x") == 2


# -- the covering criterion --------------------------------------------------

def test_double_cover_functors_are_coverings():
    for fix in (cover_f0(), cover_f1(), cover_f2()):
        assert check_covering(fix.functor).ok, fix.name


def test_collapse_is_not_a_covering():
    rep = check_covering(corrupted_collapse().functor)
    assert not rep.ok
    assert rep.surjective
    assert rep.failures[0] == ("s0", "t", "out")


def test_identity_is_a_covering():
    assert check_covering(identity_cover().functor).ok


def test_nonsurjective_functor_rejected():
    k = kronecker()
    single = present(QuiverPresentation(("x",), (), (), 1), Q)
    f = LinFunctor.on_basis(single.category, k.category, {"x": "s"},
                            {"1_x": {"1_s": 1}})
    rep = check_covering(f)
    assert not rep.ok and not rep.surjective


# -- fibres ------------------------------------------------------------------

def test_fibres():
    assert fibre(cover_f0().functor, "s") == ["s0", "s1"]
    assert fibre(identity_cover().functor, "s") == ["s"]
    assert len(fibre(cyclic_cover(4).functor, "s")) == 4
    with pytest.raises(ValueError):
        fibre(cover_f0().functor, "nope")


# -- extension of morphisms ---------------------------------------------------

def test_extend_finds_the_swap_for_the_symmetric_cover():
    fix = cover_f0()
    h = extend_morphism(fix.functor, fix.functor, "s0", "s1")
    assert h is not None
    assert functor_equal(morphism_functor(fix.functor, fix.functor, h),
                         swap_functor(fix.total))


def test_extend_fails_for_the_asymmetric_cover():
    fix = cover_f2()
    assert extend_morphism(fix.functor, fix.functor, "s0", "s1") is None


def test_extend_identity_seed_gives_identity():
    for fix in (cover_f0(), cover_f2(), cyclic_cover(3)):
        x0 = fix.total.category.objects[0]
        h = extend_morphism(fix.functor, fix.functor, x0, x0)
        assert h is not None
        assert functor_equal(morphism_functor(fix.functor, fix.functor, h),
                             identity_functor(fix.total.category))


def test_extend_rejects_bad_seed():
    fix = cover_f0()
    with pytest.raises(ValueError):
        extend_morphism(fix.functor, fix.functor, "s0", "t1")


def test_extend_requires_connected_source():
    dis = disconnected_double_kronecker()
    k = kronecker()
    omap = {"s": "s", "t": "t", "s'": "s", "t'": "t"}
    f = LinFunctor.on_basis(
        dis.category, k.category, omap,
        {"a": {"a": 1}, "b": {"b": 1}, "a'": {"a": 1}, "b'": {"b": 1},
         "1_s": {"1_s": 1}, "1_t": {"1_t": 1},
         "1_s'": {"1_s": 1}, "1_t'": {"1_t": 1}})
    with pytest.raises(ValueError):
        extend_morphism(f, f, "s", "s")


def test_extend_is_deterministic(covering_matrix):
    for fix in covering_matrix:
        f = fix.functor
        x0 = fix.total.category.objects[0]
        for d0 in fibre(f, f.object_map[x0]):
            h1 = extend_morphism(f, f, x0, d0)
            h2 = extend_morphism(f, f, x0, d0)
            assert (h1 is None) == (h2 is None)
            if h1 is not None:
                assert h1 == h2
                assert functor_equal(morphism_functor(f, f, h1),
                                     morphism_functor(f, f, h2))


# -- deck groups --------------------------------------------------------------

def test_aut1_asymmetric_cover_is_trivial_with_fibre_two():
    g = aut1(cover_f2().functor)
    assert g.order() == 1
    assert len(g.seed_fibre) == 2
    assert galois_obstruction(g) is not None


def test_aut1_symmetric_covers_are_order_two():
    for fix in (cover_f0(), cover_f1()):
        g = aut1(fix.functor)
        assert g.order() == 2
        assert g.group.label() == "C2"
        assert galois_obstruction(g) is None


def test_aut1_identity_cover_trivial():
    g = aut1(identity_cover().functor)
    assert g.order() == 1


def test_aut1_cyclic_covers(galois_matrix):
    for n in (2, 3, 4):
        g = aut1(cyclic_cover(n).functor)
        assert g.order() == n
        assert g.group.label() == f"C{n}"


def test_aut1_checks_functoriality_once_whatever_the_fibre(monkeypatch):
    import lincat.covering as covering
    calls = {}
    def counted(*args, _real=covering.validate_functor):
        calls["validate_functor"] = calls.get("validate_functor", 0) + 1
        return _real(*args)
    monkeypatch.setattr(covering, "validate_functor", counted)
    counts = []
    for n in (2, 4, 8):
        calls.clear()
        assert aut1(cyclic_cover(n).functor).order() == n
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2], counts


def test_a_report_is_made_once_per_functor():
    """check_covering keeps its report on the functor it checked: the
    same report comes back for that functor, and another functor, even
    an equal one or a replace() copy, gets its own.  The kept report
    takes no part in equality or repr."""
    good, bad = cover_f0().functor, corrupted_collapse().functor
    twin, copy = cover_f0().functor, replace(good)
    assert good == twin == copy
    report = check_covering(good)
    assert check_covering(good) is report
    assert good == twin and repr(good) == repr(twin)
    for other in (twin, copy, bad):
        assert check_covering(other) is not report
        assert check_covering(other) is check_covering(other)
    assert check_covering(twin) == report and check_covering(twin).ok
    assert not check_covering(bad).ok
    with pytest.raises(ValueError, match="not bijective"):
        aut1(bad)
    assert aut1(good).order() == 2


def test_aut1_elements_fix_no_object():
    f = cover_f0().functor
    for name, h in deck_functors(f, aut1(f)).items():
        if name != "e":
            assert all(h.object_map[x] != x for x in h.source.objects)


def test_aut1_requires_connected_source():
    dis = disconnected_double_kronecker()
    k = kronecker()
    omap = {"s": "s", "t": "t", "s'": "s", "t'": "t"}
    f = LinFunctor.on_basis(
        dis.category, k.category, omap,
        {"a": {"a": 1}, "b": {"b": 1}, "a'": {"a": 1}, "b'": {"b": 1},
         "1_s": {"1_s": 1}, "1_t": {"1_t": 1},
         "1_s'": {"1_s": 1}, "1_t'": {"1_t": 1}})
    with pytest.raises(ValueError):
        aut1(f)


# -- morphisms of coverings ---------------------------------------------------

def test_swap_is_a_self_morphism_of_the_symmetric_cover():
    fix = cover_f0()
    m = CoveringMorphism(swap_functor(fix.total),
                         identity_functor(fix.base.category))
    assert not reference_validate_morphism(m, fix.functor, fix.functor)
    h = extend_morphism(fix.functor, fix.functor, "s0", "s1")
    assert functor_equal(morphism_functor(fix.functor, fix.functor, h), m.h)


def test_base_change_morphism_between_the_two_galois_covers():
    f0, f1 = cover_f0(), cover_f1()
    k = f0.base.category
    j = LinFunctor.on_basis(k, k, {"s": "s", "t": "t"},
                            {"a": {"a": 1, "b": 1}, "b": {"b": 1},
                             "1_s": {"1_s": 1}, "1_t": {"1_t": 1}})
    assert functor_is_isomorphism(j)
    m = CoveringMorphism(identity_functor(f0.total.category), j)
    assert not reference_validate_morphism(m, f0.functor, f1.functor)
    # a morphism over J is a morphism over the identity from J∘F0
    jf = functor_compose(j, f0.functor)
    h = morphism_functor(jf, f1.functor,
                         extend_morphism(jf, f1.functor, "s0", "s0"))
    assert functor_equal(h, m.h)
    assert not reference_validate_morphism(CoveringMorphism(h, j),
                                           f0.functor, f1.functor)
    # without the base change the two coverings differ
    m_bad = CoveringMorphism(identity_functor(f0.total.category),
                             identity_functor(k))
    assert reference_validate_morphism(m_bad, f0.functor, f1.functor)
    assert extend_morphism(f0.functor, f1.functor, "s0", "s0") is None


# -- the induced map between deck groups --------------------------------------

def reference_lambda(f, g, d0):
    """reference_lambda_map on the morphism (H, 1) with H(x0) = d0, x0
    the first object of F's source, which lambda_map(f, g, d0) walks."""
    h = extend_morphism(f, g, f.source.objects[0], d0)
    m = CoveringMorphism(morphism_functor(f, g, h),
                         identity_functor(f.target))
    return reference_lambda_map(m, f, g)


def test_lambda_on_the_cyclic_tower():
    top, bottom, h = cyclic_reduction(4, 2)
    m = CoveringMorphism(h, identity_functor(top.base.category))
    assert not reference_validate_morphism(m, top.functor, bottom.functor)
    res = lambda_map(top.functor, bottom.functor, "s0")
    ref = reference_lambda(top.functor, bottom.functor, "s0")
    assert ref.h_group.object_maps == aut1(h).object_maps
    assert res.source_group.label() == "C4"
    assert res.target_group.label() == "C2"
    assert ref.surjective
    assert len(res.kernel) == 2
    assert ref.kernel_matches_h_group
    assert ref.h_is_galois
    # exact table match: the map is reduction mod 2 on the shift index
    assert res.mapping == ref.mapping == \
        {"e": "e", "g1": "g1", "g2": "e", "g3": "g1"}
    assert res.kernel == ref.kernel


def test_lambda_identity_morphism():
    fix = cover_f0()
    res = lambda_map(fix.functor, fix.functor, "s0")
    ref = reference_lambda(fix.functor, fix.functor, "s0")
    assert ref.h_group.object_maps == \
        aut1(identity_functor(fix.total.category)).object_maps
    assert res.mapping == {n: n for n in res.source_group.group.elements}
    assert res.kernel == ref.kernel == ("e",)


def test_lambda_down_to_the_trivial_cover():
    fix = cover_f0()
    idk = identity_cover()
    res = lambda_map(fix.functor, idk.functor, "s")
    ref = reference_lambda(fix.functor, idk.functor, "s")
    assert res.target_group.order() == 1
    assert set(res.kernel) == set(res.source_group.group.elements)
    assert res.kernel == ref.kernel
    assert ref.h_group.object_maps == aut1(fix.functor).object_maps
    assert ref.kernel_matches_h_group  # H is the covering itself
    assert ref.h_group.order() == 2
    assert ref.surjective and ref.h_is_galois


def test_lambda_rejects_non_galois_input():
    fix = cover_f2()
    with pytest.raises(ValueError, match="^covering is not Galois"):
        lambda_map(fix.functor, fix.functor, "s0")
    # s0 -> s1 extends to no morphism, which is refused first
    with pytest.raises(ValueError, match="^no morphism between the "
                       "coverings from seed s0 -> s1$"):
        lambda_map(fix.functor, fix.functor, "s1")


def test_lambda_refuses_a_source_without_objects():
    f = identity_functor(discrete(n=0).category)
    with pytest.raises(ValueError, match="^covering source is not "
                       "connected$"):
        lambda_map(f, f, "o0")


# -- fixture-matrix invariants -------------------------------------------------

def test_star_dimension_preserved_by_coverings(covering_matrix):
    for fix in covering_matrix:
        c, b = fix.total.category, fix.base.category
        for x in c.objects:
            assert star_dim(c, x) == \
                star_dim(b, fix.functor.object_map[x]), fix.name


def test_fibre_size_equals_group_order_for_galois(galois_matrix):
    for fix in galois_matrix:
        g = aut1(fix.functor)
        for b in fix.base.category.objects:
            assert len(fibre(fix.functor, b)) == g.order(), fix.name


def test_singleton_fibre_implies_isomorphism(covering_matrix):
    for fix in covering_matrix:
        if not check_covering(fix.functor).ok:
            continue
        if not is_connected(fix.total.category).connected:
            continue
        fibres = [fibre(fix.functor, b) for b in fix.base.category.objects]
        if any(len(f) == 1 for f in fibres):
            assert functor_is_isomorphism(fix.functor), fix.name


def test_connected_source_implies_connected_target(covering_matrix):
    for fix in covering_matrix:
        if check_covering(fix.functor).ok and \
                is_connected(fix.total.category).connected:
            assert is_connected(fix.base.category).connected, fix.name
