"""Group actions, categorical quotients, the factorization through the
quotient, and the hom-set analysis between Galois coverings."""
import pytest

from lincat.covering import aut1
from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (Q, cover_f0, cover_f1, cover_f2, cyclic_cover,
                             identity_cover, kronecker, kronecker_double,
                             square_cover, swap_action)
from lincat.galois import (GroupAction, check_action, check_universal,
                           gset_analysis, hom_coverings, is_galois, quotient,
                           structure_iso)
from lincat.groups import cyclic_group, find_isomorphism
from lincat.kcat import (LinFunctor, functor_equal, identity_functor,
                         validate_functor)
from lincat_reference import (deck_functors, functor_compose,
                              functor_is_isomorphism, morphism_functor,
                              reference_gset_analysis,
                              reference_structure_iso,
                              reference_structure_problems,
                              shift_subgroup_action)


# -- actions -----------------------------------------------------------------

def test_swap_action_is_valid():
    assert check_action(swap_action()) is None


def test_trivial_action_of_nontrivial_group_is_not_free():
    k = kronecker().category
    grp = cyclic_group(2)
    with pytest.raises(ValueError, match="^action is not free: g·s = s$"):
        GroupAction(grp, {"e": identity_functor(k), "g": identity_functor(k)},
                    k)


def test_shift_action_on_cyclic_cover_is_valid():
    assert check_action(shift_subgroup_action(4, 1)) is None
    assert check_action(shift_subgroup_action(4, 2)) is None


def test_incompatible_action_reported():
    total = kronecker_double()
    grp = cyclic_group(2)
    # g·g = e holds, but freeness fails
    with pytest.raises(ValueError, match="not free"):
        GroupAction(grp, {"e": identity_functor(total.category),
                          "g": identity_functor(total.category)},
                    total.category)


# -- quotients ---------------------------------------------------------------

def test_quotient_of_double_cover_is_the_base():
    qres = quotient(swap_action())
    q = qres.quotient
    assert q.objects == ("s0", "t0")
    assert q.basis("s0", "t0") == ("a0", "b0")
    assert q.basis("t0", "s0") == ()
    k = kronecker().category
    iso = LinFunctor.on_basis(
        q, k, {"s0": "s", "t0": "t"},
        {"a0": {"a": 1}, "b0": {"b": 1},
         "1_s0": {"1_s": 1}, "1_t0": {"1_t": 1}})
    assert validate_functor(iso) == []
    assert functor_is_isomorphism(iso)
    # the projection transported along the isomorphism is the classical
    # two-to-one covering
    assert functor_equal(functor_compose(iso, qres.projection),
                         cover_f0().functor)


def test_quotient_by_trivial_group_is_identity():
    k = kronecker()
    act = GroupAction(cyclic_group(1),
                      {"e": identity_functor(k.category)}, k.category)
    qres = quotient(act)
    assert qres.quotient == k.category
    assert functor_equal(qres.projection, identity_functor(k.category))


def test_quotient_of_cyclic_tower_step():
    # the four-fold cover modulo the index-two subgroup is literally the
    # double cover: same objects, bases, and structure constants
    qres = quotient(shift_subgroup_action(4, 2))
    assert qres.quotient == kronecker_double().category


def test_quotient_projection_is_galois_with_the_acting_group(galois_matrix):
    act = swap_action()
    qres = quotient(act)
    r = is_galois(qres.projection)
    assert r.galois
    assert find_isomorphism(act.group, r.group.group) is not None


def test_quotient_rejects_invalid_action():
    # an unfree action is refused when it is built, so quotient never
    # sees one
    k = kronecker().category
    with pytest.raises(ValueError, match="not free"):
        quotient(GroupAction(cyclic_group(2), {"e": identity_functor(k),
                                               "g": identity_functor(k)}, k))


# -- the Galois decision -------------------------------------------------------

def test_galois_verdicts_on_the_three_covers():
    r0, r1, r2 = (is_galois(cover_f0().functor), is_galois(cover_f1().functor),
                  is_galois(cover_f2().functor))
    assert r0.galois and r0.group.order() == 2
    assert r1.galois and r1.group.order() == 2
    assert not r2.galois and r2.group.order() == 1
    assert len(r2.group.seed_fibre) == 2


def test_identity_cover_is_galois_with_trivial_group():
    r = is_galois(identity_cover().functor)
    assert r.galois and r.group.order() == 1


def test_is_galois_rejects_non_coverings():
    from lincat.fixtures import corrupted_collapse
    with pytest.raises(ValueError):
        is_galois(corrupted_collapse().functor)


# -- the factorization through the quotient ------------------------------------

def reference_factorization(f: LinFunctor):
    """The reference factorization of f, which passes the checks
    structure_iso once made, and whose F' has structure_iso's object
    map, in the same order."""
    ref = reference_structure_iso(f)
    assert reference_structure_problems(f, ref) == []
    assert list(structure_iso(f).items()) == \
        list(ref.iso.object_map.items())
    return ref


def test_structure_iso_on_symmetric_covers():
    for fix in (cover_f0(), cover_f1()):
        ref = reference_factorization(fix.functor)
        assert functor_is_isomorphism(ref.iso), fix.name


def test_structure_iso_identity_cover():
    reference_factorization(identity_cover().functor)
    assert structure_iso(identity_cover().functor) == {"s": "s", "t": "t"}


def test_structure_iso_char2_cover():
    reference_factorization(square_cover().functor)


def test_structure_iso_rejects_non_galois():
    with pytest.raises(ValueError):
        structure_iso(cover_f2().functor)


def test_structure_iso_across_galois_matrix(galois_matrix):
    for fix in galois_matrix:
        reference_factorization(fix.functor)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("field", [Q, FieldSpec(3)], ids=["Q", "F_3"])
def test_structure_iso_factors_by_the_reference(n, field):
    """structure_iso checks nothing and builds nothing: the object map
    it gives is that of the factorization it once built, which passes
    the checks it once made, on cyclic covers of degree 1 to 8."""
    reference_factorization(cyclic_cover(n, field).functor)


# -- hom sets between Galois coverings -----------------------------------------

def test_hom_coverings_down_the_tower():
    base = kronecker()
    c4 = cyclic_cover(4, Q, base)
    c2 = cyclic_cover(2, Q, base)
    assert len(hom_coverings(c4.functor, c2.functor)) == 2
    assert len(hom_coverings(c2.functor, c4.functor)) == 0


def test_hom_coverings_self_is_the_deck_group():
    f = cover_f0().functor
    homs = hom_coverings(f, f)
    assert len(homs) == 2
    deck = deck_functors(f, aut1(f))
    for omap in homs:
        h = morphism_functor(f, f, omap)
        assert sum(functor_equal(h, k) for k in deck.values()) == 1


def test_gset_tower_pair():
    base = kronecker()
    c4 = cyclic_cover(4, Q, base)
    c2 = cyclic_cover(2, Q, base)
    r = gset_analysis(c4.functor, c2.functor)
    ref = reference_gset_analysis(c4.functor, c2.functor)
    assert ref.transitive
    assert len(r.isotropy) == 2 and r.isotropy == ref.isotropy
    assert ref.isotropy_normal
    assert ref.orbit_stabilizer_ok


def test_gset_self_pair_free_and_transitive():
    r = gset_analysis(cover_f0().functor, cover_f0().functor)
    ref = reference_gset_analysis(cover_f0().functor, cover_f0().functor)
    assert r.isotropy == ref.isotropy == ("e",)
    assert ref.transitive and ref.isotropy_normal


def test_gset_down_to_trivial_cover():
    r = gset_analysis(cover_f0().functor, identity_cover().functor)
    ref = reference_gset_analysis(cover_f0().functor,
                                  identity_cover().functor)
    assert ref.transitive
    assert len(r.isotropy) == 2  # the whole deck group
    assert r.isotropy == ref.isotropy
    assert ref.isotropy_normal and ref.orbit_stabilizer_ok


def test_gset_across_galois_pairs(galois_matrix):
    base = kronecker()
    pairs = [(cyclic_cover(4, Q, base), cyclic_cover(2, Q, base)),
             (cover_f0(), cover_f0()),
             (cover_f0(), identity_cover()),
             (cyclic_cover(4, Q, base), identity_cover())]
    for u, f in pairs:
        r = gset_analysis(u.functor, f.functor)
        ref = reference_gset_analysis(u.functor, f.functor)
        assert r.isotropy == ref.isotropy, (u.name, f.name)
        assert ref.transitive and ref.isotropy_normal and \
            ref.orbit_stabilizer_ok, (u.name, f.name)


def test_universal_relative_checks():
    base = kronecker()
    c4 = cyclic_cover(4, Q, base)
    c2 = cyclic_cover(2, Q, base)
    idk = identity_cover()
    assert check_universal(c4.functor,
                           [c2.functor, c4.functor, idk.functor]).ok
    low = check_universal(c2.functor, [c4.functor])
    assert not low.ok and low.violations
    assert check_universal(cover_f0().functor, [cover_f0().functor]).ok


def test_deck_action_roundtrip(galois_matrix):
    # rebuilding the quotient from the deck group of a quotient projection
    # reproduces a Galois covering of the same base
    for fix in galois_matrix:
        grp = aut1(fix.functor)
        act = GroupAction(grp.group, deck_functors(fix.functor, grp),
                          fix.functor.source)
        assert check_action(act) is None, fix.name
