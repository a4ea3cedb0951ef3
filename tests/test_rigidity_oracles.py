"""Exhaustive oracles for the facts the covering and Galois layers derive
by rigidity instead of checking: deck-group tables read from seed images,
quotients trusted after one check of the action, λ read from one object,
and the isotropy of the deck action on hom sets read from seed images.
Each oracle composes and compares whole functors, which the library no
longer does at run time."""
import pytest

from lincat.covering import (aut1, check_covering, extend_morphism, fibre,
                             lambda_map)
from lincat.fixtures import cover_f0, cyclic_cover, swap_action
from lincat.galois import (GroupAction, check_action, gset_analysis, is_galois,
                           quotient)
from lincat.groups import find_isomorphism
from lincat.kcat import (LinFunctor, functor_equal, identity_functor,
                         validate_category, validate_functor)
from lincat_reference import (cyclic_reduction, deck_functors,
                              functor_compose, morphism_functor,
                              reference_gset_analysis, shift_subgroup_action)


@pytest.fixture(scope="module")
def covers(galois_matrix):
    return galois_matrix + [cyclic_cover(6)]


def equal_names(functors: dict, h) -> list:
    """Every name whose functor equals h."""
    return [n for n, k in functors.items() if functor_equal(k, h)]


def test_aut1_table_matches_composition(covers):
    for fix in covers:
        grp = aut1(fix.functor)
        fs = deck_functors(fix.functor, grp)
        assert functor_equal(fs["e"], identity_functor(fix.total.category))
        for n1, h1 in fs.items():
            for n2, h2 in fs.items():
                prod = equal_names(fs, functor_compose(h1, h2))
                assert prod == [grp.group.mul(n1, n2)], (fix.name, n1, n2)
        for n, h in fs.items():
            if n != "e":
                assert all(h.object_map[x] != x
                           for x in fix.total.category.objects), (fix.name, n)


def test_seed_images_agree_with_exhaustive_search(covers):
    """Rigidity, on which lambda_map's mapping rests: the element
    with a deck transformation's seed image is the only element equal
    to it."""
    for fix in covers:
        grp = aut1(fix.functor)
        fs = deck_functors(fix.functor, grp)
        x0 = fix.total.category.objects[0]
        by_seed = {omap[x0]: n for n, omap in grp.object_maps.items()}
        for n, h in fs.items():
            assert [by_seed[h.object_map[x0]]] == equal_names(fs, h) == [n]
    # same seed image as e, but a0 is doubled: an automorphism, no deck
    # transformation, and equal to no element
    f0 = cover_f0()
    c = f0.total.category
    doubled = LinFunctor.on_basis(
        c, c, {x: x for x in c.objects},
        {n: {n: 2 if n == "a0" else 1} for n in c.basis_names()})
    assert equal_names(deck_functors(f0.functor, aut1(f0.functor)), doubled) == []


def actions(covers):
    yield "swap", swap_action()
    yield "shift 4/1", shift_subgroup_action(4, 1)
    yield "shift 4/2", shift_subgroup_action(4, 2)
    for fix in covers:
        grp = aut1(fix.functor)
        yield fix.name, GroupAction(grp.group,
                                    deck_functors(fix.functor, grp),
                                    fix.functor.source)


def test_quotient_results_pass_the_removed_sweeps(covers):
    for name, act in actions(covers):
        assert check_action(act) is None, name
        qres = quotient(act)
        p = qres.projection
        assert validate_category(qres.quotient) == [], name
        assert validate_functor(p) == [], name
        assert check_covering(p).ok, name
        assert is_galois(p).galois, name
        deck = aut1(p)
        assert find_isomorphism(act.group, deck.group) is not None, name
        # the acting group is the deck group: aut1 finds |G| elements, the
        # orbit of the first object is its fibre, and each F_s is exactly
        # one deck transformation, by its object map and as a functor
        assert deck.order() == act.group.order(), name
        x0 = act.category.objects[0]
        assert set(deck.seed_fibre) == {
            h.object_map[x0] for h in act.functors.values()}, name
        fs = deck_functors(p, deck)
        for s, h in act.functors.items():
            assert functor_equal(functor_compose(p, h), p), (name, s)
            same = [t for t, omap in deck.object_maps.items()
                    if omap == h.object_map]
            assert len(same) == 1 and equal_names(fs, h) == same, (name, s)


def morphisms(covers):
    """(label, F, G) for Galois coverings F, G over one base."""
    for fix in covers:
        base = fix.base.category
        yield fix.name + " to itself", fix.functor, fix.functor
        yield fix.name + " to the base", fix.functor, identity_functor(base)
    for n, m in ((4, 2), (6, 3), (6, 2)):
        top, bottom, _ = cyclic_reduction(n, m)
        yield f"reduction {n}->{m}", top.functor, bottom.functor


def test_lambda_satisfies_its_defining_equation(covers):
    """On every seed over the first object: H is a morphism, and λ(h) is
    the only deck transformation of G with λ(h)∘H = H∘h."""
    for name, f, g in morphisms(covers):
        x0 = f.source.objects[0]
        for d0 in fibre(g, f.object_map[x0]):
            res = lambda_map(f, g, d0)
            omap = extend_morphism(f, g, x0, d0)
            assert omap[x0] == d0
            h0 = morphism_functor(f, g, omap)
            assert functor_equal(functor_compose(g, h0), f), (name, d0)
            assert validate_functor(h0) == [], (name, d0)
            gf = deck_functors(f, res.source_group)
            gg = deck_functors(g, res.target_group)
            for n, h in gf.items():
                rhs = functor_compose(h0, h)
                matches = [k for k, d in gg.items()
                           if functor_equal(functor_compose(d, h0), rhs)]
                assert matches == [res.mapping[n]], (name, d0, n)


def test_gset_action_table_matches_composition(covers):
    pairs = [(fix.name, fix.functor, fix.functor) for fix in covers]
    pairs += [(fix.name + " to the base", fix.functor,
               identity_functor(fix.base.category)) for fix in covers]
    for n, m in ((4, 2), (6, 3), (6, 2)):
        top, bottom, _ = cyclic_reduction(n, m)
        pairs.append((f"{n}->{m}", top.functor, bottom.functor))
    for name, u, f in pairs:
        rep = gset_analysis(u, f)
        action = reference_gset_analysis(u, f).action
        gu = aut1(u)
        homs = [morphism_functor(u, f, omap) for omap in rep.homs]
        for i, h in enumerate(homs):
            for s, deck in deck_functors(u, gu).items():
                composite = functor_compose(h, deck)
                matches = [j for j, k in enumerate(homs)
                           if functor_equal(k, composite)]
                assert matches == [action[(i, s)]], (name, i, s)
        assert rep.isotropy == tuple(s for s in gu.group.elements
                                     if action[(0, s)] == 0), name
