"""Exhaustive oracles for the facts the covering and Galois layers derive
by rigidity instead of checking: deck-group tables read from seed images,
quotients trusted after one check of the action, λ read from one object,
and the deck action on hom sets read from seed images.  Each oracle
composes and compares whole functors, which the library no longer does at
run time."""
import pytest

from lincat.covering import CoveringMorphism, aut1, check_covering, lambda_map
from lincat.fixtures import cover_f0, cyclic_cover, swap_action
from lincat.galois import (GroupAction, check_action, gset_analysis, is_galois,
                           quotient)
from lincat.groups import find_isomorphism
from lincat.kcat import (LinFunctor, functor_compose, functor_equal,
                         identity_functor, validate_category, validate_functor)
from lincat_reference import cyclic_reduction, shift_subgroup_action


@pytest.fixture(scope="module")
def covers(galois_matrix):
    return galois_matrix + [cyclic_cover(6)]


def equal_names(functors: dict, h) -> list:
    """Every name whose functor equals h."""
    return [n for n, k in functors.items() if functor_equal(k, h)]


def test_aut1_table_matches_composition(covers):
    for fix in covers:
        grp = aut1(fix.functor)
        fs = grp.functors
        assert functor_equal(fs["e"], identity_functor(fix.total.category))
        for n1, h1 in fs.items():
            for n2, h2 in fs.items():
                prod = equal_names(fs, functor_compose(h1, h2))
                assert prod == [grp.group.mul(n1, n2)], (fix.name, n1, n2)
        for n, h in fs.items():
            if n != "e":
                assert all(h.object_map[x] != x
                           for x in fix.total.category.objects), (fix.name, n)


def test_name_of_agrees_with_exhaustive_search(covers):
    for fix in covers:
        grp = aut1(fix.functor)
        for n, h in grp.functors.items():
            assert [grp.name_of(h)] == equal_names(grp.functors, h) == [n]
    # same seed image as e, but a0 is doubled: an automorphism, no deck
    # transformation
    f0 = cover_f0()
    c = f0.total.category
    doubled = LinFunctor.on_basis(
        c, c, {x: x for x in c.objects},
        {n: {n: 2 if n == "a0" else 1} for n in c.basis_names()})
    assert aut1(f0.functor).name_of(doubled) is None


def actions(covers):
    yield "swap", swap_action()
    yield "shift 4/1", shift_subgroup_action(4, 1)
    yield "shift 4/2", shift_subgroup_action(4, 2)
    for fix in covers:
        grp = aut1(fix.functor)
        yield fix.name, GroupAction(grp.group, grp.functors,
                                    grp.covering.source)


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
        # the returned deck group is the acting group, and its functors are
        # exactly the deck transformations aut1 finds
        assert qres.deck_group.group is act.group
        assert qres.deck_group.seed_fibre == deck.seed_fibre, name
        for s, h in qres.deck_group.functors.items():
            assert functor_equal(functor_compose(p, h), p), (name, s)
            assert len(equal_names(deck.functors, h)) == 1, (name, s)


def morphisms(covers):
    """(label, morphism, F, G) for coverings F, G over one base."""
    for fix in covers:
        base = fix.base.category
        yield (fix.name + " identity", CoveringMorphism(
            identity_functor(fix.total.category), identity_functor(base)),
            fix.functor, fix.functor)
        yield (fix.name + " to the base", CoveringMorphism(
            fix.functor, identity_functor(base)),
            fix.functor, identity_functor(base))
    for n, m in ((4, 2), (6, 3), (6, 2)):
        top, bottom, h = cyclic_reduction(n, m)
        yield (f"reduction {n}->{m}", CoveringMorphism(
            h, identity_functor(top.base.category)),
            top.functor, bottom.functor)


def test_lambda_satisfies_its_defining_equation(covers):
    for name, m, f, g in morphisms(covers):
        res = lambda_map(m, f, g)
        gf, gg = res.source_group.functors, res.target_group.functors
        for n, h in gf.items():
            rhs = functor_compose(m.h, h)
            matches = [k for k, d in gg.items()
                       if functor_equal(functor_compose(d, m.h), rhs)]
            assert matches == [res.mapping[n]], (name, n)


def test_gset_action_table_matches_composition(covers):
    pairs = [(fix.name, fix.functor, fix.functor) for fix in covers]
    pairs += [(fix.name + " to the base", fix.functor,
               identity_functor(fix.base.category)) for fix in covers]
    for n, m in ((4, 2), (6, 3), (6, 2)):
        top, bottom, _ = cyclic_reduction(n, m)
        pairs.append((f"{n}->{m}", top.functor, bottom.functor))
    for name, u, f in pairs:
        rep = gset_analysis(u, f)
        gu = aut1(u)
        for i, h in enumerate(rep.homs):
            for s, deck in gu.functors.items():
                composite = functor_compose(h, deck)
                matches = [j for j, k in enumerate(rep.homs)
                           if functor_equal(k, composite)]
                assert matches == [rep.action[(i, s)]], (name, i, s)
