"""Presentation fundamental groups, abelianization, coset enumeration."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lincat.covering import aut1
from lincat.fixtures import (cyclic_cover_quiver, kronecker_quiver,
                             square_base_quiver, square_base_quiver_alt,
                             square_cover)
from lincat.kcat import Arrow, QuiverPresentation
from lincat.pi1pres import (FPGroup, abelianization, bounded_order,
                            free_reduce, inverse_word, pi1_presentation)


# -- word helpers ------------------------------------------------------------

def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, 3)) == (1, 2, 3)


def test_inverse_word():
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)


def test_word_str():
    g = FPGroup(("a", "b"), ())
    assert g.word_str((1, -2)) == "a b^-1"
    assert g.word_str(()) == "1"


def test_fpgroup_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        FPGroup(("a",), ((2,),))
    with pytest.raises(ValueError):
        FPGroup(("a",), ((0,),))


# -- pi1 of the example presentations ------------------------------------------

def test_kronecker_presentation_group_is_free_of_rank_one():
    r = pi1_presentation(kronecker_quiver(), "s")
    assert r.tree == ("a",)
    assert r.group.relators == ((1,),)
    assert abelianization(r.group) == [0]
    assert bounded_order(r.group, 10) == "exceeded"


def test_two_by_two_square_with_swap_relations_has_order_two():
    # relators kill the tree {a, g}; the two identifications force
    # d = b^-1 and d = b, so the group is generated by b with b^2 = 1
    r = pi1_presentation(square_base_quiver(), "x")
    assert r.tree == ("a", "g")
    assert r.group.relators == ((1,), (3,), (1, 3, -4, -2), (2, 3, -4, -1))
    assert abelianization(r.group) == [2]
    assert bounded_order(r.group, 20) == 2


def test_alternate_relations_give_infinite_cyclic():
    # the monomial relation c∘a contributes nothing; the remaining
    # identification d = b leaves one free generator
    r = pi1_presentation(square_base_quiver_alt(), "x")
    assert r.group.relators == ((1,), (3,), (2, 3, -4, -1))
    assert abelianization(r.group) == [0]
    assert bounded_order(r.group, 40) == "exceeded"


def test_monomial_relations_never_change_the_group():
    q = square_base_quiver_alt()
    stripped = QuiverPresentation(q.vertices, q.arrows,
                                  (q.relations[1],), q.length_bound)
    assert pi1_presentation(q, "x").group == \
        pi1_presentation(stripped, "x").group


def test_a_term_with_coefficient_zero_is_no_term():
    # rel 0 a - b is the monomial relation b: it identifies no two
    # paths, so both loops stay free generators
    q = QuiverPresentation(("x",), (Arrow("a", "x", "x"), Arrow("b", "x", "x")),
                           (((Fraction(0), ("a",)), (Fraction(-1), ("b",))),), 1)
    assert q.relations == (((Fraction(-1), ("b",)),),)
    r = pi1_presentation(q, "x")
    assert r.group.relators == ()
    assert abelianization(r.group) == [0, 0]


def test_pi1_rejects_disconnected_quiver():
    q = QuiverPresentation(("u", "v"), (), (), 1)
    with pytest.raises(ValueError, match="connected"):
        pi1_presentation(q, "u")


def test_pi1_rejects_unknown_base():
    with pytest.raises(ValueError, match="base"):
        pi1_presentation(kronecker_quiver(), "zzz")


def test_dependent_relations_warn():
    dup = QuiverPresentation(
        ("x", "y"), (Arrow("a", "x", "y"), Arrow("b", "x", "y")),
        (((Fraction(1), ("a",)), (Fraction(-1), ("b",))),
         ((Fraction(2), ("a",)), (Fraction(-2), ("b",)))), 1)
    r = pi1_presentation(dup, "x")
    assert any("dependent" in w for w in r.warnings)
    assert pi1_presentation(kronecker_quiver(), "s").warnings == ()


def test_relation_free_presentations_are_free_of_euler_rank():
    quivers = [kronecker_quiver(), cyclic_cover_quiver(2),
               cyclic_cover_quiver(3), cyclic_cover_quiver(4)]
    quivers += [QuiverPresentation(q.vertices, q.arrows, (), q.length_bound)
                for q in (square_base_quiver(),)]
    for q in quivers:
        r = pi1_presentation(q, q.vertices[0])
        rank_free = len(q.arrows) - len(q.vertices) + 1
        assert len(r.tree) == len(q.vertices) - 1
        assert abelianization(r.group) == ([0] * rank_free or [1])


def test_tree_independence_of_invariants():
    for base in ("x", "y", "z"):
        r = pi1_presentation(square_base_quiver(), base)
        assert abelianization(r.group) == [2]
        assert bounded_order(r.group, 20) == 2
        r2 = pi1_presentation(square_base_quiver_alt(), base)
        assert abelianization(r2.group) == [0]
        assert bounded_order(r2.group, 40) == "exceeded"


def test_presentation_group_matches_the_deck_group_of_the_cover():
    # the char-2 covering realizes this presentation group
    r = pi1_presentation(square_base_quiver(), "x")
    grp = aut1(square_cover().functor)
    assert bounded_order(r.group, 20) == grp.order() == 2
    assert grp.label() == "C2"


# -- abelianization ------------------------------------------------------------

def test_abelianization_examples():
    assert abelianization(FPGroup(("a",), ())) == [0]
    assert abelianization(FPGroup(("a",), ((1,),))) == [1]
    assert abelianization(FPGroup(("b",), ((1, 1),))) == [2]
    assert abelianization(FPGroup(("x", "y"),
                                  ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))) == [2]


# -- coset enumeration ----------------------------------------------------------

def test_bounded_order_examples():
    assert bounded_order(FPGroup(("b",), ((1, 1),)), 10) == 2
    assert bounded_order(FPGroup(("b",), ()), 10) == "exceeded"
    assert bounded_order(FPGroup(("a", "b"), ((1,), (2,))), 10) == 1
    assert bounded_order(FPGroup((), ()), 5) == 1


def test_bounded_order_handles_coincidences():
    assert bounded_order(FPGroup(("x",), ((1,) * 6,)), 30) == 6
    s3 = FPGroup(("x", "y"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    assert bounded_order(s3, 30) == 6
    q8 = FPGroup(("a", "b"), ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    assert bounded_order(q8, 50) == 8


def test_coset_bound_allocates_nothing_up_front():
    # ⟨a, b | a⁵, b², abab⁻¹⟩; no structure is sized by the bound
    d5 = FPGroup(("a", "b"), ((1,) * 5, (2, 2), (1, 2, 1, -2)))
    assert bounded_order(d5, 10 ** 9) == 10


def cyclic_nakayama_quiver(n: int, length: int) -> QuiverPresentation:
    arrows = tuple(Arrow(f"u{i}", f"x{i}", f"x{(i + 1) % n}")
                   for i in range(n))
    rels = tuple(((Fraction(1), tuple(f"u{(i + s) % n}"
                                      for s in reversed(range(length)))),)
                 for i in range(n))
    return QuiverPresentation(tuple(f"x{i}" for i in range(n)), arrows,
                              rels, length - 1)


@pytest.mark.parametrize("g", [
    FPGroup(("a",), ()),
    FPGroup(("a", "b"), ((1, 2, -1, -2),)),
    pi1_presentation(cyclic_nakayama_quiver(4, 3), "x0").group,
], ids=["free-rank-1", "ZxZ", "nakayama-4-3"])
def test_free_abelian_factor_exceeds_without_enumerating(g):
    # a closed table would prove the group finite, so a free factor in
    # the abelianization means the enumeration can only run out
    assert 0 in abelianization(g)
    start = time.perf_counter()
    assert bounded_order(g, 10 ** 6) == "exceeded"
    assert time.perf_counter() - start < 1.0


def test_bounded_order_rejects_silly_bound():
    with pytest.raises(ValueError):
        bounded_order(FPGroup(("a",), ()), 0)


@given(st.integers(0, 3), st.integers(0, 4), st.data())
def test_invariants_stable_under_padding_with_cancelling_pairs(ri, pos, data):
    base = pi1_presentation(square_base_quiver(), "x").group
    ri = ri % len(base.relators)
    w = base.relators[ri]
    pos = pos % (len(w) + 1)
    x = data.draw(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4]))
    padded = w[:pos] + (x, -x) + w[pos:]
    relators = list(base.relators)
    relators[ri] = padded
    g2 = FPGroup(base.generators, tuple(relators))
    assert abelianization(g2) == abelianization(base)
    assert bounded_order(g2, 40) == bounded_order(base, 40) == 2
