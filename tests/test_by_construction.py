"""The builders that make categories with LinCat.by_construction (present,
smash, quotient and the registry's empty category) make exactly what the
checked constructor makes of the same fields: LinCat(...) accepts them
and keeps every field and derived table equal, in insertion order, with
values of the same types (an int wherever a value over Q is integral).
Likewise regrade, which builds with Grading.by_construction, makes what
Grading(...) makes of its fields.  The inputs are the fixtures,
cyclic_cover(1..8), and presentations and gradings with non-integral
values over Q."""
from fractions import Fraction

import pytest

from lincat import formats as fm
from lincat import registry
from lincat.covering import fibre
from lincat.exactlinalg import FieldSpec, Matrix
from lincat.fixtures import (F2, Q, cover_f0, cover_f1, cyclic_cover,
                             discrete, kronecker, kronecker_double,
                             loop_square_zero, square_base, square_cover,
                             swap_action)
from lincat.galois import quotient
from lincat.grading import Grading, grading_on_basis, induced_grading, \
    regrade, smash
from lincat.groups import Group, cyclic_group
from lincat.kcat import Arrow, LinCat, QuiverPresentation, present
from lincat_reference import shift_subgroup_action

TABLES = ("objects", "hom", "comp", "identities", "pairs", "_names",
          "position", "_pair", "leaving", "arriving", "unit_name")


def same_values(a: dict, b: dict) -> bool:
    """Equal combinations, in the same order, with values of one type."""
    return list(a.items()) == list(b.items()) and all(
        type(a[n]) is type(b[n]) for n in a)


def assert_checked_agrees(c: LinCat) -> None:
    checked = LinCat(c.field, c.objects, c.hom, c.comp, c.identities)
    assert checked == c
    for name in TABLES:
        mine, theirs = getattr(c, name), getattr(checked, name)
        assert type(mine) is type(theirs), name
        assert mine == theirs, name
        if isinstance(mine, dict):
            assert list(mine) == list(theirs), name
    assert all(type(names) is tuple for names in c.hom.values())
    for table in ("comp", "identities"):
        mine, theirs = getattr(c, table), getattr(checked, table)
        assert all(same_values(mine[k], theirs[k]) for k in mine), table
    if c.field.characteristic == 0:
        values = [a for table in (c.comp, c.identities)
                  for comb in table.values() for a in comb.values()]
        assert all(type(a) is int for a in values if a == int(a))


def halves(field: FieldSpec):
    """x ⇉ y ⇉ z with g∘a = (1/2)·d∘b and g∘b = 3·d∘a: structure
    constants that are not integers over Q."""
    q = QuiverPresentation(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "x", "y"),
         Arrow("g", "y", "z"), Arrow("d", "y", "z")),
        (((Fraction(1), ("g", "a")), (Fraction(-1, 2), ("d", "b"))),
         ((Fraction(1), ("g", "b")), (Fraction(-3), ("d", "a")))), 2)
    return present(q, field)


def truncated_loop(field: FieldSpec, n: int):
    """k[u]/(u^n)."""
    q = QuiverPresentation(("x",), (Arrow("u", "x", "x"),),
                           (((Fraction(1), ("u",) * n),),), n - 1)
    return present(q, field)


def presented() -> dict:
    out = {}
    for field in (Q, F2, FieldSpec(5)):
        out[f"kronecker {field}"] = kronecker(field)
        out[f"kronecker double {field}"] = kronecker_double(field)
        out[f"k[u]/(u^4) {field}"] = truncated_loop(field, 4)
        out[f"loop square zero {field}"] = loop_square_zero(field)
        out[f"discrete {field}"] = discrete(field, 3)
    for field in (Q, FieldSpec(3), FieldSpec(5)):
        out[f"halves {field}"] = halves(field)
    out["square base"] = square_base()
    out["square cover"] = square_cover().total
    for n in range(1, 9):
        out[f"cyclic_cover({n})"] = cyclic_cover(n).total
    return out


PRESENTED = presented()


@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_present_builds_what_the_check_keeps(name):
    assert_checked_agrees(PRESENTED[name].category)


def first_fibres(f) -> dict:
    return {b: fibre(f, b)[0] for b in f.target.objects}


def mixed_loop_grading() -> Grading:
    """k[u]/(u³) over Q graded by C2 with u of degree g, in the
    homogeneous basis 1 + u²/2, u, u²: its products and the identity
    have coordinates 1/2 and -1/2."""
    c = truncated_loop(Q, 3).category
    basis = Matrix(Q, 3, 3, ({0: 1, 2: Fraction(1, 2)}, {1: 1}, {2: 1}))
    return Grading(cyclic_group(2), c, {("x", "x"): basis},
                   {("x", "x"): ("e", "g", "e")})


def gradings() -> dict:
    out = {"mixed loop": mixed_loop_grading()}
    for n in range(1, 9):
        f = cyclic_cover(n).functor
        z = induced_grading(f, first_fibres(f))
        out[f"cyclic_cover({n})"] = z
        shift = {x: z.group.elements[i % n]
                 for i, x in enumerate(z.category.objects, 1)}
        out[f"cyclic_cover({n}) regraded"] = regrade(z, shift)
    for name, fix in (("F0", cover_f0(F2)), ("F1", cover_f1(F2)),
                      ("square cover", square_cover(F2))):
        out[name] = induced_grading(fix.functor, first_fibres(fix.functor))
    out["kronecker a:e b:g"] = grading_on_basis(
        kronecker(F2).category, cyclic_group(2), {"a": "e", "b": "g"})
    out["loop u:g2"] = grading_on_basis(
        loop_square_zero().category, cyclic_group(3), {"u": "g2"})
    return out


GRADINGS = gradings()


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_smash_builds_what_the_check_keeps(name):
    z = GRADINGS[name]
    assert_checked_agrees(smash(z.category, z).category)


def test_smash_with_fractions_keeps_them():
    z = GRADINGS["mixed loop"]
    c = smash(z.category, z).category
    values = {a for comb in list(c.comp.values()) + list(c.identities.values())
              for a in comb.values()}
    assert {Fraction(1, 2), Fraction(-1, 2)} <= values


def test_smash_refuses_names_that_collide():
    """Copies are named x@g: the object x@e of a C2-grading meets the
    copy of x at e@e when the group's elements are named e and e@e."""
    renamed = LinCat(Q, ("o", "o@e"), {("o", "o"): ("1_o",),
                                       ("o@e", "o@e"): ("1_o@e",)},
                     {("1_o", "1_o"): {"1_o": 1},
                      ("1_o@e", "1_o@e"): {"1_o@e": 1}},
                     {"o": {"1_o": 1}, "o@e": {"1_o@e": 1}})
    grp = Group(("e", "e@e"), "e",
                {("e", "e"): "e", ("e", "e@e"): "e@e",
                 ("e@e", "e"): "e@e", ("e@e", "e@e"): "e"})
    z = grading_on_basis(renamed, grp, {})
    with pytest.raises(ValueError, match="duplicate object names"):
        smash(renamed, z)


def actions() -> dict:
    out = {"swap": swap_action(), "swap F3": swap_action(FieldSpec(3))}
    for n in range(2, 9):
        for k in {1, n // 2}:
            out[f"shift {n} by {k}"] = shift_subgroup_action(n, k)
    return out


ACTIONS = actions()


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_quotient_builds_what_the_check_keeps(name):
    assert_checked_agrees(quotient(ACTIONS[name]).quotient)


def test_the_registry_empty_category_is_the_checked_one():
    doc = registry.fixture_files("empty")["empty-category.json"]
    c = fm.category_from_doc(doc)
    assert c == LinCat(Q, (), {}, {}, {})
    assert_checked_agrees(c)


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_regrade_builds_what_the_check_keeps(name):
    """regrade keeps the blocks, so the tables that Grading computes from
    them, in order, and the relabelled degrees pass the check."""
    z = GRADINGS[name]
    grp = z.group
    shift = {x: grp.elements[i % grp.order()]
             for i, x in enumerate(z.category.objects, 2)}
    trusted = regrade(z, shift)
    checked = Grading(grp, z.category, trusted.basis, trusted.degrees)
    assert trusted == checked
    for table in ("basis", "degrees", "inverses", "identity_coords",
                  "products"):
        mine, theirs = getattr(trusted, table), getattr(checked, table)
        assert list(mine.items()) == list(theirs.items()), table
