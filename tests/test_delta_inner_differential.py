"""Differential test of delta_is_inner, which decides whether δ(χ) is
inner from a potential on the objects, against is_inner(delta(...)),
which ranks δ(χ) against the span of the inner derivations.

Inputs: the registry's grading and the induced gradings of the F_2
double covers; induced gradings of cyclic_cover(2..6) over F_2 and
F_3, with a regrade of each; the benchmark's C_n-graded Nakayama
shapes (m, L, C_n) over F_p with p | n; and disconnected gradings,
where a nonzero χ can have δ(χ) inner.  Each is tried on the zero
character, every character of a basis and a seeded random combination
of them."""
import random

import pytest

from grading_reference import graded_nakayama
from lincat import registry
from lincat.cohomology import Character, characters, delta, delta_is_inner
from lincat.covering import fibre
from lincat.exactlinalg import FieldSpec
from lincat.fixtures import (F2, cover_f0, cover_f1, cyclic_cover, kronecker,
                             loop_square_zero, square_cover)
from lincat.formats import grading_from_doc
from lincat.grading import (grading_on_basis, induced_grading,
                            is_connected_grading, regrade)
from lincat.groups import cyclic_group
from lincat_reference import is_inner, make_category
from test_cohomology import elementary_abelian

F3 = FieldSpec(3)

# the (m, L, n) sizes of the benchmark's graded_nakayama family
NAKAYAMA_SHAPES = [(2, 2, 2), (2, 2, 4), (3, 2, 2), (3, 2, 3), (3, 3, 3),
                   (3, 3, 6), (4, 2, 2), (4, 3, 2), (4, 4, 2), (4, 4, 4),
                   (5, 2, 5), (5, 3, 5), (5, 5, 5), (5, 4, 2), (6, 3, 3),
                   (6, 4, 3), (6, 6, 2), (6, 2, 6), (7, 4, 7), (7, 3, 2),
                   (7, 2, 7), (8, 4, 2), (8, 2, 4), (8, 3, 2), (8, 5, 4),
                   (8, 8, 4)]


def induced(f):
    return induced_grading(f, {b: fibre(f, b)[0] for b in f.target.objects})


def two_points(field):
    """Two objects and no arrows between them."""
    return make_category(field, ("x", "y"),
                         {("x", "x"): ["1_x"], ("y", "y"): ["1_y"]},
                         {("1_x", "1_x"): {"1_x": 1},
                          ("1_y", "1_y"): {"1_y": 1}},
                         {"x": {"1_x": 1}, "y": {"1_y": 1}})


def gradings() -> dict:
    out = {"smash-demo": grading_from_doc(
        registry.fixture_files("smash-demo")["smash-grading.json"])}
    for name, fix in (("F0", cover_f0(F2)), ("F1", cover_f1(F2)),
                      ("square_cover", square_cover(F2))):
        out[name] = induced(fix.functor)
    for field in (F2, F3):
        for n in range(2, 7):
            z = induced(cyclic_cover(n, field).functor)
            grp = z.group
            shift = {x: grp.elements[i % grp.order()]
                     for i, x in enumerate(z.category.objects, 1)}
            out[f"cyclic_cover({n}) over {field}"] = z
            out[f"cyclic_cover({n}) over {field} regraded"] = \
                regrade(z, shift)
    for m, length, n in NAKAYAMA_SHAPES:
        p = next(q for q in (2, 3, 5, 7) if n % q == 0)
        out[f"nakayama({m}, {length}) by C{n} over F_{p}"] = \
            graded_nakayama(m, length, n, p)[1]
    # disconnected: both Kronecker arrows of degree g, so χ(g) = 1 has
    # the potential 0 at s and 1 at t
    for field, n in ((F2, 2), (F3, 3)):
        k = kronecker(field).category
        out[f"kronecker a:g b:g over {field}"] = grading_on_basis(
            k, cyclic_group(n), {"a": "g", "b": "g"})
    k2 = kronecker(F2).category
    out["kronecker trivial by C2"] = grading_on_basis(k2, cyclic_group(2), {})
    # degrees 00 and 10 reach half of (Z/2)²: χ is inner iff χ(10) = 0
    out["kronecker a:00 b:10 by (Z/2)²"] = grading_on_basis(
        k2, elementary_abelian(2), {"a": "00", "b": "10"})
    out["two points by C2"] = grading_on_basis(two_points(F2),
                                               cyclic_group(2), {})
    return out


GRADINGS = gradings()


def trial_characters(z, rng) -> list[Character]:
    """The zero character, a basis, and one random combination."""
    grp, field = z.group, z.category.field
    basis = characters(grp, field)
    out = [Character(grp, field, {s: 0 for s in grp.elements}), *basis]
    if basis:
        coeffs = [rng.randrange(field.characteristic) for _ in basis]
        out.append(Character(grp, field, {
            s: field.reduce(sum(a * chi(s) for a, chi in zip(coeffs, basis)))
            for s in grp.elements}))
    return out


@pytest.mark.parametrize("name", sorted(GRADINGS))
def test_potential_decides_inner_as_the_inner_span(name):
    z = GRADINGS[name]
    c = z.category
    rng = random.Random(name)
    for chi in trial_characters(z, rng):
        assert delta_is_inner(c, z, chi) == is_inner(delta(c, z, chi)), \
            chi.values


def test_the_cases_have_both_verdicts_and_disconnected_inner_characters():
    seen = set()
    for z in GRADINGS.values():
        c = z.category
        connected = is_connected_grading(z).connected
        for chi in trial_characters(z, random.Random(0)):
            nonzero = any(chi.values.values())
            seen.add((connected, nonzero, delta_is_inner(c, z, chi)))
    # a connected grading has no nonzero χ with δ(χ) inner
    assert seen == {(True, False, True), (True, True, False),
                    (False, False, True), (False, True, True),
                    (False, True, False)}


def test_potential_refuses_as_delta():
    loop = loop_square_zero().category
    zl = grading_on_basis(loop, cyclic_group(1), {})
    z2 = GRADINGS["smash-demo"]
    chi = characters(z2.group, F2)[0]
    chi3 = Character(cyclic_group(3), F2, {s: 0 for s in
                                           cyclic_group(3).elements})
    chi_f3 = Character(z2.group, F3, {"e": 0, "g": 0})
    for c, z, x in ((loop, zl, Character(zl.group, loop.field, {"e": 0})),
                    (kronecker(F2).category, GRADINGS["F0"], chi),
                    (z2.category, z2, chi3), (z2.category, z2, chi_f3)):
        with pytest.raises(ValueError) as want:
            delta(c, z, x)
        with pytest.raises(ValueError) as got:
            delta_is_inner(c, z, x)
        assert str(got.value) == str(want.value)
