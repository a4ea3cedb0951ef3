"""Derivation spaces, H1, additive characters, and the Euler embedding."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lincat.cohomology import (Character, characters, delta,
                               delta_injectivity_check, derivation_space,
                               h1, in_derivation_space, inner_derivations,
                               is_inner, validate_character,
                               validate_derivation)
from lincat.covering import fibre
from lincat import registry
from lincat.fixtures import (F2, Q, cover_f0, cover_f1, cyclic_cover,
                             discrete, kronecker, loop_square_zero,
                             square_cover)
from lincat.grading import (grading_on_basis, induced_grading, regrade,
                            smash, trivial_grading)
from lincat.exactlinalg import FieldSpec
from lincat.groups import Group, cyclic_group
from lincat.kcat import (Arrow, LinCat, QuiverPresentation, comb_add,
                         comb_eq, comb_scale, compose, present)
from linalg_reference import from_cols, rank


def zero_character(grp, field):
    return Character(grp, field, {s: field.zero() for s in grp.elements})


def flatten(c, d):
    """The entries of d, hom pair by hom pair, each block row-major."""
    return [a for pair in c.pairs for a in d.matrices[pair].entries]


# -- derivation spaces -----------------------------------------------------

def test_derivation_space_of_kronecker_is_all_endomorphisms():
    k = kronecker().category
    ders = derivation_space(k)
    assert len(ders) == 4
    for d in ders:
        assert validate_derivation(d) == []


def test_derivation_space_of_square_zero_loop():
    lz = loop_square_zero().category
    ders = derivation_space(lz)
    assert len(ders) == 1
    d = ders[0]
    # the loop scales, the identity is fixed
    assert comb_eq(d.apply_name("u"),
                   comb_scale(Q, d.matrices[("x", "x")].entry(1, 1), {"u": Q.one()})) \
        or comb_eq(d.apply_name("u"), {})


def test_derivation_space_of_discrete_category_is_zero():
    assert derivation_space(discrete().category) == []


def test_derivation_space_refuses_an_identity_that_is_not_one():
    # End(x) = span{i} with i∘i = 0 but i declared the identity: every
    # D(i) = λi would satisfy Leibniz, and none with λ ≠ 0 kills 1_x;
    # the category is refused when built, before derivation_space
    with pytest.raises(ValueError, match="^id_x ∘ i = 0$"):
        LinCat.make(Q, ["x"], {("x", "x"): ["i"]}, {}, {"x": {"i": 1}})
    # with i∘i = i the only derivation is zero
    c = LinCat.make(Q, ["x"], {("x", "x"): ["i"]}, {("i", "i"): {"i": 1}},
                    {"x": {"i": 1}})
    assert derivation_space(c) == []


def test_inner_derivation_dimensions():
    assert len(inner_derivations(kronecker().category)) == 1
    assert len(inner_derivations(discrete().category)) == 0
    assert len(inner_derivations(loop_square_zero().category)) == 0


def test_inner_derivations_have_reduced_residues():
    for p in (3, 5):
        for d in inner_derivations(kronecker(FieldSpec(p)).category):
            assert all(0 <= s < p
                       for m in d.matrices.values() for s in m.entries)


def test_inner_contained_in_derivations(covering_matrix):
    for fix in covering_matrix[:3]:
        c = fix.base.category
        space = [flatten(c, d) for d in derivation_space(c)]
        inner = [flatten(c, d) for d in inner_derivations(c)]
        if not space:
            assert not inner
            continue
        n = len(space[0])
        assert rank(from_cols(c.field, space + inner, nrows=n)) == \
            rank(from_cols(c.field, space, nrows=n))


def test_h1_dimensions():
    assert h1(kronecker().category).dimension == 3
    assert h1(discrete().category).dimension == 0
    assert h1(loop_square_zero().category).dimension == 1


def test_h1_representatives_are_derivations_outside_inner():
    r = h1(kronecker().category)
    assert len(r.representatives) == 3
    for d in r.representatives:
        assert validate_derivation(d) == []
        assert not is_inner(d)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_leibniz_on_combinations(a1, a2, b1, b2):
    # Leibniz against arbitrary combinations, not only basis pairs
    lz = loop_square_zero().category
    d = derivation_space(lz)[0]
    f = comb_add(Q, comb_scale(Q, Q.scalar(a1), {"1_x": Q.one()}),
                 comb_scale(Q, Q.scalar(a2), {"u": Q.one()}))
    g = comb_add(Q, comb_scale(Q, Q.scalar(b1), {"1_x": Q.one()}),
                 comb_scale(Q, Q.scalar(b2), {"u": Q.one()}))
    lhs = d.apply(compose(lz, g, f))
    rhs = comb_add(Q, compose(lz, g, d.apply(f)), compose(lz, d.apply(g), f))
    assert comb_eq(lhs or {}, rhs)


# -- characters --------------------------------------------------------------

def test_character_spaces():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    assert characters(c2, Q) == []
    basis = characters(c2, F2)
    assert len(basis) == 1 and F2.format(basis[0]("g")) == "1 mod 2"
    basis4 = characters(c4, F2)
    assert len(basis4) == 1
    vals = {s: F2.format(v) for s, v in basis4[0].values.items()}
    # factors through the order-2 quotient
    assert vals == {"e": "0 mod 2", "g": "1 mod 2",
                    "g2": "0 mod 2", "g3": "1 mod 2"}


def test_character_basis_is_additive():
    for grp in (cyclic_group(2), cyclic_group(3), cyclic_group(4)):
        for p, fld in ((2, F2),):
            for chi in characters(grp, fld):
                assert validate_character(chi) == []


def test_characters_of_c3_over_f2_vanish():
    assert characters(cyclic_group(3), F2) == []


def test_invalid_character_detected():
    c2 = cyclic_group(2)
    chi = Character(c2, F2, {"e": F2.zero(), "g": F2.zero()})
    chi.values["e"] = F2.one()
    assert validate_character(chi)


# -- delta -------------------------------------------------------------------

def kf2_grading():
    kf2 = kronecker(F2).category
    return kf2, grading_on_basis(kf2, cyclic_group(2), {"a": "e", "b": "g"})


def test_delta_on_the_graded_kronecker():
    kf2, z = kf2_grading()
    chi = characters(z.group, F2)[0]
    d = delta(kf2, z, chi)
    assert comb_eq(d.apply_name("a"), {})
    assert comb_eq(d.apply_name("b"), {"b": F2.one()})
    assert validate_derivation(d) == []
    assert in_derivation_space(d)
    assert not is_inner(d)


def test_delta_of_zero_character_is_zero():
    kf2, z = kf2_grading()
    d = delta(kf2, z, zero_character(z.group, F2))
    assert all(not any(m.entries)
               for m in d.matrices.values())


def test_delta_of_regraded_input_differs_by_inner():
    kf2, z = kf2_grading()
    chi = characters(z.group, F2)[0]
    z2 = regrade(z, {"s": "e", "t": "g"})
    assert is_inner(delta(kf2, z2, chi) - delta(kf2, z, chi))


def test_delta_rejects_fat_endomorphism_rings():
    lz = loop_square_zero().category
    z = trivial_grading(lz)
    with pytest.raises(ValueError, match="End"):
        delta(lz, z, zero_character(z.group, Q))


def test_injectivity_check_on_connected_gradings():
    kf2, z = kf2_grading()
    assert delta_injectivity_check(kf2, z)
    kq = kronecker().category
    zq = grading_on_basis(kq, cyclic_group(2), {"a": "e", "b": "g"})
    assert delta_injectivity_check(kq, zq)  # vacuous: no nonzero characters


def test_injectivity_check_inverts_no_block_of_a_built_grading(
        monkeypatch):
    # one and two basis characters
    for c, z in (kf2_grading(), three_arrow_kronecker_grading(3)):
        calls = count_inversions(monkeypatch)
        assert delta_injectivity_check(c, z)
        assert calls == []
        monkeypatch.undo()


def count_inversions(monkeypatch) -> list:
    """The matrices exactlinalg.inverse is called on from here on, in
    every lincat namespace that binds it."""
    import sys
    from lincat.exactlinalg import inverse
    calls = []

    def counted(m):
        calls.append(m)
        return inverse(m)
    for name, module in list(sys.modules.items()):
        if name.startswith("lincat.") and \
                getattr(module, "inverse", None) is inverse:
            monkeypatch.setattr(module, "inverse", counted)
    return calls


def test_injectivity_check_inverts_each_block_once(monkeypatch):
    calls = count_inversions(monkeypatch)
    c, z = three_arrow_kronecker_grading(3)
    assert len(characters(z.group, c.field)) == 2
    assert delta_injectivity_check(c, z)
    assert len(calls) == len(z.basis)


def test_delta_and_smash_invert_each_block_once(monkeypatch):
    # building the grading inverts each block; delta and smash read the
    # inverses it keeps
    calls = count_inversions(monkeypatch)
    c, z = three_arrow_kronecker_grading(3)
    assert len(calls) == len(z.basis)
    delta(c, z, characters(z.group, c.field)[0])
    smash(c, z)
    assert len(calls) == len(z.basis)


def graded_nakayama(m, length, n, p):
    """The cyclic quiver x0 -> ... -> x(m-1) -> x0 modulo the paths of
    length `length`, over F_p, graded by C_n: a path has the degree
    g^k when it passes the arrow x(m-1) -> x0 k times."""
    arrows = tuple(Arrow(f"u{i}", f"x{i}", f"x{(i + 1) % m}")
                   for i in range(m))
    zero_paths = tuple(((Fraction(1), tuple(f"u{(i + s) % m}" for s in
                                            reversed(range(length)))),)
                       for i in range(m))
    q = QuiverPresentation(tuple(f"x{i}" for i in range(m)), arrows,
                           zero_paths, length - 1)
    c = present(q, FieldSpec(p)).category
    grp = cyclic_group(n)
    degree = {name: grp.elements[name.split("*").count(f"u{m - 1}") % n]
              for name in c.basis_names()}
    return c, grading_on_basis(c, grp, degree)


def test_delta_satisfies_leibniz_without_a_check():
    """δ(χ) is a derivation for every basis character χ, as δ's
    docstring argues: delta no longer verifies it."""
    from lincat.formats import grading_from_doc
    smash_demo = grading_from_doc(
        registry.fixture_files("smash-demo")["smash-grading.json"])
    cases = [(smash_demo.category, smash_demo)]
    for fix in (cover_f0(F2), cover_f1(F2)):
        f = fix.functor
        cases.append((f.target, induced_grading(
            f, {b: fibre(f, b)[0] for b in f.target.objects})))
    cases += [graded_nakayama(*size) for size in
              ((2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 2), (6, 3, 3, 3))]
    for c, z in cases:
        chars = characters(z.group, c.field)
        assert chars, z.group
        for chi in chars:
            assert validate_derivation(delta(c, z, chi)) == []


def test_injectivity_check_refuses_disconnected_grading():
    kf2, _ = kf2_grading()
    with pytest.raises(ValueError, match="not connected"):
        delta_injectivity_check(kf2, trivial_grading(kf2, cyclic_group(2)))


def test_injectivity_across_char_p_galois_fixtures():
    for fix in (cyclic_cover(2, F2), cyclic_cover(3, F2),
                cyclic_cover(4, F2), square_cover()):
        f = fix.functor
        base = f.target
        z = induced_grading(f, {b: fibre(f, b)[0] for b in base.objects})
        assert delta_injectivity_check(base, z), fix.name


def elementary_abelian(p):
    """(Z/p)², elements named by their two coordinates."""
    elems = [f"{i}{j}" for i in range(p) for j in range(p)]
    table = {(s, t): f"{(int(s[0]) + int(t[0])) % p}"
                     f"{(int(s[1]) + int(t[1])) % p}"
             for s in elems for t in elems}
    return Group(tuple(elems), "00", table)


def three_arrow_kronecker_grading(p):
    """Three arrows s -> t in degrees 0, (1,0), (0,1) of (Z/p)²: a
    connected grading with a two-dimensional character space over F_p."""
    q = QuiverPresentation(("s", "t"), (Arrow("a", "s", "t"),
                                        Arrow("b", "s", "t"),
                                        Arrow("c", "s", "t")), (), 1)
    c = present(q, FieldSpec(p)).category
    return c, grading_on_basis(c, elementary_abelian(p),
                               {"a": "00", "b": "10", "c": "01"})


def no_nonzero_character_is_inner(c, z):
    """Oracle: δ of every nonzero combination of the character basis,
    p^m - 1 of them, is outside the inner derivations."""
    basis = characters(z.group, c.field)
    field = c.field
    for coeffs in itertools.product(range(field.characteristic),
                                    repeat=len(basis)):
        if not any(coeffs):
            continue
        values = {s: field.zero() for s in z.group.elements}
        for a, chi in zip(coeffs, basis):
            for s in values:
                values[s] = field.reduce(values[s] + field.scalar(a) * chi(s))
        if is_inner(delta(c, z, Character(z.group, field, values))):
            return False
    return True


def test_injectivity_check_agrees_with_exhaustive_combinations():
    cases = [kf2_grading(), three_arrow_kronecker_grading(2),
             three_arrow_kronecker_grading(3)]
    for fix in (cyclic_cover(2, F2), cyclic_cover(4, F2), square_cover()):
        f = fix.functor
        cases.append((f.target, induced_grading(
            f, {b: fibre(f, b)[0] for b in f.target.objects})))
    for c, z in cases:
        assert delta_injectivity_check(c, z) == \
            no_nonzero_character_is_inner(c, z)
    # in the (Z/p)² cases m = 2, so the oracle also tries combinations
    # that are not basis characters
    for p in (2, 3):
        c, z = three_arrow_kronecker_grading(p)
        assert len(characters(z.group, c.field)) == 2


def test_delta_base_point_independence():
    # two fibre choices give cohomologous Euler derivations
    cov = cyclic_cover(4, F2)
    f = cov.functor
    base = f.target
    choice1 = {b: fibre(f, b)[0] for b in base.objects}
    choice2 = dict(choice1)
    choice2[base.objects[1]] = fibre(f, base.objects[1])[1]
    z1 = induced_grading(f, choice1)
    z2 = induced_grading(f, choice2)
    chi1 = characters(z1.group, F2)[0]
    chi2 = characters(z2.group, F2)[0]
    assert chi1.values == chi2.values
    assert is_inner(delta(base, z1, chi1) - delta(base, z2, chi2))
