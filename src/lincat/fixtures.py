"""Worked examples shared by the test suite and the CLI fixture registry.

All of them are small enough to verify by hand: the Kronecker category and
its double/cyclic covers, the three classical coverings of the double
cover (two Galois, one not), and the characteristic-2 commutative-square
example whose two presentations have different fundamental groups.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import FieldSpec
from .kcat import (Arrow, LinFunctor, PresentResult, QuiverPresentation,
                   functor_from_arrows, identity_functor, present)

Q = FieldSpec(0)
F2 = FieldSpec(2)


@dataclass
class CoverFixture:
    name: str
    total: PresentResult
    base: PresentResult
    functor: LinFunctor


def kronecker_quiver() -> QuiverPresentation:
    return QuiverPresentation(
        ("s", "t"), (Arrow("a", "s", "t"), Arrow("b", "s", "t")), (), 1)


def kronecker(field: FieldSpec = Q) -> PresentResult:
    return present(kronecker_quiver(), field)


def cyclic_cover_quiver(n: int) -> QuiverPresentation:
    """n-fold cyclic cover of the Kronecker quiver: a_i parallel to the
    index, b_i shifting it by one (mod n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = tuple(f"s{i}" for i in range(n)) + tuple(f"t{i}" for i in range(n))
    arrows = []
    for i in range(n):
        arrows.append(Arrow(f"a{i}", f"s{i}", f"t{i}"))
        arrows.append(Arrow(f"b{i}", f"s{i}", f"t{(i + 1) % n}"))
    return QuiverPresentation(vertices, tuple(arrows), (), 1)


def cyclic_cover(n: int, field: FieldSpec = Q,
                 base: PresentResult | None = None) -> CoverFixture:
    if base is None:
        base = kronecker(field)
    total = present(cyclic_cover_quiver(n), field)
    omap = {}
    images = {}
    for i in range(n):
        omap[f"s{i}"] = "s"
        omap[f"t{i}"] = "t"
        images[f"a{i}"] = {"a": 1}
        images[f"b{i}"] = {"b": 1}
    f = functor_from_arrows(total, base.category, omap, images)
    return CoverFixture(f"cyclic-cover-{n}", total, base, f)


def kronecker_double(field: FieldSpec = Q) -> PresentResult:
    return present(cyclic_cover_quiver(2), field)


def _double_cover_functor(name: str, a0_img: dict, a1_img: dict,
                          b_img: dict, field: FieldSpec,
                          base: PresentResult | None = None) -> CoverFixture:
    if base is None:
        base = kronecker(field)
    total = kronecker_double(field)
    omap = {"s0": "s", "s1": "s", "t0": "t", "t1": "t"}
    images = {"a0": a0_img, "a1": a1_img, "b0": b_img, "b1": b_img}
    f = functor_from_arrows(total, base.category, omap, images)
    return CoverFixture(name, total, base, f)


def cover_f0(field: FieldSpec = Q) -> CoverFixture:
    return _double_cover_functor("F0", {"a": 1}, {"a": 1}, {"b": 1}, field)


def cover_f1(field: FieldSpec = Q) -> CoverFixture:
    return _double_cover_functor("F1", {"a": 1, "b": 1}, {"a": 1, "b": 1},
                                 {"b": 1}, field)


def cover_f2(field: FieldSpec = Q) -> CoverFixture:
    return _double_cover_functor("F2", {"a": 1, "b": 1}, {"a": 1}, {"b": 1},
                                 field)


def corrupted_collapse(field: FieldSpec = Q) -> CoverFixture:
    """Valid functor, broken covering: both a-arrows collapse onto b."""
    return _double_cover_functor("corrupted-collapse", {"b": 1}, {"b": 1},
                                 {"b": 1}, field)


def identity_cover(field: FieldSpec = Q) -> CoverFixture:
    base = kronecker(field)
    return CoverFixture("identity-cover", base, base,
                        identity_functor(base.category))


def swap_functor(total: PresentResult) -> LinFunctor:
    """Index-swap automorphism of the Kronecker double cover."""
    omap = {"s0": "s1", "s1": "s0", "t0": "t1", "t1": "t0"}
    images = {"a0": {"a1": 1}, "a1": {"a0": 1},
              "b0": {"b1": 1}, "b1": {"b0": 1}}
    return functor_from_arrows(total, total.category, omap, images)


# -- the characteristic-2 two-presentation example --------------------------

def square_base_quiver() -> QuiverPresentation:
    """x ⇉ y ⇉ z with the swap relations g∘a = d∘b and g∘b = d∘a."""
    return QuiverPresentation(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "x", "y"),
         Arrow("g", "y", "z"), Arrow("d", "y", "z")),
        (((Fraction(1), ("g", "a")), (Fraction(-1), ("d", "b"))),
         ((Fraction(1), ("g", "b")), (Fraction(-1), ("d", "a")))),
        2)


def square_base_quiver_alt() -> QuiverPresentation:
    """Same category in characteristic 2 after the base change
    a' = a + b, c' = g + d: relations c∘a = 0 and c∘b = d∘a."""
    return QuiverPresentation(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "x", "y"),
         Arrow("c", "y", "z"), Arrow("d", "y", "z")),
        (((Fraction(1), ("c", "a")),),
         ((Fraction(1), ("c", "b")), (Fraction(-1), ("d", "a")))),
        2)


def square_base(field: FieldSpec = F2) -> PresentResult:
    return present(square_base_quiver(), field)


def square_cover_quiver() -> QuiverPresentation:
    """Double cover of the square base: a_i, g_i keep the index, b_i, d_i
    swap it, and every square of parallel length-2 paths commutes."""
    arrows = []
    for i in range(2):
        j = 1 - i
        arrows += [Arrow(f"a{i}", f"x{i}", f"y{i}"),
                   Arrow(f"b{i}", f"x{i}", f"y{j}"),
                   Arrow(f"g{i}", f"y{i}", f"z{i}"),
                   Arrow(f"d{i}", f"y{i}", f"z{j}")]
    relations = []
    for i in range(2):
        j = 1 - i
        # x_i -> z_i: g_i a_i = d_j b_i ; x_i -> z_j: d_i a_i = g_j b_i
        relations.append(((Fraction(1), (f"g{i}", f"a{i}")),
                          (Fraction(-1), (f"d{j}", f"b{i}"))))
        relations.append(((Fraction(1), (f"d{i}", f"a{i}")),
                          (Fraction(-1), (f"g{j}", f"b{i}"))))
    return QuiverPresentation(
        ("x0", "x1", "y0", "y1", "z0", "z1"), tuple(arrows),
        tuple(relations), 2)


def square_cover(field: FieldSpec = F2,
                 base: PresentResult | None = None) -> CoverFixture:
    if base is None:
        base = square_base(field)
    total = present(square_cover_quiver(), field)
    omap = {f"{v}{i}": v for v in "xyz" for i in range(2)}
    images = {}
    for i in range(2):
        images[f"a{i}"] = {"a": 1}
        images[f"b{i}"] = {"b": 1}
        images[f"g{i}"] = {"g": 1}
        images[f"d{i}"] = {"d": 1}
    f = functor_from_arrows(total, base.category, omap, images)
    return CoverFixture("square-cover", total, base, f)


def loop_square_zero(field: FieldSpec = Q) -> PresentResult:
    """One object with a loop u and the relation u∘u = 0."""
    q = QuiverPresentation(
        ("x",), (Arrow("u", "x", "x"),), (((Fraction(1), ("u", "u")),),), 1)
    return present(q, field)


def discrete(field: FieldSpec = Q, n: int = 2) -> PresentResult:
    """n objects, identities only."""
    q = QuiverPresentation(tuple(f"o{i}" for i in range(n)), (), (), 1)
    return present(q, field)


def swap_action(field: FieldSpec = Q):
    """C2 acting on the Kronecker double cover by the index swap."""
    from .galois import GroupAction
    from .groups import cyclic_group
    total = kronecker_double(field)
    grp = cyclic_group(2)
    return GroupAction(grp, {"e": identity_functor(total.category),
                             "g": swap_functor(total)}, total.category)
