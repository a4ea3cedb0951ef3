"""Differential test of the Leibniz system that h1 ranks.

`_derivation_vectors` leaves out the rows of a pair (g, f) where exactly
one of g, f is a unit name; `reference_derivation_vectors` (in
lincat_reference.py) keeps a row for every composable basis pair.  The
left-out rows lie in the span of the (u, u) rows, so both must give the
same kernel basis, vector for vector: on every category of
test_h1_differential.py (the registry fixtures, cyclic-cover totals,
k[u]/(u^n) over Q, F_2, F_3 and F_5), on k[u]/(u^7) and k[u]/(u^8), on
grid posets with and without scaled squares, on categories rebased so
that no identity, or only some, is a unit name, and on the
non-associative (u*u)∘u = 2·u*u, which h1 still refuses in either
basis."""
from fractions import Fraction

import pytest

from lincat.cohomology import _derivation_vectors, h1
from lincat.exactlinalg import FieldSpec, Matrix
from lincat.fixtures import cyclic_cover, kronecker
from lincat.kcat import Arrow, LinCat, QuiverPresentation, present
from lincat_reference import rebased, reference_derivation_vectors
from test_h1_differential import CATEGORIES, truncated_loop
from test_present_differential import grid_quiver

Q, F2, F3, F5 = FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5)
NON_ASSOCIATIVE = "(u*u)∘u = 2·u*u"


def grid_poset(m: int, k: int, field: FieldSpec) -> LinCat:
    """The m x k grid with commuting squares."""
    vs = [f"v{i}_{j}" for i in range(m) for j in range(k)]
    arrows = [Arrow(f"r{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}")
              for i in range(m - 1) for j in range(k)]
    arrows += [Arrow(f"c{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}")
               for i in range(m) for j in range(k - 1)]
    rels = [((Fraction(1), (f"c{i + 1}_{j}", f"r{i}_{j}")),
             (Fraction(-1), (f"r{i}_{j + 1}", f"c{i}_{j}")))
            for i in range(m - 1) for j in range(k - 1)]
    q = QuiverPresentation(tuple(vs), tuple(arrows), tuple(rels),
                           max(1, m + k - 2))
    return present(q, field).category


def without_units(c: LinCat, objects=None) -> LinCat:
    """c rebased so that the identity of each of the given objects (all
    by default) is no unit name: 1_x + v and v replace 1_x and the next
    basis element v of End(x), or 2·1_x replaces 1_x where End(x) is
    one-dimensional (not over F_2, where 1 is the only unit)."""
    change = {}
    for x in c.objects if objects is None else objects:
        names = c.hom[(x, x)]
        (unit, _), = c.identities[x].items()
        p = names.index(unit)
        cols = [{i: 1} for i in range(len(names))]
        if len(names) > 1:
            cols[p] = {p: 1, (p + 1) % len(names): 1}
        else:
            cols[p] = {p: 2}
        change[(x, x)] = Matrix(c.field, len(names), len(names), tuple(cols))
    return rebased(c, change)


def cases() -> dict[str, LinCat]:
    out = dict(CATEGORIES)
    for p in (0, 2, 3, 5):
        for n in (7, 8):
            out[f"k[u]/(u^{n}) over {p or 'Q'}"] = \
                truncated_loop(FieldSpec(p), n)
    for m, k in ((2, 2), (2, 3), (3, 3), (3, 4)):
        out[f"grid poset {m}x{k} over Q"] = grid_poset(m, k, Q)
        out[f"scaled grid {m}x{k} over F_5"] = \
            present(grid_quiver(m, k, seed=m * k), F5).category
    out["grid poset 2x3 over F_2"] = grid_poset(2, 3, F2)
    for field in (F2, F3):
        out[f"cyclic_cover(4) total over {field.characteristic}"] = \
            cyclic_cover(4, field).total.category
    # no unit name at all
    for field in (Q, F2, F3):
        for n in (2, 3, 5):
            out[f"k[u]/(u^{n}) over {field.characteristic}, 1 + u"] = \
                without_units(truncated_loop(field, n))
    for field in (Q, F3, F5):
        out[f"kronecker over {field.characteristic}, 2·1"] = \
            without_units(kronecker(field).category)
    out["cyclic_cover(3) total, 2·1"] = \
        without_units(cyclic_cover(3).total.category)
    out["grid poset 2x3, 2·1"] = without_units(grid_poset(2, 3, Q))
    # both kinds of identity
    out["kronecker, 2·1_s"] = without_units(kronecker(Q).category, ["s"])
    total = cyclic_cover(3, F3).total.category
    out["cyclic_cover(3) total over 3, half 2·1"] = \
        without_units(total, total.objects[::2])
    out["grid poset 3x3, corner 2·1"] = \
        without_units(grid_poset(3, 3, Q), ["v0_0", "v2_2"])
    out[f"{NON_ASSOCIATIVE}, 1 + u"] = without_units(CATEGORIES[
        NON_ASSOCIATIVE])
    return out


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_derivation_vectors_agree_with_full_rows(name):
    c = CASES[name]
    assert _derivation_vectors(c) == reference_derivation_vectors(c)


def test_cases_have_both_kinds_of_identity():
    """Some cases have a unit name at every object, some at none, some
    at some; the left-out rows are there to leave out only with one."""
    kinds = {name: (len(c.unit_name) > 0,
                    len(c.unit_name) < len(c.objects))
             for name, c in CASES.items()}
    assert {(True, False), (False, True), (True, True)} <= \
        set(kinds.values())
    assert kinds["kronecker, 2·1_s"] == (True, True)
    assert kinds["k[u]/(u^3) over 2, 1 + u"] == (False, True)


@pytest.mark.parametrize("name", [NON_ASSOCIATIVE,
                                  f"{NON_ASSOCIATIVE}, 1 + u"])
def test_h1_still_refuses_the_non_associative_case(name):
    with pytest.raises(ValueError, match="^input is not a category: "):
        h1(CASES[name])
