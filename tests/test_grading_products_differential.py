"""Differential test of Grading's construction against
reference_grading, the construction it replaced, which sums every
product of homogeneous columns from the structure constants and
applies the inverse blocks to the sums.  Grading now reads the
products of monomial blocks off the structure constants directly; on
every input both must keep the same inverses, identity coordinates
and products, in the same insertion order, or refuse with the same
text.

Inputs: identity-basis gradings (the smash differential's, the
benchmark's graded Nakayama shapes), the same gradings with every block
a scaled permutation over Q and F_p, non-monomial gradings, and every
refusal of test_grading.py's fault list and of the smash differential,
plus monomial inputs whose products are not homogeneous."""
import random
from fractions import Fraction

import pytest

from grading_reference import (built_grading, decided, graded_nakayama,
                               grading_fields, reference_grading)
from lincat import grading as grading_module
from lincat.covering import fibre
from lincat.exactlinalg import FieldSpec, Matrix
from lincat.fixtures import F2, Q, cover_f1, cyclic_cover, square_base
from lincat.grading import Grading, grading_on_basis, induced_grading
from lincat.groups import cyclic_group
from linalg_reference import from_rows
from test_grading import degree_grading
from test_smash_differential import INVALID, VALID
from test_validation_differential import mixed_kronecker_grading

F3, F5, F7 = FieldSpec(3), FieldSpec(5), FieldSpec(7)


def scaled_permuted(z, seed):
    """z with each block's columns permuted and scaled by nonzero field
    values, each column keeping the degree of the basis name it holds:
    a grading with the same components."""
    rng = random.Random(seed)
    field = z.category.field
    basis, degrees = {}, {}
    for pair, m in z.basis.items():
        order = list(range(m.cols))
        rng.shuffle(order)
        cols = []
        for j in order:
            if field.characteristic:
                a = rng.randrange(1, field.characteristic)
            else:
                a = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            cols.append(m({j: field.scalar(a)}))
        basis[pair] = Matrix(field, m.rows, m.cols, tuple(cols))
        degrees[pair] = tuple(z.degrees[pair][j] for j in order)
    return grading_fields(z, basis=basis, degrees=degrees)


def inputs() -> dict:
    out = {name: z for name, z in VALID.items()}
    for size in ((2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 2), (5, 3, 5, 5),
                 (7, 2, 7, 7), (8, 8, 4, 2)):
        out[f"nakayama{size}"] = graded_nakayama(*size)[1]
    for field in (Q, F3, F5, F7):
        for n in (2, 3):
            f = cyclic_cover(n, field).functor
            out[f"cyclic_cover({n}) over {field}"] = induced_grading(
                f, {b: fibre(f, b)[0] for b in f.target.objects})
    for name in list(out):
        out[f"{name} scaled"] = scaled_permuted(out[name], name)
    for field in (Q, F3, F5):
        out[f"mixed kronecker over {field}"] = \
            mixed_kronecker_grading(field, 2)
    f1 = cover_f1(F2).functor
    out["F1"] = induced_grading(f1, {b: fibre(f1, b)[0]
                                     for b in f1.target.objects})
    return out


def refusals() -> dict:
    z = degree_grading()
    st_, tt = ("s", "t"), ("t", "t")
    singular = from_rows(Q, [[1, 2], [1, 2]])
    out = {
        "missing basis key": grading_fields(z, basis={
            k: m for k, m in z.basis.items() if k != tt}),
        "missing degree key": grading_fields(z, degrees={
            k: d for k, d in z.degrees.items() if k != tt}),
        "3x3 block": grading_fields(
            z, basis={**z.basis, st_: Matrix.identity(Q, 3)}),
        "one label": grading_fields(z, degrees={**z.degrees, st_: ("e",)}),
        "identity of degree g": grading_fields(
            z, degrees={**z.degrees, tt: ("g",)}),
        "singular and identity of degree g": grading_fields(
            z, basis={**z.basis, st_: singular},
            degrees={**z.degrees, tt: ("g",)}),
        # one entry per column, both in row 0
        "duplicate column": grading_fields(z, basis={
            **z.basis, st_: from_rows(Q, [[1, 1], [0, 0]])}),
        "unknown label": grading_fields(
            z, degrees={**z.degrees, st_: ("e", "nope")}),
    }
    out.update({f"smash: {name}": g for name, (_, g) in INVALID.items()
                if not isinstance(g, Grading)})
    b = square_base().category
    square = grading_on_basis(b, cyclic_group(2), {})
    bad = grading_fields(square, degrees={
        p: tuple("g" if n == "b" else "e" for n in names)
        for p, names in b.hom.items()})
    # test_grading's multiplicativity violation, and the smash one's
    out["not multiplicative"] = bad
    for seed in range(3):
        out[f"not multiplicative, scaled {seed}"] = scaled_permuted(bad, seed)
    for field in (F3, F5):
        ok = graded_nakayama(3, 3, 3, 3)[1] if field == F3 else \
            graded_nakayama(5, 3, 5, 5)[1]
        # u0 of degree g as well: u1∘u0 is of degree g·e, not e
        wrong = dict(ok.degrees)
        wrong[("x0", "x1")] = ("g",)
        out[f"nakayama over {field}, wrong degree"] = scaled_permuted(
            grading_fields(ok, degrees=wrong), field.characteristic)
    return out


INPUTS, REFUSALS = inputs(), refusals()


def assert_same(z):
    got, want = decided(z), reference_grading(z)
    if isinstance(want, str):
        assert got == want
        return want
    assert not isinstance(got, str), got
    assert list(got[0].items()) == list(want[0].items())
    assert list(got[1].items()) == list(want[1].items())
    assert list(got[2].items()) == list(want[2].items())
    return got


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_grading_keeps_what_the_reference_keeps(name):
    got = assert_same(INPUTS[name])
    assert not isinstance(got, str), got


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_grading_refuses_as_the_reference(name):
    got = assert_same(REFUSALS[name])
    assert isinstance(got, str), name


def test_monomial_blocks_take_one_pass(monkeypatch):
    """Monomial blocks never reach the summing loop; other blocks, and
    monomial ones with a product problem, do."""
    calls = []
    summed = grading_module._summed_products

    def counted(*args):
        calls.append(args[0])
        return summed(*args)
    monkeypatch.setattr(grading_module, "_summed_products", counted)
    for name in ("nakayama(8, 8, 4, 2)", "nakayama(5, 3, 5, 5) scaled",
                 "cyclic_cover(3) over F_7 scaled"):
        assert isinstance(built_grading(INPUTS[name]), Grading)
    assert calls == []
    built_grading(INPUTS["mixed kronecker over F_3"])
    assert len(calls) == 1
    built_grading(REFUSALS["not multiplicative, scaled 0"])
    assert len(calls) == 2
