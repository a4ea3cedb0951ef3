"""Differential tests of exactlinalg against sympy (a dev-only oracle).

Random small matrices over Q and F_p, p in {2, 3, 5, 7}: rref, rank,
kernel, solve, inverse and the arithmetic of Matrix against sympy's
DomainMatrix; the inverse of monomial and near-monomial matrices also
against elimination; the Smith form, also with planted unit rows,
against sympy's invariant factors over ZZ; and the greedy bases against
the greedy-by-rank definition kept here as the reference.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from lincat.exactlinalg import (  # noqa: E402
    EchelonBasis, FieldSpec, Matrix, dense, inverse, smith_normal_form,
)
from linalg_reference import (  # noqa: E402
    column_space_basis, eliminated_inverse, from_cols, from_rows,
    kernel_basis, quotient_basis, rank, rref, solve,
)

PRIMES = (0, 2, 3, 5, 7)


def domain(p):
    return sympy.QQ if p == 0 else sympy.GF(p)


def to_sympy(field, rows, ncols):
    p = field.characteristic
    dom = domain(p)
    if p == 0:
        ent = [[dom(v.numerator, v.denominator) for v in row] for row in rows]
    else:
        ent = [[dom(v) for v in row] for row in rows]
    return DomainMatrix(ent, (len(rows), ncols), dom)


def raw(field, x):
    """Our raw value of a sympy domain element."""
    p = field.characteristic
    if p == 0:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % p


def values(seq):
    return list(seq)


def matrix_values(m):
    return [values(m.row(i)) for i in range(m.rows)]


def sympy_values(field, dm):
    return [[raw(field, x) for x in row] for row in dm.to_list()]


@st.composite
def field_and_rows(draw, rows=None, cols=None, square=False, p=None):
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    field = FieldSpec(p)
    r = draw(st.integers(1, 5)) if rows is None else rows
    c = r if square else (draw(st.integers(1, 5)) if cols is None else cols)
    if p == 0:
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        # zeros are over-weighted so that rank deficiency is common
        entry = st.one_of(st.just(0), st.integers(0, p - 1))
    ent = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                        min_size=r, max_size=r))
    return field, [[field.scalar(v) for v in row] for row in ent]


def ours(field, rows):
    return from_rows(field, rows)


def assert_stored_form(m):
    """Matrix keeps one sparse column per column, holding only nonzero
    canonical field values at rows below m.rows."""
    p = m.field.characteristic
    assert len(m.columns) == m.cols
    for col in m.columns:
        for i, a in col.items():
            assert 0 <= i < m.rows and a != 0
            assert canonical(a) if p == 0 else type(a) is int and 0 < a < p


def assert_equality_is_entrywise(a, b):
    assert (a == b) == ((a.rows, a.cols, a.entries) ==
                        (b.rows, b.cols, b.entries))


@settings(max_examples=100)
@given(field_and_rows())
def test_rref_and_rank(case):
    field, rows = case
    m = ours(field, rows)
    red, pivots, rk = rref(m)
    ref, ref_pivots = to_sympy(field, rows, m.cols).rref()
    assert pivots == list(ref_pivots)
    assert matrix_values(red) == sympy_values(field, ref)
    assert rk == rank(m) == to_sympy(field, rows, m.cols).rank()


@settings(max_examples=100)
@given(field_and_rows())
def test_kernel_basis(case):
    field, rows = case
    m = ours(field, rows)
    basis = kernel_basis(m)
    sm = to_sympy(field, rows, m.cols)
    ref, pivots = sm.rref()
    ref = ref.to_list()
    free = [j for j in range(m.cols) if j not in pivots]
    assert len(basis) == len(free) == m.cols - sm.rank()
    for f, vec in zip(free, basis):
        # the free-column basis read off sympy's rref
        want = [0] * m.cols
        want[f] = 1
        for i, p in enumerate(pivots):
            want[p] = raw(field, -ref[i][f])
        assert values(vec) == want
        column = to_sympy(field, [[v] for v in values(vec)], 1)
        assert (sm * column).is_zero_matrix


@settings(max_examples=100)
@given(field_and_rows(), st.data())
def test_solve(case, data):
    field, rows = case
    m = ours(field, rows)
    rhs = [field.scalar(v) for v in data.draw(st.lists(
        st.integers(-3, 3), min_size=m.rows, max_size=m.rows))]
    x = solve(m, [field.scalar(v) for v in rhs])
    aug = to_sympy(field, [r + [b] for r, b in zip(rows, rhs)], m.cols + 1)
    ref, pivots = aug.rref()
    if m.cols in pivots:
        assert x is None
        return
    want = [0] * m.cols
    for i, p in enumerate(pivots):
        want[p] = raw(field, ref.to_list()[i][m.cols])
    assert values(x) == want


@settings(max_examples=100)
@given(field_and_rows(square=True))
def test_inverse(case):
    field, rows = case
    m = ours(field, rows)
    sm = to_sympy(field, rows, m.cols)
    inv = inverse(m)
    if sm.det() == 0:
        assert inv is None
    else:
        assert matrix_values(inv) == sympy_values(field, sm.inv())
        assert_stored_form(inv)
        assert inv @ m == m @ inv == Matrix.identity(field, m.rows)


@st.composite
def monomial_matrices(draw):
    """(field, m, singular): m has one nonzero entry per column, in
    distinct rows, unless it is singular by a repeated row or a zero
    column; 0×0 and 1×1 included."""
    p = draw(st.sampled_from(PRIMES))
    field = FieldSpec(p)
    n = draw(st.integers(0, 5))
    rows = draw(st.permutations(range(n)))
    if p == 0:
        nonzero = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                            st.integers(1, 3))
    else:
        nonzero = st.integers(1, p - 1)
    cols = [{i: field.scalar(draw(nonzero))} for i in rows]
    kinds = ["invertible"] + ["zero column"] * (n > 0) + \
        ["repeated row"] * (n > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "repeated row":
        j, k = draw(st.permutations(range(n)))[:2]
        cols[j] = {min(cols[k]): cols[j][min(cols[j])]}
    elif kind == "zero column":
        cols[draw(st.integers(0, n - 1))] = {}
    return field, Matrix(field, n, n, tuple(cols)), kind != "invertible"


@settings(max_examples=300, derandomize=True)
@given(monomial_matrices())
def test_monomial_inverse(case):
    field, m, singular = case
    inv = inverse(m)
    assert inv == eliminated_inverse(m)
    if m.rows == 0:
        assert inv == Matrix(field, 0, 0, ())
        return
    rows = [list(m.row(i)) for i in range(m.rows)]
    sm = to_sympy(field, rows, m.cols)
    assert singular == (sm.det() == 0)
    if singular:
        assert inv is None
    else:
        assert matrix_values(inv) == sympy_values(field, sm.inv())
        assert_stored_form(inv)
        assert inv @ m == m @ inv == Matrix.identity(field, m.rows)


def test_monomial_inverse_needs_no_elimination(monkeypatch):
    import lincat.exactlinalg as exactlinalg

    def refuse(*args):
        raise AssertionError("a monomial matrix was eliminated")

    monkeypatch.setattr(exactlinalg, "EchelonBasis", refuse)
    q, f5 = FieldSpec(0), FieldSpec(5)
    assert inverse(Matrix(q, 0, 0, ())) == Matrix(q, 0, 0, ())
    assert inverse(Matrix(q, 1, 1, ({0: Fraction(-2, 3)},))) == \
        Matrix(q, 1, 1, ({0: Fraction(-3, 2)},))
    assert inverse(Matrix(f5, 2, 2, ({1: 2}, {0: 4}))) == \
        Matrix(f5, 2, 2, ({1: 4}, {0: 3}))
    assert inverse(Matrix(q, 1, 1, ({},))) is None
    assert inverse(Matrix(f5, 2, 2, ({1: 2}, {1: 1}))) is None


@settings(max_examples=100)
@given(field_and_rows(), st.data())
def test_matrix_arithmetic(case, data):
    # @, apply, + and - reduce mod p explicitly; sympy's GF(p) is the oracle
    field, rows = case
    p, r, c = field.characteristic, len(rows), len(rows[0])
    _, same_shape = data.draw(field_and_rows(rows=r, cols=c, p=p))
    _, right = data.draw(field_and_rows(rows=c, p=p))
    _, vec = data.draw(field_and_rows(rows=c, cols=1, p=p))
    a, b, d = ours(field, rows), ours(field, same_shape), ours(field, right)
    sa = to_sympy(field, rows, c)
    sb = to_sympy(field, same_shape, c)
    sd = to_sympy(field, right, d.cols)
    assert matrix_values(a @ d) == sympy_values(field, sa * sd)
    assert matrix_values(a + b) == sympy_values(field, sa + sb)
    assert matrix_values(a - b) == sympy_values(field, sa - sb)
    assert matrix_values(-a) == sympy_values(field, -sa)
    column = [v for (v,) in vec]
    assert values(a.apply(column)) == \
        [v for (v,) in sympy_values(field, sa * to_sympy(field, vec, 1))]
    wide = a.hstack(b)
    assert matrix_values(wide) == [x + y for x, y in zip(rows, same_shape)]
    by_cols = from_cols(field, list(zip(*rows)))
    for m in (a, b, d, by_cols, a @ d, a + b, a - b, -a, wide):
        assert_stored_form(m)
    for x, y in ((a, b), (a, by_cols), (a - b, Matrix.zeros(field, r, c)),
                 (a + b, b + a), (a @ d, d), (wide, a)):
        assert_equality_is_entrywise(x, y)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_normal_form(nr, nc, data):
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=nc,
                                       max_size=nc),
                              min_size=nr, max_size=nr))
    want = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows),
                                                     domain=sympy.ZZ)]
    want += [0] * (nc - len(want))
    assert smith_normal_form(rows) == want


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.data())
def test_smith_normal_form_with_unit_rows(nc, data):
    """Random rows mixed with planted rows ±e_j, some repeated, and rows
    ±e_j ± e_k that become unit rows once column k is dropped, as the
    tree relators of a presentation do; in shuffled order."""
    entry = st.integers(-6, 6)
    rows = data.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                              max_size=3))
    for _ in range(data.draw(st.integers(1, 4))):
        j = data.draw(st.integers(0, nc - 1))
        row = [0] * nc
        row[j] = data.draw(st.sampled_from([1, -1]))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, nc - 1))
            row[k] += data.draw(st.sampled_from([1, -1, 2]))
        rows.append(row)
    rows = data.draw(st.permutations(rows))
    want = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows),
                                                     domain=sympy.ZZ)]
    want += [0] * (nc - len(want))
    assert smith_normal_form(rows) == want


# -- greedy bases against the greedy-by-rank definition -------------------

def sympy_rank(field, vectors, dim):
    if not vectors:
        return 0
    return to_sympy(field, [list(v) for v in vectors], dim).rank()


def greedy_by_rank(field, vectors, dim):
    """Reference: keep each vector that raises the rank of those kept."""
    kept = []
    for v in vectors:
        if sympy_rank(field, kept + [v], dim) == len(kept) + 1:
            kept.append(v)
    return kept


def reference_quotient(field, dim, subspace, preferred):
    """Reference: greedy unit vectors by rank, then the projection as the
    representative rows of the inverse of [independent part | units]."""
    indep = greedy_by_rank(field, subspace, dim)
    units, chosen = [], []
    for j in preferred:
        unit = [0] * dim
        unit[j] = field.one()
        if sympy_rank(field, indep + units + [unit], dim) == \
                len(indep) + len(units) + 1:
            units.append(unit)
            chosen.append(j)
    if len(indep) + len(units) != dim:
        return None
    cols = indep + units
    a = to_sympy(field, [[c[i] for c in cols] for i in range(dim)], dim)
    proj = sympy_values(field, a.inv())[len(indep):]
    return chosen, proj


@settings(max_examples=100)
@given(field_and_rows())
def test_column_space_basis(case):
    field, vectors = case
    dim = len(vectors[0])
    kept = column_space_basis(
        field, [[field.scalar(v) for v in vec] for vec in vectors], dim)
    assert [values(v) for v in kept] == greedy_by_rank(field, vectors, dim)


@settings(max_examples=100)
@given(field_and_rows(), st.randoms(use_true_random=False), st.booleans())
def test_quotient_basis(case, rng, partial):
    field, vectors = case
    dim = len(vectors[0])
    preferred = list(range(dim))
    rng.shuffle(preferred)
    if partial:
        # an order that may not reach a complement
        preferred = preferred[:rng.randint(0, dim)]
    ref = reference_quotient(field, dim, vectors, preferred)
    subspace = [[field.scalar(v) for v in vec] for vec in vectors]
    if ref is None:
        with pytest.raises(ValueError, match="complete a basis"):
            quotient_basis(field, dim, subspace, preferred)
        return
    reps, proj = quotient_basis(field, dim, subspace, preferred)
    chosen, want = ref
    assert [values(r).index(1) for r in reps] == chosen
    assert matrix_values(proj) == want


# -- the canonical rational ------------------------------------------------

def canonical(v):
    """Over Q: an int exactly when the value is integral, else a Fraction
    (never a Fraction with denominator 1, never a float)."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


raw_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_kernel_results_are_canonical_over_q(r, c, data):
    """EchelonBasis, Matrix and inverse over Q keep values
    canonical, also when fed integral Fractions, and agree with sympy."""
    field = FieldSpec(0)
    # raw Fractions, Fraction(2, 1) among them, as EchelonBasis accepts
    rows = data.draw(st.lists(st.lists(raw_rational, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    e = EchelonBasis(0)
    for row in rows:
        e.add({j: a for j, a in enumerate(row) if a})
    sm = to_sympy(field, rows, c)
    ref, pivots = sm.rref()
    assert sorted(e.rows) == list(pivots)
    want = sympy_values(field, ref)
    for i, p in enumerate(pivots):
        assert all(map(canonical, e.rows[p].values()))
        assert dense(field, e.rows[p], c) == want[i]
    kernel = e.kernel(c)
    assert len(kernel) == c - len(pivots)
    for vec in kernel:
        assert all(map(canonical, vec.values()))
        column = to_sympy(field, [[v] for v in dense(field, vec, c)], 1)
        assert (sm * column).is_zero_matrix

    square = data.draw(st.lists(st.lists(raw_rational, min_size=r,
                                         max_size=r), min_size=r, max_size=r))
    sq = to_sympy(field, square, r)
    m = from_rows(field, square)
    assert all(map(canonical, m.entries))
    assert_stored_form(m)
    assert_stored_form(from_cols(field, list(zip(*square))))
    inv_map = inverse(Matrix(field, r, r, tuple(
        {i: row[j] for i, row in enumerate(square) if row[j]}
        for j in range(r))))
    inv = inverse(m)
    if sq.det() == 0:
        assert inv_map is None and inv is None
    else:
        want = sympy_values(field, sq.inv())
        assert all(map(canonical, inv.entries))
        assert_stored_form(inv)
        assert_stored_form(inv_map)
        assert matrix_values(inv) == want
        for j, col in enumerate(inv_map.columns):
            assert all(map(canonical, col.values()))
            assert dense(field, col, r) == [row[j] for row in want]
        vec = {j: a for j, a in enumerate(data.draw(st.lists(
            raw_rational, min_size=r, max_size=r))) if a}
        image = inv_map(vec)
        assert all(map(canonical, image.values()))
        column = to_sympy(field, [[field.scalar(vec.get(j, 0))]
                                  for j in range(r)], 1)
        assert dense(field, image, r) == \
            [v for (v,) in sympy_values(field, sq.inv() * column)]
        assert all(map(canonical, (m @ inv).entries))
        assert m @ inv == Matrix.identity(field, r)
    total = m @ m + m
    assert all(map(canonical, total.entries))
    assert_stored_form(total)
    assert_stored_form(m.hstack(m) - m.hstack(total))
    assert matrix_values(total) == sympy_values(field, sq * sq + sq)
