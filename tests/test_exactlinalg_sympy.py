"""Differential tests of exactlinalg against sympy (a dev-only oracle).

Random small matrices over Q and F_p, p in {2, 3, 5, 7}: rref, rank,
kernel, solve, inverse and the arithmetic of Matrix against sympy's
DomainMatrix; the inverse of monomial and near-monomial matrices also
against elimination; the Smith form, also with planted unit rows,
against sympy's invariant factors over ZZ; and the greedy bases against
the greedy-by-rank definition kept here as the reference.
"""
import cProfile
import pstats
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from lincat.exactlinalg import (  # noqa: E402
    _PRIME_BOUND, EchelonBasis, FieldSpec, Matrix, _is_prime, dense,
    inverse, smith_normal_form,
)
from linalg_reference import (  # noqa: E402
    ReferenceEchelonBasis, apply_dense, column_space_basis,
    eliminated_inverse, entries, from_cols, from_rows, kernel_basis,
    matrix_add, matrix_neg, matrix_sub, quotient_basis, rank, rref, solve,
    typed,
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
    assert (a == b) == ((a.rows, a.cols, entries(a)) ==
                        (b.rows, b.cols, entries(b)))


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
    # @, apply_dense, matrix_add, matrix_sub and matrix_neg reduce mod p
    # explicitly; sympy's GF(p) is the oracle
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
    total, diff, neg = matrix_add(a, b), matrix_sub(a, b), matrix_neg(a)
    assert matrix_values(total) == sympy_values(field, sa + sb)
    assert matrix_values(diff) == sympy_values(field, sa - sb)
    assert matrix_values(neg) == sympy_values(field, -sa)
    column = [v for (v,) in vec]
    assert values(apply_dense(a, column)) == \
        [v for (v,) in sympy_values(field, sa * to_sympy(field, vec, 1))]
    wide = a.hstack(b)
    assert matrix_values(wide) == [x + y for x, y in zip(rows, same_shape)]
    by_cols = from_cols(field, list(zip(*rows)))
    for m in (a, b, d, by_cols, a @ d, total, diff, neg, wide):
        assert_stored_form(m)
    for x, y in ((a, b), (a, by_cols), (diff, Matrix.zeros(field, r, c)),
                 (total, matrix_add(b, a)), (a @ d, d), (wide, a)):
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


# values as EchelonBasis takes them over Q: ints, Fractions, integral
# ones such as Fraction(2, 1) among them, and large numerators and
# denominators
raw_rational = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 20)))


@settings(max_examples=100, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_kernel_results_are_canonical_over_q(r, c, data):
    """EchelonBasis, Matrix and inverse over Q keep values
    canonical, also when fed integral Fractions, and agree with sympy;
    EchelonBasis's rows, kernel and tails are those of the reference."""
    field = FieldSpec(0)
    # raw ints and Fractions, Fraction(2, 1) among them, as EchelonBasis
    # accepts
    rows = data.draw(st.lists(st.lists(raw_rational, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    e, reference = EchelonBasis(0), ReferenceEchelonBasis(0)
    for row in rows:
        vec = {j: a for j, a in enumerate(row) if a}
        assert e.add(vec) == reference.add(vec)
    sm = to_sympy(field, rows, c)
    ref, pivots = sm.rref()
    got = e.rows()
    assert list(got) == list(pivots)
    want = sympy_values(field, ref)
    for i, p in enumerate(pivots):
        assert all(map(canonical, got[p].values()))
        assert dense(field, got[p], c) == want[i]
    kernel = e.kernel(c)
    assert len(kernel) == c - len(pivots)
    for vec in kernel:
        assert all(map(canonical, vec.values()))
        column = to_sympy(field, [[v] for v in dense(field, vec, c)], 1)
        assert (sm * column).is_zero_matrix
    assert typed(got) == typed(dict(sorted(reference.rows.items())))
    assert typed(kernel) == typed(reference.kernel(c))
    for p in pivots:
        assert typed(e.tail(p)) == typed(reference.tail(p))

    square = data.draw(st.lists(st.lists(raw_rational, min_size=r,
                                         max_size=r), min_size=r, max_size=r))
    sq = to_sympy(field, square, r)
    m = from_rows(field, square)
    assert all(map(canonical, entries(m)))
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
        assert all(map(canonical, entries(inv)))
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
        assert all(map(canonical, entries(m @ inv)))
        assert m @ inv == Matrix.identity(field, r)
    total = matrix_add(m @ m, m)
    assert all(map(canonical, entries(total)))
    assert_stored_form(total)
    assert_stored_form(matrix_sub(m.hstack(m), m.hstack(total)))
    assert matrix_values(total) == sympy_values(field, sq * sq + sq)


@st.composite
def echelon_inputs(draw):
    """Sparse vectors of raw values, zeros included, with repeats and
    multiples of earlier vectors (negative ones among them) mixed in."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    entry = raw_rational if p == 0 else st.integers(-2 * p, 2 * p)
    vecs = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry,
                                         max_size=n), min_size=1, max_size=8))
    scales = [1, -1, 2, Fraction(-3, 7)] if p == 0 else [1, -1, 2]
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.sampled_from(scales))
        copy = {k: a * s for k, a in draw(st.sampled_from(vecs)).items()}
        vecs.insert(draw(st.integers(0, len(vecs))), copy)
    return p, n, vecs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(echelon_inputs())
def test_echelon_basis_agrees_with_reference(case):
    """Vector by vector, add answers as the reference does and reduce
    returns a nonzero multiple of the reference's remainder; the rows,
    the kernel and every tail equal the reference's, value types
    included, and the rows are sympy's reduced row echelon form."""
    p, n, vecs = case
    field = FieldSpec(p)
    e, reference = EchelonBasis(p), ReferenceEchelonBasis(p)
    for vec in vecs:
        got, want = e.reduce(vec), reference.reduce(vec)
        assert set(got) == set(want)
        if want:  # got = s * want with s = got[c] / want[c]
            c = min(want)
            assert all(field.reduce(a * want[c] - got[c] * want[k]) == 0
                       for k, a in got.items())
        assert e.add(vec) == reference.add(vec)
        assert vec in e
    rows = e.rows()
    assert typed(rows) == typed(dict(sorted(reference.rows.items())))
    assert typed(e.kernel(n)) == typed(reference.kernel(n))
    for c in rows:
        assert typed(e.tail(c)) == typed(reference.tail(c))
    sm = to_sympy(field, [dense(field, {k: field.scalar(a)
                                        for k, a in vec.items()}, n)
                          for vec in vecs], n)
    ref, pivots = sm.rref()
    assert list(rows) == list(pivots)
    assert [dense(field, row, n) for row in rows.values()] == \
        sympy_values(field, ref)[:len(pivots)]


def _fraction_functions(run) -> set[str]:
    """The functions of the fractions module that run() calls."""
    profile = cProfile.Profile()
    profile.runcall(run)
    return {name for path, _, name in pstats.Stats(profile).stats
            if path.endswith("fractions.py")}


def test_reduce_and_add_make_no_fraction_over_q():
    """Over Q, entry into the basis reads each input value's truth,
    numerator and denominator, and everything after runs on ints: reduce
    and add do no Fraction arithmetic and make no Fraction, and only
    reading a row makes one."""
    vecs = [{0: Fraction(1, 2), 1: 3, 3: Fraction(-5, 6)},
            {0: 2, 1: Fraction(7, 3), 2: Fraction(2, 1)},
            {1: Fraction(-1, 4), 2: 5, 3: 1},
            # the sum of the first two
            {0: Fraction(5, 2), 1: Fraction(16, 3), 2: 2, 3: Fraction(-5, 6)}]
    e = EchelonBasis(0)

    def fill():
        for vec in vecs:
            e.reduce(vec)
            e.add(vec)
    assert _fraction_functions(fill) <= {"__bool__", "numerator",
                                         "denominator"}
    assert len(e) == 3
    assert "__new__" in _fraction_functions(e.rows)


# composites that fool Miller-Rabin on some bases: strong pseudoprimes to
# the bases 2-7, 2-23 and 2-37, and Carmichael numbers
PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461,
                561, 41041, 825265)


@settings(max_examples=300, derandomize=True)
@given(st.one_of(
    st.integers(1849, _PRIME_BOUND - 1),
    st.integers(1849, 10 ** 12),
    # primes, and products of two primes
    st.integers(1849, _PRIME_BOUND - 1).map(sympy.nextprime).filter(
        lambda n: n < _PRIME_BOUND),
    st.tuples(st.integers(2, 10 ** 12), st.integers(2, 10 ** 12)).map(
        lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])),
    st.sampled_from(PSEUDOPRIMES + (2 ** 61 - 1, _PRIME_BOUND - 1))))
def test_primality_agrees_with_sympy(n):
    assert _is_prime(n) == sympy.isprime(n)
