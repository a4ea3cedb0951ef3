from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat.exactlinalg import (FieldSpec, Matrix, _is_prime, dense,
                                inverse, smith_normal_form)
from linalg_reference import (apply_dense, from_rows, kernel_basis,
                              quotient_basis, rank, rref, solve)

QQ = FieldSpec(0)
F2 = FieldSpec(2)
F5 = FieldSpec(5)


def mat(field, rows):
    return from_rows(field, rows)


def as_ints(m):
    return [list(m.row(i)) for i in range(m.rows)]


class TestFieldSpec:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FieldSpec(4)

    def test_accepts_zero_and_primes(self):
        for p in (0, 2, 3, 5, 7, 11):
            FieldSpec(p)

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert [n for n in range(10 ** 5) if _is_prime(n) != trial(n)] == []

    def test_refuses_characteristic_past_the_exact_bound(self):
        # 3317044064679887385961981 is the least strong pseudoprime to
        # every prime base up to 41; 2^89 - 1 is prime
        FieldSpec(2 ** 61 - 1)
        for p in (3317044064679887385961981, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="too large"):
                FieldSpec(p)

    def test_scalar_coercion_mod_p(self):
        assert F5.scalar(7) == 2
        assert F5.scalar("1/2") == 3  # 2 * 3 = 6 = 1 mod 5

    def test_denominator_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            F2.scalar("1/2")


class TestScalar:
    """Field elements as FieldSpec makes them: over Q ints when integral
    and Fractions otherwise, ints in [0, p) over F_p."""

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_scalar_and_parse_agree(self, p):
        """scalar of an int, a Fraction or a string form, and parse of
        the string form, give the same canonical value, computed here by
        Fraction arithmetic; a denominator that p divides raises
        ZeroDivisionError from both."""
        field = FieldSpec(p)

        def want(fr):
            if p == 0:
                return fr.numerator if fr.denominator == 1 else fr
            return fr.numerator * pow(fr.denominator, -1, p) % p

        cases = [(v, str(v)) for v in (0, 1, -1, 2, 7, -12, 10 ** 20 + 3)]
        cases += [(Fraction(a, b), f"{a}/{b}")
                  for a, b in ((3, 4), (-7, 9), (10, 5), (1, 2), (4, 3),
                               (2, 5), (6, 10))]
        cases += [(Fraction(3, 4), "3/4"), (-1, "-1")]
        for value, text in cases:
            fr = Fraction(value)
            if p and fr.denominator % p == 0:
                for run, arg in ((field.scalar, value), (field.scalar, text),
                                 (field.parse, text)):
                    with pytest.raises(ZeroDivisionError):
                        run(arg)
                continue
            got = [field.scalar(value), field.scalar(text), field.parse(text)]
            assert got == [want(fr)] * 3, (p, value)
            assert all(type(a) is type(want(fr)) for a in got), (p, value)
        if p == 5:
            assert field.scalar("2 mod 5") == field.parse("2 mod 5") == 2
            assert field.scalar("7 mod 5") == field.parse("7 mod 5") == 2
        for run in (field.scalar, field.parse):
            with pytest.raises(ValueError):
                run("2 mod 7" if p else "2 mod 5")

    def test_parse_roundtrip_rational(self):
        for text in ("3/4", "-1", "0", "7", "-22/7"):
            s = QQ.parse(text)
            assert QQ.parse(QQ.format(s)) == s

    def test_parse_roundtrip_mod_p(self):
        s = F5.parse("2 mod 5")
        assert s == 2
        assert F5.format(s) == "2 mod 5"
        assert F5.parse(F5.format(s)) == s

    def test_parse_rejects_wrong_modulus(self):
        with pytest.raises(ValueError):
            F5.parse("2 mod 7")

    def test_field_arithmetic_mod_2(self):
        one = F2.one()
        assert F2.reduce(one + one) == 0
        assert F2.reduce(-one) == one

    @settings(derandomize=True)
    @given(st.sampled_from([0, 2, 3, 5, 7]), st.data())
    def test_format_parse_roundtrip(self, p, data):
        field = FieldSpec(p)
        a = data.draw(st.fractions() if p == 0 else st.integers(0, p - 1))
        assert field.scalar(a) == a  # a reduced value coerces to itself
        back = field.parse(field.format(a))
        assert back == a
        # canonical form: an int exactly when the value is integral
        integral = p != 0 or a.denominator == 1
        for v in (back, field.scalar(a)):
            assert type(v) is (int if integral else Fraction)

    @pytest.mark.parametrize("text", [
        "+3", "-0", "00012", "1_0", "١٢", " 7 ", "1.0", "1e3",
        "-6/4", "1__0", "_1", "3.", "", "1 0", "0x10"])
    def test_parse_matches_fraction_over_q(self, text):
        self.assert_parse_matches_fraction(text)

    @settings(derandomize=True, max_examples=500)
    @given(st.text(st.sampled_from("0123456789+-/._e "), max_size=8))
    def test_parse_matches_fraction_over_q_on_drawn_strings(self, text):
        self.assert_parse_matches_fraction(text)

    @staticmethod
    def assert_parse_matches_fraction(text):
        # the integer fast path accepts exactly what Fraction accepts,
        # with the same canonical value, and refuses the rest alike
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(type(e)):
                QQ.parse(text)
            return
        got = QQ.parse(text)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


class TestRref:
    def test_identity_is_fixed(self):
        m = Matrix.identity(QQ, 2)
        red, pivots, rk = rref(m)
        assert red == m
        assert pivots == [0, 1]
        assert rk == 2

    def test_proportional_rows(self):
        red, _, rk = rref(mat(QQ, [[1, 2], [2, 4]]))
        assert as_ints(red) == [[1, 2], [0, 0]]
        assert rk == 1

    def test_mod_2_reduction(self):
        # hand reduction: row2 - row1 = 0 over F_2
        red, _, rk = rref(mat(F2, [[1, 1], [1, 1]]))
        assert as_ints(red) == [[1, 1], [0, 0]]
        assert rk == 1


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(QQ, 3)) == []

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis(Matrix.zeros(QQ, 2, 3))) == 3

    def test_sum_equation(self):
        # x + y = 0 has kernel spanned by (1, -1)
        (vec,) = kernel_basis(mat(QQ, [[1, 1]]))
        assert vec[0] == -vec[1] != 0


class TestSolveInverse:
    def test_solve_consistent(self):
        m = mat(QQ, [[1, 2], [3, 4]])
        x = solve(m, [QQ.scalar(5), QQ.scalar(11)])
        assert apply_dense(m, x) == [QQ.scalar(5), QQ.scalar(11)]

    def test_solve_inconsistent(self):
        m = mat(QQ, [[1, 1], [1, 1]])
        assert solve(m, [QQ.scalar(0), QQ.scalar(1)]) is None

    def test_inverse(self):
        m = mat(F5, [[1, 2], [3, 4]])
        mi = inverse(m)
        assert mi @ m == Matrix.identity(F5, 2)

    def test_singular_has_no_inverse(self):
        assert inverse(mat(QQ, [[1, 2], [2, 4]])) is None


class TestQuotientBasis:
    def test_one_dim_subspace_of_plane(self):
        reps, proj = quotient_basis(QQ, 2, [[QQ.one(), QQ.zero()]])
        assert len(reps) == 1
        assert reps[0] == [QQ.zero(), QQ.one()]
        assert apply_dense(proj, [QQ.one(), QQ.zero()]) == [QQ.zero()]

    def test_empty_subspace_gives_identity(self):
        reps, proj = quotient_basis(QQ, 3, [])
        assert len(reps) == 3
        assert proj == Matrix.identity(QQ, 3)

    def test_coinvariants_of_swap_on_f2_squared(self):
        # quotient of F_2^2 by span{(1,1)}: both unit vectors project equally
        one, zero = F2.one(), F2.zero()
        reps, proj = quotient_basis(F2, 2, [[one, one]])
        assert len(reps) == 1
        assert apply_dense(proj, [one, zero]) == \
            apply_dense(proj, [zero, one])

    def test_projection_restores_representative_coordinates(self):
        subspace = [[QQ.scalar(1), QQ.scalar(2), QQ.scalar(3)]]
        reps, proj = quotient_basis(QQ, 3, subspace)
        for i, r in enumerate(reps):
            coords = apply_dense(proj, r)
            assert coords == [1 if j == i else 0 for j in range(len(reps))]


class TestSmithNormalForm:
    def test_single_entry(self):
        assert smith_normal_form([[2]]) == [2]

    def test_no_relators_one_generator(self):
        assert smith_normal_form([], cols=1) == [0]

    def test_two_by_two(self):
        # hand SNF: gcd of entries 1, determinant 2
        assert smith_normal_form([[1, -1], [1, 1]]) == [1, 2]

    def test_divisibility_chain(self):
        factors = smith_normal_form([[2, 0], [0, 3]])
        assert factors == [1, 6]

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]


# -- property tests -----------------------------------------------------

fields = st.sampled_from([QQ, F2, F5])


@st.composite
def small_matrix(draw, field=None):
    f = draw(fields) if field is None else field
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    ints = draw(st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return from_rows(f, ints)


@given(small_matrix())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(small_matrix())
def test_rref_idempotent(m):
    red, pivots, rk = rref(m)
    red2, pivots2, rk2 = rref(red)
    assert red2 == red and pivots2 == pivots and rk2 == rk


@given(small_matrix())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        assert not any(apply_dense(m, vec))


@given(small_matrix())
def test_quotient_projection_kills_subspace(m):
    cols = [dense(m.field, col, m.rows) for col in m.columns]
    reps, proj = quotient_basis(m.field, m.rows, cols)
    assert len(reps) == m.rows - rank(m)
    for c in cols:
        assert not any(apply_dense(proj, c))


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.randoms())
def test_snf_invariant_under_permutations(rows, rng):
    base = smith_normal_form(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    perm = list(range(3))
    rng.shuffle(perm)
    permuted = [[row[j] for j in perm] for row in shuffled]
    assert smith_normal_form(permuted) == base


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_snf_chain_divides(rows):
    factors = smith_normal_form(rows)
    nonzero = [f for f in factors if f != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
