"""Exact linear algebra over Q and F_p.

Everything downstream (star isomorphism tests, quotient bases, Leibniz
kernels) reduces to solving linear systems here.  All arithmetic is exact:
over Q a value is an int when it is integral and a
:class:`fractions.Fraction` only when it is not; over F_p it is a residue
in [0, p).  No floating point anywhere.

Every linear map the library handles (functor blocks, the inverses of
star blocks, the change of basis of a grading, derivations) is one type,
Matrix, kept as sparse columns; products and inverses work on those
columns directly.  Elimination works on sparse rows in EchelonBasis,
which over Q keeps each row as a primitive integer vector and so
eliminates with ints alone; its `rows` reads the canonical rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


def _q(a):
    """The canonical rational: an integral Fraction demoted to its int."""
    return a.numerator if a.denominator == 1 else a


def _reciprocal(p: int, a):
    """1/a for a nonzero field element a of characteristic p."""
    if a == 1:
        return 1
    return pow(a, -1, p) if p else _q(Fraction(1) / a)


# Miller-Rabin with the prime bases up to 41 decides primality exactly
# below this bound, the least strong pseudoprime to all of them
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Trial division below 43², deterministic Miller-Rabin above; a
    ValueError from _PRIME_BOUND on, where the bases do not decide."""
    if n < 1849:
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return n >= 2
    if n >= _PRIME_BOUND:
        raise ValueError(f"characteristic {n} is too large: primality is "
                         f"decided only below {_PRIME_BOUND}")
    d, s = n - 1, 0  # a base dividing n fails the test below
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: Q (characteristic 0) or F_p (characteristic p prime).

    A field element is a plain value: over Q an int when it is integral
    and a Fraction only when it is not, over F_p an int in [0, p).  An int
    and the equal Fraction hash and compare the same, so the choice shows
    only in speed.  This class coerces, parses, reduces and formats those
    values; outside this module no code needs to know which a field
    uses."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(
                f"characteristic must be 0 or a prime, got {self.characteristic}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def scalar(self, value):
        """Coerce an int, a Fraction, or the string form parse reads
        into this field."""
        if isinstance(value, str):
            return self.parse(value)
        p = self.characteristic
        if type(value) is int:
            return value % p if p else value
        fr = Fraction(value)
        if p == 0:
            return _q(fr)
        if fr.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {fr} not invertible mod {p}")
        return fr.numerator * pow(fr.denominator, -1, p) % p

    def parse(self, text: str):
        """Parse the string form: "3/4" or "-1" over Q, "2 mod 5" over F_5."""
        text = text.strip()
        if self.characteristic == 0:
            if "mod" in text:
                raise ValueError(f"modular scalar {text!r} in a characteristic-0 field")
            try:  # int reads the integer strings Fraction reads, faster
                return int(text)
            except ValueError:
                return _q(Fraction(text))
        parts = text.split("mod")
        if len(parts) == 2:
            p = int(parts[1])
            if p != self.characteristic:
                raise ValueError(
                    f"scalar {text!r} has modulus {p}, field has {self.characteristic}")
            return self.scalar(int(parts[0]))
        return self.scalar(Fraction(text))

    def format(self, a) -> str:
        """The string form parse reads back: "3/4", "2 mod 5"."""
        p = self.characteristic
        return str(a) if p == 0 else f"{a} mod {p}"

    def reduce(self, a):
        """The field element of a sum or product of field elements: a in
        canonical form over Q, a mod p over F_p."""
        p = self.characteristic
        return a % p if p else _q(a)

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F_{self.characteristic}"


@dataclass(frozen=True)
class Matrix:
    """The one matrix type: a linear map k^cols -> k^rows kept as its
    columns, each a sparse vector {row: value} of canonical field values
    with no zero stored.  Equal matrices therefore have equal columns.
    Immutable: a column dict may be shared with other matrices and is
    never written to.  Calling a matrix on a sparse vector gives its
    image; `row` is a dense view."""

    field: FieldSpec
    rows: int
    cols: int
    columns: tuple  # of dicts {row: value}
    __hash__ = None  # the columns are dicts

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise ValueError("number of columns does not match cols")

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, n, n, tuple({j: field.one()} for j in range(n)))

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, tuple({} for _ in range(cols)))

    def row(self, i: int) -> tuple:
        return tuple(col.get(i, 0) for col in self.columns)

    def __call__(self, vec: dict) -> dict:
        """The image of a sparse vector {column: value}, as a sparse
        vector of canonical values."""
        if len(vec) == 1:  # a multiple of one column: nothing to sum
            (k, a), = vec.items()
            if a == 1:
                return dict(self.columns[k])
            red = self.field.reduce
            return {i: r for i, v in self.columns[k].items()
                    if (r := red(a * v))}
        out: dict = {}
        for k, a in vec.items():
            for i, v in self.columns[k].items():
                w = a * v
                out[i] = out[i] + w if i in out else w
        red = self.field.reduce
        return {i: r for i, w in out.items() if (r := red(w))}

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix(self.field, self.rows, other.cols,
                      tuple(map(self, other.columns)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      self.columns + other.columns)


# -- elimination on raw values ---------------------------------------------


def _field_ops(p: int):
    """The operations of characteristic p on EchelonBasis's stored rows,
    chosen once per basis: (entry, eliminate, primitive, divide).
    `entry` makes a vector of field values a stored-form vector;
    `eliminate(v, c, row)` makes v zero at the pivot c of a stored row,
    in place, by v <- d*v - a*row; `primitive(v, c)` scales v in place to
    the stored row with pivot c; `divide(row, d)` is row / d in
    canonical field values, a new dict."""
    if p:
        def entry(vec):
            return {c: a % p for c, a in vec.items() if a % p}

        def eliminate(v, c, row):
            # row is monic, so d = 1 and a = v[c]; a and row's values are
            # nonzero mod p, so a zero result means the column was in v
            f = v[c]
            for k, a in row.items():
                w = (v.get(k, 0) - f * a) % p
                if w:
                    v[k] = w
                else:
                    del v[k]

        def primitive(v, c):
            if v[c] != 1:
                s = pow(v[c], -1, p)
                for k in v:
                    v[k] = v[k] * s % p

        def divide(row, d):
            if d == 1:
                return dict(row)
            s = pow(d, -1, p)
            return {k: a * s % p for k, a in row.items()}

        return entry, eliminate, primitive, divide

    def entry(vec):
        v = {c: a for c, a in vec.items() if a}
        for a in v.values():
            if type(a) is not int:
                # ints and Fractions both carry numerator and denominator
                m = lcm(*[a.denominator for a in v.values()])
                return {c: a.numerator * (m // a.denominator)
                        for c, a in v.items()}
        return v

    def eliminate(v, c, row):
        a, d = v[c], row[c]  # d > 0
        if d != 1:
            g = gcd(a, d)
            a, d = a // g, d // g
            if d != 1:
                for k in v:
                    v[k] *= d
        for k, b in row.items():
            w = v.get(k, 0) - a * b
            if w:
                v[k] = w
            else:
                del v[k]

    def primitive(v, c):
        g = gcd(*v.values())
        if v[c] < 0:
            g = -g
        if g != 1:
            for k in v:
                v[k] //= g

    def divide(row, d):
        if d == 1:
            return dict(row)
        return {k: a // d if a % d == 0 else Fraction(a, d)
                for k, a in row.items()}

    return entry, eliminate, primitive, divide


class EchelonBasis:
    """Reduced row echelon basis of a growing subspace of k^n.

    Vectors are sparse rows {column: value}; values may be any ints (or
    Fractions over Q) and are reduced on entry.  Every stored row has
    its smallest column as its pivot and 0 at every other row's pivot,
    so the rows sorted by pivot, each divided by its pivot value, are
    the reduced row echelon form of the span; `rows` reads that form.
    Over F_p a row is kept monic.  Over Q it is kept as a primitive
    integer vector with a positive pivot, so elimination runs on ints
    alone, v <- d*v - a*row and the content divided out (fraction-free
    Gauss-Jordan elimination, E. H. Bareiss, Math. Comp. 22, 1968), and
    a Fraction is made only when a row is read.  Adding a vector reduces
    it against the rows whose pivots it touches, O(rank * n), and keeps
    a nonzero remainder.
    """

    def __init__(self, characteristic: int):
        self._rows: dict[int, dict] = {}
        (self._entry, self._eliminate, self._primitive,
         self._divide) = _field_ops(characteristic)

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, vec: dict) -> dict:
        """A nonzero multiple of the remainder of `vec` modulo the span,
        or {} when vec lies in it, as a new dict.  Over Q it is an
        integer vector, not the remainder itself."""
        v = self._entry(vec)
        rows = self._rows
        # a pivot row is zero at every other pivot, so subtracting it adds
        # no pivot column to v that the list below misses
        for c in [c for c in v if c in rows]:
            self._eliminate(v, c, rows[c])
        return v

    def add(self, vec: dict) -> bool:
        """Insert `vec`; True iff it was outside the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        self._primitive(v, pivot)
        for c, row in self._rows.items():
            if pivot in row:
                self._eliminate(row, pivot, v)
                self._primitive(row, c)
        self._rows[pivot] = v
        return True

    def _put(self, vec: dict, pivot: int) -> None:
        """Insert `vec` with this pivot, its smallest column, unreduced:
        no column of it may be a pivot, nor its pivot another row's
        column."""
        v = self._entry(vec)
        self._primitive(v, pivot)
        self._rows[pivot] = v

    def __contains__(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def rows(self) -> dict[int, dict]:
        """The reduced row echelon form, {pivot: row} by increasing
        pivot: each row in canonical field values, 1 at its pivot."""
        rows = self._rows
        return {c: self._divide(rows[c], rows[c][c]) for c in sorted(rows)}

    def tail(self, pivot: int) -> dict:
        """Minus the pivot row off its pivot: e_pivot is congruent to this
        modulo the span, and its columns are free columns."""
        row = self._rows[pivot]
        row = self._divide(row, -row[pivot])
        del row[pivot]
        return row

    def kernel(self, ncols: int) -> list[dict]:
        """Null space basis of the stored rows, one vector per free
        column in increasing order: 1 there, the pivot rows' tails at
        the pivots."""
        free = {j: {j: 1} for j in range(ncols) if j not in self._rows}
        for pivot in self._rows:
            for j, a in self.tail(pivot).items():
                free[j][pivot] = a
        return list(free.values())


def dense(field: FieldSpec, row: dict, n: int) -> list:
    """The length-n vector of a sparse row."""
    out = [field.zero()] * n
    for j, a in row.items():
        out[j] = a
    return out


def inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix, or None if it is not square or is
    singular.

    One pass over the columns: while each holds one entry, column j =
    a·e_i makes column i of the inverse (1/a)·e_j, and a zero column or a
    second column in row i is singular; so a monomial matrix, 0×0
    included, is inverted without elimination.  From the first longer
    column on, column j of m is row j of its transpose A, so [A | 1]
    reduces to [1 | A⁻¹], whose rows of the monomial columns are
    already reduced, and row i of A⁻¹ is column i of the inverse."""
    n = m.cols
    if m.rows != n:
        return None
    p, cols = m.field.characteristic, m.columns
    at: dict[int, tuple] = {}  # row i -> (j, a) for column j = a·e_i
    for j, col in enumerate(cols):
        if len(col) != 1:
            if not col:
                return None
            break
        (i, a), = col.items()
        if i in at:
            return None
        at[i] = (j, a)
    else:
        return Matrix(m.field, n, n, tuple(
            {j: _reciprocal(p, a)} for j, a in (at[i] for i in range(n))))
    e = EchelonBasis(p)
    for i, (j, a) in at.items():
        e._put({i: a, n + j: 1}, i)
    for j in range(len(at), n):
        e.add({**cols[j], n + j: 1})
    rows = e.rows()
    if any(i not in rows for i in range(n)):
        return None
    return Matrix(m.field, n, n,
                  tuple({j - n: a for j, a in rows[i].items() if j >= n}
                        for i in range(n)))


def smith_normal_form(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> list[int]:
    """Invariant factors of an integer matrix, padded with zeros to the
    column count (zeros record free rank when rows are relators over the
    columns' generators).

    `cols` is only needed when `rows` is empty.

    A row whose only nonzero entry is ±1 (a tree relator ±e_j of a
    presentation) clears its column by row operations and so splits off
    the factor 1.  Such rows are dropped with their columns, until none
    is left, before the dense elimination runs on the rest.
    """
    m = [list(map(int, r)) for r in rows]
    nc = len(m[0]) if m else (0 if cols is None else cols)
    if cols is not None and m and cols != nc:
        raise ValueError("cols disagrees with row length")
    for r in m:
        if len(r) != nc:
            raise ValueError("ragged rows")
    nz = [{j: a for j, a in enumerate(r) if a} for r in m]
    units = [r for r in nz if len(r) == 1 and abs(*r.values()) == 1]
    dropped: set[int] = set()
    for r in units:  # the list grows while it is read
        if len(r) == 1:  # not emptied by an earlier drop
            j, = r
            dropped.add(j)
            for s in nz:
                if s.pop(j, 0) and len(s) == 1 and abs(*s.values()) == 1:
                    units.append(s)
    keep = [j for j in range(nc) if j not in dropped]
    m = [[r.get(j, 0) for j in keep] for r in nz if r]
    diag = [1] * len(dropped)
    while True:
        # pivot on an entry of least absolute value, clear its row and
        # column; a remainder is a smaller entry, so the pivot moves
        entries = [(abs(a), i, j) for i, r in enumerate(m)
                   for j, a in enumerate(r) if a]
        if not entries:
            return diag + [0] * (nc - len(diag))
        _, i, j = min(entries)
        p, pivot_row = m[i][j], m[i]
        cleared = True
        for k, r in enumerate(m):
            if k != i and r[j]:
                q = r[j] // p
                m[k] = r = [a - q * b for a, b in zip(r, pivot_row)]
                cleared = cleared and not r[j]
        for c, a in enumerate(pivot_row):
            if c != j and a:
                q = a // p
                for r in m:
                    r[c] -= q * r[j]
                cleared = cleared and not pivot_row[c]
        if not cleared:
            continue
        # p must divide every remaining entry for the chain d1 | d2 | ...;
        # otherwise add a row with an entry a it does not divide to the
        # pivot row, and reduce a there by column j: a mod p is smaller
        bad = next((r for r in m if any(a % p for a in r)), None)
        if bad is not None:
            c = next(c for c, a in enumerate(bad) if a % p)
            m[i] = [a + b for a, b in zip(pivot_row, bad)]
            m[i][c] %= p
            continue
        diag.append(abs(p))
        del m[i]
        for r in m:
            del r[j]
