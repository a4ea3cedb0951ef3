"""Exact linear algebra over Q and F_p.

Everything downstream (star isomorphism tests, quotient bases, Leibniz
kernels) reduces to solving linear systems here.  All arithmetic is exact:
over Q a value is an int when it is integral and a
:class:`fractions.Fraction` only when it is not; over F_p it is a residue
in [0, p).  No floating point anywhere.

Every linear map the library handles (functor blocks, the inverses of
star blocks, the change of basis of a grading, derivations) is one type,
Matrix, kept as sparse columns; products, sums and inverses work on
those columns directly.  Elimination works on sparse rows in
EchelonBasis.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def _q(a):
    """The canonical rational: an integral Fraction demoted to its int."""
    return a.numerator if a.denominator == 1 else a


def _reciprocal(p: int, a):
    """1/a for a nonzero field element a of characteristic p."""
    if a == 1:
        return 1
    return pow(a, -1, p) if p else _q(Fraction(1) / a)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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
    image; `entries`, `row`, `col` and `apply` are dense views."""

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

    @property
    def entries(self) -> tuple:
        """The entries in row-major order."""
        return tuple(a for i in range(self.rows) for a in self.row(i))

    def entry(self, i: int, j: int):
        return self.columns[j].get(i, 0)

    def row(self, i: int) -> tuple:
        return tuple(col.get(i, 0) for col in self.columns)

    def col(self, j: int) -> tuple:
        return tuple(dense(self.field, self.columns[j], self.rows))

    def __call__(self, vec: dict) -> dict:
        """The image of a sparse vector {column: value}, as a sparse
        vector of canonical values."""
        out: dict = {}
        for k, a in vec.items():
            for i, v in self.columns[k].items():
                w = a * v
                out[i] = out[i] + w if i in out else w
        red = self.field.reduce
        return {i: r for i, w in out.items() if (r := red(w))}

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        # column j of the sum is [self | other] applied to e_j + e_(cols+j)
        both, n = self.hstack(other), self.cols
        return Matrix(self.field, self.rows, n,
                      tuple(both({j: 1, n + j: 1}) for j in range(n)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(self({j: -1}) for j in range(self.cols)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

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

    def apply(self, vec: Sequence) -> list:
        """Matrix times a dense column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return dense(self.field, self({j: a for j, a in enumerate(vec) if a}),
                     self.rows)


# -- elimination on raw values ---------------------------------------------
#
# Sparse rows are dicts {column: raw value}: field elements as FieldSpec
# describes them, reduced on entry into an EchelonBasis.


def _field_ops(p: int):
    """Raw-value operations of characteristic p, chosen once per basis:
    (normalize, axpy, scale, inverse, one)."""
    if p:
        def normalize(vec):
            return {c: a % p for c, a in vec.items() if a % p}

        def axpy(v, f, row):
            # v -= f * row in place; f and row's values are nonzero mod p,
            # so a zero result means the column was present in v
            for c, a in row.items():
                w = (v.get(c, 0) - f * a) % p
                if w:
                    v[c] = w
                else:
                    del v[c]

        def scale(row, s):
            return {c: a * s % p for c, a in row.items()}

        def inverse(a):
            return pow(a, -1, p)

        return normalize, axpy, scale, inverse, 1

    def normalize(vec):
        return {c: _q(a) for c, a in vec.items() if a}

    def axpy(v, f, row):
        for c, a in row.items():
            w = v.get(c, 0) - f * a
            if w:
                v[c] = _q(w)
            else:
                del v[c]

    def scale(row, s):
        return {c: _q(a * s) for c, a in row.items()}

    def inverse(a):
        return _q(Fraction(1) / a)

    return normalize, axpy, scale, inverse, 1


class EchelonBasis:
    """Reduced row echelon basis of a growing subspace of k^n.

    Vectors are sparse rows {column: raw value}; values may be any ints
    (or Fractions over Q) and are reduced on entry.  Every stored row has
    its smallest column as its pivot, value 1 there, and 0 at every other
    row's pivot, so the rows sorted by pivot are the reduced row echelon
    form of the span.  Adding a vector reduces it against the rows whose
    pivots it touches, O(rank * n), and keeps a nonzero remainder.
    """

    def __init__(self, characteristic: int):
        self.rows: dict[int, dict] = {}
        (self.normalize, self._axpy, self._scale, self._inverse,
         self.one) = _field_ops(characteristic)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The remainder of `vec` modulo the span, as a new dict."""
        v = self.normalize(vec)
        rows = self.rows
        # a pivot row is zero at every other pivot, so subtracting it adds
        # no pivot column to v that the list below misses
        for c in [c for c in v if c in rows]:
            f = v.get(c)
            if f:
                self._axpy(v, f, rows[c])
        return v

    def add(self, vec: dict) -> bool:
        """Insert `vec`; True iff it was outside the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        v = self._scale(v, self._inverse(v[pivot]))
        for row in self.rows.values():
            f = row.get(pivot)
            if f:
                self._axpy(row, f, v)
        self.rows[pivot] = v
        return True

    def __contains__(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def tail(self, pivot: int) -> dict:
        """Minus the pivot row off its pivot: e_pivot is congruent to this
        modulo the span, and its columns are free columns."""
        row = self._scale(self.rows[pivot], -self.one)
        del row[pivot]
        return row

    def kernel(self, ncols: int) -> list[dict]:
        """Null space basis of the stored rows, one vector per free
        column in increasing order: 1 there, the pivot rows' tails at
        the pivots."""
        free = {j: {j: self.one} for j in range(ncols) if j not in self.rows}
        for pivot in self.rows:
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

    A matrix with at most one nonzero entry per column (a monomial one,
    0×0 included, or a singular one) is inverted without elimination:
    it is invertible iff its columns hit n distinct rows, and column j
    = a·e_i makes column i of the inverse (1/a)·e_j.  Otherwise column j
    of m is row j of its transpose A, so [A | 1] reduces to [1 | A⁻¹],
    and row i of A⁻¹ is column i of the inverse."""
    n = m.cols
    if m.rows != n:
        return None
    if all(len(col) <= 1 for col in m.columns):
        at = {i: (j, a) for j, col in enumerate(m.columns)
              for i, a in col.items()}
        if len(at) < n:
            return None
        p = m.field.characteristic
        return Matrix(m.field, n, n, tuple(
            {j: _reciprocal(p, a)} for j, a in (at[i] for i in range(n))))
    e = EchelonBasis(m.field.characteristic)
    for j, col in enumerate(m.columns):
        e.add({**col, n + j: e.one})
    if any(i not in e.rows for i in range(n)):
        return None
    return Matrix(m.field, n, n,
                  tuple({j - n: a for j, a in e.rows[i].items() if j >= n}
                        for i in range(n)))


def complement(characteristic: int, dim: int, subspace: Iterable[dict],
               preferred: Sequence[int]) -> tuple[list[int], list[dict]]:
    """Greedy unit-vector complement of span(subspace) in k^dim, on raw
    sparse rows.

    Returns the chosen coordinates R, in `preferred` order, and the
    projection k^dim -> k^R that kills the subspace, as the image of each
    unit vector (a sparse row over positions in R).  The units are those
    a greedy pass in `preferred` order would keep; they are the free
    columns of the subspace's rref taken with the columns outside
    `preferred` first and `preferred` reversed (the complement of a greedy
    basis of a matroid is a greedy basis of its dual, in reverse order).
    The pivot row of a non-chosen column j says e_j + sum c_r e_r lies in
    the subspace, so e_j projects to -c.
    """
    order = list(dict.fromkeys(preferred))
    taken = set(order)
    elim = [j for j in range(dim) if j not in taken] + order[::-1]
    label = {j: k for k, j in enumerate(elim)}
    e = EchelonBasis(characteristic)
    for v in subspace:
        e.add({label[j]: a for j, a in v.items()})
    chosen = [j for j in order if label[j] not in e.rows]
    if len(chosen) + len(e) != dim:
        raise ValueError("preferred order does not complete a basis")
    at = {label[j]: i for i, j in enumerate(chosen)}
    images = []
    for j in range(dim):
        k = label[j]
        if k in at:
            images.append({at[k]: e.one})
        else:
            images.append({at[c]: a for c, a in e.tail(k).items()})
    return chosen, images


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
