"""Dense boundary wrappers that no library code calls any more, kept as
test references: `solve` for the solve-based extension of
test_extension_differential.py, `column_space_basis` and `quotient_basis`
for the greedy definitions of test_exactlinalg_sympy.py, `rref`, `rank`
and `kernel_basis` for the sympy comparisons and the rank-based
reference checks.  They are thin layers over the library's EchelonBasis
and over `complement`, a greedy complement of a span with the projection
that kills it, which the elimination references of present use too.
`eliminated_inverse` is `inverse` as it was before
monomial matrices skipped elimination, the reference for that path.
`from_rows`, `from_cols` and `row_major` build a Matrix from dense rows,
dense columns or row-major entries, coercing each entry into the field;
`entries` reads a Matrix back as its row-major entries.  `matrix_add`,
`matrix_neg`, `matrix_sub` and `apply_dense` (a Matrix times a dense
vector) are Matrix operations that only the tests use.
`ReferenceEchelonBasis` is EchelonBasis as it was before rational rows
became primitive integer vectors: every stored row is the canonical row
itself, in int or Fraction values over Q, and `rows` is that dict.
`typed` pairs each value of a nested result with its type, so that an
int and an equal Fraction no longer compare equal."""
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from lincat.exactlinalg import EchelonBasis, FieldSpec, Matrix, dense


def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> Matrix:
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return from_cols(field, list(zip(*rows)), len(rows))


def from_cols(field: FieldSpec, cols: Sequence[Sequence],
              nrows: Optional[int] = None) -> Matrix:
    r = len(cols[0]) if cols else (nrows or 0)
    columns = []
    for col in cols:
        if len(col) != r:
            raise ValueError("ragged columns")
        columns.append({i: a for i, v in enumerate(col)
                        if (a := field.scalar(v))})
    return Matrix(field, r, len(cols), tuple(columns))


def row_major(field: FieldSpec, rows: int, cols: int,
              entries: Sequence) -> Matrix:
    """The rows x cols matrix with these row-major entries; zero rows keep
    their column count, which from_rows cannot read off."""
    if not rows:
        return Matrix.zeros(field, 0, cols)
    return from_rows(field, [entries[i * cols:(i + 1) * cols]
                             for i in range(rows)])


def entries(m: Matrix) -> tuple:
    """The entries of m in row-major order."""
    return tuple(a for i in range(m.rows) for a in m.row(i))


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    # column j of the sum is [a | b] applied to e_j + e_(cols+j)
    both, n = a.hstack(b), a.cols
    return Matrix(a.field, a.rows, n,
                  tuple(both({j: 1, n + j: 1}) for j in range(n)))


def matrix_neg(a: Matrix) -> Matrix:
    return Matrix(a.field, a.rows, a.cols,
                  tuple(a({j: -1}) for j in range(a.cols)))


def matrix_sub(a: Matrix, b: Matrix) -> Matrix:
    return matrix_add(a, matrix_neg(b))


def apply_dense(m: Matrix, vec: Sequence) -> list:
    """m times a dense column vector."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return dense(m.field, m({j: a for j, a in enumerate(vec) if a}), m.rows)


def _echelon(field: FieldSpec, rows: Iterable[dict]) -> EchelonBasis:
    e = EchelonBasis(field.characteristic)
    for r in rows:
        e.add(r)
    return e


def _sparse_rows(m: Matrix) -> list[dict]:
    return [{j: a for j, a in enumerate(m.row(i)) if a}
            for i in range(m.rows)]


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form.

    Pivots are the leftmost columns the rows reach (the form is unique).
    Returns (rref matrix, pivot column indices, rank).
    """
    rows = _echelon(m.field, _sparse_rows(m)).rows()
    pivots = list(rows)
    ent: list = []
    for row in rows.values():
        ent.extend(dense(m.field, row, m.cols))
    ent.extend([m.field.zero()] * ((m.rows - len(pivots)) * m.cols))
    return row_major(m.field, m.rows, m.cols, ent), pivots, len(pivots)


def rank(m: Matrix) -> int:
    return len(_echelon(m.field, _sparse_rows(m)))


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the null space, one column vector per free column of rref."""
    e = _echelon(m.field, _sparse_rows(m))
    return [dense(m.field, v, m.cols) for v in e.kernel(m.cols)]


def _sparse(field: FieldSpec, vec: Sequence) -> dict:
    return {j: a for j, a in enumerate(map(field.scalar, vec)) if a}


def solve(m: Matrix, rhs: Sequence) -> Optional[list]:
    """One solution of m x = rhs, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    n = m.cols
    e = EchelonBasis(m.field.characteristic)
    for i, s in enumerate(map(m.field.scalar, rhs)):
        row = {j: a for j, a in enumerate(m.row(i)) if a}
        if s:
            row[n] = s
        e.add(row)
    rows = e.rows()
    if n in rows:
        return None
    return dense(m.field, {p: row[n] for p, row in rows.items()
                           if n in row}, n)


def column_space_basis(field: FieldSpec, vectors: Iterable[Sequence],
                       dim: int) -> list[list]:
    """Greedy independent subset of `vectors` (ambient dimension `dim`),
    keeping the earliest vectors that raise the rank."""
    e = EchelonBasis(field.characteristic)
    kept: list[list] = []
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector dimension mismatch")
        if e.add(_sparse(field, v)):
            kept.append(list(v))
    return kept


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
    rows = e.rows()
    chosen = [j for j in order if label[j] not in rows]
    if len(chosen) + len(e) != dim:
        raise ValueError("preferred order does not complete a basis")
    at = {label[j]: i for i, j in enumerate(chosen)}
    images = []
    for j in range(dim):
        k = label[j]
        if k in at:
            images.append({at[k]: 1})
        else:
            images.append({at[c]: a for c, a in e.tail(k).items()})
    return chosen, images


def quotient_basis(field: FieldSpec, ambient_dim: int,
                   subspace: Sequence[Sequence],
                   preferred: Optional[Sequence[int]] = None
                   ) -> tuple[list[list], Matrix]:
    """Complement representatives and projection for ambient / span(subspace).

    Representatives are standard basis vectors, chosen greedily in
    `preferred` order (default 0, 1, ...).  The returned projection maps an
    ambient column to its coordinates over the representatives and kills
    the subspace: project @ [representatives] = identity, project @ s = 0
    for s in the subspace.
    """
    rows = []
    for v in subspace:
        if len(v) != ambient_dim:
            raise ValueError("vector dimension mismatch")
        rows.append(_sparse(field, v))
    order = preferred if preferred is not None else range(ambient_dim)
    chosen, images = complement(field.characteristic, ambient_dim, rows,
                                order)
    one = field.one()
    reps = [dense(field, {j: one}, ambient_dim) for j in chosen]
    return reps, Matrix(field, len(chosen), ambient_dim, tuple(images))


def eliminated_inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix by elimination, or None if it is
    not square or is singular: [A | 1] reduces to [1 | A⁻¹], A being the
    transpose of m."""
    n = m.cols
    if m.rows != n:
        return None
    e = EchelonBasis(m.field.characteristic)
    for j, col in enumerate(m.columns):
        e.add({**col, n + j: 1})
    rows = e.rows()
    if any(i not in rows for i in range(n)):
        return None
    return Matrix(m.field, n, n,
                  tuple({j - n: a for j, a in rows[i].items() if j >= n}
                        for i in range(n)))


def typed(x):
    """x with every scalar paired with its type, through dicts, lists
    and tuples."""
    if isinstance(x, dict):
        return {k: typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [typed(v) for v in x]
    return type(x).__name__, x


def _q(a):
    return a.numerator if a.denominator == 1 else a


def _reference_field_ops(p: int):
    if p:
        def normalize(vec):
            return {c: a % p for c, a in vec.items() if a % p}

        def axpy(v, f, row):
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


class ReferenceEchelonBasis:
    """Reduced row echelon basis with each row stored as its canonical
    row: smallest column the pivot, value 1 there, 0 at every other
    row's pivot."""

    def __init__(self, characteristic: int):
        self.rows: dict[int, dict] = {}
        (self.normalize, self._axpy, self._scale, self._inverse,
         self.one) = _reference_field_ops(characteristic)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The remainder of `vec` modulo the span, as a new dict."""
        v = self.normalize(vec)
        rows = self.rows
        for c in [c for c in v if c in rows]:
            f = v.get(c)
            if f:
                self._axpy(v, f, rows[c])
        return v

    def add(self, vec: dict) -> bool:
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

    def tail(self, pivot: int) -> dict:
        row = self._scale(self.rows[pivot], -self.one)
        del row[pivot]
        return row

    def kernel(self, ncols: int) -> list[dict]:
        free = {j: {j: self.one} for j in range(ncols) if j not in self.rows}
        for pivot in self.rows:
            for j, a in self.tail(pivot).items():
                free[j][pivot] = a
        return list(free.values())
