"""Dense boundary wrappers that no library code calls any more, kept as
test references: `solve` for the solve-based extension of
test_extension_differential.py, `column_space_basis` and `quotient_basis`
for the greedy definitions of test_exactlinalg_sympy.py, `rref`, `rank`
and `kernel_basis` for the sympy comparisons and the rank-based
reference checks.  They are thin layers over the library's EchelonBasis
and complement.  `eliminated_inverse` is `inverse` as it was before
monomial matrices skipped elimination, the reference for that path.
`from_rows`, `from_cols` and `row_major` build a Matrix from dense rows,
dense columns or row-major entries, coercing each entry into the field."""
from typing import Iterable, Optional, Sequence

from lincat.exactlinalg import (EchelonBasis, FieldSpec, Matrix, complement,
                                dense)


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
    e = _echelon(m.field, _sparse_rows(m))
    pivots = sorted(e.rows)
    ent: list = []
    for p in pivots:
        ent.extend(dense(m.field, e.rows[p], m.cols))
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
    if n in e.rows:
        return None
    return dense(m.field, {p: row[n] for p, row in e.rows.items()
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
        e.add({**col, n + j: e.one})
    if any(i not in e.rows for i in range(n)):
        return None
    return Matrix(m.field, n, n,
                  tuple({j - n: a for j, a in e.rows[i].items() if j >= n}
                        for i in range(n)))
