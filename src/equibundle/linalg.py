"""Dense exact linear algebra, generic over the entry type.

Matrices are immutable-by-convention lists of lists whose entries are CycNum
(a cyclotomic field) or RatFun (rational functions over it); RatMat keeps
its entries in this form and calls these loops.  identity_matrix and
zero_matrix build CycNum matrices; every other routine uses only ring
operations, is_zero, is_one, inv, the entry type's one/zero and its dot
product, so both entry types run the same code.  The entry type supplies
the dot product: mat_mul and mat_vec keep no product loop of their own,
each output entry is type(entry).dot(row, col), and the entry type sums
the terms with one normalisation.  Pivoting is deterministic (first nonzero
entry), so reduced forms and nullspace bases are reproducible.  rref is the
one Gauss-Jordan elimination in the package; mat_inv uses the closed-form
adjugate up to size 3 and rref of [A | I] above it.
"""

from __future__ import annotations

from .cyclotomic import CycNum
from .errors import DimensionMismatch, SingularMatrix

Matrix = list[list[CycNum]]


def identity_matrix(n: int, size: int) -> Matrix:
    one, zero = CycNum.one(n), CycNum.zero(n)
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def zero_matrix(n: int, rows: int, cols: int) -> Matrix:
    zero = CycNum.zero(n)
    return [[zero] * cols for _ in range(rows)]


def _zero_like(x):
    return type(x).zero(x.n)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    dot = type(a[0][0]).dot
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a: Matrix, v: list[CycNum]) -> list[CycNum]:
    dot = type(a[0][0]).dot
    return [dot(row, v) for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(a: Matrix, c: CycNum) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(r1 == r2 for r1, r2 in zip(a, b))


def mat_trace(a: Matrix) -> CycNum:
    acc = _zero_like(a[0][0])
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def mat_is_identity(a: Matrix) -> bool:
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if i == j:
                if not x.is_one():
                    return False
            elif not x.is_zero():
                return False
    return True


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_det_small(a: Matrix) -> CycNum:
    """Determinant of a square matrix of size 1 to 3, by cofactor expansion."""
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def mat_inv(a: Matrix) -> Matrix:
    """Inverse: adjugate over determinant up to size 3, else the right half of rref([A | I])."""
    size = len(a)
    if any(len(row) != size for row in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    if size <= 3:
        d = mat_det_small(a)
        if d.is_zero():
            raise SingularMatrix("matrix is singular")
        dinv = d.inv()
        if size == 1:
            return [[dinv]]
        if size == 2:
            return [[a[1][1] * dinv, -a[0][1] * dinv], [-a[1][0] * dinv, a[0][0] * dinv]]
        return [
            [
                (
                    a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
                    - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]
                )
                * dinv
                for i in range(3)
            ]
            for j in range(3)
        ]
    entry_type, n = type(a[0][0]), a[0][0].n
    one, zero = entry_type.one(n), entry_type.zero(n)
    aug = [list(row) + [one if i == j else zero for j in range(size)] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if pivots != list(range(size)):
        raise SingularMatrix("matrix is singular")
    return [row[size:] for row in reduced]


def kron(a: Matrix, b: Matrix) -> Matrix:
    br, bc = len(b), len(b[0])
    out = []
    for arow in a:
        for i in range(br):
            out_row = []
            for x in arow:
                if x.is_zero():
                    out_row.extend([x] * bc)
                else:
                    out_row.extend(x * y for y in b[i])
            out.append(out_row)
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot column list.

    Row operations touch only the pivot row's support (its nonzero columns):
    scaling a zero and subtracting a multiple of one change nothing, and the
    reduced form is unique, so the result is the dense elimination's.  Rows
    at or below the pivot row are zero left of the pivot column, so the
    support is collected from there.
    """
    if not a:
        return [], []
    rows = [list(r) for r in a]
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pinv = prow[col].inv()
        support = [j for j in range(col, ncols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * pinv
        for i, row in enumerate(rows):
            if i != r and not row[col].is_zero():
                f = row[col]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[list[CycNum]]:
    """Basis of the right kernel, deterministic order (free columns ascending)."""
    if not a:
        return []
    entry_type, n = type(a[0][0]), a[0][0].n
    ncols = len(a[0])
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    zero, one = entry_type.zero(n), entry_type.one(n)
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis
