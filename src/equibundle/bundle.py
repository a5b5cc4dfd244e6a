"""Vector bundles on P^1 as transition cocycles, and their exact invariants.

A bundle of rank r is an invertible r x r Laurent-polynomial matrix T(z)
relating the two chart trivializations by v0 = T(z) v1 (chart-0 coordinates
in terms of chart-1 coordinates).  With this orientation the degree-n line
bundle has transition z^n, a global section is a pair (s0, s1) of polynomial
vectors in z and w = 1/z with s0(z) = T(z) s1(1/z) on the overlap, and
isomorphism is T -> A T B with A unimodular over C[z] and B unimodular
over C[1/z].

The factorization produced here is T = U_plus * D * U_minus with U_plus
unimodular over C[z] (invertible at 0, indeed everywhere), D a diagonal of
monomials z^d sorted by nonincreasing degree, and U_minus unimodular over
C[1/z] (invertible at infinity).  The exponents of D are the splitting type.
The factorization is computed by the constructive splitting argument:
sections of maximal twist split off one line bundle at a time, with
left-Hermite compression keeping entry degrees bounded by the determinant
exponent throughout.  Sections are Poly vectors in w with their transition
products as RatFun vectors in z, so the twist ladder and the clearing of a
peeled row use the same Laurent arithmetic as RatMat.  The factors are built
from unimodular steps (xgcd 2 x 2 steps, Hermite row operations, corner
matrices [[1, row], [0, block]] and permutation matrices); U_plus^-1 is
written down beside U_plus, and U_minus^-1 is never formed, only applied to
the rows the recursion reads.  So no matrix is inverted by elimination and
no determinant is taken.
birkhoff_factor certifies the result exactly: the residual T = U_plus D
U_minus, U_plus U_plus^-1 = I with both over C[z], U_minus over C[1/z], and
the degrees summing to the exponent of det T.
"""

from __future__ import annotations

from typing import Optional

from .cyclotomic import CycNum
from .errors import (
    DimensionMismatch,
    MalformedInput,
    MathRejection,
    NotACocycle,
    SingularMatrix,
)
from .linalg import nullspace
from .ratfun import Poly, RatFun, RatMat, invert_variable, laurent_is_unit, poly_xgcd

__all__ = [
    "TransitionCocycle",
    "BirkhoffFactorization",
    "HNFiltration",
    "birkhoff_factor",
    "splitting_type",
    "h0_dimension",
    "h0_profile",
    "section_basis",
    "hn_filtration",
]


class TransitionCocycle:
    """An invertible Laurent transition matrix defining a bundle on P^1."""

    def __init__(self, rank: int, transition: RatMat):
        if rank < 1:
            raise MalformedInput("rank must be at least 1")
        if transition.rows != rank or transition.cols != rank:
            raise DimensionMismatch("transition matrix shape does not match rank")
        for row in transition.entries:
            for e in row:
                if not e.is_laurent():
                    raise NotACocycle("transition entries must be Laurent polynomials")
        det = transition.det()
        if det.is_zero():
            raise SingularMatrix("transition matrix is singular")
        unit = laurent_is_unit(det)
        if unit is None:
            raise NotACocycle(
                "transition determinant is not c * z^k, so the matrix is not "
                "invertible on the overlap"
            )
        self.rank = rank
        self.transition = transition
        self.n = transition.n
        self.det_const, self.degree = unit

    def twist(self, m: int) -> TransitionCocycle:
        """Tensor by the degree-m line bundle: multiply the transition by z^m."""
        zm = RatFun.monomial(CycNum.one(self.n), m)
        return TransitionCocycle(self.rank, self.transition.scale(zm))

    def __repr__(self) -> str:
        return f"TransitionCocycle(rank={self.rank}, degree={self.degree})"


class BirkhoffFactorization:
    """T = U_plus * D * U_minus with monomial diagonal D and sorted degrees.

    U_plus comes with its inverse.  residual_zero and in_rings carry the
    results of the checks that birkhoff_factor made (None until checked), so
    a report reads them instead of forming the product again.
    """

    def __init__(self, u_plus: RatMat, u_plus_inv: RatMat, degrees: tuple[int, ...], u_minus: RatMat):
        self.u_plus = u_plus
        self.u_plus_inv = u_plus_inv
        self.degrees = tuple(degrees)
        self.u_minus = u_minus
        self.n = u_plus.n
        self.residual_zero: Optional[bool] = None
        self.in_rings: Optional[bool] = None
        if any(degrees[i] < degrees[i + 1] for i in range(len(degrees) - 1)):
            raise MathRejection("factorization degrees are not sorted")

    def diagonal(self) -> RatMat:
        one = CycNum.one(self.n)
        return RatMat.diag([RatFun.monomial(one, d) for d in self.degrees])

    def product(self) -> RatMat:
        return self.u_plus * self.diagonal() * self.u_minus

    def residual_is_zero(self, cocycle: TransitionCocycle) -> bool:
        return self.product() == cocycle.transition

    def factors_in_rings(self, cocycle: TransitionCocycle) -> bool:
        """Exact unimodularity certificate, given an exact residual, without determinants.

        U_plus^(+-1) over C[z] with U_plus U_plus^-1 = I, U_minus over C[1/z]
        and sum(degrees) = deg det T make det U_minus a nonzero constant.
        """
        return (
            _in_ring(self.u_plus, 1) and _in_ring(self.u_plus_inv, 1) and _in_ring(self.u_minus, -1)
            and (self.u_plus * self.u_plus_inv).is_identity()
            and sum(self.degrees) == cocycle.degree
        )

    def __repr__(self) -> str:
        return f"BirkhoffFactorization(degrees={self.degrees})"


class HNFiltration:
    """Filtration steps read off the factorization: distinct slopes, bases."""

    def __init__(self, slopes: tuple[int, ...], multiplicities: tuple[int, ...], bases: tuple[RatMat, ...]):
        if len(slopes) != len(multiplicities) or len(slopes) != len(bases):
            raise DimensionMismatch("filtration data lengths disagree")
        if any(slopes[i] <= slopes[i + 1] for i in range(len(slopes) - 1)):
            raise MathRejection("slopes must strictly decrease")
        self.slopes = tuple(slopes)
        self.multiplicities = tuple(multiplicities)
        self.bases = tuple(bases)
        self.ranks = tuple(
            sum(multiplicities[: j + 1]) for j in range(len(multiplicities))
        )
        if any(self.ranks[i] >= self.ranks[i + 1] for i in range(len(self.ranks) - 1)):
            raise MathRejection("filtration ranks must strictly increase")

    def length(self) -> int:
        return len(self.slopes)

    def __repr__(self) -> str:
        return f"HNFiltration(slopes={self.slopes}, ranks={self.ranks})"


# ---------------------------------------------------------------------------
# Laurent coefficient utilities


def _laurent_data(f: RatFun) -> tuple[int, list[CycNum]]:
    if f.is_zero():
        return 0, []
    v, p = f.laurent_parts()
    return v, list(p.coeffs)


def _in_ring(m: RatMat, sign: int) -> bool:
    """Every entry lies in C[z^sign]: C[z] for sign 1, C[1/z] for sign -1."""
    return all(
        e.is_laurent() and min(sign * x for x in e.laurent_bounds()) >= 0
        for row in m.entries
        for e in row
    )


# ---------------------------------------------------------------------------
# Section spaces: exact linear solves and the one-step twist ladder


class _SectionSpace:
    """Basis of section pairs of E x O(m), each with its transition product.

    A section is determined by the chart-1 vector s1 of polynomials in w; the
    basis keeps each as (s1, P) with P = T s1(1/z) a vector of Laurent
    polynomials in z that has no exponent below -m, so s0 = z^m P.  Lowering
    m by one imposes r linear conditions (the coefficients of z^(-m) of P),
    which is how the ladder steps down; the new basis is formed by
    RatFun.dot over the old one.  k_det is the exponent of det T = c z^k_det,
    which the caller knows.
    """

    def __init__(self, cocycle_matrix: RatMat, m: int, k_det: int):
        self.T = cocycle_matrix
        self.r = cocycle_matrix.rows
        self.n = cocycle_matrix.n
        self.m = m
        self._entry_data = [
            [_laurent_data(e) for e in row] for row in cocycle_matrix.entries
        ]
        max_updeg = 0
        for row in self._entry_data:
            for v, coeffs in row:
                if coeffs:
                    max_updeg = max(max_updeg, -v)
        self.cap = m + k_det + (self.r - 1) * max_updeg
        self.basis: list[tuple[list[Poly], list[RatFun]]] = []
        if self.cap >= 0:
            self._base_solve()

    def _base_solve(self) -> None:
        r, cap, m = self.r, self.cap, self.m
        n = self.n
        cols = r * (cap + 1)  # unknown b[k][j], j = 0..cap
        zero = CycNum.zero(n)
        rows_by_exp: dict[tuple[int, int], list[CycNum]] = {}
        for i in range(r):
            for k in range(r):
                v, coeffs = self._entry_data[i][k]
                for ci, c in enumerate(coeffs):
                    if c.is_zero():
                        continue
                    e_base = v + ci
                    for j in range(cap + 1):
                        e = e_base - j
                        if e <= -m - 1:
                            key = (i, e)
                            row = rows_by_exp.get(key)
                            if row is None:
                                row = [zero] * cols
                                rows_by_exp[key] = row
                            col = k * (cap + 1) + j
                            row[col] = row[col] + c
        matrix = [rows_by_exp[key] for key in sorted(rows_by_exp)]
        if matrix:
            kernel = nullspace(matrix)
        else:
            kernel = [
                [CycNum.one(n) if t == s else zero for t in range(cols)]
                for s in range(cols)
            ]
        for vec in kernel:
            s1 = [Poly(n, vec[k * (cap + 1): (k + 1) * (cap + 1)]) for k in range(r)]
            s1_z = [_w_poly_to_ratfun(p) for p in s1]
            self.basis.append((s1, [RatFun.dot(row, s1_z) for row in self.T.entries]))

    def dim(self) -> int:
        return len(self.basis)

    def step_down(self) -> None:
        """Impose the r conditions taking sections of E x O(m) to E x O(m-1)."""
        self.m -= 1
        if not self.basis:
            return
        target = -self.m - 1  # new forbidden exponent after the decrement
        cond_rows = []
        for i in range(self.r):
            row = [prod[i].num.coeff(target + prod[i].den.degree()) for _, prod in self.basis]
            if any(not c.is_zero() for c in row):
                cond_rows.append(row)
        if not cond_rows:
            return
        s1s = [[RatFun.from_poly(p) for p in s1] for s1, _ in self.basis]
        prods = [prod for _, prod in self.basis]
        new_basis = []
        for combo in nullspace(cond_rows):
            cs = [RatFun.const(c) for c in combo]
            s1 = [RatFun.dot(cs, col).num for col in zip(*s1s)]
            new_basis.append((s1, [RatFun.dot(cs, col) for col in zip(*prods)]))
        self.basis = new_basis

    def section_pairs(self) -> list[tuple[list[Poly], list[Poly]]]:
        """Pairs (s0, s1) with s0 polynomial in z and s1 polynomial in w."""
        return [_section_pair(self.m, s1, prod) for s1, prod in self.basis]


def _section_pair(m: int, s1: list[Poly], prod: list[RatFun]) -> tuple[list[Poly], list[Poly]]:
    """The pair (s0, s1) of a basis section of E x O(m): s0 = z^m P."""
    z_m = RatFun.monomial(CycNum.one(s1[0].n), m)
    s0 = [f * z_m for f in prod]
    if not all(f.is_polynomial() for f in s0):
        raise MathRejection("section product has a forbidden pole")
    return [f.num for f in s0], s1


# ---------------------------------------------------------------------------
# Left Hermite compression


def _left_hermite(mat: list[list[Poly]]) -> tuple[RatMat, RatMat, list[list[Poly]]]:
    """Row-reduce a polynomial matrix to upper-triangular Hermite form.

    Returns (L, L^-1, H) with mat = L * H, L unimodular over C[z].  When the
    determinant is a monomial the pivots come out as monic monomials and all
    off-diagonal entries are reduced below the pivot degree, which bounds
    every entry degree by the determinant exponent.  The reduction runs on
    [mat | I], so the right half ends as L^-1.
    """
    n = mat[0][0].n
    size = len(mat)
    zero, one = Poly.zero(n), Poly.one(n)
    h = [list(row) + [one if i == j else zero for j in range(size)] for i, row in enumerate(mat)]
    # mat = L * h throughout: each row operation on h is undone on L's columns.
    l_rows = [[one if i == j else zero for j in range(size)] for i in range(size)]

    def row_axpy(dst: int, src: int, q: Poly) -> None:
        # h[dst] -= q * h[src]; L[:, src] += L[:, dst] * q.  Half of [mat | I]
        # starts at zero, so zero entries of h[src] are skipped.
        neg_q = -q
        h[dst] = [a if b.is_zero() else a + neg_q * b for a, b in zip(h[dst], h[src])]
        for row in l_rows:
            row[src] = row[src] + row[dst] * q

    def row_swap(i: int, j: int) -> None:
        h[i], h[j] = h[j], h[i]
        for row in l_rows:
            row[i], row[j] = row[j], row[i]

    def row_scale(i: int, c: CycNum) -> None:
        # h[i] *= 1/c; L[:, i] *= c
        c_inv = c.inv()
        h[i] = [a.scale(c_inv) for a in h[i]]
        for row in l_rows:
            row[i] = row[i].scale(c)

    for col in range(size):
        while True:
            live = [i for i in range(col, size) if not h[i][col].is_zero()]
            if not live:
                raise SingularMatrix("matrix dropped rank during reduction")
            if len(live) == 1:
                if live[0] != col:
                    row_swap(col, live[0])
                break
            live.sort(key=lambda i: h[i][col].degree())
            lo, hi = live[0], live[1]
            q = h[hi][col].divmod(h[lo][col])[0]
            row_axpy(hi, lo, q)
        pivot = h[col][col]
        if not pivot.lead().is_one():
            row_scale(col, pivot.lead())
            pivot = h[col][col]
        for i in range(col):
            if h[i][col].degree() >= pivot.degree():
                q = h[i][col] // pivot
                row_axpy(i, col, q)
    l_inv = _poly_matrix_to_ratmat([row[size:] for row in h])
    return _poly_matrix_to_ratmat(l_rows), l_inv, [row[:size] for row in h]


def _compressed(T: RatMat) -> tuple[RatMat, RatMat, RatMat, int]:
    """Return (T_h, L, L^-1, shift) with T = z^shift * L * T_h, T_h compressed poly.

    Strips the scalar valuation, then compresses by left Hermite reduction.
    """
    n = T.n
    shift = min(
        e.laurent_bounds()[0] for row in T.entries for e in row if not e.is_zero()
    )
    z_neg = RatFun.monomial(CycNum.one(n), -shift)
    poly_rows = [[(e * z_neg).as_poly() for e in row] for row in T.entries]
    l_h, l_h_inv, h_rows = _left_hermite(poly_rows)
    return _poly_matrix_to_ratmat(h_rows), l_h, l_h_inv, shift


# ---------------------------------------------------------------------------
# Unimodular completion of a coprime polynomial column


def _completion_from_column(column: list[Poly]) -> tuple[list[list[Poly]], list[list[Poly]]]:
    """(U, U^-1) with U unimodular and U * column = e1; the entries' gcd must be a unit.

    U is a product of 2 x 2 steps of determinant 1 and a final scaling of
    row 0; U^-1 applies each step's inverse to its columns.
    """
    n = column[0].n
    size = len(column)
    zero, one = Poly.zero(n), Poly.one(n)
    u = [[one if i == j else zero for j in range(size)] for i in range(size)]
    u_inv = [list(row) for row in u]
    cur = list(column)

    def apply_2x2(i: int, j: int, a11: Poly, a12: Poly, a21: Poly, a22: Poly) -> None:
        # rows i, j <- (a11 ri + a12 rj, a21 ri + a22 rj); determinant 1, so the
        # inverse step is [[a22, -a12], [-a21, a11]], applied to U^-1's columns
        ui, uj = u[i], u[j]
        u[i] = [a11 * x + a12 * y for x, y in zip(ui, uj)]
        u[j] = [a21 * x + a22 * y for x, y in zip(ui, uj)]
        for row in u_inv:
            x, y = row[i], row[j]
            row[i] = a22 * x - a21 * y
            row[j] = a11 * y - a12 * x
        ci, cj = cur[i], cur[j]
        cur[i] = a11 * ci + a12 * cj
        cur[j] = a21 * ci + a22 * cj

    for i in range(1, size):
        if cur[i].is_zero():
            continue
        a, b = cur[0], cur[i]
        g, x, y = poly_xgcd(a, b)
        apply_2x2(0, i, x, y, -(b.divexact(g)), a.divexact(g))
    if cur[0].is_zero() or cur[0].degree() != 0:
        raise MathRejection("column entries are not coprime; no unimodular completion")
    c = cur[0].coeff(0)
    c_inv = c.inv()
    u[0] = [p.scale(c_inv) for p in u[0]]
    for row in u_inv:
        row[0] = row[0].scale(c)
    return u, u_inv


def _poly_matrix_to_ratmat(rows: list[list[Poly]]) -> RatMat:
    return RatMat([[RatFun.from_poly(p) for p in row] for row in rows])


def _w_poly_to_ratfun(p: Poly) -> RatFun:
    """Interpret a polynomial in w as a Laurent polynomial in z."""
    return invert_variable(RatFun.from_poly(p))


def _w_matrix_to_ratmat(rows: list[list[Poly]]) -> RatMat:
    return RatMat([[_w_poly_to_ratfun(p) for p in row] for row in rows])


# ---------------------------------------------------------------------------
# The factorization engine


def _max_degree_section(T_h: RatMat, k_det: int) -> tuple[int, list[Poly], list[Poly]]:
    """Largest d with a section of E(-d), plus one such section pair."""
    r = T_h.rows
    d0 = -(-k_det // r)  # ceil(k/r): the mean degree, where a section must exist
    space = _SectionSpace(T_h, -d0, k_det)
    if space.dim() == 0:
        raise MathRejection("no section at the mean degree; determinant data broken")
    for _ in range(10 * (k_det + r + 2) + 1):
        # The last nonempty rung's first section is the one returned.
        m, (s1, prod) = space.m, space.basis[0]
        space.step_down()
        if space.dim() == 0:
            return -m, *_section_pair(m, s1, prod)
    raise MathRejection("degree search failed to terminate")


def _sorting_permutation(exps: list[int]) -> list[int]:
    """Stable order: degrees descending, ties by original position."""
    return sorted(range(len(exps)), key=lambda i: (-exps[i], i))


def _birkhoff_core(
    T: RatMat, k_det: int, rows: list[list[RatFun]]
) -> tuple[RatMat, RatMat, list[int], RatMat, list[list[RatFun]]]:
    """Recursive engine: T = L * diag(z^degrees) * R, degrees nonincreasing.

    Returns (L, L^-1, degrees, R, [x R^-1 for x in rows]).  A peel wraps the
    sub-call's factors in corner matrices [[1, row], [0, block]]; R^-1 is
    never formed, only applied to rows, and a peel passes its first row down
    to clear it.  Rank 1 compresses to [[1]], a monomial case.
    det T = c z^k_det; the callers know k_det.
    """
    n = T.n
    r = T.rows
    h_mat, l_h, l_h_inv, shift = _compressed(T)
    k_h = k_det - r * shift
    if all(
        h_mat[i, j].is_zero() or (i == j and h_mat[i, j].num.is_monomial())
        for i in range(r)
        for j in range(r)
    ):
        exps = [h_mat[i, i].num.degree() + shift for i in range(r)]
        perm = _sorting_permutation(exps)
        zero, one = RatFun.zero(n), RatFun.one(n)
        p_right = RatMat([[one if perm[j] == i else zero for j in range(r)] for i in range(r)])
        # H = P * D_sorted * P^-1, and the permutation P has inverse P^T.
        p_left = RatMat(zip(*p_right.entries))
        degrees = [exps[perm[j]] for j in range(r)]
        return l_h * p_right, p_left * l_h_inv, degrees, p_left, [[x[i] for i in perm] for x in rows]
    # Peel off a line subbundle of maximal degree.
    d1, s0, s1 = _max_degree_section(h_mat, k_h)
    if all(p.is_zero() for p in s0) or all(p.is_zero() for p in s1):
        raise MathRejection("degenerate maximal section")
    u_mat, u_inv = (_poly_matrix_to_ratmat(half) for half in _completion_from_column(s0))
    v_mat, v_inv = (_w_matrix_to_ratmat(half) for half in _completion_from_column(s1))
    z_d1 = RatFun.monomial(CycNum.one(n), -d1)
    m_mat = u_mat * h_mat.scale(z_d1) * v_inv
    # First column must be e1 by construction.
    if [row[0] for row in m_mat.entries] != [RatFun.one(n)] + [RatFun.zero(n)] * (r - 1):
        raise MathRejection("peeled column is not normalized")
    sub = m_mat.submatrix(range(1, r), range(1, r))
    # x R^-1 = y corner(-right, r2^-1) with y = x V^-1: the sub-call maps
    # m_mat's first row, which is cleared below, and the tails of the y.
    ys = [_row_mul(x, v_inv) for x in rows]
    # U and V have constant determinants, so det m_mat = c z^(k_h - r d1), and
    # its first column is e1, so sub has the same determinant.
    sub_rows = [list(m_mat.entries[0][1:])] + [y[1:] for y in ys]
    l2, l2_inv, degs2, r2, (m_prime, *tails) = _birkhoff_core(sub, k_h - r * d1, sub_rows)
    if any(e > 0 for e in degs2):
        raise MathRejection("subbundle degree exceeds the peeled degree")
    # Clear the remaining row against the corner 1 and the pivots z^e: the
    # exponents >= 1 of entry idx go to the left, z^-e_deg times, and the
    # rest to the right, so m_prime = left * D2 + right and
    # m_mat = corner(left, l2) diag(1, D2) corner(right r2, r2);
    # birkhoff_factor's residual checks it.
    left = [RatFun.zero(n)] * (r - 1)
    right = list(left)
    for idx, e_deg in enumerate(degs2):
        v, coeffs = _laurent_data(m_prime[idx])
        cut = max(1 - v, 0)  # index of exponent 1
        pos, neg = coeffs[cut:], coeffs[:cut]
        if pos:
            left[idx] = RatFun.from_poly(Poly(n, pos).shift(v + cut - e_deg))
        if neg:
            right[idx] = RatFun.from_laurent(n, v, neg)
    # T = z^shift L_h H ; H z^{-d1} = U^{-1} m_mat V, and corner(a, B) has
    # inverse corner(-a B^-1, B^-1).
    l_total = l_h * u_inv * _corner(left, l2)
    l_total_inv = _corner([-f for f in _row_mul(left, l2_inv)], l2_inv) * u_mat * l_h_inv
    r_total = _corner(_row_mul(right, r2), r2) * v_mat
    rows_out = [[y[0]] + [t - y[0] * f for f, t in zip(right, tail)] for y, tail in zip(ys, tails)]
    degrees = [d + d1 + shift for d in [0] + list(degs2)]
    return l_total, l_total_inv, degrees, r_total, rows_out


def _corner(row: list[RatFun], block: RatMat) -> RatMat:
    """[[1, row], [0, block]]: block_diag(1, block) times the unit row [1, row]."""
    one, zero = RatFun.one(block.n), RatFun.zero(block.n)
    return RatMat._raw(block.n, [[one, *row]] + [[zero, *r] for r in block.entries])


def _row_mul(row: list[RatFun], m: RatMat) -> list[RatFun]:
    """The row vector row * m."""
    return [RatFun.dot(row, col) for col in zip(*m.entries)]


def birkhoff_factor(cocycle: TransitionCocycle) -> BirkhoffFactorization:
    """Exact factorization T = U_plus * diag(z^d) * U_minus, degrees sorted."""
    *factors, _ = _birkhoff_core(cocycle.transition, cocycle.degree, [])
    fact = BirkhoffFactorization(*factors)
    fact.residual_zero = fact.residual_is_zero(cocycle)
    if not fact.residual_zero:
        raise MathRejection("factorization residual is nonzero")
    fact.in_rings = fact.factors_in_rings(cocycle)
    if not fact.in_rings:
        raise MathRejection("factorization factors left their rings")
    return fact


def splitting_type(cocycle: TransitionCocycle) -> tuple[int, ...]:
    return birkhoff_factor(cocycle).degrees


def hn_filtration(cocycle: TransitionCocycle, factorization: Optional[BirkhoffFactorization] = None) -> HNFiltration:
    """Filtration by descending splitting degree, with chart-0 frame bases."""
    fact = factorization if factorization is not None else birkhoff_factor(cocycle)
    slopes: list[int] = []
    mults: list[int] = []
    for d in fact.degrees:
        if slopes and slopes[-1] == d:
            mults[-1] += 1
        else:
            slopes.append(d)
            mults.append(1)
    bases = []
    total = 0
    for m in mults:
        total += m
        bases.append(fact.u_plus.submatrix(range(cocycle.rank), range(total)))
    return HNFiltration(tuple(slopes), tuple(mults), tuple(bases))


# ---------------------------------------------------------------------------
# Global sections


def h0_dimension(cocycle: TransitionCocycle, m: int = 0) -> int:
    """dim H^0 of E x O(m), by direct exact linear solve."""
    t_h, _, _, shift = _compressed(cocycle.transition)
    space = _SectionSpace(t_h, m + shift, cocycle.degree - cocycle.rank * shift)
    return space.dim()


def h0_profile(cocycle: TransitionCocycle, m_lo: int, m_hi: int) -> dict[int, int]:
    """dim H^0(E x O(m)) for every m in [m_lo, m_hi], via the twist ladder."""
    if m_lo > m_hi:
        raise MalformedInput("empty twist range")
    t_h, _, _, shift = _compressed(cocycle.transition)
    space = _SectionSpace(t_h, m_hi + shift, cocycle.degree - cocycle.rank * shift)
    out = {m_hi: space.dim()}
    for m in range(m_hi - 1, m_lo - 1, -1):
        space.step_down()
        out[m] = space.dim()
    return out


def section_basis(cocycle: TransitionCocycle, m: int = 0) -> list[tuple[list[Poly], list[Poly]]]:
    """Basis of sections of E x O(m) as pairs (s0 in z, s1 in w).

    The pairs satisfy s0(z) = T(z) z^m s1(1/z) exactly, in the original
    trivialization of the cocycle.
    """
    t_h, l_h, _, shift = _compressed(cocycle.transition)
    space = _SectionSpace(t_h, m + shift, cocycle.degree - cocycle.rank * shift)
    pairs = space.section_pairs()
    out = []
    for s0_h, s1 in pairs:
        s0_vec = l_h.mul_vector([RatFun.from_poly(p) for p in s0_h])
        s0 = [f.as_poly() for f in s0_vec]
        out.append((s0, s1))
    return out
