from __future__ import annotations

import random

import pytest

from equibundle.cyclotomic import CycNum, euler_phi
from equibundle.linalg import mat_vec, nullspace, rref


def _sparse_matrix(rng: random.Random, n: int, nrows: int, ncols: int) -> list[list[CycNum]]:
    """A sparse random matrix with a zero row, a zero column, a repeated row and a
    row that combines two others, so it is rank-deficient."""
    phi = euler_phi(n)
    zero = CycNum.zero(n)
    density = rng.uniform(0.1, 0.3)

    def entry() -> CycNum:
        if rng.random() >= density:
            return zero
        return CycNum(n, [rng.randint(-4, 4) for _ in range(phi)], rng.randint(1, 6))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    rows[rng.randrange(nrows)] = [zero] * ncols
    dead = rng.randrange(ncols)
    for row in rows:
        row[dead] = zero
    i, j, k, m = rng.sample(range(nrows), 4)
    rows[j] = list(rows[i])
    f, g = entry(), CycNum(n, [rng.randint(-3, 3) for _ in range(phi)], rng.randint(2, 5))
    rows[m] = [f * x + g * y for x, y in zip(rows[i], rows[k])]
    return rows


@pytest.mark.parametrize("n", [3, 4, 12, 20])
def test_rref_matches_sympy(n):
    # Independent oracle for the sparse elimination: sympy's rref over
    # Q(exp(2 pi i / N)), whose generator satisfies the same Phi_N.
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sp.QQ.algebraic_field(sp.exp(2 * sp.pi * sp.I / n))
    gen = field.from_sympy(sp.exp(2 * sp.pi * sp.I / n))

    def to_field(c: CycNum):
        return sum(
            (field.convert(sp.Rational(x, c.den)) * gen**i for i, x in enumerate(c.num)),
            field.zero,
        )

    rng = random.Random(900 + n)
    for nrows, ncols in ((8, 10), (12, 9), (12, 16), (10, 10)):
        a = _sparse_matrix(rng, n, nrows, ncols)
        reduced, pivots = rref(a)
        ref, ref_pivots = DomainMatrix(
            [[to_field(x) for x in row] for row in a], (nrows, ncols), field
        ).rref()
        assert pivots == list(ref_pivots)
        assert [[to_field(x) for x in row] for row in reduced] == ref.to_list()
        basis = nullspace(a)
        assert len(basis) == ncols - len(pivots)
        for v in basis:
            assert all(x.is_zero() for x in mat_vec(a, v))


def test_rref_multiplies_no_zero(monkeypatch):
    # Row operations run over the pivot row's support only: no product in
    # the elimination has a zero factor.
    n = 12
    a = _sparse_matrix(random.Random(5), n, 10, 14)
    reduced, pivots = rref(a)
    products = []
    mul = CycNum.__mul__

    def counting_mul(x, y):
        products.append(x.is_zero() or y.is_zero())
        return mul(x, y)

    monkeypatch.setattr(CycNum, "__mul__", counting_mul)
    assert rref(a) == (reduced, pivots)
    assert products and not any(products)
