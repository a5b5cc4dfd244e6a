from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equibundle.cyclotomic import (
    CycNum,
    cyc_inv,
    cyclotomic_polynomial,
    euler_phi,
)
from equibundle.errors import DivisionByZero, MalformedInput, ModulusMismatch


def rand_cyc(rng: random.Random, n: int, bound: int = 100) -> CycNum:
    phi = euler_phi(n)
    num = [rng.randint(-bound, bound) for _ in range(phi)]
    den = rng.randint(1, bound)
    return CycNum(n, num, den)


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squared_is_minus_one():
    z4 = CycNum.zeta(4)
    assert z4 * z4 == CycNum.from_int(4, -1)


def test_one_plus_zeta3_times_conjugate_is_one():
    # Expand (1+z)(1+z^2) with z^2 = -1-z: product = 1 exactly.
    z = CycNum.zeta(3)
    one = CycNum.one(3)
    prod = (one + z) * (one + z * z)
    assert prod == one
    assert abs(prod.embed() - (1 + 0j)) <= 1e-12


def test_inverse_of_zeta8():
    z8 = CycNum.zeta(8)
    assert cyc_inv(z8) == CycNum.zeta(8, 7)
    assert z8 * cyc_inv(z8) == CycNum.one(8)


def test_inverse_exactness_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([3, 4, 5, 8, 12, 20])
        a = rand_cyc(rng, n, 30)
        if a.is_zero():
            continue
        assert a * a.inv() == CycNum.one(n)


def test_inverse_matches_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    rng = random.Random(11)
    for n in (3, 5, 8, 12, 20):
        phi = euler_phi(n)
        minpoly = sp.cyclotomic_poly(n, x)
        cases = [CycNum.from_fraction(n, Fraction(-7, 3)), CycNum.from_int(n, 5)]
        while len(cases) < 8:
            a = CycNum(n, [rng.randint(-40, 40) for _ in range(phi)], rng.randint(2, 40))
            if not a.is_rational():
                cases.append(a)
        for a in cases:
            f = sum(sp.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(a.coeffs()))
            ref = sp.Poly(sp.invert(f, minpoly, x), x, domain=sp.QQ).all_coeffs()[::-1]
            ref += [0] * (phi - len(ref))
            got = a.inv()
            assert [sp.Rational(c.numerator, c.denominator) for c in got.coeffs()] == ref, (n, a)
            assert a * got == CycNum.one(n)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        CycNum.zero(5).inv()


def test_modulus_mismatch_raises():
    with pytest.raises(ModulusMismatch):
        CycNum.one(3) + CycNum.one(4)


def test_bad_coefficient_length_raises():
    with pytest.raises(MalformedInput):
        CycNum(4, [1, 2, 3])


@st.composite
def cyc_numbers(draw, n: int = 12):
    phi = euler_phi(n)
    num = draw(st.lists(st.integers(-50, 50), min_size=phi, max_size=phi))
    den = draw(st.integers(1, 50))
    return CycNum(n, num, den)


@settings(max_examples=60, deadline=None)
@given(a=cyc_numbers(), b=cyc_numbers(), c=cyc_numbers())
def test_field_axioms(a: CycNum, b: CycNum, c: CycNum):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inv() == CycNum.one(a.n)


@settings(max_examples=60, deadline=None)
@given(a=cyc_numbers())
def test_conjugation_involution_and_norm(a: CycNum):
    assert a.conj().conj() == a
    norm = a * a.conj()
    value = norm.embed()
    assert abs(value.imag) <= 1e-10
    assert value.real >= -1e-10


def test_embed_is_ring_homomorphism_on_products():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.choice([8, 12, 20])
        factors = [rand_cyc(rng, n, 100) for _ in range(rng.randint(2, 8))]
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        float_product = 1 + 0j
        for f in factors:
            float_product *= f.embed()
        scale = max(1.0, abs(float_product))
        assert abs(product.embed() - float_product) / scale <= 1e-10


def test_promote_consistency():
    z3 = CycNum.zeta(3)
    z3_in_12 = z3.promote(12)
    assert z3_in_12 == CycNum.zeta(12, 4)
    assert abs(z3.embed() - z3_in_12.embed()) <= 1e-12
    with pytest.raises(ModulusMismatch):
        CycNum.zeta(5).promote(12)


def test_canonical_form_is_unique():
    # Same value assembled along different arithmetic routes compares equal.
    z = CycNum.zeta(8)
    a = (z + z) * CycNum(8, [1, 0, 0, 0], 2)
    assert a == z
    assert hash(a) == hash(z)


def test_serial_roundtrip_fields():
    a = CycNum(12, [1, -2, 3, -4], 6)
    assert a.coeffs() == (
        Fraction(1, 6),
        Fraction(-1, 3),
        Fraction(1, 2),
        Fraction(-2, 3),
    )
