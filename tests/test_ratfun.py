from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from equibundle import ratfun
from equibundle.cyclotomic import CycNum
from equibundle.errors import DivisionByZero, MalformedInput, ModulusMismatch, SingularMatrix
from equibundle.linalg import mat_inv
from equibundle.matgroup import SL2Elem, catalog
from equibundle.moebius import MoebiusMap
from equibundle.ratfun import (
    Poly,
    RatFun,
    RatMat,
    laurent_is_unit,
    poly_gcd,
    ratmat_compose,
    ratmat_det,
    ratmat_inv,
)

N = 12


class Mob:
    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d


def cyc(v: int) -> CycNum:
    return CycNum.from_int(N, v)


def rand_cyc(rng: random.Random, bound: int = 2) -> CycNum:
    from equibundle.cyclotomic import euler_phi

    return CycNum(N, [rng.randint(-bound, bound) for _ in range(euler_phi(N))], rng.randint(1, 2))


def rand_poly(rng: random.Random, max_deg: int = 2) -> Poly:
    return Poly(N, [rand_cyc(rng, 2) for _ in range(rng.randint(0, max_deg + 1))])


def rand_ratfun(rng: random.Random) -> RatFun:
    # Linear denominators keep exact expression swell in check.
    num = rand_poly(rng)
    den = rand_poly(rng, 1)
    while den.is_zero():
        den = rand_poly(rng, 1)
    return RatFun(num, den)


def z() -> RatFun:
    return RatFun.from_poly(Poly.x(N))


def test_poly_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_poly(rng, 5)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()


def test_poly_gcd_divides_both_and_is_monic():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = rand_poly(rng, 2), rand_poly(rng, 2), rand_poly(rng, 2)
        x, y = a * c, b * c
        if x.is_zero() and y.is_zero():
            continue
        g = poly_gcd(x, y)
        assert g.is_zero() or g.lead().is_one()
        if not x.is_zero():
            assert (x % g).is_zero()
        if not y.is_zero():
            assert (y % g).is_zero()
        if not c.is_zero():
            assert (g % c.monic()).is_zero()


def test_ratfun_canonical_equality():
    two = RatFun.const(cyc(2))
    f = RatFun(Poly.from_ints(N, [0, 2]), Poly.from_ints(N, [0, 1]))
    assert f == two
    g = RatFun(Poly.from_ints(N, [-1, 0, 1]), Poly.from_ints(N, [1, 1]))
    assert g == RatFun.from_poly(Poly.from_ints(N, [-1, 1]))


def test_ratfun_field_ops():
    rng = random.Random(11)
    for _ in range(20):
        f, g = rand_ratfun(rng), rand_ratfun(rng)
        h = rand_ratfun(rng)
        assert (f + g) * h == f * h + g * h
        if not g.is_zero():
            assert (f / g) * g == f


def test_laurent_is_unit():
    three_z2 = RatFun.monomial(cyc(3), 2)
    assert laurent_is_unit(three_z2) == (cyc(3), 2)
    z_inv = RatFun.monomial(cyc(1), -1)
    assert laurent_is_unit(z_inv) == (cyc(1), -1)
    assert laurent_is_unit(z() + RatFun.one(N)) is None
    assert laurent_is_unit(RatFun.zero(N)) is None


def test_laurent_parts():
    f = RatFun.from_laurent(N, -2, [cyc(1), cyc(0), cyc(5)])
    v, p = f.laurent_parts()
    assert v == -2
    assert p == Poly.from_ints(N, [1, 0, 5])
    assert f.laurent_bounds() == (-2, 0)


def test_det_identity():
    assert ratmat_det(RatMat.identity(N, 2)) == RatFun.one(N)


def test_inv_upper_triangular_example():
    # [[z, 1], [0, 1]]^(-1) = [[1/z, -1/z], [0, 1]], verified by multiplication.
    m = RatMat(
        [
            [z(), RatFun.one(N)],
            [RatFun.zero(N), RatFun.one(N)],
        ]
    )
    inv = ratmat_inv(m)
    zi = RatFun.monomial(cyc(1), -1)
    assert inv == RatMat([[zi, -zi], [RatFun.zero(N), RatFun.one(N)]])
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()


def rand_ratmat(rng: random.Random, size: int) -> RatMat:
    return RatMat([[rand_ratfun(rng) for _ in range(size)] for _ in range(size)])


def test_det_multiplicative():
    rng = random.Random(17)
    for size, repeats in ((2, 4), (3, 3), (4, 2)):
        for _ in range(repeats):
            a, b = rand_ratmat(rng, size), rand_ratmat(rng, size)
            assert ratmat_det(a * b) == ratmat_det(a) * ratmat_det(b)


def test_inverse_exact_random():
    rng = random.Random(23)
    for size in (2, 3, 4):
        tried = 0
        while tried < 3:
            m = rand_ratmat(rng, size)
            if m.det().is_zero():
                continue
            tried += 1
            assert (m * m.inv()).is_identity()


def test_singular_matrix_raises():
    m = RatMat([[RatFun.one(N), RatFun.one(N)], [RatFun.one(N), RatFun.one(N)]])
    with pytest.raises(SingularMatrix):
        m.inv()
    # Size 4 takes the elimination path rather than the cofactor formulas.
    z, one, zero = RatFun.monomial(cyc(1), 1), RatFun.one(N), RatFun.zero(N)
    row = [z, one, zero, z.inv()]
    m4 = RatMat([row, [one, z, one, zero], row, [zero, one, z, one]])
    with pytest.raises(SingularMatrix):
        m4.inv()
    with pytest.raises(SingularMatrix):
        mat_inv([[cyc(1), cyc(2), cyc(0)], [cyc(0), cyc(1), cyc(1)], [cyc(1), cyc(3), cyc(1)]])


def test_zero_denominator_raises():
    with pytest.raises(DivisionByZero):
        RatFun(Poly.one(N), Poly.zero(N))


def rand_mob(rng: random.Random) -> Mob:
    while True:
        vals = [rng.randint(-3, 3) for _ in range(4)]
        a, b, c, d = (cyc(v) for v in vals)
        if not (a * d - b * c).is_zero():
            return Mob(a, b, c, d)


def mob_product(m1: Mob, m2: Mob) -> Mob:
    # Matrix product; the Moebius map of a product is the composite map.
    return Mob(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def test_compose_respects_moebius_composition():
    rng = random.Random(31)
    for _ in range(6):
        a = RatMat([[rand_ratfun(rng) for _ in range(2)] for _ in range(2)])
        m1, m2 = rand_mob(rng), rand_mob(rng)
        lhs = ratmat_compose(ratmat_compose(a, m1), m2)
        rhs = ratmat_compose(a, mob_product(m1, m2))
        assert lhs == rhs


def test_compose_identity_moebius():
    rng = random.Random(37)
    a = rand_ratmat(rng, 2)
    ident = Mob(cyc(1), cyc(0), cyc(0), cyc(1))
    assert ratmat_compose(a, ident) == a


def test_poly_reversal():
    p = Poly.from_ints(N, [1, 2, 3])
    assert p.reversed() == Poly.from_ints(N, [3, 2, 1])
    assert p.reversed(4) == Poly.from_ints(N, [0, 0, 3, 2, 1])


def _rational_entry(rng: random.Random, n: int) -> RatFun:
    """Zero, a Laurent polynomial, or a polynomial over (c z + d)^k, over Q(zeta_n) = Q."""
    kind = rng.randrange(5)
    if kind == 0:
        return RatFun.zero(n)
    coeffs = [CycNum.from_int(n, rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if kind <= 2:
        return RatFun.from_laurent(n, rng.randint(-2, 0), coeffs)
    c, d = rng.choice([(1, 1), (1, -2), (2, 1), (0, 3), (-1, 2)])
    lin = Poly.from_ints(n, [d, c])
    return RatFun(Poly(n, coeffs), lin ** rng.randint(1, 2))


def _to_sympy(f: RatFun, field, zs):
    """f as an element of sympy's field QQ(z)."""

    def poly(p: Poly):
        return sum((c.num[0] * zs**i / c.den for i, c in enumerate(p.coeffs)), 0 * zs)

    return field.from_sympy(poly(f.num)) / field.from_sympy(poly(f.den))


@pytest.mark.parametrize("n", [1, 2])
def test_det_and_inverse_match_sympy(n):
    # Independent oracle for the cofactor formulas (sizes 1-3), Bareiss (det,
    # size 4) and elimination (inverse, size 4); singular inputs must raise.
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    zs = sp.Symbol("z")
    field = sp.QQ.frac_field(zs)
    rng = random.Random(101 + n)
    for size in (1, 2, 3, 4):
        for singular in (False, False, True):
            rows = [[_rational_entry(rng, n) for _ in range(size)] for _ in range(size)]
            if singular:
                # Last row: f * row 0 + g * row 1 (a zero row at size 1).
                f, g = _rational_entry(rng, n), _rational_entry(rng, n)
                below = rows[1] if size > 2 else [RatFun.zero(n)] * size
                rows[-1] = [f * x + g * y for x, y in zip(rows[0], below)] if size > 1 else below
            m = RatMat(rows)
            ref = DomainMatrix(
                [[_to_sympy(e, field, zs) for e in row] for row in rows], (size, size), field
            )
            ref_det = ref.det()
            assert _to_sympy(m.det(), field, zs) == ref_det
            if singular or not ref_det:
                assert m.det().is_zero()
                with pytest.raises(SingularMatrix):
                    m.inv()
                with pytest.raises(SingularMatrix):
                    mat_inv(m.entries)
                continue
            ref_inv = ref.inv()
            for inv in (m.inv().entries, mat_inv(m.entries)):
                ours = DomainMatrix(
                    [[_to_sympy(e, field, zs) for e in row] for row in inv], (size, size), field
                )
                assert ours == ref_inv


# (a, b, c, d): determinant 1 and not, and each of c, a, b, d zero in turn.
_COMPOSE_MAPS = [
    (2, 1, 1, 1),
    (3, 1, 1, 2),
    (1, 2, 0, 3),
    (-2, 0, 0, 1),
    (0, 1, -2, 3),
    (2, 0, 1, 1),
    (1, 1, -1, 0),
    (0, 2, 3, 0),
]


@pytest.mark.parametrize("n", [1, 2])
def test_compose_matches_sympy(n):
    # Independent oracle for the substitution kernel: sympy's z -> (az+b)/(cz+d)
    # in QQ(z).  Results must come out canonical without a further reduction.
    sp = pytest.importorskip("sympy")

    zs = sp.Symbol("z")
    field = sp.QQ.frac_field(zs)
    rng = random.Random(211 + n)
    for a, b, c, d in _COMPOSE_MAPS:
        mob = Mob(*(CycNum.from_int(n, v) for v in (a, b, c, d)))
        image = (a * zs + b) / (c * zs + d)
        rows = [[_rational_entry(rng, n) for _ in range(3)] for _ in range(3)]
        for row in rows:
            for f in row:
                got = f.compose_moebius(mob)
                assert RatFun(got.num, got.den) == got
                ref = field.to_sympy(_to_sympy(f, field, zs)).subs(zs, image)
                assert _to_sympy(got, field, zs) == field.from_sympy(sp.cancel(ref))
        assert RatMat(rows).compose_moebius(mob) == RatMat(
            [[f.compose_moebius(mob) for f in row] for row in rows]
        )


def test_compose_rejects_zero_determinant():
    # The canonical form of the result rests on a d - b c != 0.
    with pytest.raises(MalformedInput):
        z().compose_moebius(Mob(cyc(1), cyc(2), cyc(2), cyc(4)))
    with pytest.raises(MalformedInput):
        RatMat([[z()]]).compose_moebius(Mob(cyc(0), cyc(1), cyc(0), cyc(3)))


def test_compose_runs_no_gcd(monkeypatch):
    # The substituted numerator and denominator are coprime by construction,
    # so composing never reduces by a polynomial gcd.
    group = catalog("binary_dihedral", 3).group()
    n = group.n
    zeta, one = CycNum.zeta(n, 2), CycNum.one(n)
    lin = Poly(n, [one, zeta])  # zeta z + 1

    def over(num: list[CycNum], k: int) -> RatFun:  # num / (zeta z + 1)^k
        return RatFun(Poly(n, num), lin**k)

    m = RatMat(
        [
            [over([one], 1), RatFun.from_laurent(n, -2, [zeta, one, one]), RatFun.one(n)],
            [over([zeta, one], 2), RatFun.monomial(zeta, -1), RatFun.zero(n)],
            [RatFun.from_laurent(n, -1, [one, zeta]), over([one, one, zeta], 3), over([zeta], 2)],
        ]
    )
    # A diagonal and an anti-diagonal element, both with cyclotomic entries.
    diag = next(g for g in group.elements if g.c.is_zero() and not g.a.is_rational())
    anti = next(g for g in group.elements if not g.c.is_zero() and not g.c.is_rational())
    calls = []
    gcd = ratfun.poly_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(ratfun, "poly_gcd", counting_gcd)
    for g in (diag, anti):
        m.compose_moebius(MoebiusMap(g))
    assert calls == []


def _rand_poly_over(rng: random.Random, n: int) -> Poly:
    """Zero, a constant, or a polynomial of valuation up to 2, with coefficients over dens 1-4."""
    phi = len(CycNum.one(n).num)
    kind = rng.randrange(6)
    if kind == 0:
        return Poly.zero(n)
    length = 1 if kind == 1 else rng.randint(2, 4)
    coeffs = [
        CycNum(n, [rng.randint(-3, 3) for _ in range(phi)], rng.randint(1, 4)) for _ in range(length)
    ]
    if rng.random() < 0.3:
        coeffs[0] = CycNum.from_fraction(n, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    low = [CycNum.zero(n)] * (rng.randint(1, 2) if kind == 5 else 0)
    return Poly(n, low + coeffs)


def assert_canonical(p: Poly) -> None:
    """den > 0, gcd(den, all numerators) = 1, nonzero last row; rebuilt from coeffs, equal."""
    assert p.den > 0
    assert gcd(p.den, *(x for r in p.rows for x in r)) == 1
    assert not p.rows or any(p.rows[-1])
    assert all(len(r) == len(CycNum.one(p.n).num) for r in p.rows)
    rebuilt = Poly(p.n, p.coeffs)
    assert (rebuilt.rows, rebuilt.den) == (p.rows, p.den)
    assert hash(rebuilt) == hash(p)


def _sympy_cyclotomic(n: int):
    """sympy's polynomial ring over QQ(exp(2 pi i / n)), whose power basis is that of
    CycNum, with the images of a CycNum (scalar) and of a Poly (ref) in it."""
    sp = pytest.importorskip("sympy")

    field = sp.QQ.algebraic_field(sp.exp(2 * sp.pi * sp.I / n))
    ring, zs = sp.ring("z", field)

    def scalar(c: CycNum):
        return field([sp.QQ(x, c.den) for x in reversed(c.num)])

    def ref(p: Poly):
        return ring.from_list([scalar(c) for c in reversed(p.coeffs)])

    return ring, zs, scalar, ref


@pytest.mark.parametrize("n", [3, 4, 12, 20])
def test_poly_ops_match_sympy(n):
    # Independent oracle for polynomial arithmetic: sympy's polynomial ring over
    # QQ(exp(2 pi i / n)).  Each result must also be canonical: rebuilding it
    # from its coefficients changes nothing.
    ring, zs, scalar, ref = _sympy_cyclotomic(n)

    def check(got: Poly, want) -> None:
        assert Poly(n, got.coeffs) == got
        assert ref(got) == want

    rng = random.Random(401 + n)
    for _ in range(25):
        a, b = _rand_poly_over(rng, n), _rand_poly_over(rng, n)
        c = _rand_poly_over(rng, n).coeff(0)
        ra, rb = ref(a), ref(b)
        check(a + b, ra + rb)
        check(a - b, ra - rb)
        check(-a, -ra)
        check(a * b, ra * rb)
        check(a.scale(c), ra * scalar(c))
        check(a.monic(), ra.monic() if not a.is_zero() else ra)
        check(a.shift(2), ra * zs**2)
        check(a.reversed(), ring.from_list(ra.to_dense()[::-1]))
        if not b.is_zero():
            q, r = a.divmod(b)
            want_q, want_r = divmod(ra, rb)
            check(q, want_q)
            check(r, want_r)
        if not (a.is_zero() and b.is_zero()):
            check(poly_gcd(a, b), ra.gcd(rb).monic())


@pytest.mark.parametrize("n", [3, 4, 12, 20])
def test_rational_ops_match_sympy(n):
    # Independent oracle for the z-power, cross-gcd and grouped paths of RatFun
    # products, sums and RatFun.dot, for CycNum.dot and for substitution by
    # diagonal, antidiagonal and general maps, over Q(zeta_n), where alpha and
    # nu are not rational.  A rational function is a (numerator, denominator)
    # pair over sympy's ring, compared by cross-multiplication; every result
    # must also be canonical: rebuilding RatFun(num, den) changes nothing.
    ring, zs, scalar, ref = _sympy_cyclotomic(n)
    rng = random.Random(503 + n)
    one, zeta = CycNum.one(n), CycNum.zeta(n)
    lin = Poly(n, [one, zeta])  # zeta z + 1
    z_minus_zeta, z_minus_two = Poly(n, [-zeta, one]), Poly(n, [CycNum.from_int(n, -2), one])
    dens = [Poly.x(n) ** 2, lin, lin**2, z_minus_zeta * Poly.x(n), lin * z_minus_two]

    def entry() -> RatFun:
        kind = rng.randrange(5)
        if kind == 0:
            return RatFun.zero(n)
        num = Poly(n, [rand_cyc_over(rng, n) for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.4:
            num = num * (lin if rng.random() < 0.5 else Poly.x(n))
        return RatFun(num, Poly.one(n) if kind == 1 else rng.choice(dens))

    def pair(f: RatFun):
        return ref(f.num), ref(f.den)

    def mul(p, q):
        return p[0] * q[0], p[1] * q[1]

    def add(p, q):
        return p[0] * q[1] + q[0] * p[1], p[1] * q[1]

    def check(got: RatFun, want) -> None:
        assert RatFun(got.num, got.den) == got
        assert ref(got.num) * want[1] == want[0] * ref(got.den)

    fs = [entry() for _ in range(10)]
    # Cross gcds that cancel: lin against lin^2, z against z^2 (x, y) and (y, x).
    fs += [RatFun(lin * Poly(n, [zeta]), dens[3]), RatFun(Poly.x(n), dens[2]), RatFun(lin, dens[0])]
    for f in fs:
        for g in fs:
            check(f * g, mul(pair(f), pair(g)))
            check(f + g, add(pair(f), pair(g)))
            check(f - g, add(pair(f), (-ref(g.num), ref(g.den))))
    a = RatMat([[entry() for _ in range(3)] for _ in range(2)])
    b = RatMat([[entry() for _ in range(2)] for _ in range(3)])
    for row, got_row in zip(a.entries, (a * b).entries):
        for col, got in zip(zip(*b.entries), got_row):
            want = (ring(0), ring(1))
            for x, y in zip(row, col):
                want = add(want, mul(pair(x), pair(y)))
            check(got, want)
            assert RatFun.dot(row, col) == got
    phi = len(one.num)
    for size in (3, 4, 5):
        # Laurent dots whose terms have coefficients over distinct integer denominators.
        xs = []
        for d in (1, 2, 3, 5, 7)[:size]:
            coeffs = [CycNum(n, [1] + [rng.randint(-3, 3) for _ in range(phi - 1)], d)]
            coeffs += [CycNum(n, [rng.randint(-3, 3) for _ in range(phi)], d) for _ in range(rng.randint(0, 2))]
            xs.append(RatFun.from_laurent(n, rng.randint(-3, 1), coeffs))
        ys = [_laurent(rng, n) for _ in range(size)]
        want = (ring(0), ring(1))
        for x, y in zip(xs, ys):
            want = add(want, mul(pair(x), pair(y)))
        check(RatFun.dot(xs, ys), want)
        check(RatFun.dot(ys, xs), want)
    for _ in range(10):
        xs = [rand_cyc_over(rng, n) if rng.random() < 0.7 else CycNum.zero(n) for _ in range(4)]
        ys = [rand_cyc_over(rng, n) for _ in range(4)]
        want = sum((scalar(x) * scalar(y) for x, y in zip(xs, ys)), scalar(CycNum.zero(n)))
        assert scalar(CycNum.dot(xs, ys)) == want
    two, three = CycNum.from_int(n, 2), CycNum.from_int(n, 3)
    maps = [
        SL2Elem.diag(zeta),
        SL2Elem(CycNum.zero(n), zeta, -zeta.inv(), CycNum.zero(n)),
        SL2Elem(one, zeta, zeta.inv(), two),
        Mob(two * zeta, CycNum.zero(n), CycNum.zero(n), three),
        Mob(CycNum.zero(n), zeta, three, CycNum.zero(n)),
    ]
    m = RatMat([fs[0:4], fs[4:8], fs[8:12]])
    for g in maps:
        w = (scalar(g.a) * zs + scalar(g.b), scalar(g.c) * zs + scalar(g.d))

        def at(p: Poly):
            acc = (ring(0), ring(1))
            for c in reversed(p.coeffs):
                acc = add(mul(acc, w), (ring(scalar(c)), ring(1)))
            return acc

        mob = MoebiusMap(g) if isinstance(g, SL2Elem) else g
        image = m.compose_moebius(mob)
        for f, got in zip(chain.from_iterable(m.entries), chain.from_iterable(image.entries)):
            top, bottom = at(f.num), at(f.den)
            check(got, (top[0] * bottom[1], top[1] * bottom[0]))
            assert f.compose_moebius(mob) == got


def test_poly_results_are_canonical():
    # Every result is in the one canonical form, whatever route reached its value.
    rng = random.Random(47)
    kernel_maps = [Mob(cyc(2), cyc(1), cyc(1), cyc(1)), Mob(cyc(0), CycNum.zeta(N), cyc(-1), cyc(3))]
    for _ in range(30):
        a, b = _rand_poly_over(rng, N), _rand_poly_over(rng, N)
        c = _rand_poly_over(rng, N).coeff(0)
        results = [a + b, a - b, a * b, a.scale(c), a.shift(1), a.reversed(), a.reversed(a.degree() + 2), a.monic()]
        if not b.is_zero():
            results.extend(a.divmod(b))
            f = RatFun(a, b)
            for mob in kernel_maps:
                g = f.compose_moebius(mob)
                results.extend([g.num, g.den])
        for p in results:
            assert_canonical(p)
        # Equal values reached by different routes.
        routes = [
            (a + b, b + a),
            (a * b, b * a),
            ((a + b) * b, a * b + b * b),
            (a.shift(2), a * Poly.x(N) * Poly.x(N)),
            (a - a, Poly.zero(N)),
            (a.scale(c) + a, a * Poly.const(c + CycNum.one(N))),
            (a.reversed().reversed().shift(max(a.valuation(), 0)), a),
        ]
        if not b.is_zero():
            q, r = a.divmod(b)
            routes.append((q * b + r, a))
        for x, y in routes:
            assert x == y
            assert hash(x) == hash(y)
            assert x.coeffs == y.coeffs
    with pytest.raises(AttributeError):
        a.coeffs = ()


def test_poly_products_build_no_cycnum(monkeypatch):
    # Polynomial products stay on integer rows: no CycNum is built, neither in
    # a product of two non-constant Poly nor in a RatMat product of polynomial entries.
    rng = random.Random(53)
    polys = [_rand_poly_over(rng, N) for _ in range(8)]
    polys = [p if p.degree() >= 1 else p + Poly.x(N) for p in polys]
    a = RatMat([[RatFun.from_poly(p) for p in polys[i : i + 2]] for i in (0, 2)])
    b = RatMat([[RatFun.from_poly(p) for p in polys[i : i + 2]] for i in (4, 6)])
    calls = []
    init = CycNum.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycNum, "__init__", counting_init)
    polys[0] * polys[1]
    a * b
    assert calls == []


def _count_calls(monkeypatch, owner, name: str, calls: list, static: bool = False) -> None:
    """Record every call of owner.name in calls, then run the original."""
    original = getattr(owner, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)


def rand_cyc_over(rng: random.Random, n: int) -> CycNum:
    phi = len(CycNum.one(n).num)
    return CycNum(n, [rng.randint(-2, 2) for _ in range(phi)], rng.randint(1, 2))


def _over_linear(rng: random.Random, n: int, lin: Poly) -> RatFun:
    """A random polynomial over a power of lin (not a power of z)."""
    num = Poly(n, [rand_cyc_over(rng, n) for _ in range(rng.randint(1, 3))])
    return RatFun(num, lin ** rng.randint(1, 2))


def _laurent(rng: random.Random, n: int) -> RatFun:
    coeffs = [rand_cyc_over(rng, n) for _ in range(rng.randint(1, 3))]
    return RatFun.from_laurent(n, rng.randint(-3, 1), coeffs)


def test_product_reduces_once_per_entry(monkeypatch):
    # Entries over powers of two linear forms and of z, so output entries sum
    # terms over one, two or more distinct denominator products: each output
    # entry of the product makes at most one reduction.
    rng = random.Random(61)
    lins = [Poly(N, [cyc(1), CycNum.zeta(N)]), Poly(N, [cyc(-2), cyc(1)])]
    a = RatMat(
        [
            [_over_linear(rng, N, lins[(i + j) % 2]) if (i + j) % 3 else _laurent(rng, N) for j in range(3)]
            for i in range(3)
        ]
    )
    b = RatMat([[_over_linear(rng, N, lins[i % 2]) for _ in range(3)] for i in range(3)])
    want = [[sum((x * y for x, y in zip(row, col)), RatFun.zero(N)) for col in zip(*b.entries)] for row in a.entries]
    calls = []
    _count_calls(monkeypatch, RatFun, "_reduce", calls, static=True)
    got = a * b
    assert len(calls) <= 9
    assert got == RatMat(want)
    calls.clear()
    got_vec = a.mul_vector([row[0] for row in b.entries])
    assert len(calls) <= 3
    assert got_vec == [row[0] for row in want]


def test_laurent_arithmetic_runs_no_gcd(monkeypatch):
    # Denominators that are powers of z add and multiply by shifts: no
    # reduction and no polynomial gcd, for RatFun and RatMat alike.
    rng = random.Random(67)
    fs = [_laurent(rng, N) for _ in range(8)] + [RatFun.from_poly(rand_poly(rng)) for _ in range(2)]
    a = RatMat([fs[0:3], fs[3:6], fs[6:9]])
    b = RatMat([fs[1:4], fs[5:8], fs[7:10]])
    calls = []
    _count_calls(monkeypatch, RatFun, "_reduce", calls, static=True)
    _count_calls(monkeypatch, ratfun, "poly_gcd", calls)
    results = [op(f, g) for f in fs for g in fs for op in (RatFun.__mul__, RatFun.__add__, RatFun.__sub__)]
    product = a * b
    assert calls == []
    for f in results + [e for row in product.entries for e in row]:
        assert f.is_laurent()
        assert RatFun(f.num, f.den) == f
    monkeypatch.undo()
    for f in fs:
        for g in fs:
            # Cross-multiplied against the unreduced forms.
            assert (f * g).num * (f.den * g.den) == (f.num * g.num) * (f * g).den
            s = f + g
            assert s.num * (f.den * g.den) == (f.num * g.den + g.num * f.den) * s.den


def test_monomial_maps_substitute_by_scaling(monkeypatch):
    # z -> alpha z and z -> nu / z scale coefficients by powers of one field
    # element: composing polynomial and Laurent entries by a diagonal and an
    # antidiagonal element of SL(2) forms no power row and inverts nothing.
    group = catalog("binary_dihedral", 3).group()
    n = group.n
    diag = next(g for g in group.elements if g.c.is_zero() and not g.a.is_rational())
    anti = next(g for g in group.elements if g.a.is_zero() and not g.c.is_rational())
    rng = random.Random(71)
    poly = RatFun.from_poly(Poly(n, [rand_cyc_over(rng, n) for _ in range(3)]))
    laurent = [_laurent(rng, n) for _ in range(6)]
    m = RatMat([laurent[0:3], laurent[3:6], [poly, RatFun.one(n), RatFun.zero(n)]])
    maps = {g: MoebiusMap(g) for g in (diag, anti)}
    calls = []
    _count_calls(monkeypatch, ratfun._MoebiusKernel, "_row", calls)
    _count_calls(monkeypatch, CycNum, "inv", calls)
    _count_calls(monkeypatch, ratfun._MoebiusKernel, "_scale", calls)
    images = {g: m.compose_moebius(maps[g]) for g in (diag, anti)}
    # An entry over z^m keeps its denominator as built: one scaling, of the
    # numerator, per nonconstant entry and map.
    nonconstant = sum(1 for f in chain.from_iterable(m.entries) if not (f.num.is_const() and f.den.is_const()))
    assert nonconstant >= 6
    assert calls == ["_scale"] * (2 * nonconstant)
    monkeypatch.undo()
    for g, image in images.items():
        for f, got in zip(chain.from_iterable(m.entries), chain.from_iterable(image.entries)):
            assert RatFun(got.num, got.den) == got
            assert got == _general_compose(f, g)
        # Composition respects the group law: (f o g) o h = f o (g h).
        h = anti if g is diag else diag
        assert image.compose_moebius(MoebiusMap(h)) == m.compose_moebius(MoebiusMap(g * h))


def _general_compose(f: RatFun, mob) -> RatFun:
    """f((a z + b)/(c z + d)) by field arithmetic, reduced from scratch."""
    n = f.n
    w = RatFun(Poly(n, [mob.b, mob.a]), Poly(n, [mob.d, mob.c]))

    def at(p: Poly) -> RatFun:
        acc = RatFun.zero(n)
        for c in reversed(p.coeffs):
            acc = acc * w + RatFun.const(c)
        return acc

    return at(f.num) / at(f.den)


def test_ratmat_product_rejects_mixed_moduli():
    # A product builds its result without re-checking the entries, so the
    # dot product itself refuses mixed moduli, over zero, Laurent and
    # general entries alike.
    lin = Poly(N, [cyc(1), cyc(1)])
    laurent = RatMat([[RatFun.monomial(cyc(2), -1), RatFun.zero(N)], [RatFun.zero(N), RatFun.one(N)]])
    general = RatMat([[RatFun(Poly.one(N), lin), RatFun.one(N)], [RatFun.zero(N), RatFun(Poly.x(N), lin)]])
    for n in (1, 4):
        b = RatMat([[RatFun.one(n), RatFun.zero(n)], [RatFun.zero(n), RatFun.monomial(CycNum.one(n), 2)]])
        for a in (laurent, general):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ModulusMismatch):
                    x * y
                with pytest.raises(ModulusMismatch):
                    x.mul_vector([row[0] for row in y.entries])


def test_laurent_product_calls_no_poly_mul(monkeypatch):
    # Every output entry of a product of Laurent matrices is one Poly._dot
    # over its terms, single nonzero terms included: no Poly product is formed.
    rng = random.Random(73)
    fs = [_laurent(rng, N) for _ in range(12)] + [RatFun.from_poly(rand_poly(rng)), RatFun.zero(N)]
    a = RatMat([fs[0:3], [fs[3], fs[13], fs[4]], fs[5:8]])
    b = RatMat([[fs[8], fs[13], fs[9]], [fs[13], fs[10], fs[12]], [fs[11], fs[13], fs[13]]])
    calls = []
    _count_calls(monkeypatch, Poly, "__mul__", calls)
    got = a * b
    got_vec = a.mul_vector([row[0] for row in b.entries])
    assert calls == []
    monkeypatch.undo()
    want = [[sum((x * y for x, y in zip(row, col)), RatFun.zero(N)) for col in zip(*b.entries)] for row in a.entries]
    assert got == RatMat(want)
    assert got_vec == [row[0] for row in want]
    for f in chain.from_iterable(got.entries):
        assert RatFun(f.num, f.den) == f


def test_factor_one_terms_pass_through(monkeypatch):
    # An output entry that is one nonzero term with a factor 1 is the other
    # factor itself, with no normalisation, for Laurent and rational entries.
    rng = random.Random(79)
    lin = Poly(N, [cyc(1), CycNum.zeta(N)])
    one, zero = RatFun.one(N), RatFun.zero(N)
    b = RatMat(
        [
            [_laurent(rng, N), _over_linear(rng, N, lin), zero],
            [_over_linear(rng, N, lin), zero, _laurent(rng, N)],
            [zero, _laurent(rng, N), _over_linear(rng, N, lin)],
        ]
    )
    e = RatMat([[one, zero, _laurent(rng, N)], [zero, one, zero], [zero, zero, one]])
    calls = []
    _count_calls(monkeypatch, Poly, "_normal", calls, static=True)
    got = b * RatMat.identity(N, 3)
    assert calls == []
    got_left = e * b
    monkeypatch.undo()
    for got_row, b_row in zip(got.entries, b.entries):
        assert all(g is x for g, x in zip(got_row, b_row) if not x.is_zero())
    assert got == b
    kept = zip(got_left.entries[1] + got_left.entries[2], b.entries[1] + b.entries[2])
    assert all(g is x for g, x in kept if not x.is_zero())
    assert got_left.entries[0] == tuple(x + e.entries[0][2] * y for x, y in zip(b.entries[0], b.entries[2]))


@pytest.mark.parametrize("n", [1, 2])
def test_laurent_det_runs_no_gcd(monkeypatch, n):
    # Bareiss clears a row of Laurent entries by a power of z, with shifts:
    # a 4x4 Laurent determinant takes no polynomial gcd or lcm and matches
    # sympy's determinant over QQ(z).
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    zs = sp.Symbol("z")
    field = sp.QQ.frac_field(zs)
    rng = random.Random(79 + n)

    def entry() -> RatFun:
        if rng.random() < 0.15:
            return RatFun.zero(n)
        coeffs = [CycNum.from_fraction(n, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        return RatFun.from_laurent(n, rng.randint(-3, 1), coeffs)

    for _ in range(3):
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        m = RatMat(rows)
        calls = []
        _count_calls(monkeypatch, ratfun, "poly_gcd", calls)
        _count_calls(monkeypatch, ratfun, "poly_lcm", calls)
        got = m.det()
        assert calls == []
        monkeypatch.undo()
        ref = DomainMatrix([[_to_sympy(e, field, zs) for e in row] for row in rows], (4, 4), field)
        assert _to_sympy(got, field, zs) == ref.det()
        assert RatFun(got.num, got.den) == got
