"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A CycNum is an element of Q(zeta_N) stored in the power basis
1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic polynomial,
as a vector of integer numerators over a single positive denominator,
always fully reduced.  Equal elements therefore have equal fields, which
makes equality (the hottest operation during group closure) a tuple
comparison.

All values are immutable and all operations are pure functions; CycNum
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from .errors import DivisionByZero, MalformedInput, ModulusMismatch

__all__ = [
    "CycNum",
    "cyc_add",
    "cyc_mul",
    "cyc_inv",
    "cyc_conj",
    "cyc_embed",
    "euler_phi",
    "cyclotomic_polynomial",
]


def euler_phi(n: int) -> int:
    if n < 1:
        raise MalformedInput(f"modulus must be positive, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Division of integer polynomials; den must be monic.
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(1, len(num) - dn)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    if n < 1:
        raise MalformedInput(f"modulus must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert all(c == 0 for c in rem)
    return tuple(poly)


class _Context:
    """Per-modulus tables: reduction of high powers, zeta powers, Galois group."""

    __slots__ = ("n", "phi", "minpoly", "reduction", "zeta_pows", "units")

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.minpoly = cyclotomic_polynomial(n)
        phi = self.phi
        # reduction[e] = the nonzero (index, coefficient) pairs of x^(phi+e) mod
        # Phi_N, e = 0..phi-2
        rows: list[tuple[int, ...]] = []
        cur = [-c for c in self.minpoly[:phi]]  # x^phi
        rows.append(tuple(cur))
        for _ in range(phi - 2):
            cur = [0] + cur
            top = cur.pop()
            if top:
                for i in range(phi):
                    cur[i] -= top * self.minpoly[i]
            rows.append(tuple(cur))
        self.reduction = tuple(tuple((j, c) for j, c in enumerate(r) if c) for r in rows)
        # zeta_pows[k] = vector of zeta^k for k = 0..n-1
        pows: list[tuple[int, ...]] = []
        vec = [1] + [0] * (phi - 1)
        for _ in range(n):
            pows.append(tuple(vec))
            vec = [0] + vec
            top = vec.pop()
            if top:
                for i in range(phi):
                    vec[i] -= top * self.minpoly[i]
        self.zeta_pows = tuple(pows)
        # units = the k prime to n, one automorphism zeta -> zeta^k each
        self.units = tuple(k for k in range(1, n) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _context(n: int) -> _Context:
    return _Context(n)


def _fold(ctx: _Context, wide: list[int]) -> list[int]:
    """Reduce a vector of the powers 0..2 phi - 2 of zeta mod Phi_N."""
    phi = ctx.phi
    out = wide[:phi]
    for c, terms in zip(wide[phi:], ctx.reduction):
        if c:
            for j, r in terms:
                out[j] += c * r
    return out


def _vec_mul(ctx: _Context, a, b) -> list[int]:
    """Product of two power-basis integer vectors, reduced mod Phi_N.

    A rational operand (zero tail) is an integer scaling and needs no
    reduction.
    """
    if not any(b[1:]):
        s = b[0]
        return [x * s for x in a]
    if not any(a[1:]):
        s = a[0]
        return [s * y for y in b]
    conv = [0] * (2 * ctx.phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    return _fold(ctx, conv)


def _galois_vec(ctx: _Context, num, k: int) -> list[int]:
    """The power-basis vector num under zeta -> zeta^k, k prime to N."""
    out = [0] * ctx.phi
    for i, c in enumerate(num):
        if c:
            for j, r in enumerate(ctx.zeta_pows[(i * k) % ctx.n]):
                out[j] += c * r
    return out


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise DivisionByZero("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


class CycNum:
    """An element of Q(zeta_N) in reduced power-basis form."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1, _normalized: bool = False):
        ctx = _context(n)
        num = list(num)
        if len(num) != ctx.phi:
            raise MalformedInput(
                f"coefficient vector has length {len(num)}, expected phi({n}) = {ctx.phi}"
            )
        self.n = n
        if _normalized:
            self.num = tuple(num)
            self.den = den
        else:
            self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int, value: int) -> CycNum:
        phi = _context(n).phi
        return CycNum(n, [value] + [0] * (phi - 1))

    @staticmethod
    def from_fraction(n: int, value: Fraction) -> CycNum:
        phi = _context(n).phi
        return CycNum(n, [value.numerator] + [0] * (phi - 1), value.denominator)

    @staticmethod
    def zero(n: int) -> CycNum:
        return CycNum.from_int(n, 0)

    @staticmethod
    def one(n: int) -> CycNum:
        return CycNum.from_int(n, 1)

    @staticmethod
    def zeta(n: int, k: int = 1) -> CycNum:
        """The root of unity zeta_N^k."""
        ctx = _context(n)
        return CycNum(n, list(ctx.zeta_pows[k % n]), 1)

    @staticmethod
    def root_of_unity(n: int, order: int, k: int = 1) -> CycNum:
        """zeta_order^k expressed in Q(zeta_n); order must divide n."""
        if n % order != 0:
            raise ModulusMismatch(f"{order} does not divide ambient modulus {n}")
        return CycNum.zeta(n, (n // order) * k)

    # -- helpers ------------------------------------------------------

    def _check(self, other: CycNum) -> None:
        if self.n != other.n:
            raise ModulusMismatch(f"mixed moduli {self.n} and {other.n}")

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise MalformedInput("not a rational number")
        return Fraction(self.num[0], self.den)

    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def promote(self, m: int) -> CycNum:
        """Re-express the element in Q(zeta_m); self.n must divide m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ModulusMismatch(f"cannot promote modulus {self.n} to {m}")
        ctx = _context(m)
        step = m // self.n
        phi = ctx.phi
        out = [0] * phi
        for i, c in enumerate(self.num):
            if c:
                row = ctx.zeta_pows[(i * step) % m]
                for j in range(phi):
                    out[j] += c * row[j]
        return CycNum(m, out, self.den)

    def sort_key(self) -> tuple:
        return (self.num, self.den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: CycNum) -> CycNum:
        self._check(other)
        a, b = self, other
        if a.den == b.den:
            num = [x + y for x, y in zip(a.num, b.num)]
            return CycNum(a.n, num, a.den)
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return CycNum(a.n, num, a.den * b.den)

    def __sub__(self, other: CycNum) -> CycNum:
        self._check(other)
        a, b = self, other
        if a.den == b.den:
            num = [x - y for x, y in zip(a.num, b.num)]
            return CycNum(a.n, num, a.den)
        num = [x * b.den - y * a.den for x, y in zip(a.num, b.num)]
        return CycNum(a.n, num, a.den * b.den)

    def __neg__(self) -> CycNum:
        return CycNum(self.n, [-c for c in self.num], self.den, _normalized=True)

    def __mul__(self, other: CycNum) -> CycNum:
        self._check(other)
        out = _vec_mul(_context(self.n), self.num, other.num)
        return CycNum(self.n, out, self.den * other.den)

    @staticmethod
    def dot(xs, ys) -> CycNum:
        """sum_i xs[i] * ys[i], for nonempty xs.

        One integer convolution of all terms over the lcm of their
        denominator products, then one reduction mod Phi_N and one
        normalisation.
        """
        n = xs[0].n
        terms = []
        den = 1
        for x, y in zip(xs, ys):
            if x.n != n or y.n != n:
                raise ModulusMismatch(f"mixed moduli {x.n} and {y.n}")
            if any(x.num) and any(y.num):
                d = x.den * y.den
                den = lcm(den, d)
                terms.append((x.num, y.num, d))
        ctx = _context(n)
        conv = [0] * (2 * ctx.phi - 1)
        for a, b, d in terms:
            f = den // d
            for i, x in enumerate(a):
                if x:
                    x *= f
                    for j, y in enumerate(b, i):
                        if y:
                            conv[j] += x * y
        return CycNum(n, _fold(ctx, conv), den)

    def inv(self) -> CycNum:
        """Multiplicative inverse by the Galois norm.

        x^(-1) = prod_{sigma != 1} sigma(x) / N(x), over the automorphisms
        sigma_k: zeta -> zeta^k, k prime to N, where the norm
        N(x) = x * prod_{sigma != 1} sigma(x) is rational.  The product is
        taken over the integral numerator y = den * x, so every step stays
        in Z[zeta] and N(y) is an integer.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            q = self.as_fraction()
            return CycNum.from_fraction(self.n, 1 / q)
        ctx = _context(self.n)
        y = self.num
        conjugates = None
        for k in ctx.units[1:]:
            image = _galois_vec(ctx, y, k)
            conjugates = image if conjugates is None else _vec_mul(ctx, conjugates, image)
        norm = _vec_mul(ctx, y, conjugates)[0]
        return CycNum(self.n, [self.den * c for c in conjugates], norm)

    def __truediv__(self, other: CycNum) -> CycNum:
        return self * other.inv()

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inv() ** (-k)
        result = CycNum.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> CycNum:
        """Complex conjugation zeta -> zeta^(-1)."""
        return CycNum(self.n, _galois_vec(_context(self.n), self.num, -1), self.den)

    def embed(self) -> complex:
        """Floating-point image under zeta -> exp(2*pi*i/N).  Diagnostics only."""
        root = cmath.exp(2j * cmath.pi / self.n)
        total = 0j
        power = 1 + 0j
        for c in self.num:
            if c:
                total += c * power
            power *= root
        return total / self.den

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_rational():
            q = self.as_fraction()
            return f"CycNum({self.n}, {q})"
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            coeff = str(Fraction(c, self.den))
            terms.append(coeff if i == 0 else f"{coeff}*z{i}" if i > 1 else f"{coeff}*z")
        return f"CycNum({self.n}, {' + '.join(terms)})"


# Functional aliases for the operation surface.

def cyc_add(a: CycNum, b: CycNum) -> CycNum:
    return a + b


def cyc_mul(a: CycNum, b: CycNum) -> CycNum:
    return a * b


def cyc_inv(a: CycNum) -> CycNum:
    return a.inv()


def cyc_conj(a: CycNum) -> CycNum:
    return a.conj()


def cyc_embed(a: CycNum) -> complex:
    return a.embed()
