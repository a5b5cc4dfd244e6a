"""Polynomials, rational functions and matrices over a cyclotomic field.

Laurent polynomials are represented as rational functions whose denominator
is a power of z, so a single type serves both affine charts.  Every value is
canonical: denominators are monic and coprime to numerators, which makes
equality a coefficient comparison.  All types are immutable.

A Poly stores its coefficients as integer rows over one denominator: rows
holds one tuple of phi(N) numerators per coefficient (power basis of
Q(zeta_N), as in CycNum), lowest degree first, and den is one positive
integer.  The form is canonical: the last row is nonzero (the zero
polynomial has no rows and den 1) and gcd(den, every numerator) = 1, so each
value has exactly one form and equality and hashing are tuple operations.
Arithmetic works on the integers and normalises once per result, not once
per coefficient; CycNum coefficients are built only on request (coeffs,
lead, coeff).

Moebius substitution z -> (a z + b)/(c z + d) keeps a canonical value
canonical without a gcd, provided a d - b c != 0 (so the map is a bijection
of P^1).  For f = P/Q with P, Q coprime and k = max(deg P, deg Q), f composed
with the map is P~/Q~, where P~ = sum_i P_i (a z + b)^i (c z + d)^(k - i) and
Q~ likewise.  P~ and Q~ share no root:

* at z0 with c z0 + d != 0, P~(z0) = (c z0 + d)^k P(w0) with
  w0 = (a z0 + b)/(c z0 + d), and likewise for Q~, so a common root would
  make w0 a common root of P and Q;
* at the root z0 of c z + d (when c != 0), P~(z0) = P_k (a z0 + b)^k, where
  a z0 + b != 0 because a d - b c != 0; whichever of P, Q has degree k has
  P_k != 0, so its side does not vanish there, and the extra factor
  (c z + d)^(k - deg) on the other side is coprime to it.

One scaling by the inverse of the leading coefficient of Q~ then makes the
result canonical.

Two shapes of map make every power row a monomial, and the kernel keeps the
powers of one field element instead of rows (the map's entries choose the
rule when the kernel is built):

* b = c = 0, z -> alpha z with alpha = a/d: P~ = d^k sum_i P_i alpha^i z^i,
  and Q~ has leading coefficient d^k alpha^(deg Q) (Q is monic), so
  coefficient i of the result is P_i alpha^(i - deg Q) and its denominator is
  monic as built;
* a = d = 0, z -> nu/z with nu = b/c: P~ = c^k sum_i P_i nu^i z^(k - i), and
  Q~ has leading coefficient c^k nu^v Q_v at z^(k - v), v = val Q, so
  coefficient i moves to z^(k - i) scaled by nu^(i - v), and one scaling by
  the inverse of Q_v remains; Q_v = 1 for polynomial and Laurent entries.

These are the kernel's own P~ and Q~ divided by a constant, so they are
coprime by the argument above.

Laurent data needs no gcd either.  A canonical denominator is monic, so a
monomial denominator is exactly z^k, and the only monic divisors of z^k are
powers of z: num / z^k with num coprime to it is canonical exactly when k = 0
or num has a nonzero constant term.  A product of two such values is
num_x num_y / z^(a + b), and a sum is (num_x z^(k - a) + num_y z^(k - b)) / z^k
with k = max(a, b); stripping z^min(valuation of the numerator, exponent)
makes either canonical.  Other products cancel the cross gcds
gcd(num_x, den_y) and gcd(num_y, den_x) (Henrici; Knuth, TAOCP vol. 2,
4.5.1): num_x is coprime to den_x and num_y to den_y already, so after the
two cancellations no factor of the numerator product divides the
denominator product, and a product of monic denominators is monic.  A gcd
with a constant side is 1 and is skipped; a gcd with z^k is a power of z and
is read off the valuation.  RatFun.dot sums a whole matrix-product entry with
one normalisation: by shifts when every denominator is a power of z, else
over one denominator per distinct denominator product, with an lcm only
when two or more remain.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional

from .cyclotomic import CycNum, _context, _fold, _vec_mul
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    MalformedInput,
    ModulusMismatch,
)
from .linalg import (
    mat_add,
    mat_det_small,
    mat_inv,
    mat_is_identity,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_scale,
    mat_vec,
)

__all__ = [
    "Poly",
    "RatFun",
    "RatMat",
    "poly_gcd",
    "ratmat_mul",
    "ratmat_det",
    "ratmat_inv",
    "ratmat_compose",
    "laurent_is_unit",
]


class Poly:
    """Dense univariate polynomial over Q(zeta_N), lowest degree first.

    rows holds one tuple of phi(N) integer numerators per coefficient, over
    the one positive denominator den (see the module docstring).
    """

    __slots__ = ("n", "rows", "den")

    def __init__(self, n: int, coeffs: Iterable[CycNum] = ()):
        """The polynomial with the given coefficients, over the lcm of their denominators."""
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        den = 1
        for c in coeffs:
            if c.n != n:
                raise ModulusMismatch(f"coefficient modulus {c.n} != {n}")
            den = lcm(den, c.den)
        self.n = n
        self.rows = tuple(
            c.num if c.den == den else tuple(x * (den // c.den) for x in c.num) for c in coeffs
        )
        self.den = den

    @staticmethod
    def _raw(n: int, rows: tuple, den: int) -> Poly:
        """A polynomial from rows that are already canonical."""
        p = object.__new__(Poly)
        p.n, p.rows, p.den = n, rows, den
        return p

    @staticmethod
    def _normal(n: int, rows: list, den: int) -> Poly:
        """The canonical form of rows / den, den > 0: trim, then one gcd pass."""
        while rows and not any(rows[-1]):
            rows.pop()
        if not rows:
            return Poly._raw(n, (), 1)
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g > 1:
                den //= g
                rows = [[x // g for x in r] for r in rows]
        return Poly._raw(n, tuple(map(tuple, rows)), den)

    @staticmethod
    def _sum(n: int, terms) -> Poly:
        """sum of p z^s over the (p, s) in terms, over the lcm of their denominators.

        One pass over the integer rows and one normalisation, however many
        terms there are.
        """
        den = lcm(*(p.den for p, _ in terms))
        acc = [(0,) * _context(n).phi] * max(len(p.rows) + s for p, s in terms)
        for p, s in terms:
            f = den // p.den
            for i, r in enumerate(p.rows, s):
                acc[i] = [a + x * f for a, x in zip(acc[i], r)]
        return Poly._normal(n, acc, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> Poly:
        return Poly._raw(n, (), 1)

    @staticmethod
    def one(n: int) -> Poly:
        return Poly._raw(n, (_context(n).zeta_pows[0],), 1)

    @staticmethod
    def const(c: CycNum) -> Poly:
        return Poly.monomial(c, 0)

    @staticmethod
    def x(n: int) -> Poly:
        return Poly.one(n).shift(1)

    @staticmethod
    def monomial(c: CycNum, k: int) -> Poly:
        if k < 0:
            raise MalformedInput("monomial exponent must be nonnegative")
        if c.is_zero():
            return Poly.zero(c.n)
        return Poly._raw(c.n, ((0,) * len(c.num),) * k + (c.num,), c.den)

    @staticmethod
    def from_ints(n: int, ints: Iterable[int]) -> Poly:
        tail = (0,) * (_context(n).phi - 1)
        return Poly._normal(n, [(v,) + tail for v in ints], 1)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[CycNum, ...]:
        """The coefficients as scalars, lowest degree first (built on each call)."""
        return tuple(CycNum(self.n, r, self.den) for r in self.rows)

    def degree(self) -> int:
        return len(self.rows) - 1

    def is_zero(self) -> bool:
        return not self.rows

    def is_const(self) -> bool:
        return len(self.rows) <= 1

    def is_one(self) -> bool:
        rows = self.rows
        return self.den == 1 and len(rows) == 1 and rows[0][0] == 1 and not any(rows[0][1:])

    def is_monic(self) -> bool:
        rows = self.rows
        return bool(rows) and rows[-1][0] == self.den and not any(rows[-1][1:])

    def is_monomial(self) -> bool:
        rows = self.rows
        return len(rows) == 1 or bool(rows) and not any(map(any, rows[:-1]))

    def valuation(self) -> int:
        """Order of vanishing at 0; the zero polynomial has valuation -1."""
        for i, r in enumerate(self.rows):
            if any(r):
                return i
        return -1

    def lead(self) -> CycNum:
        if not self.rows:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return CycNum(self.n, self.rows[-1], self.den)

    def coeff(self, k: int) -> CycNum:
        if 0 <= k < len(self.rows):
            return CycNum(self.n, self.rows[k], self.den)
        return CycNum.zero(self.n)

    def monic(self) -> Poly:
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.lead().inv())

    def drop_low(self, k: int) -> Poly:
        """Divide by z^k; the k lowest coefficients must be zero."""
        return Poly._raw(self.n, self.rows[k:], self.den)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: Poly) -> None:
        if self.n != other.n:
            raise ModulusMismatch(f"mixed moduli {self.n} and {other.n}")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        if not other.rows:
            return self
        if not self.rows:
            return other
        a, b, da, db = self.rows, other.rows, self.den, other.den
        if len(a) < len(b):
            a, b, da, db = b, a, db, da
        if da == db:
            rows = [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
            rows.extend(a[len(b):])
            return Poly._normal(self.n, rows, da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        rows = [[x * fa + y * fb for x, y in zip(r, s)] for r, s in zip(a, b)]
        rows.extend([x * fa for x in r] for r in a[len(b):])
        return Poly._normal(self.n, rows, da * fa)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly._raw(self.n, tuple(tuple(-x for x in r) for r in self.rows), self.den)

    def __mul__(self, other: Poly) -> Poly:
        """Bivariate integer convolution in z and zeta, one reduction per coefficient.

        A one-coefficient operand scales the rows of the other instead.
        """
        self._check(other)
        a, b = self.rows, other.rows
        if not a or not b:
            return Poly.zero(self.n)
        if len(a) == 1:
            return other._scaled(a[0], self.den)
        if len(b) == 1:
            return self._scaled(b[0], other.den)
        ctx = _context(self.n)
        acc = [[0] * (2 * ctx.phi - 1) for _ in range(len(a) + len(b) - 1)]
        b_terms = [[(l, y) for l, y in enumerate(r) if y] for r in b]
        for i, r in enumerate(a):
            window = acc[i:]
            for k, x in enumerate(r):
                if x:
                    for out, terms in zip(window, b_terms):
                        for l, y in terms:
                            out[k + l] += x * y
        return Poly._normal(self.n, [_fold(ctx, w) for w in acc], self.den * other.den)

    def _scaled(self, vec, den: int) -> Poly:
        """self * (vec / den) for one power-basis vector vec.

        A rational vec (zero tail) is an integer scaling and needs no reduction.
        """
        if not any(vec[1:]):
            s = vec[0]
            if s == 1 and den == 1:
                return self
            rows = [list(map(s.__mul__, r)) for r in self.rows]
        else:
            ctx = _context(self.n)
            rows = [_vec_mul(ctx, r, vec) for r in self.rows]
        return Poly._normal(self.n, rows, self.den * den)

    def scale(self, c: CycNum) -> Poly:
        return self._scaled(c.num, c.den)

    def shift(self, k: int) -> Poly:
        """Multiply by z^k (k >= 0)."""
        if self.is_zero() or k == 0:
            return self
        return Poly._raw(self.n, ((0,) * len(self.rows[0]),) * k + self.rows, self.den)

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise MalformedInput("negative power of a polynomial")
        result = Poly.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder by division by the monic associate of other.

        Each quotient coefficient is then the top remainder row; the
        remainder keeps one running denominator, reduced by a gcd after each
        step, and the quotient is scaled by the inverse leading coefficient
        of other at the end.
        """
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        n, db = self.n, other.degree()
        if self.degree() < db:
            return Poly.zero(n), self
        lead_inv = None if other.is_monic() else other.lead().inv()
        monic = other if lead_inv is None else other.scale(lead_inv)
        ctx = _context(n)
        low, bden = monic.rows[:db], monic.den  # the top row of monic is (bden, 0, ..., 0)
        rem, rden = [list(r) for r in self.rows], self.den
        quot: list = [None] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            top = rem.pop()
            if not any(top):
                continue
            quot[i] = (top, rden)
            # rem <- rem - (top / rden) z^i monic, over rden * bden.
            if bden != 1:
                rem = [[x * bden for x in r] for r in rem]
                rden *= bden
            for row, b in zip(rem[i:], low):
                for t, v in enumerate(_vec_mul(ctx, top, b)):
                    row[t] -= v
            if rden != 1:
                g = gcd(rden, *chain.from_iterable(rem))
                if g > 1:
                    rem = [[x // g for x in r] for r in rem]
                    rden //= g
        qden = lcm(*(t[1] for t in quot if t is not None))
        zero = (0,) * ctx.phi
        q = Poly._normal(
            n, [zero if t is None else [x * (qden // t[1]) for x in t[0]] for t in quot], qden
        )
        if lead_inv is not None:
            q = q.scale(lead_inv)
        return q, Poly._normal(n, rem, rden)

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divmod(other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def divexact(self, other: Poly) -> Poly:
        q, r = self.divmod(other)
        if not r.is_zero():
            raise MalformedInput("inexact polynomial division")
        return q

    def eval(self, point: CycNum) -> CycNum:
        acc = CycNum.zero(self.n)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def reversed(self, degree: Optional[int] = None) -> Poly:
        """Coefficient reversal z^d * p(1/z) for d = degree (default deg p)."""
        d = self.degree() if degree is None else degree
        if d < self.degree():
            raise MalformedInput("reversal degree below polynomial degree")
        if self.is_zero():
            return self
        pad = ((0,) * len(self.rows[0]),) * (d - self.degree())
        return Poly._raw(self.n, pad + self.rows[self.valuation():][::-1], self.den)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c!r})*z^{i}" if i else f"({c!r})")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    a._check(b)
    r0, r1 = a, b
    while not r1.is_zero():
        r1 = r1.monic()
        r0, r1 = r1, r0 % r1
    return r0.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.n)
    return (a * b).divexact(poly_gcd(a, b)).monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b = g and g monic."""
    a._check(b)
    n = a.n
    r0, r1 = a, b
    x0, x1 = Poly.one(n), Poly.zero(n)
    y0, y1 = Poly.zero(n), Poly.one(n)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0.is_zero():
        return r0, x0, y0
    lead_inv = r0.lead().inv()
    return r0.scale(lead_inv), x0.scale(lead_inv), y0.scale(lead_inv)


class RatFun:
    """Rational function num/den in canonical form (monic coprime denominator)."""

    __slots__ = ("n", "num", "den")

    def __init__(self, num: Poly, den: Poly, _canonical: bool = False):
        if num.n != den.n:
            raise ModulusMismatch(f"mixed moduli {num.n} and {den.n}")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.n = num.n
        if _canonical:
            self.num, self.den = num, den
            return
        num, den = self._reduce(num, den)
        self.num, self.den = num, den

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        """The canonical form of num / den: a monic denominator, then the gcd cancelled."""
        if num.is_zero():
            return num, Poly.one(num.n)
        if not den.is_monic():
            inv = den.lead().inv()
            num, den = num.scale(inv), den.scale(inv)
        return _cancel(num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> RatFun:
        return RatFun(Poly.zero(n), Poly.one(n), _canonical=True)

    @staticmethod
    def one(n: int) -> RatFun:
        return RatFun(Poly.one(n), Poly.one(n), _canonical=True)

    @staticmethod
    def const(c: CycNum) -> RatFun:
        return RatFun(Poly.const(c), Poly.one(c.n), _canonical=True)

    @staticmethod
    def from_poly(p: Poly) -> RatFun:
        return RatFun(p, Poly.one(p.n), _canonical=True)

    @staticmethod
    def monomial(c: CycNum, k: int) -> RatFun:
        """c * z^k for any integer k."""
        n = c.n
        if c.is_zero():
            return RatFun.zero(n)
        if k >= 0:
            return RatFun(Poly.monomial(c, k), Poly.one(n), _canonical=True)
        return RatFun(Poly.const(c), Poly.monomial(CycNum.one(n), -k), _canonical=True)

    @staticmethod
    def from_laurent(n: int, min_exp: int, coeffs: Iterable[CycNum]) -> RatFun:
        """Laurent polynomial with given lowest exponent and coefficient run."""
        p = Poly(n, coeffs)
        if min_exp >= 0:
            return RatFun.from_poly(p.shift(min_exp))
        return RatFun(p, Poly.monomial(CycNum.one(n), -min_exp))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.rows

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_const()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise MalformedInput("rational function is not a polynomial")
        return self.num

    def is_laurent(self) -> bool:
        return self.den.is_monomial()

    def laurent_parts(self) -> tuple[int, Poly]:
        """Return (v, p) with self = z^v * p and p of nonzero constant term."""
        if not self.is_laurent():
            raise MalformedInput("rational function is not a Laurent polynomial")
        if self.is_zero():
            return 0, Poly.zero(self.n)
        v = self.num.valuation()
        return v - self.den.degree(), self.num.drop_low(v)

    def laurent_bounds(self) -> tuple[int, int]:
        """(valuation, degree) of a Laurent polynomial; zero gives (0, 0)."""
        if self.is_zero():
            return 0, 0
        v, p = self.laurent_parts()
        return v, v + p.degree()

    def const_value(self) -> CycNum:
        if not (self.is_polynomial() and self.num.is_const()):
            raise MalformedInput("rational function is not constant")
        return self.num.coeff(0)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: RatFun) -> None:
        if self.n != other.n:
            raise ModulusMismatch(f"mixed moduli {self.n} and {other.n}")

    def __add__(self, other: RatFun) -> RatFun:
        """The sum; over z^a and z^b it is formed by shifts, with no gcd (module docstring)."""
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self.den, other.den
        if a.is_monomial() and b.is_monomial():
            i, j = a.degree(), b.degree()
            k = max(i, j)
            return RatFun._over_z(self.num.shift(k - i) + other.num.shift(k - j), k)
        if a == b:
            return RatFun(self.num + other.num, a)
        return RatFun(self.num * b + other.num * a, a * b)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den, _canonical=True)

    def __mul__(self, other: RatFun) -> RatFun:
        """The product, with no reduction of the full products (module docstring).

        Over z^a and z^b it is num_x num_y / z^(a + b) with the common power of
        z stripped; otherwise the cross gcds are cancelled first.
        """
        self._check(other)
        if self.is_zero() or other.is_zero():
            return RatFun.zero(self.n)
        if self.den.is_one() and other.den.is_one():  # two polynomials: canonical
            return RatFun(self.num * other.num, self.den, _canonical=True)
        if self.den.is_monomial() and other.den.is_monomial():
            return RatFun._over_z(self.num * other.num, self.den.degree() + other.den.degree())
        xn, yd = _cancel(self.num, other.den)
        yn, xd = _cancel(other.num, self.den)
        return RatFun(xn * yn, xd * yd, _canonical=True)

    @staticmethod
    def _over_z(num: Poly, k: int) -> RatFun:
        """num / z^k in canonical form: the common power of z is the only common factor."""
        if num.is_zero():
            return RatFun.zero(num.n)
        v = min(num.valuation(), k) if k else 0
        if v:
            num = num.drop_low(v)
        return RatFun(num, Poly.one(num.n).shift(k - v), _canonical=True)

    @staticmethod
    def dot(xs, ys) -> RatFun:
        """sum_i xs[i] * ys[i], for nonempty xs, with one normalisation.

        Zero terms are skipped and one term is a plain product.  When every
        denominator is a power of z the numerator products are shifted to the
        largest exponent, added and stripped once.  Otherwise the numerator
        products are summed per denominator product; an lcm is taken only
        when two or more distinct denominator products remain, and the sum
        is reduced once.  Mixed moduli raise ModulusMismatch from the products.
        """
        n = xs[0].n
        terms = []
        zero = None
        for x, y in zip(xs, ys):
            if not x.num.rows:
                zero = x
            elif not y.num.rows:
                zero = y
            else:
                terms.append((x, y))
        if len(terms) <= 1:
            return terms[0][0] * terms[0][1] if terms else zero or RatFun.zero(n)
        exps = []  # z-power exponent of each denominator product
        for x, y in terms:
            if not (x.den.is_monomial() and y.den.is_monomial()):
                break
            exps.append(len(x.den.rows) + len(y.den.rows) - 2)
        else:
            k = max(exps)
            shifted = [(x.num * y.num, k - e) for (x, y), e in zip(terms, exps)]
            return RatFun._over_z(Poly._sum(n, shifted), k)
        groups: dict[Poly, list] = {}
        for x, y in terms:
            groups.setdefault(x.den * y.den, []).append((x.num * y.num, 0))
        if len(groups) == 1:
            ((den, nums),) = groups.items()
            return RatFun(Poly._sum(n, nums), den)
        common = reduce(poly_lcm, groups)
        sums = [(Poly._sum(n, nums) * common.divexact(den), 0) for den, nums in groups.items()]
        return RatFun(Poly._sum(n, sums), common)

    def inv(self) -> RatFun:
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other: RatFun) -> RatFun:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> RatFun:
        if k < 0:
            return self.inv() ** (-k)
        return RatFun(self.num ** k, self.den ** k)

    def scale(self, c: CycNum) -> RatFun:
        return RatFun(self.num.scale(c), self.den)

    def eval(self, point: CycNum) -> CycNum:
        d = self.den.eval(point)
        if d.is_zero():
            raise DivisionByZero("evaluation at a pole")
        return self.num.eval(point) * d.inv()

    def compose_moebius(self, mob) -> RatFun:
        """Substitute z -> (a z + b)/(c z + d); requires a d - b c != 0.

        The substituted numerator and denominator are coprime (see the module
        docstring), so the result is canonical without a gcd.  A map with
        a d - b c = 0 raises MalformedInput.
        """
        return _kernel_of(mob, self.n).apply(self)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / g and den / g for g = gcd(num, den), den monic.

    g = 1 when either side is constant, and g = z^min(val num, k) when den is
    z^k, so only the other cases run Euclid.
    """
    if num.is_const() or den.is_const():
        return num, den
    if den.is_monomial():
        v = min(num.valuation(), den.degree())
        return (num.drop_low(v), den.drop_low(v)) if v else (num, den)
    g = poly_gcd(num, den)
    if g.degree() > 0:
        return num.divexact(g), den.divexact(g)
    return num, den


class _MoebiusKernel:
    """Substitution z -> (a z + b)/(c z + d), kept by its map across calls.

    For a general map, rows[k][i] = (a z + b)^i (c z + d)^(k - i) for
    i = 0..k, built on demand and kept, so substituting into a polynomial of
    degree at most k is a linear combination of row k.  A rational function
    P/Q is substituted with the row of degree max(deg P, deg Q) on both
    sides, which leaves the result coprime when a d - b c != 0 (see the
    module docstring).  For z -> alpha z (b = c = 0) and z -> nu/z
    (a = d = 0) the kernel keeps the powers of base = alpha or nu instead and
    scales coefficients by them (the monomial-map rule in the module
    docstring); invert tells the two apart.
    """

    __slots__ = ("n", "lin_num", "lin_den", "rows", "base", "invert", "up", "down")

    def __init__(self, mob, n: int):
        ctx = _context(n)
        a, b, c, d = mob.a, mob.b, mob.c, mob.d
        ad, bc = _vec_mul(ctx, a.num, d.num), _vec_mul(ctx, b.num, c.num)
        if [x * b.den * c.den for x in ad] == [y * a.den * d.den for y in bc]:
            raise MalformedInput("Moebius map with zero determinant")
        self.n = n
        self.base = None
        # alpha = a/d = a^2/(a d) and nu = b/c = -b^2/(-b c), with inverses
        # d^2/(a d) and -c^2/(-b c): one inverse of the determinant, none in SL(2).
        if b.is_zero() and c.is_zero():
            det, self.base, inverse, self.invert = a * d, a * a, d * d, False
        elif a.is_zero() and d.is_zero():
            det, self.base, inverse, self.invert = -(b * c), -(b * b), -(c * c), True
        if self.base is None:
            self.lin_num = Poly(n, [b, a])
            self.lin_den = Poly(n, [d, c])
            self.rows = [[Poly.one(n)]]
            return
        if not det.is_one():
            r = det.inv()
            self.base, inverse = self.base * r, inverse * r
        one = CycNum.one(n)
        self.up, self.down = [one, self.base], [one, inverse]

    def _row(self, k: int) -> list[Poly]:
        rows = self.rows
        while len(rows) <= k:
            last = rows[-1]
            rows.append([p * self.lin_den for p in last] + [last[-1] * self.lin_num])
        return rows[k]

    def _power(self, e: int) -> CycNum:
        """base^e for any integer e, from the powers kept so far."""
        pows = self.up if e >= 0 else self.down
        e = abs(e)
        while len(pows) <= e:
            pows.append(pows[-1] * pows[1])
        return pows[e]

    def _substitute(self, p: Poly, row: list[Poly]) -> Poly:
        """sum_i p_i row[i], summed over the lcm of the denominators of the row polynomials."""
        ctx = _context(self.n)
        den = 1
        for c, r in zip(p.rows, row):
            if any(c):
                den = lcm(den, r.den)
        acc = [[0] * (2 * ctx.phi - 1) for _ in row]
        for c, r in zip(p.rows, row):
            terms = [(k, x) for k, x in enumerate(c) if x]
            if not terms:
                continue
            f = den // r.den
            for out, rr in zip(acc, r.rows):
                for l, y in enumerate(rr):
                    if y:
                        y *= f
                        for k, x in terms:
                            out[k + l] += x * y
        return Poly._normal(self.n, [_fold(ctx, w) for w in acc], p.den * den)

    def _scale(self, p: Poly, shift: int, k: Optional[int]) -> Poly:
        """sum_i p_i base^(i - shift) z^i, or with z^(k - i) in place of z^i when k is given."""
        ctx = _context(self.n)
        scaled = []
        for i, r in enumerate(p.rows):
            if any(r):
                w = self._power(i - shift)
                scaled.append((_vec_mul(ctx, r, w.num), w.den))
            else:
                scaled.append((r, 1))
        den = lcm(*(d for _, d in scaled))
        rows = [v if d == den else [x * (den // d) for x in v] for v, d in scaled]
        if k is not None:
            rows = [(0,) * ctx.phi] * (k + 1 - len(rows)) + rows[::-1]
        return Poly._normal(self.n, rows, p.den * den)

    def apply(self, f: RatFun) -> RatFun:
        k = max(f.num.degree(), f.den.degree())
        if k <= 0:  # zero or constant
            return f
        if self.base is None:
            row = self._row(k)
            num, den = self._substitute(f.num, row), self._substitute(f.den, row)
        elif self.invert:
            v = f.den.valuation()
            num, den = self._scale(f.num, v, k), self._scale(f.den, v, k)
        else:
            m = f.den.degree()
            num, den = self._scale(f.num, m, None), self._scale(f.den, m, None)
        if not den.is_monic():
            inv = den.lead().inv()
            num, den = num.scale(inv), den.scale(inv)
        return RatFun(num, den, _canonical=True)


def _kernel_of(mob, n: int) -> _MoebiusKernel:
    """The kernel mob keeps (MoebiusMap.kernel), else a fresh one for this call."""
    kept = getattr(mob, "kernel", None)
    if kept is None:
        return _MoebiusKernel(mob, n)
    kernel = kept()
    if kernel.n != n:
        raise ModulusMismatch(f"coefficient modulus {kernel.n} != {n}")
    return kernel


def invert_variable(f: RatFun) -> RatFun:
    """Substitute z -> 1/z, mapping between the two chart coordinates."""
    n = f.n
    if f.is_zero():
        return f
    dn, dd = f.num.degree(), f.den.degree()
    num_rev = f.num.reversed()
    den_rev = f.den.reversed()
    if dd >= dn:
        return RatFun(num_rev.shift(dd - dn), den_rev)
    return RatFun(num_rev, den_rev.shift(dn - dd))


def laurent_is_unit(f: RatFun) -> Optional[tuple[CycNum, int]]:
    """Decide whether f = c * z^k; return (c, k) if so, else None."""
    if f.is_zero():
        return None
    if not f.den.is_monomial() or not f.num.is_monomial():
        return None
    k = f.num.degree() - f.den.degree()
    c = f.num.lead() * f.den.lead().inv()
    return c, k


class RatMat:
    """Rectangular matrix of rational functions."""

    __slots__ = ("n", "rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[RatFun]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise MalformedInput("matrix must be nonempty")
        cols = len(entries[0])
        n = entries[0][0].n
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged matrix rows")
            for e in row:
                if e.n != n:
                    raise ModulusMismatch("mixed moduli in matrix entries")
        self.n = n
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int, size: int) -> RatMat:
        one, zero = RatFun.one(n), RatFun.zero(n)
        return RatMat([[one if i == j else zero for j in range(size)] for i in range(size)])

    @staticmethod
    def diag(entries: Iterable[RatFun]) -> RatMat:
        entries = list(entries)
        n = entries[0].n
        zero = RatFun.zero(n)
        size = len(entries)
        return RatMat(
            [[entries[i] if i == j else zero for j in range(size)] for i in range(size)]
        )

    # -- structure ----------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> RatFun:
        return self.entries[ij[0]][ij[1]]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> RatMat:
        row_idx, col_idx = list(row_idx), list(col_idx)
        return RatMat([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def hstack(self, other: RatMat) -> RatMat:
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return RatMat([list(a) + list(b) for a, b in zip(self.entries, other.entries)])

    def with_entry(self, i: int, j: int, value: RatFun) -> RatMat:
        rows = [list(row) for row in self.entries]
        rows[i][j] = value
        return RatMat(rows)

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for row in self.entries for e in row)

    def is_identity(self) -> bool:
        return self.is_square() and mat_is_identity(self.entries)

    def is_zero(self) -> bool:
        return mat_is_zero(self.entries)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: RatMat) -> RatMat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RatMat(mat_add(self.entries, other.entries))

    def __sub__(self, other: RatMat) -> RatMat:
        return self + other.neg()

    def neg(self) -> RatMat:
        return RatMat(mat_neg(self.entries))

    def scale(self, f: RatFun) -> RatMat:
        return RatMat(mat_scale(self.entries, f))

    def __mul__(self, other: RatMat) -> RatMat:
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matrix product shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        return RatMat(mat_mul(self.entries, other.entries))

    def mul_vector(self, vec: list[RatFun]) -> list[RatFun]:
        if self.cols != len(vec):
            raise DimensionMismatch("matrix-vector shape mismatch")
        return mat_vec(self.entries, vec)

    def det(self) -> RatFun:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        if self.rows <= 3:
            return mat_det_small(self.entries)
        return self._det_bareiss()

    def _det_bareiss(self) -> RatFun:
        # Clear each row to polynomials, run fraction-free elimination, divide at the end.
        n = self.n
        scale = Poly.one(n)
        mat: list[list[Poly]] = []
        for row in self.entries:
            den = Poly.one(n)
            for entry in row:
                den = poly_lcm(den, entry.den)
            mat.append([entry.num * den.divexact(entry.den) for entry in row])
            scale = scale * den
        size = self.rows
        sign = 1
        prev = Poly.one(n)
        for k in range(size - 1):
            if mat[k][k].is_zero():
                pivot_row = next(
                    (i for i in range(k + 1, size) if not mat[i][k].is_zero()), None
                )
                if pivot_row is None:
                    return RatFun.zero(n)
                mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
                sign = -sign
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    num = mat[k][k] * mat[i][j] - mat[i][k] * mat[k][j]
                    mat[i][j] = num.divexact(prev)
                mat[i][k] = Poly.zero(n)
            prev = mat[k][k]
        det_poly = mat[size - 1][size - 1]
        if sign < 0:
            det_poly = -det_poly
        return RatFun(det_poly, scale)

    def inv(self) -> RatMat:
        return RatMat(mat_inv(self.entries))

    def compose_moebius(self, mob) -> RatMat:
        """Substitute z -> (a z + b)/(c z + d) into every entry; requires a d - b c != 0.

        One kernel serves all entries, so they share its power rows, and a
        MoebiusMap keeps its kernel for later calls; each result is canonical
        without a gcd, as in RatFun.compose_moebius.
        """
        kernel = _kernel_of(mob, self.n)
        return RatMat([[kernel.apply(e) for e in row] for row in self.entries])

    def eval(self, point: CycNum) -> list[list[CycNum]]:
        return [[e.eval(point) for e in row] for row in self.entries]

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMat({self.rows}x{self.cols})"


# Functional aliases for the operation surface.

def ratmat_mul(a: RatMat, b: RatMat) -> RatMat:
    return a * b


def ratmat_det(a: RatMat) -> RatFun:
    return a.det()


def ratmat_inv(a: RatMat) -> RatMat:
    return a.inv()


def ratmat_compose(a: RatMat, mob) -> RatMat:
    return a.compose_moebius(mob)
