"""Moebius actions on P^1 in chart coordinates, and factors of automorphy.

Conventions fixed here once and used everywhere else:

* chart 0 has affine coordinate z (second homogeneous coordinate nonzero),
  chart 1 has w = 1/z, and the line bundle of degree n has transition z^n
  relating chart-0 fibre coordinates to chart-1 fibre coordinates,
  v0 = z^n * v1;
* the natural lift of g = [[a,b],[c,d]] to the degree-n line bundle acts on
  chart-0 fibre coordinates by the factor of automorphy (c z + d)^(-n);
* with these choices the global sections of the degree-1 bundle carry the
  standard 2-dimensional representation (not its dual).
"""

from __future__ import annotations

from .cyclotomic import CycNum
from .errors import MalformedInput
from .linalg import Matrix
from .matgroup import SL2Elem, trivial_representation
from .ratfun import Poly, RatFun, _MoebiusKernel

__all__ = [
    "MoebiusMap",
    "AutomorphyFactor",
    "act_point",
    "mu_poly",
    "automorphy_factor",
    "sym_power_matrix",
    "natural_structure",
]


class MoebiusMap:
    """The fractional-linear map z -> (a z + b)/(c z + d) of a matrix.

    The map keeps its substitution kernel: every compose_moebius by the same
    map object reuses the power rows (a z + b)^i (c z + d)^(k - i) built so
    far, and the rows go away with the map.
    """

    __slots__ = ("source", "a", "b", "c", "d", "_kernel")

    def __init__(self, source: SL2Elem):
        self.source = source
        self.a, self.b, self.c, self.d = source.a, source.b, source.c, source.d
        self._kernel: _MoebiusKernel | None = None

    def kernel(self) -> _MoebiusKernel:
        """The substitution kernel, built on the first substitution."""
        if self._kernel is None:
            self._kernel = _MoebiusKernel(self, self.source.n)
        return self._kernel

    def __repr__(self) -> str:
        return f"MoebiusMap({self.source!r})"


def act_point(g: SL2Elem, p: tuple[CycNum, CycNum]) -> tuple[CycNum, CycNum]:
    """Projective action on homogeneous coordinates, canonically rescaled."""
    x, y = p
    if x.is_zero() and y.is_zero():
        raise MalformedInput("(0, 0) is not a point of the projective line")
    nx = g.a * x + g.b * y
    ny = g.c * x + g.d * y
    n = g.n
    if not ny.is_zero():
        return (nx * ny.inv(), CycNum.one(n))
    return (CycNum.one(n), CycNum.zero(n))


def mu_poly(g: SL2Elem) -> Poly:
    """The chart-0 automorphy cocycle c z + d of g."""
    return Poly(g.n, [g.d, g.c])


def automorphy_factor(g: SL2Elem, degree: int) -> RatFun:
    """(c z + d)^(-degree), the natural chart-0 factor for the degree-n bundle."""
    mu = mu_poly(g)
    if degree >= 0:
        return RatFun(Poly.one(g.n), mu ** degree)
    return RatFun.from_poly(mu ** (-degree))


class AutomorphyFactor:
    """The scalar cocycle j_g(z) = (c z + d)^(-n) for a fixed degree n."""

    __slots__ = ("degree",)

    def __init__(self, degree: int):
        self.degree = degree

    def at(self, g: SL2Elem) -> RatFun:
        return automorphy_factor(g, self.degree)

    def cocycle_holds(self, g: SL2Elem, h: SL2Elem) -> bool:
        """j_{gh}(z) = j_g(h z) * j_h(z), exactly."""
        lhs = self.at(g * h)
        rhs = self.at(g).compose_moebius(MoebiusMap(h)) * self.at(h)
        return lhs == rhs


def sym_power_matrix(g: SL2Elem, d: int) -> Matrix:
    """Action of g on global sections of the degree-d bundle, d >= 0.

    In the basis 1, z, ..., z^d a section transforms by
    s(z) -> (a - c z)^(d-k) (d' z - b)^k on the k-th basis vector, which is the
    d-th symmetric power of the standard representation.
    """
    if d < 0:
        raise MalformedInput("symmetric power defined for nonnegative degree")
    n = g.n
    p_left = Poly(n, [g.a, -g.c])   # a - c z
    p_right = Poly(n, [-g.b, g.d])  # d z - b
    left_pows = [Poly.one(n)]
    right_pows = [Poly.one(n)]
    for _ in range(d):
        left_pows.append(left_pows[-1] * p_left)
        right_pows.append(right_pows[-1] * p_right)
    zero = CycNum.zero(n)
    cols = []
    for k in range(d + 1):
        poly = left_pows[d - k] * right_pows[k]
        col = [poly.coeff(j) for j in range(d + 1)]
        cols.append(col)
    return [[cols[k][j] for k in range(d + 1)] for j in range(d + 1)]


def natural_structure(degree: int, group, gamma=None):
    """The degree-n line bundle with its natural equivariant structure.

    For a subgroup of SL(2, C) every degree is allowed.  For a projective
    group only even degrees lift; odd degrees require a splitting
    homomorphism (supplied as gamma, mapping generator cosets to lifts).
    """
    from .equivariant import CanonicalEntry, CanonicalForm, build_from_canonical

    trivial = CanonicalEntry(degree, trivial_representation(group))
    return build_from_canonical(CanonicalForm([trivial]), group, gamma)
