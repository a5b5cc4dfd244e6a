from __future__ import annotations

import random

import pytest

from equibundle.cyclotomic import CycNum
from equibundle.errors import ModulusMismatch, ParityObstruction
from equibundle.linalg import mat_eq, mat_mul
from equibundle.matgroup import SL2Elem, catalog, generate_group
from equibundle.moebius import (
    AutomorphyFactor,
    MoebiusMap,
    act_point,
    automorphy_factor,
    natural_structure,
    sym_power_matrix,
)
from equibundle.extensions import extension_splits, pgl_group
from equibundle.ratfun import Poly, RatFun, RatMat


def point(n: int, x: int, y: int):
    return (CycNum.from_int(n, x), CycNum.from_int(n, y))


def test_identity_acts_trivially():
    g = SL2Elem.identity(4)
    p = point(4, 3, 1)
    assert act_point(g, p) == p


def test_rotation_swaps_zero_and_infinity():
    g = SL2Elem.from_ints(4, 0, 1, -1, 0)
    zero = point(4, 0, 1)
    infinity = point(4, 1, 0)
    assert act_point(g, zero) == infinity
    assert act_point(g, infinity) == (CycNum.zero(4), CycNum.one(4))


def test_diag_fixed_points_are_exactly_zero_and_infinity():
    g = SL2Elem.diag(CycNum.zeta(3))
    n = 3
    zero, infinity = point(n, 0, 1), point(n, 1, 0)
    assert act_point(g, zero) == zero
    assert act_point(g, infinity) == (CycNum.one(n), CycNum.zero(n))
    # The fixed-point polynomial c z^2 + (d - a) z - b reduces to (d - a) z,
    # whose only affine root is 0; the degree drop is the fixed point at
    # infinity.
    fixed_poly = Poly(n, [-g.b, g.d - g.a, g.c])
    assert fixed_poly.valuation() == 1
    assert fixed_poly.degree() == 1
    # A sample non-fixed point moves.
    p = point(n, 1, 1)
    assert act_point(g, p) != p


def test_act_point_is_group_action_exhaustive():
    g = catalog("binary_dihedral", 2).group()
    n = g.n
    points = [point(n, 0, 1), point(n, 1, 0), point(n, 2, 1), point(n, -1, 3)]
    for a in g.elements:
        for b in g.elements:
            for p in points:
                assert act_point(a * b, p) == act_point(a, act_point(b, p))


def test_kept_kernel_matches_a_fresh_map_per_call():
    # One map object keeps its power rows across calls and grows them on
    # demand; the results equal those of a new map for every call.
    g = catalog("binary_dihedral", 3).group()
    n = g.n
    rng = random.Random(11)
    for elem in g.elements[1:6]:
        kept = MoebiusMap(elem)
        for deg in (3, 1, 5, 0, 4):
            num = Poly(n, [CycNum.from_int(n, rng.randint(-3, 3)) for _ in range(deg + 1)])
            den = Poly(n, [CycNum.from_int(n, rng.randint(1, 3)), CycNum.one(n)])
            f = RatFun(num, den)
            assert f.compose_moebius(kept) == f.compose_moebius(MoebiusMap(elem))
        with pytest.raises(ModulusMismatch):
            RatFun.one(5).compose_moebius(kept)


@pytest.mark.parametrize("degree", [-2, -1, 0, 1, 2, 3])
def test_automorphy_cocycle_law_exhaustive(degree):
    g = catalog("cyclic", 4).group()
    factor = AutomorphyFactor(degree)
    for a in g.elements:
        for b in g.elements:
            assert factor.cocycle_holds(a, b)


def test_automorphy_cocycle_quaternion():
    g = catalog("binary_dihedral", 2).group()
    factor = AutomorphyFactor(1)
    rng = random.Random(3)
    elems = list(g.elements)
    for _ in range(30):
        a, b = rng.choice(elems), rng.choice(elems)
        assert factor.cocycle_holds(a, b)


def test_even_factor_trivial_on_minus_identity():
    n = 4
    minus = -SL2Elem.identity(n)
    for degree in (-4, -2, 0, 2, 6):
        f = automorphy_factor(minus, degree)
        assert f.is_one()
    assert automorphy_factor(minus, 1) == automorphy_factor(minus, 3)
    assert not automorphy_factor(minus, 1).is_one()


def test_pgl_even_factor_lift_independent():
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    for rep in h.generator_reps:
        assert automorphy_factor(rep, 2) == automorphy_factor(-rep, 2)
        assert automorphy_factor(rep, -4) == automorphy_factor(-rep, -4)


def test_natural_structure_even_degree_over_pgl():
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    bundle = natural_structure(2, h)
    from equibundle.equivariant import validate_equivariance

    assert validate_equivariance(bundle, level="all").ok


def test_natural_structure_odd_degree_over_nonsplit_pgl_rejected():
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    with pytest.raises(ParityObstruction):
        natural_structure(1, h)


def test_sym_power_is_homomorphism():
    g = catalog("binary_dihedral", 3).group()
    rng = random.Random(17)
    elems = list(g.elements)
    for d in (1, 2, 3):
        for _ in range(15):
            a, b = rng.choice(elems), rng.choice(elems)
            lhs = sym_power_matrix(a * b, d)
            rhs = mat_mul(sym_power_matrix(a, d), sym_power_matrix(b, d))
            assert mat_eq(lhs, rhs)


def test_sym_one_is_standard_up_to_conjugation():
    # Degree-1 sections transform by [[a, -b], [-c, d]], the conjugate of the
    # defining matrix by diag(1, -1); traces agree with the standard module.
    g = generate_group([SL2Elem.diag(CycNum.zeta(3))])
    for elem in g.elements:
        m = sym_power_matrix(elem, 1)
        assert m[0][0] == elem.a
        assert m[0][1] == -elem.b
        assert m[1][0] == -elem.c
        assert m[1][1] == elem.d


def test_natural_structure_pinned_matrices():
    def line(f):
        return RatMat([[f]])

    # Matrix group: generator g acts by (c z + d)^(-degree).
    g = catalog("binary_dihedral", 2).group()  # diag(i, -i) and [[0, 1], [-1, 0]]
    e = natural_structure(3, g)
    assert e.base.transition == line(RatFun.monomial(CycNum.one(4), 3))
    assert e.gen_action == (
        line(RatFun.const(CycNum.zeta(4, 3))),
        line(RatFun.monomial(CycNum.from_int(4, -1), -3)),
    )
    # Even degree over a projective group: the sign of the lift cancels.
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    e = natural_structure(2, h)
    assert e.base.transition == line(RatFun.monomial(CycNum.one(4), 2))
    assert e.gen_action == (line(RatFun.monomial(CycNum.one(4), -2)),)
    # Odd degree with an explicit splitting.  The generator is listed twice,
    # so the sign search settles on gen_lifts = (-r, r) while the spanning
    # tree reaches both generators through generator 0; every generator
    # transforms by the tree lift -r = diag(-zeta_6, -zeta_6^(-1)).
    r = catalog("cyclic", 6).generators[0]
    h = pgl_group([r, r])
    gamma = extension_splits(h)
    assert gamma.gen_lifts == (-r, r)
    assert [gamma.lift_of(h, i) for i in h.generator_indices] == [-r, -r]
    e = natural_structure(1, h, gamma=gamma)
    assert e.base.transition == line(RatFun.monomial(CycNum.one(6), 1))
    assert e.gen_action == (line(RatFun.const(CycNum.zeta(6, 4))),) * 2
    # Odd degree over a non-split projective group has no natural structure.
    with pytest.raises(ParityObstruction):
        natural_structure(1, pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)]))
