from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from equibundle import bundle, linalg, plant, ratfun, serialize
from equibundle.cyclotomic import CycNum
from equibundle.errors import MathRejection, NotACocycle, SingularMatrix
from equibundle.bundle import (
    TransitionCocycle,
    _compressed,
    _SectionSpace,
    birkhoff_factor,
    h0_dimension,
    h0_profile,
    hn_filtration,
    section_basis,
    splitting_type,
)
from equibundle.ratfun import Poly, RatFun, RatMat, invert_variable

N = 12


def cyc(v: int) -> CycNum:
    return CycNum.from_int(N, v)


def mono(c: int, k: int) -> RatFun:
    return RatFun.monomial(cyc(c), k)


def diag_cocycle(*degrees: int) -> TransitionCocycle:
    return TransitionCocycle(len(degrees), RatMat.diag([mono(1, d) for d in degrees]))


def rand_cyc(rng: random.Random) -> CycNum:
    from equibundle.cyclotomic import euler_phi

    return CycNum(N, [rng.randint(-2, 2) for _ in range(euler_phi(N))], 1)


def rand_poly(rng: random.Random, max_deg: int) -> Poly:
    return Poly(N, [rand_cyc(rng) for _ in range(rng.randint(1, max_deg + 1))])


def rand_unimodular_z(rng: random.Random, size: int, max_deg: int = 2) -> RatMat:
    """Product of elementary operations, polynomial in z, constant determinant."""
    m = RatMat.identity(N, size)
    for _ in range(rng.randint(1, 2 * size)):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if size == 1 or rng.random() < 0.2:
            c = rand_cyc(rng)
            while c.is_zero():
                c = rand_cyc(rng)
            e = RatMat.identity(N, size).with_entry(i, i, RatFun.const(c))
        else:
            e = RatMat.identity(N, size).with_entry(
                i, j, RatFun.from_poly(rand_poly(rng, max_deg))
            )
        m = m * e
    return m


def rand_unimodular_w(rng: random.Random, size: int, max_deg: int = 2) -> RatMat:
    m = RatMat.identity(N, size)
    for _ in range(rng.randint(1, 2 * size)):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if size == 1 or rng.random() < 0.2:
            c = rand_cyc(rng)
            while c.is_zero():
                c = rand_cyc(rng)
            e = RatMat.identity(N, size).with_entry(i, i, RatFun.const(c))
        else:
            poly = rand_poly(rng, max_deg)
            entry = RatFun.from_laurent(
                N, -poly.degree() if not poly.is_zero() else 0,
                list(reversed(poly.coeffs)) if not poly.is_zero() else [],
            )
            e = RatMat.identity(N, size).with_entry(i, j, entry)
        m = m * e
    return m


def planted_cocycle(rng: random.Random, degrees: list[int]) -> TransitionCocycle:
    size = len(degrees)
    u_plus = rand_unimodular_z(rng, size)
    u_minus = rand_unimodular_w(rng, size)
    d = RatMat.diag([mono(1, k) for k in degrees])
    return TransitionCocycle(size, u_plus * d * u_minus)


def test_not_a_cocycle_rejected():
    bad = RatMat([[RatFun.from_poly(Poly.from_ints(N, [1, 1]))]])
    with pytest.raises(NotACocycle):
        TransitionCocycle(1, bad)


def test_singular_rejected_distinctly():
    bad = RatMat([[mono(1, 1), mono(1, 1)], [mono(1, 1), mono(1, 1)]])
    with pytest.raises(SingularMatrix):
        TransitionCocycle(2, bad)


def test_birkhoff_diagonal_trivial():
    e = diag_cocycle(3, -1)
    fact = birkhoff_factor(e)
    assert fact.degrees == (3, -1)
    assert fact.u_plus.is_identity()
    assert fact.u_minus.is_identity()
    assert fact.residual_is_zero(e)


def test_birkhoff_diagonal_reorders():
    e = diag_cocycle(-1, 3)
    fact = birkhoff_factor(e)
    assert fact.degrees == (3, -1)
    assert fact.residual_is_zero(e)


def test_rank_one_unit():
    e = TransitionCocycle(1, RatMat([[mono(5, -4)]]))
    assert splitting_type(e) == (-4,)


def test_upper_triangular_extension_splits_at_middle():
    # [[z^2, z], [0, 1]] is the degree-2 bundle plus the trivial one glued
    # nontrivially; its type is (2, 0) with these conventions.
    t = RatMat([[mono(1, 2), mono(1, 1)], [RatFun.zero(N), mono(1, 0)]])
    e = TransitionCocycle(2, t)
    fact = birkhoff_factor(e)
    assert fact.degrees == (2, 0)
    assert fact.residual_is_zero(e)
    assert fact.factors_in_rings()


def test_planted_factorization_recovery():
    rng = random.Random(101)
    for _ in range(25):
        size = rng.randint(1, 4)
        degrees = sorted((rng.randint(-4, 4) for _ in range(size)), reverse=True)
        e = planted_cocycle(rng, degrees)
        fact = birkhoff_factor(e)
        assert fact.degrees == tuple(degrees)
        assert fact.residual_is_zero(e)
        assert fact.factors_in_rings()


def scan_case_20() -> tuple[TransitionCocycle, list[int]]:
    """Case 20 of the planted rank-5 scan "scan:5" over Q(zeta_12).

    Factoring it once took a Gauss-Jordan inverse of a size-4 Laurent matrix
    that ran for more than a minute.
    """
    rng = random.Random("scan:5")
    for _ in range(21):
        degrees = sorted((rng.randint(-4, 4) for _ in range(5)), reverse=True)
        cocycle, _, _ = plant.planted_cocycle(rng, N, degrees)
    return cocycle, degrees


def test_birkhoff_factor_inverts_nothing_by_elimination(monkeypatch):
    # Every factor carries its inverse, and the ring check multiplies factor
    # by inverse: factoring takes no determinant and eliminates no RatFun
    # matrix (the section solves eliminate over the field).
    calls, peels = [], []
    peel = bundle._max_degree_section

    def counted(name, fn):
        def call(a, *args):
            rows = a.entries if isinstance(a, RatMat) else a
            if any(isinstance(x, RatFun) for row in rows for x in row):
                calls.append(name)
            return fn(a, *args)

        return call

    def counted_peel(*args):
        peels.append(args)
        return peel(*args)

    # TransitionCocycle takes det T as its input check, so build first.
    cases = [((planted_cocycle(random.Random(7), [2, 1, 0, -3]), [2, 1, 0, -3]), 3), (scan_case_20(), 4)]
    monkeypatch.setattr(RatMat, "det", counted("RatMat.det", RatMat.det))
    monkeypatch.setattr(RatMat, "inv", counted("RatMat.inv", RatMat.inv))
    monkeypatch.setattr(linalg, "mat_inv", counted("mat_inv", linalg.mat_inv))
    monkeypatch.setattr(ratfun, "mat_inv", counted("mat_inv", ratfun.mat_inv))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(bundle, "_max_degree_section", counted_peel)
    for (cocycle, degrees), peel_count in cases:
        peels.clear()
        fact = birkhoff_factor(cocycle)
        assert fact.degrees == tuple(degrees)
        assert fact.residual_zero and fact.in_rings
        assert len(peels) == peel_count
    assert calls == []


def test_split_scan_case_20_subprocess(tmp_path):
    # A fresh process factors the case in seconds: one JSON object, exit 0.
    cocycle, degrees = scan_case_20()
    path = tmp_path / "cocycle.json"
    path.write_text(serialize.dumps(serialize.cocycle_to_json(cocycle)))
    fresh = subprocess.run(
        [sys.executable, "-m", "equibundle.cli", "split", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    report = json.loads(fresh.stdout)
    assert report["splitting_type"] == degrees
    assert report["residual_zero"] is True


def _mutated_core(monkeypatch, size: int, mutate) -> None:
    """Patch _birkhoff_core so that its output at this size goes through mutate."""
    core = bundle._birkhoff_core

    def patched(T, k_det):
        out = core(T, k_det)
        return mutate(*out) if T.rows == size else out

    monkeypatch.setattr(bundle, "_birkhoff_core", patched)


def test_birkhoff_factor_rejects_a_wrong_inverse_or_clearing_row(monkeypatch):
    # The residual and the ring check carry the certificate.  A changed U_plus
    # inverse and a U_minus inverse with a positive power of z each raise, and
    # so does a wrong clearing row in the first peel's recursion, given with
    # its inverse so that only the residual sees it.
    degrees = [2, 1, 0, -3]
    e = planted_cocycle(random.Random(7), degrees)
    z = mono(1, 1)

    def bad_u_plus_inv(l, l_inv, degs, r, r_inv):
        return l, l_inv.with_entry(0, 0, l_inv[0, 0] + mono(1, 0)), degs, r, r_inv

    def bad_u_minus_inv(l, l_inv, degs, r, r_inv):
        return l, l_inv, degs, r, r_inv.with_entry(1, 0, r_inv[1, 0] + z)

    def bad_clearing_row(l, l_inv, degs, r, r_inv):
        row = [z] + [RatFun.zero(N)] * (len(degs) - 2)
        return l * bundle._unit_row([-f for f in row]), bundle._unit_row(row) * l_inv, degs, r, r_inv

    for size, mutate, message in (
        (4, bad_u_plus_inv, "factors left their rings"),
        (4, bad_u_minus_inv, "factors left their rings"),
        (3, bad_clearing_row, "residual is nonzero"),
    ):
        with monkeypatch.context() as m:
            _mutated_core(m, size, mutate)
            with pytest.raises(MathRejection, match=message):
                birkhoff_factor(e)
    assert birkhoff_factor(e).degrees == tuple(degrees)


def test_splitting_type_invariance_under_retrivialization():
    rng = random.Random(55)
    for _ in range(8):
        degrees = sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)
        e = planted_cocycle(rng, degrees)
        a = rand_unimodular_z(rng, 3)
        b = rand_unimodular_w(rng, 3)
        twisted = TransitionCocycle(3, a * e.transition * b)
        assert splitting_type(twisted) == tuple(degrees)


def test_h0_line_bundles():
    for d in range(-3, 5):
        e = diag_cocycle(d)
        assert h0_dimension(e, 0) == max(0, d + 1)


def test_h0_sum_of_lines():
    e = diag_cocycle(2, 0)
    assert h0_dimension(e, 0) == 4


def test_h0_profile_matches_formula():
    rng = random.Random(77)
    for _ in range(6):
        degrees = sorted((rng.randint(-4, 4) for _ in range(rng.randint(1, 3))), reverse=True)
        e = planted_cocycle(rng, degrees)
        window = max(abs(d) for d in degrees) + 2
        profile = h0_profile(e, -window, window)
        for m in range(-window, window + 1):
            expected = sum(max(0, d + m + 1) for d in degrees)
            assert profile[m] == expected, (degrees, m)


def test_h0_profile_agrees_with_single_solves():
    rng = random.Random(88)
    e = planted_cocycle(rng, [2, -1])
    profile = h0_profile(e, -3, 3)
    for m in range(-3, 4):
        assert profile[m] == h0_dimension(e, m)


def test_degree_conservation():
    rng = random.Random(99)
    for _ in range(6):
        degrees = sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)
        e = planted_cocycle(rng, degrees)
        assert e.degree == sum(degrees)
        assert sum(splitting_type(e)) == e.degree


def test_section_basis_satisfies_matching():
    rng = random.Random(111)
    e = planted_cocycle(rng, [1, 0])
    pairs = section_basis(e, 1)
    assert len(pairs) == h0_dimension(e, 1)
    z_m = RatFun.monomial(cyc(1), 1)
    for s0, s1 in pairs:
        s1_z = [
            RatFun.from_laurent(
                N,
                -p.degree() if not p.is_zero() else 0,
                list(reversed(p.coeffs)) if not p.is_zero() else [],
            )
            for p in s1
        ]
        lhs = [RatFun.from_poly(p) for p in s0]
        rhs = e.transition.scale(z_m).mul_vector(s1_z)
        assert lhs == rhs


def test_section_ladder_pairs_match_at_every_twist():
    # Walk one section space down the twist ladder on the compressed
    # transition T_h; at each twist m every pair satisfies
    # s0(z) = T_h(z) z^m s1(1/z) and the pairs count h0 of E x O(m - shift).
    rng = random.Random(2024)
    for degrees in ([2, -1], [1, 1, -2], [3, 0, -1]):
        e = planted_cocycle(rng, degrees)
        t_h, _, _, shift = _compressed(e.transition)
        m_hi = shift + max(degrees) + 1
        space = _SectionSpace(t_h, m_hi, e.degree - e.rank * shift)
        dims = []
        for m in range(m_hi, shift - max(degrees) - 2, -1):
            assert space.m == m
            pairs = space.section_pairs()
            assert len(pairs) == space.dim() == h0_dimension(e, m - shift)
            z_m = RatFun.monomial(cyc(1), m)
            for s0, s1 in pairs:
                s1_z = [invert_variable(RatFun.from_poly(p)) for p in s1]
                assert [RatFun.from_poly(p) for p in s0] == t_h.scale(z_m).mul_vector(s1_z)
            dims.append(len(pairs))
            space.step_down()
        assert dims[-1] == 0 < dims[0]
        assert len(set(dims)) > 2, degrees


def test_hn_filtration_semistable():
    e = diag_cocycle(2, 2)
    hn = hn_filtration(e)
    assert hn.length() == 1
    assert hn.slopes == (2,)
    assert hn.multiplicities == (2,)


def test_hn_filtration_two_steps():
    e = diag_cocycle(3, -1)
    hn = hn_filtration(e)
    assert hn.length() == 2
    assert hn.slopes == (3, -1)
    assert hn.ranks == (1, 2)
    assert hn.bases[0].rows == 2 and hn.bases[0].cols == 1


def test_hn_filtration_planted():
    rng = random.Random(321)
    e = planted_cocycle(rng, [2, 2, -1])
    hn = hn_filtration(e)
    assert hn.slopes == (2, -1)
    assert hn.multiplicities == (2, 1)
    assert hn.ranks == (2, 3)
