"""Seeded random construction of test instances.

Everything here is deterministic in the supplied random.Random, which is how
the verification suites achieve byte-identical reruns.  Planted cocycles are
unimodular dressings of known diagonals; random modules are assembled from
exactly-known building blocks (characters found by exponent arithmetic, the defining
2-dimensional representation, its symmetric square) and random conjugation.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd, lcm
from typing import Optional

from .bundle import TransitionCocycle
from .cyclotomic import CycNum, euler_phi
from .equivariant import (
    CanonicalEntry,
    CanonicalForm,
    EquivariantBundle,
    summand_rule,
)
from .errors import MathRejection, SingularMatrix
from .extensions import PGLGroup
from .linalg import Matrix, mat_inv
from .matgroup import FiniteMatrixGroup, Representation, standard_representation
from .moebius import sym_power_matrix
from .ratfun import Poly, RatFun, RatMat, invert_variable

__all__ = [
    "random_unimodular_z",
    "random_unimodular_w",
    "planted_cocycle",
    "one_dim_reps",
    "sym_square_rep",
    "random_module",
    "random_canonical_form",
    "random_retrivialization",
    "conjugated_modules",
]


def _rand_cyc(rng: random.Random, n: int, bound: int = 2) -> CycNum:
    return CycNum(n, [rng.randint(-bound, bound) for _ in range(euler_phi(n))], 1)


def _rand_poly(rng: random.Random, n: int, max_deg: int) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [_rand_cyc(rng, n) for _ in range(deg + 1)]
    return Poly(n, coeffs)


def _max_entry_degree(m: RatMat, in_w: bool) -> int:
    """Largest entry degree in z, or in w = 1/z when in_w."""
    out = 0
    for row in m.entries:
        for e in row:
            if not e.is_zero():
                lo, hi = e.laurent_bounds()
                out = max(out, -lo if in_w else hi)
    return out


def _random_unimodular(
    rng: random.Random, n: int, size: int, entry_cap: int, ops: Optional[int], in_w: bool
) -> RatMat:
    """Product of random elementary and diagonal factors over C[z], or C[1/z] when in_w.

    Each factor is applied as a column operation: right-multiplying by
    I + entry e_ij adds entry times column i to column j, and a diagonal
    factor scales column i.
    """
    while True:
        rows = [list(row) for row in RatMat.identity(n, size).entries]
        count = ops if ops is not None else rng.randint(1, 2 * size)
        for _ in range(count):
            if size > 1 and rng.random() >= 0.25:
                i, j = rng.sample(range(size), 2)
                p = _rand_poly(rng, n, min(2, entry_cap))
                entry = RatFun.from_poly(p)
                if in_w:
                    entry = invert_variable(entry)
                for row in rows:
                    row[j] = row[j] + row[i] * entry
            else:
                i = rng.randrange(size)
                c = _rand_cyc(rng, n)
                while c.is_zero():
                    c = _rand_cyc(rng, n)
                for row in rows:
                    row[i] = row[i].scale(c)
        m = RatMat(rows)
        if _max_entry_degree(m, in_w) <= entry_cap:
            return m


def random_unimodular_z(
    rng: random.Random, n: int, size: int, entry_cap: int = 3, ops: Optional[int] = None
) -> RatMat:
    """Unimodular polynomial matrix with all entry degrees at most entry_cap."""
    return _random_unimodular(rng, n, size, entry_cap, ops, in_w=False)


def random_unimodular_w(
    rng: random.Random, n: int, size: int, entry_cap: int = 3, ops: Optional[int] = None
) -> RatMat:
    """Unimodular matrix over C[1/z] with w-degrees at most entry_cap."""
    return _random_unimodular(rng, n, size, entry_cap, ops, in_w=True)


def planted_cocycle(
    rng: random.Random, n: int, degrees: list[int], entry_cap: int = 3
) -> tuple[TransitionCocycle, RatMat, RatMat]:
    """A cocycle with known splitting type: U_plus * diag(z^d) * U_minus."""
    size = len(degrees)
    u_plus = random_unimodular_z(rng, n, size, entry_cap)
    u_minus = random_unimodular_w(rng, n, size, entry_cap)
    one = CycNum.one(n)
    diag = RatMat.diag([RatFun.monomial(one, d) for d in degrees])
    return TransitionCocycle(size, u_plus * diag * u_minus), u_plus, u_minus


# ---------------------------------------------------------------------------
# Module building blocks


def one_dim_reps(group) -> list[Representation]:
    """All 1-dimensional representations with values in the ambient field.

    The roots of unity of Q(zeta_n) form the cyclic group of order
    L = lcm(2, n); a generator is zeta_n for even n and -zeta_n^((n+1)/2),
    whose square is zeta_n, for odd n.  A character is therefore one
    exponent e[x] mod L per element.  Each candidate gives generator t an
    exponent k_t whose root has order dividing that of the generator (k_t
    increasing, the last generator fastest), is extended along the spanning
    tree and is kept when e[x] + k_t = e[x g_t] (mod L) for every element x
    and generator t: the multiplication-table check of Representation on
    the images base^e.  Only the characters kept are built.
    """
    n, gens = group.n, group.generator_indices
    big = lcm(2, n)
    cands = [
        [k for k in range(big) if group.element_order(gi) % (big // gcd(big, k)) == 0]
        for gi in gens
    ]
    base = CycNum.zeta(n, 1) if n % 2 == 0 else -CycNum.zeta(n, (n + 1) // 2)
    pows = [CycNum.one(n)]
    for _ in range(big - 1):
        pows.append(pows[-1] * base)
    out = []
    for ks in product(*cands):
        by_gen = dict(zip(gens, ks))  # a generator listed twice takes its last exponent
        e = group.extend(0, lambda prev, t: (prev + by_gen[gens[t]]) % big)
        steps = by_gen.items()
        if any((ex + k - e[group.mul(x, gi)]) % big for x, ex in enumerate(e) for gi, k in steps):
            continue
        out.append(Representation(group, 1, [[[pows[x]]] for x in e], check=False))
    return out


def sym_square_rep(group) -> Representation:
    """Symmetric square of the defining representation; descends projectively."""
    images = [sym_power_matrix(g, 2) for g in group.elements]
    return Representation(group, 3, images, check=False)


def _module_pool(group, parity: str) -> list[Representation]:
    """Building blocks of dimension up to 3 for the requested parity.

    parity "plain" over a matrix group: any module.  Over a projective group:
    modules of the group itself.  parity "odd_twist": modules of a preimage
    group on which -I acts by -1.
    """
    pools = group.module_pools
    if parity in pools:
        return pools[parity]
    blocks: list[Representation] = []
    ones = one_dim_reps(group)
    if parity == "plain":
        blocks.extend(ones)
        if isinstance(group, FiniteMatrixGroup):
            std = standard_representation(group)
            blocks.append(std)
            if ones:
                blocks.append(std.tensor(ones[-1]))
        blocks.append(sym_square_rep(group))
    else:
        blocks.extend([r for r in ones if r.is_odd_twist()])
        std = standard_representation(group)
        if std.is_odd_twist():
            blocks.append(std)
        for chi in ones:
            tw = std.tensor(chi)
            if tw.is_odd_twist():
                blocks.append(tw)
    if not blocks:
        raise MathRejection("no module building blocks available")
    pools[parity] = blocks
    return blocks


def achievable_dims(group, parity: str, max_dim: int) -> list[int]:
    """Dimensions realizable as sums of available building blocks."""
    blocks = sorted({b.dim for b in _module_pool(group, parity)})
    reachable = {0}
    changed = True
    while changed:
        changed = False
        for t in list(reachable):
            for b in blocks:
                s = t + b
                if s <= max_dim and s not in reachable:
                    reachable.add(s)
                    changed = True
    return sorted(d for d in reachable if d >= 1)


def random_module(
    rng: random.Random, group, dim: int, parity: str = "plain", conjugate: bool = True
) -> Representation:
    """Random module of exactly the requested dimension."""
    blocks = _module_pool(group, parity)
    if dim not in achievable_dims(group, parity, dim):
        raise MathRejection(
            f"no {parity} module of dimension {dim} over this group"
        )
    reachable = set(achievable_dims(group, parity, dim)) | {0}
    parts: list[Representation] = []
    remaining = dim
    while remaining > 0:
        options = [
            b for b in blocks if b.dim <= remaining and (remaining - b.dim) in reachable
        ]
        pick = rng.choice(options)
        parts.append(pick)
        remaining -= pick.dim
    rep = parts[0]
    for p in parts[1:]:
        rep = rep.direct_sum(p)
    if conjugate and dim > 1:
        rep = rep.conjugate(*_random_conjugator(rng, group.n, dim))
    return rep


def _random_conjugator(rng: random.Random, n: int, dim: int) -> tuple[Matrix, Matrix]:
    """(s, s^-1) for the first invertible integer matrix with entries in [-2, 2]."""
    while True:
        s = [[CycNum.from_int(n, rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        try:
            return s, mat_inv(s)
        except SingularMatrix:
            continue


def random_canonical_form(
    rng: random.Random,
    group,
    min_deg: int = -3,
    max_deg: int = 3,
    max_dim: int = 3,
    max_entries: int = 2,
) -> CanonicalForm:
    """Random canonical form whose entries follow summand_rule over the group."""
    n_entries = rng.randint(1, max_entries)
    degrees = sorted(rng.sample(range(min_deg, max_deg + 1), n_entries), reverse=True)
    gamma = group.splitting() if isinstance(group, PGLGroup) else None
    entries = []
    for d in degrees:
        parity, module_group = summand_rule(group, d, gamma)
        dims = achievable_dims(module_group, parity, max_dim)
        module = random_module(rng, module_group, rng.choice(dims), parity=parity)
        entries.append(CanonicalEntry(d, module, parity))
    return CanonicalForm(entries)


def conjugated_modules(rng: random.Random, cf: CanonicalForm) -> CanonicalForm:
    """The same form with every module replaced by a random conjugate."""
    entries = []
    for e in cf.entries:
        dim = e.module.dim
        if dim == 1:
            entries.append(CanonicalEntry(e.degree, e.module, e.parity))
            continue
        conjugator = _random_conjugator(rng, e.module.group.n, dim)
        entries.append(CanonicalEntry(e.degree, e.module.conjugate(*conjugator), e.parity))
    return CanonicalForm(entries)


def random_retrivialization(
    rng: random.Random, bundle: EquivariantBundle, entry_cap: int = 2
) -> EquivariantBundle:
    """Apply a random exact change of trivialization on both charts.

    The chart-0 change P conjugates the action matrices; the chart-1 change Q
    only alters the transition.  The result is an isomorphic equivariant
    bundle in scrambled coordinates.
    """
    n = bundle.n
    r = bundle.rank
    p_mat = random_unimodular_z(rng, n, r, entry_cap)
    q_mat = random_unimodular_w(rng, n, r, entry_cap)
    p_inv = p_mat.inv()
    new_base = TransitionCocycle(r, p_mat * bundle.base.transition * q_mat)
    new_action = []
    for t, a_mat in enumerate(bundle.gen_action):
        mob = bundle.generator_moebius(t)
        new_action.append(p_mat.compose_moebius(mob) * a_mat * p_inv)
    return EquivariantBundle(new_base, bundle.group, new_action)
