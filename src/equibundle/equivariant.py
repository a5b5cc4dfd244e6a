"""Equivariant structures on bundles over P^1 and their classification.

An equivariant bundle couples a transition cocycle with one chart-0 action
matrix a_g(z) per group generator, interpreted as the fibre map over
z -> g.z.  The classification pipeline: factor the underlying bundle,
validate the action in the Birkhoff frame, check that it preserves the
degree filtration, read one module per degree block off its diagonal
blocks, and certify by group averaging that the filtration splits
equivariantly.  Every step produces exact certificates.  summand_rule
decides, from the group and the degree alone, which parity tag a summand
carries and which group its module lives over.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby
from typing import Callable, Optional, Sequence, Union

from .bundle import (
    BirkhoffFactorization,
    TransitionCocycle,
    birkhoff_factor,
    hn_filtration,
)
from .cyclotomic import CycNum
from .errors import (
    DimensionMismatch,
    InvalidStructure,
    MalformedInput,
    MathRejection,
    ParityObstruction,
    SingularMatrix,
)
from .extensions import PGLGroup, SplittingHom, sign_normalize
from .linalg import identity_matrix, mat_neg, rank as mat_rank
from .matgroup import FiniteMatrixGroup, Representation, SL2Elem
from .moebius import MoebiusMap, automorphy_factor, mu_poly
from .ratfun import Poly, RatFun, RatMat, invert_variable

__all__ = [
    "EquivariantBundle",
    "CanonicalForm",
    "CanonicalEntry",
    "ValidationReport",
    "validate_equivariance",
    "check_hn_invariance",
    "hn_invariance_failures",
    "equivariant_splitting",
    "extract_module",
    "classify",
    "classify_with_certificates",
    "build_from_canonical",
    "check_entries",
    "summand_rule",
    "equiv_isomorphic",
]

GroupLike = Union[FiniteMatrixGroup, PGLGroup]


class EquivariantBundle:
    """A transition cocycle plus per-generator chart-0 action matrices."""

    def __init__(self, base: TransitionCocycle, group: GroupLike, action: Sequence[RatMat]):
        if len(action) != len(group.generator_indices):
            raise DimensionMismatch("one action matrix per generator required")
        for a in action:
            if a.rows != base.rank or a.cols != base.rank:
                raise DimensionMismatch("action matrix shape does not match rank")
            if a.n != base.n:
                raise MalformedInput("action modulus differs from base modulus")
        if group.n != base.n:
            raise MalformedInput("group modulus differs from base modulus")
        self.base = base
        self.group = group
        self.gen_action = tuple(action)
        self.rank = base.rank
        self.n = base.n
        self._table: Optional[tuple[RatMat, ...]] = None

    def generator_element(self, t: int) -> SL2Elem:
        return self.group.elements[self.group.generator_indices[t]]

    def generator_moebius(self, t: int) -> MoebiusMap:
        return MoebiusMap(self.generator_element(t))

    def action_table(self) -> tuple[RatMat, ...]:
        """a_g for every element g, from a_{x g_t}(z) = a_x(g_t z) * a_{g_t}(z)."""
        if self._table is None:
            mobs = [self.generator_moebius(t) for t in range(len(self.gen_action))]

            def step(prev: RatMat, t: int) -> RatMat:
                return prev.compose_moebius(mobs[t]) * self.gen_action[t]

            self._table = tuple(self.group.extend(RatMat.identity(self.n, self.rank), step))
        return self._table

    def __repr__(self) -> str:
        return (
            f"EquivariantBundle(rank={self.rank}, group_order={self.group.order})"
        )


# ---------------------------------------------------------------------------
# Validation


class ValidationReport:
    def __init__(self, checked: dict[str, int], violations: list[dict]):
        self.checked = checked
        self.violations = violations
        self.ok = not violations

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checked": dict(self.checked), "violations": list(self.violations)}

    def __repr__(self) -> str:
        return f"ValidationReport(ok={self.ok}, violations={len(self.violations)})"


def _pole_test(lin: Poly) -> Callable[[RatMat], bool]:
    """The test "some entry of m has a pole away from the zero of lin", for lin of degree <= 1.

    The monic divisors of (z - r)^k are the powers (z - r)^j, so a
    non-constant denominator must be the power of the monic lin of its own
    degree (no power of a constant lin qualifies); each power is formed once.
    """
    monic = lin.monic() if lin.degree() >= 1 else Poly.zero(lin.n)
    power = lru_cache(maxsize=None)(monic.__pow__)
    return lambda m: any(
        not e.den.is_const() and e.den != power(e.den.degree()) for row in m.entries for e in row
    )


def _chart_regularity_issues(
    elem: SL2Elem,
    a_mat: RatMat,
    chart1: RatMat,
    label,
    inverses: Optional[tuple[RatMat, RatMat]] = None,
) -> list[dict]:
    """Poles of the action and of its inverse on both charts.

    chart1 is C_g(z) = T(g z)^(-1) a_g(z) T(z), the action in chart-1 frames,
    still written in z.  inverses, when given, are the certified inverses
    (a_{g^-1}(g z), C_{g^-1}(g z)) of a_mat and chart1: the cocycle pair
    (g^-1, g) has passed, so a_{g^-1}(g z) a_g(z) = I exactly, hence
    C_{g^-1}(g z) C_g(z) = T(z)^(-1) a_{g^-1}(g z) a_g(z) T(z) = I, and a left
    inverse of a square matrix is its inverse.  Substituting w = 1/z commutes
    with inverses.  Without them (the pair failed, so the bundle is invalid
    anyway) both inverses come from Gauss-Jordan, and a singular matrix is
    reported.
    """
    issues: list[dict] = []
    mu = mu_poly(elem)
    if inverses is None:
        try:
            a_inv = a_mat.inv()
        except SingularMatrix:
            return [{"kind": "singular_action", "element": label}]
    else:
        a_inv, chart1_inv = inverses
    pole_off_mu = _pole_test(mu)
    for name, m in (("action", a_mat), ("action_inverse", a_inv)):
        if pole_off_mu(m):
            issues.append({"kind": f"chart0_pole_{name}", "element": label})
    chart1_w = _in_w(chart1)
    if inverses is None:
        try:
            chart1_w_inv = chart1_w.inv()
        except SingularMatrix:
            return issues + [{"kind": "singular_chart1", "element": label}]
    else:
        chart1_w_inv = _in_w(chart1_inv)
    # a + b w vanishes where the image leaves chart 1
    pole_off_lin = _pole_test(Poly(elem.n, [elem.a, elem.b]))
    for name, m in (("chart1", chart1_w), ("chart1_inverse", chart1_w_inv)):
        if pole_off_lin(m):
            issues.append({"kind": f"pole_{name}", "element": label})
    return issues


def _in_w(m: RatMat) -> RatMat:
    """m written in the chart-1 coordinate w = 1/z, entry by entry."""
    return RatMat([[invert_variable(e) for e in row] for row in m.entries])


def validate_equivariance(bundle: EquivariantBundle, level: str = "all") -> ValidationReport:
    """Exact check of the cocycle law, chart regularity and invertibility.

    level "all" checks the cocycle law on every pair of group elements and
    chart regularity on every element; level "relations" checks (element,
    generator) pairs and generator regularity, which is equivalent by
    induction along generator words but much cheaper.  Both levels check the
    pair (g^-1, g) of every element g whose regularity they test, and a
    passing pair hands its a_{g^-1}(g z) to the regularity check as the
    inverse of a_g, and C_{g^-1} composed with g as the inverse of the
    chart-1 matrix C_g.

    Every pair is counted and compared, but each distinct product is formed
    once per call:

    * g and -g give the same substitution z -> (a z + b)/(c z + d), so the
      elements share one MoebiusMap (and its power rows) per projective
      class, keyed by sign_normalize(g).  Substitution results are
      canonical, so the sign of the matrix behind a map never shows.
    * idx[x] is the first element whose action matrix equals a_x or -a_x,
      and a_x = sign[x] a_{idx[x]}.  Signs are looked for at level "all";
      at level "relations", whose few pairs seldom reuse a negation, only
      when a_{-I} = -I, so that a_{-g} = -a_g.  Each a_k = a_{idx[k]} is
      negated once, after the lookup of a_k itself missed, and every merge
      is an exact matrix equality.  So the product a_i(j z) a_j(z) of pair
      (i, j) is sign[i] sign[j] times a product that depends only on
      (idx[i], map of j, idx[j]).
    * The right-hand elements are taken map by map.  Within one map the
      substitutions a_{idx[i]}(j z) are kept by idx[i] and the products by
      (idx[i], idx[j]), each with its sign, and both are dropped before the
      next map, so the memos hold O(|G|) matrices, never one per pair.
    * The action table was extended along tree edges as
      a_y = a_{parent(y)}(g_t z) a_t, and a_t is the table entry of g_t on
      every tree edge, so a_y, signed by sign[parent(y)] sign[g_t], seeds the
      memo of the pair (parent(y), g_t).
    * Pair (i, j) compares a_{ij} = sign[ij] a_{idx[ij]} with the signed
      product, reading -a_{idx[ij]} from the negation the index made.
    * Regularity depends on g only through its map, a_g up to sign (which
      moves no pole and no singularity) and whether its (g^-1, g) pair
      passed, so it runs once per such class, on a_{idx[g]} and inverses
      signed to match, and its violations are relabelled for every element
      of the class.
    * T(g z)^-1 is formed once per map, and sign[g] C_g once per
      (map, idx[g]).

    Violations are reported in pair order, element by element.
    """
    if level not in ("all", "relations"):
        raise MalformedInput("level must be 'all' or 'relations'")
    group = bundle.group
    violations: list[dict] = []
    checked = {"cocycle_pairs": 0, "regularity_elements": 0}
    try:
        table = bundle.action_table()
    except (SingularMatrix, MathRejection) as exc:
        return ValidationReport(checked, [{"kind": "table_extension_failed", "detail": str(exc)}])
    # The tree reaches a generator listed twice (or the identity) through
    # another edge, so the checks below never read that generator's matrix.
    for t, gi in enumerate(group.generator_indices):
        if table[gi] != bundle.gen_action[t]:
            violations.append({"kind": "generator_action_mismatch", "generator": t})
    map_ids: dict[tuple, int] = {}
    maps: list[MoebiusMap] = []
    map_of: list[int] = []  # element -> position of its map in maps
    for elem in group.elements:
        key = sign_normalize(elem).key()
        if key not in map_ids:
            map_ids[key] = len(maps)
            maps.append(MoebiusMap(elem))
        map_of.append(map_ids[key])
    minus = group.minus_identity_index()
    signed = level == "all" or (
        minus is not None and table[minus] == RatMat.identity(bundle.n, bundle.rank).neg()
    )
    signed_index: dict[RatMat, tuple[int, int]] = {}  # a_k -> (k, 1), -a_k -> (k, -1)
    neg_of: dict[int, RatMat] = {}  # k -> -a_k, when signed
    idx: list[int] = []
    sign: list[int] = []
    for x, a in enumerate(table):
        if a not in signed_index:
            signed_index[a] = (x, 1)
            if signed:
                neg_of[x] = a.neg()
                signed_index.setdefault(neg_of[x], (x, -1))
        k, s = signed_index[a]
        idx.append(k)
        sign.append(s)
    # a_y = a_{parent(y)}(g_t z) a_t.  A generator whose a_t differs from its
    # table entry labels no tree edge: the search reaches each generator
    # element first from the identity, through the first generator equal to
    # it, so that generator's entry is a_t itself.
    # map -> {(idx[i], idx[j]): (s, P)}, a_{idx[i]}(j z) a_{idx[j]}(z) = s P
    seeded: dict[int, dict[tuple[int, int], tuple[int, RatMat]]] = {}
    for y in range(1, group.order):
        p, gi = group.parent[y], group.generator_indices[group.last_gen[y]]
        seeded.setdefault(map_of[gi], {})[idx[p], idx[gi]] = (sign[p] * sign[gi], table[y])
    if level == "all":
        right = reg_elems = range(group.order)
    else:
        right = reg_elems = group.generator_indices
    columns: dict[int, list[tuple[int, int]]] = {}  # map -> [(position in right, j)]
    for pos, j in enumerate(right):
        columns.setdefault(map_of[j], []).append((pos, j))
    failed: list[tuple[int, int, int]] = []  # (i, position of j, j)
    # j -> a_{idx[j^-1]}(j z), once the pair (j^-1, j) passed; a_{j^-1}(j z) is
    # sign[j^-1] times it.
    certified_inv: dict[int, RatMat] = {}
    for m, cols in columns.items():
        mob, rhs = maps[m], seeded.pop(m, {})
        moved: dict[int, RatMat] = {}  # idx[i] -> a_{idx[i]}(j z)
        for i in range(group.order):
            ki = idx[i]
            for pos, j in cols:
                key = (ki, idx[j])
                hit = rhs.get(key)
                if hit is None:
                    if ki not in moved:
                        moved[ki] = table[ki].compose_moebius(mob)
                    hit = rhs[key] = (1, moved[ki] * table[idx[j]])
                s, prod = hit
                ij = group.mul(i, j)
                kij = idx[ij]
                # a_ij = sign[ij] a_kij against sign[i] sign[j] s P
                target = table[kij] if sign[ij] * sign[i] * sign[j] * s > 0 else neg_of[kij]
                if target != prod:
                    failed.append((i, pos, j))
                elif ij == 0 and table[ij].is_identity():
                    if ki not in moved:
                        moved[ki] = table[ki].compose_moebius(mob)
                    certified_inv[j] = moved[ki]
    checked["cocycle_pairs"] = group.order * len(right)
    violations.extend({"kind": "cocycle_law", "pair": (i, j)} for i, _, j in sorted(failed))
    transition = bundle.base.transition
    t_inv = transition.inv()
    t_inv_moved: dict[int, RatMat] = {}  # map -> T(g z)^-1
    charts: dict[tuple[int, int], RatMat] = {}  # (map, idx[g]) -> sign[g] C_g

    def chart1(g: int) -> RatMat:
        """sign[g] C_g(z) = T(g z)^(-1) a_{idx[g]}(z) T(z)."""
        m = map_of[g]
        key = (m, idx[g])
        if key not in charts:
            if m not in t_inv_moved:
                t_inv_moved[m] = t_inv.compose_moebius(maps[m])
            charts[key] = t_inv_moved[m] * table[idx[g]] * transition
        return charts[key]

    regularity: dict[tuple[int, int, bool], list[dict]] = {}  # (map, idx[g], certified)
    for i in reg_elems:
        checked["regularity_elements"] += 1
        key = (map_of[i], idx[i], i in certified_inv)
        if key not in regularity:
            inverses = None
            if key[2]:
                # The inverses of a_{idx[i]} = sign[i] a_i and of sign[i] C_i.
                i_inv = group.inv(i)
                inverses = (certified_inv[i], chart1(i_inv).compose_moebius(maps[key[0]]))
                if sign[i] != sign[i_inv]:
                    inverses = (inverses[0].neg(), inverses[1].neg())
            regularity[key] = _chart_regularity_issues(
                group.elements[i], table[idx[i]], chart1(i), i, inverses
            )
        violations.extend(dict(issue, element=i) for issue in regularity[key])
    return ValidationReport(checked, violations)


# ---------------------------------------------------------------------------
# Filtration invariance


def hn_invariance_failures(
    bundle: EquivariantBundle, factorization: Optional[BirkhoffFactorization] = None
) -> list[dict]:
    """Exact rank test that every generator maps each filtration step into itself."""
    fact = factorization if factorization is not None else birkhoff_factor(bundle.base)
    hn = hn_filtration(bundle.base, fact)
    failures = []
    for t in range(len(bundle.gen_action)):
        mob = bundle.generator_moebius(t)
        a_mat = bundle.gen_action[t]
        for j, basis in enumerate(hn.bases[:-1]):
            moved = a_mat * basis
            target = basis.compose_moebius(mob)
            k = basis.cols
            if mat_rank(target.hstack(moved).entries) != k:
                failures.append({"generator": t, "step": j})
    return failures


def check_hn_invariance(bundle: EquivariantBundle) -> bool:
    return not hn_invariance_failures(bundle)


# ---------------------------------------------------------------------------
# Averaged splitting


def _average(
    group: GroupLike, table_b: Sequence[RatMat], psi: RatMat, table_c: Sequence[RatMat]
) -> RatMat:
    """(1/|G|) sum over g of (b_{g^-1} psi)(g z) c_g(z), from full action tables."""
    acc: Optional[RatMat] = None
    for g, elem in enumerate(group.elements):
        term = (table_b[group.inv(g)] * psi).compose_moebius(MoebiusMap(elem)) * table_c[g]
        acc = term if acc is None else acc + term
    assert acc is not None
    return acc.scale(RatFun.const(CycNum.from_int(psi.n, group.order).inv()))


def _check_averaged(
    group: GroupLike,
    gen_b: Sequence[RatMat],
    gen_c: Sequence[RatMat],
    q: RatMat,
    psi_tilde: RatMat,
) -> None:
    """Exact certificate: psi_tilde is a right inverse of q and intertwines the actions."""
    if not (q * psi_tilde).is_identity():
        raise InvalidStructure("averaged splitting is not a right inverse")
    for t, b_mat in enumerate(gen_b):
        mob = MoebiusMap(group.elements[group.generator_indices[t]])
        if b_mat * psi_tilde != psi_tilde.compose_moebius(mob) * gen_c[t]:
            raise InvalidStructure("averaged splitting is not equivariant")


def equivariant_splitting(
    total: EquivariantBundle,
    quotient: EquivariantBundle,
    q: RatMat,
    psi: RatMat,
) -> RatMat:
    """Average a holomorphic splitting of q into an equivariant one.

    q must be an equivariant bundle surjection total -> quotient and psi a
    holomorphic right inverse of q.  The returned map is the group average
    of g^(-1) . psi . g, which is again a right inverse and commutes with
    the two actions; both identities are verified exactly.
    """
    group = total.group
    if quotient.group is not group and quotient.group.elements != group.elements:
        raise MalformedInput("total and quotient must carry the same group")
    r_b, r_c = total.rank, quotient.rank
    if q.rows != r_c or q.cols != r_b or psi.rows != r_b or psi.cols != r_c:
        raise DimensionMismatch("splitting data shapes do not match the ranks")
    if not (q * psi).is_identity():
        raise InvalidStructure("psi is not a right inverse of q")
    for t in range(len(total.gen_action)):
        mob = total.generator_moebius(t)
        lhs = quotient.gen_action[t] * q
        rhs = q.compose_moebius(mob) * total.gen_action[t]
        if lhs != rhs:
            raise InvalidStructure("q does not intertwine the two actions")
    psi_tilde = _average(group, total.action_table(), psi, quotient.action_table())
    _check_averaged(group, total.gen_action, quotient.gen_action, q, psi_tilde)
    return psi_tilde


# ---------------------------------------------------------------------------
# Canonical forms


class CanonicalEntry:
    """One summand: a degree, a module, and a parity tag."""

    def __init__(self, degree: int, module: Representation, parity: str = "plain"):
        if parity not in ("plain", "odd_twist"):
            raise MalformedInput(f"unknown parity tag {parity!r}")
        if parity == "odd_twist" and not module.is_odd_twist():
            raise InvalidStructure(
                "odd-twist module must send the central element to minus the identity"
            )
        self.degree = degree
        self.module = module
        self.parity = parity

    def __repr__(self) -> str:
        return f"CanonicalEntry(degree={self.degree}, dim={self.module.dim}, parity={self.parity!r})"


class CanonicalForm:
    """The classification output: degree-sorted (degree, module) summands."""

    def __init__(self, entries: Sequence[CanonicalEntry]):
        entries = list(entries)
        if not entries:
            raise MalformedInput("canonical form requires at least one entry")
        for a, b in zip(entries, entries[1:]):
            if a.degree <= b.degree:
                raise MalformedInput("canonical form degrees must strictly decrease")
        self.entries = tuple(entries)

    def degrees(self) -> tuple[int, ...]:
        return tuple(e.degree for e in self.entries)

    def rank(self) -> int:
        return sum(e.module.dim for e in self.entries)

    def degree_multiset(self) -> tuple[int, ...]:
        out: list[int] = []
        for e in self.entries:
            out.extend([e.degree] * e.module.dim)
        return tuple(out)

    def equal_up_to_iso(self, other: CanonicalForm) -> bool:
        return len(self.entries) == len(other.entries) and all(
            a.degree == b.degree and a.parity == b.parity and _same_modules(a.module, b.module)
            for a, b in zip(self.entries, other.entries)
        )

    def __repr__(self) -> str:
        return f"CanonicalForm({[e for e in self.entries]!r})"


def _same_elements(g: GroupLike, h: GroupLike) -> bool:
    """The two groups hold the same elements, perhaps listed in another order."""
    return g.index.keys() == h.index.keys()


def _same_modules(a: Representation, b: Representation) -> bool:
    """Isomorphic modules over one group: characters agree at a's class representatives."""
    chi_a, chi_b, h = a.character().values, b.character().values, b.group
    return _same_elements(a.group, h) and all(
        chi_a[ci] == chi_b[h.class_of[h.element_index(a.group.elements[x])]]
        for ci, x in enumerate(a.group.class_reps)
    )


# ---------------------------------------------------------------------------
# Classification pipeline


def summand_rule(
    group: GroupLike, degree: int, gamma: Optional[SplittingHom]
) -> tuple[str, GroupLike]:
    """The parity tag of a degree-d summand and the group its module lives over.

    Over a matrix group every summand is plain.  Over a projective group
    whose extension by {+-I} splits (gamma given), summands are plain and
    odd degrees use gamma's lifts.  Over a non-split projective group, even
    degrees take plain modules of the group itself, and odd degrees take
    odd-twist modules of its SL(2, C) preimage, on which -I acts by minus
    the identity.
    """
    if isinstance(group, PGLGroup) and degree % 2 and gamma is None:
        return "odd_twist", group.preimage
    return "plain", group


def _module_from_block(
    group: GroupLike,
    degree: int,
    block_action: Sequence[RatMat],
    gamma: Optional[SplittingHom],
) -> tuple[Representation, str]:
    """Transport a degree block through the natural line-bundle structure.

    For each generator the product a_g(z) * (c z + d)^degree must come out
    constant; those constants form the module, over the group summand_rule
    names.
    """
    dim = block_action[0].rows
    parity, module_group = summand_rule(group, degree, gamma)
    images = []
    for t, b_mat in enumerate(block_action):
        lift = _lift_for_entry(group, t, degree, gamma)
        mu_pow = automorphy_factor(lift, -degree)  # (c z + d)^degree
        image = []
        for row in b_mat.entries:
            image_row = []
            for e in row:
                prod = e * mu_pow
                if not (prod.is_polynomial() and prod.num.is_const()):
                    raise InvalidStructure(
                        "block action is not a constant twist of the natural structure"
                    )
                image_row.append(prod.const_value())
            image.append(image_row)
        images.append(image)
    if parity == "odd_twist":
        # The preimage's generators are the representatives followed by -I.
        images.append(mat_neg(identity_matrix(group.n, dim)))
    return Representation.from_generator_images(module_group, dim, images), parity


def classify_with_certificates(
    bundle: EquivariantBundle, validate_level: str = "relations"
) -> tuple[CanonicalForm, dict]:
    """Full pipeline with exact certificates for every stage.

    The bundle is factored first, T = U_plus D U_minus, and validated as
    (D, b) with b_g(z) = U_plus^-1(g z) a_g(z) U_plus(z); averaging reads the
    same action table.  The factors are certified, so (D, b) has the report
    of (T, a), byte for byte, at both levels: pairs conjugate, as
    b_{gh}(z) - b_g(h z) b_h(z) = U_plus^-1(gh z) [a_{gh}(z) - a_g(h z) a_h(z)] U_plus(z);
    U_plus^(+-1)(g z) has poles only where c z + d = 0, allowed on chart 0;
    D(g z)^-1 b_g D = U_minus(g z) C_g U_minus^-1, and U_minus^(+-1)(g z) has
    poles in w = 1/z only where a + b w = 0, allowed on chart 1.

    b_g is block upper triangular (the cut check certifies it), and the
    module of each degree block is read off its diagonal block.  Averaging
    certifies that the filtration splits equivariantly: from the lowest
    block up, the leading submatrix holding the blocks not yet split off is
    averaged into a holomorphic splitting of its lowest block, checked
    exactly.  Every averaging stage also carries its data (the averaged
    splitting and the action matrices), so the averaging identities can be
    re-verified from serialized output alone.
    """
    group = bundle.group
    fact = birkhoff_factor(bundle.base)
    gens = [group.elements[gi] for gi in group.generator_indices]
    gen_action = [
        fact.u_plus_inv.compose_moebius(MoebiusMap(g)) * a_mat * fact.u_plus
        for g, a_mat in zip(gens, bundle.gen_action)
    ]
    framed = EquivariantBundle(TransitionCocycle(bundle.rank, fact.diagonal()), group, gen_action)
    report = validate_equivariance(framed, level=validate_level)
    if not report.ok:
        raise InvalidStructure(f"equivariance validation failed: {report.violations[:3]}")
    # Degree blocks (degree, multiplicity), descending.
    blocks = [(d, len(list(run))) for d, run in groupby(fact.degrees)]
    # Filtration invariance: strictly-lower block triangles must vanish.
    cuts = list(accumulate(mult for _, mult in blocks[:-1]))
    for t, a_mat in enumerate(gen_action):
        for cut in cuts:
            sub = a_mat.submatrix(range(cut, bundle.rank), range(0, cut))
            if not sub.is_zero():
                raise InvalidStructure(
                    "invalid equivariant structure: the action does not preserve "
                    f"the degree filtration (generator {t}, cut {cut})"
                )
    certificates: dict = {
        "validation": report.as_dict(),
        "factorization_degrees": list(fact.degrees),
        "factorization_residual_zero": fact.residual_zero,
        "hn_blocks": [{"cuts": cuts, "preserved": True}],
        "averaging": [],
        "modules": [],
        "underlying_type": list(fact.degrees),
        # Not serialized: lets callers reuse the factorization.
        "factorization": fact,
    }
    spans = [range(lo, hi) for lo, hi in zip([0] + cuts, cuts + [bundle.rank])]
    # Split the filtration from the lowest block up, one averaging per step.
    # Leading submatrices of block upper triangular matrices multiply like
    # the matrices, so each step's action table is a leading block of one.
    table = framed.action_table()
    for j in range(len(blocks) - 1, 0, -1):
        delta, r_bot = blocks[j]
        every, bottom = range(spans[j].stop), spans[j]
        cur_action = [a.submatrix(every, every) for a in gen_action]
        quot_action = [a.submatrix(bottom, bottom) for a in gen_action]
        identity = RatMat.identity(bundle.n, len(every))
        psi_tilde = _average(
            group,
            [a.submatrix(every, every) for a in table],
            identity.submatrix(every, bottom),
            [a.submatrix(bottom, bottom) for a in table],
        )
        # Certificates: polynomial entries with the right degree bounds, unit
        # bottom block, and exact equivariance.
        for row_degree, row in zip(fact.degrees, psi_tilde.entries):
            for e in row:
                if not e.is_polynomial():
                    raise InvalidStructure("averaged splitting is not holomorphic")
                if not e.is_zero() and e.num.degree() > row_degree - delta:
                    raise InvalidStructure("averaged splitting violates degree bounds")
        projection = identity.submatrix(bottom, every)
        _check_averaged(group, cur_action, quot_action, projection, psi_tilde)
        certificates["averaging"].append({
            "block_degree": delta,
            "block_rank": r_bot,
            "right_inverse": True,
            "equivariant": True,
            "data": {
                "generators": list(gens),
                "action": cur_action,
                "quotient_action": quot_action,
                "psi_tilde": psi_tilde,
            },
        })
    gamma = group.splitting() if isinstance(group, PGLGroup) else None
    entries = []
    for (degree, _mult), span in zip(blocks, spans):
        block_action = [a.submatrix(span, span) for a in gen_action]
        module, parity = _module_from_block(group, degree, block_action, gamma)
        entries.append(CanonicalEntry(degree, module, parity))
        certificates["modules"].append(
            {"degree": degree, "dim": module.dim, "parity": parity, "evaluation_iso_exact": True}
        )
    cf = CanonicalForm(entries)
    if cf.degree_multiset() != tuple(fact.degrees):
        raise InvalidStructure("module dimensions disagree with the splitting type")
    return cf, certificates


def classify(bundle: EquivariantBundle, validate_level: str = "relations") -> CanonicalForm:
    return classify_with_certificates(bundle, validate_level)[0]


def extract_module(bundle: EquivariantBundle) -> Representation:
    """Module of a semistable piece: all splitting degrees must be equal."""
    cf = classify(bundle)
    if len(cf.entries) != 1:
        raise MathRejection("input is not semistable; degrees are not all equal")
    return cf.entries[0].module


# ---------------------------------------------------------------------------
# Building bundles from canonical data


def _lift_for_entry(
    group: GroupLike, t: int, degree: int, gamma: Optional[SplittingHom]
) -> SL2Elem:
    """The SL(2, C) lift of generator t for a summand of this degree.

    Odd summands over a split projective group take gamma's lift of the
    generator's element, the one its spanning-tree extension assigns; every
    other summand takes the generator's own matrix.
    """
    if isinstance(group, PGLGroup) and degree % 2 and gamma is not None:
        return gamma.lift_of(group, group.generator_indices[t])
    return group.elements[group.generator_indices[t]]


def check_entries(cf: CanonicalForm, group: GroupLike, gamma: Optional[SplittingHom]) -> None:
    """Every entry carries the parity and module group summand_rule gives its degree.

    The module group may list its elements in another order: images are
    looked up by element, in the module's own group.
    """
    for entry in cf.entries:
        parity, module_group = summand_rule(group, entry.degree, gamma)
        if entry.parity != parity:
            raise ParityObstruction(
                f"a degree-{entry.degree} summand over this group must be tagged {parity!r}"
            )
        if not _same_elements(entry.module.group, module_group):
            raise MalformedInput(f"the degree-{entry.degree} module lives over another group")


def build_from_canonical(
    cf: CanonicalForm, group: GroupLike, gamma: Optional[SplittingHom] = None
) -> EquivariantBundle:
    """Block-diagonal model bundle with the tensor-product action.

    Each entry must follow summand_rule; gamma defaults to the group's own
    splitting when it has one.
    """
    n = group.n
    if isinstance(group, PGLGroup) and gamma is None:
        gamma = group.splitting()
    check_entries(cf, group, gamma)
    rank = cf.rank()
    one = CycNum.one(n)
    diag_entries = []
    for entry in cf.entries:
        diag_entries.extend([RatFun.monomial(one, entry.degree)] * entry.module.dim)
    base = TransitionCocycle(rank, RatMat.diag(diag_entries))
    action = []
    for t in range(len(group.generator_indices)):
        rows: list[list[RatFun]] = [
            [RatFun.zero(n) for _ in range(rank)] for _ in range(rank)
        ]
        offset = 0
        for entry in cf.entries:
            lift = _lift_for_entry(group, t, entry.degree, gamma)
            factor = automorphy_factor(lift, entry.degree)
            img = entry.module.image(entry.module.group.element_index(lift))
            dim = entry.module.dim
            for i in range(dim):
                for j in range(dim):
                    c = img[i][j]
                    if not c.is_zero():
                        rows[offset + i][offset + j] = factor.scale(c)
            offset += dim
        action.append(RatMat(rows))
    return EquivariantBundle(base, group, action)


def equiv_isomorphic(b1: EquivariantBundle, b2: EquivariantBundle) -> bool:
    """Equivariant isomorphism via the uniqueness of the canonical form."""
    if not _same_elements(b1.group, b2.group):
        return False
    return classify(b1).equal_up_to_iso(classify(b2))
