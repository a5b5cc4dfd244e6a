"""Randomized verification suites behind the command-line runner.

Each suite is a pure function of its seed, returning a JSON-ready report
whose serialization is byte-identical across reruns with the same seed.
Default case counts are the acceptance sizes.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from .bundle import birkhoff_factor, h0_profile
from .equivariant import (
    CanonicalEntry,
    CanonicalForm,
    build_from_canonical,
    classify_with_certificates,
    hn_invariance_failures,
    validate_equivariance,
)
from .errors import EquibundleError, ParityObstruction
from .extensions import extension_splits, pgl_group, preimage_group
from .matgroup import FiniteMatrixGroup, SL2Elem, catalog, trivial_representation
from .moebius import MoebiusMap, natural_structure
from .plant import (
    achievable_dims,
    conjugated_modules,
    planted_cocycle,
    random_canonical_form,
    random_module,
    random_retrivialization,
)
from .sections import sections_module, transported_sections_module
from . import serialize

__all__ = [
    "suite_birkhoff",
    "suite_roundtrip",
    "suite_averaging",
    "suite_parity",
    "suite_sections",
    "run_suite",
    "SUITE_NAMES",
]

SUITE_NAMES = ("birkhoff", "roundtrip", "averaging", "parity", "sections")

ROUND_TRIP_FAMILIES = (
    ("cyclic", 2),
    ("cyclic", 3),
    ("cyclic", 4),
    ("cyclic", 6),
    ("binary_dihedral", 2),
    ("binary_dihedral", 3),
)


def _finish(report: dict) -> dict:
    """Summarize pass/fail from each row's checks dictionary."""
    for row in report["cases"]:
        row["ok"] = all(row["checks"].values())
    report["pass"] = all(row["ok"] for row in report["cases"])
    report["total"] = len(report["cases"])
    report["failures"] = sum(1 for row in report["cases"] if not row["ok"])
    return report


def suite_birkhoff(seed: int, cases: int = 200) -> dict:
    """Planted factorization recovery plus the section-count oracle.

    Cocycles have rank at most 4, planted degrees in [-4, 4], unimodular
    dressing with entry degrees at most 3, over Q(zeta_12); the oracle
    compares the twisted section dimensions over m in [-6, 6] with the
    degree formula.
    """
    rng = random.Random(seed)
    n = 12
    rows = []
    for case in range(cases):
        rank = rng.randint(1, 4)
        degrees = sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True)
        cocycle, _, _ = planted_cocycle(rng, n, degrees, entry_cap=3)
        fact = birkhoff_factor(cocycle)
        recovered = list(fact.degrees) == degrees
        profile = h0_profile(cocycle, -6, 6)
        oracle = all(
            profile[m] == sum(max(0, d + m + 1) for d in degrees)
            for m in range(-6, 7)
        )
        rows.append(
            {
                "case": case,
                "rank": rank,
                "degrees": degrees,
                "checks": {
                    "recovered": recovered,
                    "residual_zero": fact.residual_zero,
                    "factors_in_rings": fact.in_rings,
                    "oracle_match": oracle,
                },
            }
        )
    return _finish({"suite": "birkhoff", "seed": seed, "modulus": n, "cases": rows})


def _averaging_stage_to_json(stage: dict, modulus: int) -> str:
    data = stage["data"]
    payload = {
        "modulus": modulus,
        "block_degree": stage["block_degree"],
        "block_rank": stage["block_rank"],
        "generators": [serialize._elem_to_json(g) for g in data["generators"]],
        "action": [serialize.ratmat_to_json(m) for m in data["action"]],
        "quotient_action": [
            serialize.ratmat_to_json(m) for m in data["quotient_action"]
        ],
        "psi_tilde": serialize.ratmat_to_json(data["psi_tilde"]),
    }
    return serialize.dumps(payload)


def verify_averaging_stage(serialized: str) -> bool:
    """Recheck the averaging identities using only the serialized payload."""
    payload = json.loads(serialized)
    n = int(payload["modulus"])
    gens = [serialize._elem_from_json(g) for g in payload["generators"]]
    action = [serialize.ratmat_from_json(n, m) for m in payload["action"]]
    quot = [serialize.ratmat_from_json(n, m) for m in payload["quotient_action"]]
    psi = serialize.ratmat_from_json(n, payload["psi_tilde"])
    r_bot = int(payload["block_rank"])
    k = psi.rows - r_bot
    bottom = psi.submatrix(range(k, psi.rows), range(r_bot))
    if not bottom.is_identity():
        return False
    for g, a_mat, b_mat in zip(gens, action, quot):
        mob = MoebiusMap(g)
        if a_mat * psi != psi.compose_moebius(mob) * b_mat:
            return False
    return True


def _roundtrip_case(
    rng: random.Random, group, min_deg: int = -3, max_deg: int = 3, max_dim: int = 3
) -> dict:
    cf = random_canonical_form(rng, group, min_deg=min_deg, max_deg=max_deg, max_dim=max_dim)
    planted = conjugated_modules(rng, cf)
    bundle = random_retrivialization(rng, build_from_canonical(planted, group))
    recovered, certs = classify_with_certificates(bundle, with_data=True)
    averaging_ok = all(
        verify_averaging_stage(_averaging_stage_to_json(stage, bundle.n))
        for stage in certs["averaging"]
    )
    return {
        "degrees": list(cf.degrees()),
        "rank": cf.rank(),
        "checks": {
            "validated": certs["validation"]["ok"],
            "roundtrip": recovered.equal_up_to_iso(cf),
            "hn_invariant": not hn_invariance_failures(bundle, certs["factorization"]),
            "averaging_verified": averaging_ok,
            "residual_zero": certs["factorization_residual_zero"],
        },
    }


def suite_roundtrip(seed: int, cases: int = 100, families=ROUND_TRIP_FAMILIES) -> dict:
    """Canonical form -> bundle -> canonical form identity over the catalog.

    Each case twists the built bundle by random module conjugations and a
    random two-chart retrivialization before classification; the averaging
    certificates of every case are re-verified from serialized data.
    """
    rng = random.Random(seed)
    rows = []
    for family, param in families:
        group = catalog(family, param).group()
        label = family if param is None else f"{family}_{param}"
        for case in range(cases):
            row = {"group": label, "case": case}
            row.update(_roundtrip_case(rng, group))
            rows.append(row)
    return _finish({"suite": "roundtrip", "seed": seed, "cases": rows})


def suite_averaging(seed: int, cases: int = 20) -> dict:
    """Standalone averaging checks over a pair of representative groups."""
    rng = random.Random(seed)
    rows = []
    for family, param in (("cyclic", 4), ("binary_dihedral", 2)):
        group = catalog(family, param).group()
        label = f"{family}_{param}"
        for case in range(cases):
            result = _roundtrip_case(rng, group, max_dim=2)
            rows.append(
                {
                    "group": label,
                    "case": case,
                    "checks": {
                        "averaging_verified": result["checks"]["averaging_verified"],
                        "roundtrip": result["checks"]["roundtrip"],
                        "residual_zero": result["checks"]["residual_zero"],
                    },
                }
            )
    return _finish({"suite": "averaging", "seed": seed, "cases": rows})


def _complement_exists(pre: FiniteMatrixGroup, target_order: int) -> bool:
    """Brute-force subgroup search: a complement of the centre avoiding -I.

    Candidate generators are restricted to elements whose cyclic closure
    avoids -I (computed, not assumed); the catalog groups are 2-generated,
    so pairs of candidates exhaust all possible complements.
    """
    minus = pre.minus_identity_index()
    assert minus is not None
    order = pre.order

    def closure(gens: tuple[int, ...]) -> Optional[set[int]]:
        sub = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = pre.mul(x, g)
                if y == minus:
                    return None
                if y not in sub:
                    if len(sub) > target_order:
                        return None
                    sub.add(y)
                    frontier.append(y)
        return sub

    candidates = []
    for x in range(1, order):
        c = closure((x,))
        if c is None:
            continue
        candidates.append(x)
        if len(c) == target_order:
            return True
    for i, x in enumerate(candidates):
        for y in candidates[i + 1:]:
            c = closure((x, y))
            if c is not None and len(c) == target_order:
                return True
    return False


def _parity_instances() -> list[tuple[str, list[SL2Elem]]]:
    out = []
    for nn in (3, 5):
        out.append((f"cyclic_{nn}_image", catalog("cyclic", nn).generators))
    for nn in (4, 6, 8, 10, 12):
        out.append((f"cyclic_{nn}_image", catalog("cyclic", nn).generators))
    for nn in (2, 3, 4, 5):
        out.append((f"binary_dihedral_{nn}_image", catalog("binary_dihedral", nn).generators))
    out.append(("tetrahedral_image", catalog("binary_tetrahedral").generators))
    out.append(("octahedral_image", catalog("binary_octahedral").generators))
    out.append(("icosahedral_image", catalog("binary_icosahedral").generators))
    return out


def suite_parity(seed: int, max_h_order: int = 60) -> dict:
    """The central-extension dichotomy over projective catalog images.

    For every image: the sign-assignment search must agree with an
    independent brute-force subgroup search; in the non-split case building
    a plain odd entry is rejected and a classified odd-degree module carries
    the central minus one; in the split case the degree-1 bundle with the
    lifted action validates.
    """
    rng = random.Random(seed)
    rows = []
    for name, gens in _parity_instances():
        h = pgl_group(gens, cap=300)
        if h.order > max_h_order:
            continue
        gamma = extension_splits(h)
        pre = preimage_group(h)
        oracle = _complement_exists(pre, h.order)
        checks = {"oracle_agrees": (gamma is not None) == oracle}
        row = {
            "instance": name,
            "h_order": h.order,
            "splits": gamma is not None,
            "checks": checks,
        }
        if gamma is None:
            try:
                build_from_canonical(
                    CanonicalForm([CanonicalEntry(1, trivial_representation(h))]), h
                )
                checks["plain_odd_rejected"] = False
            except ParityObstruction:
                checks["plain_odd_rejected"] = True
            odd_dims = [d for d in achievable_dims(pre, "odd_twist", 2) if d <= 2]
            odd_module = random_module(rng, pre, rng.choice(odd_dims), parity="odd_twist")
            degree = rng.choice([-1, 1, 3])
            cf = CanonicalForm([CanonicalEntry(degree, odd_module, "odd_twist")])
            bundle = random_retrivialization(rng, build_from_canonical(cf, h), entry_cap=1)
            recovered, _ = classify_with_certificates(bundle)
            checks["odd_modules_central_minus_one"] = all(
                e.parity == "odd_twist" and e.module.is_odd_twist()
                for e in recovered.entries
                if e.degree % 2 != 0
            )
            checks["roundtrip"] = recovered.equal_up_to_iso(cf)
        else:
            image = gamma.image_group(cap=300)
            lifted = natural_structure(1, image)
            checks["lifted_degree_one_validates"] = validate_equivariance(
                lifted, level="all"
            ).ok
            checks["gamma_homomorphism"] = gamma.is_homomorphism()
            checks["gamma_covers"] = gamma.covers_identity()
        rows.append(row)
    return _finish({"suite": "parity", "seed": seed, "cases": rows})


def suite_sections(seed: int, cases: int = 50) -> dict:
    """Symbolic section modules against transported explicit bases."""
    rng = random.Random(seed)
    groups: list = [
        ("cyclic_3", catalog("cyclic", 3).group()),
        ("cyclic_4", catalog("cyclic", 4).group()),
        ("binary_dihedral_2", catalog("binary_dihedral", 2).group()),
        ("pgl_nonsplit", pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])),
    ]
    rows = []
    for case in range(cases):
        label, group = groups[case % len(groups)]
        cf = random_canonical_form(rng, group, min_deg=-2, max_deg=3, max_dim=2)
        bundle = build_from_canonical(cf, group)
        symbolic = sections_module(cf, group)
        transported = transported_sections_module(bundle)
        expected_dim = sum(
            (e.degree + 1) * e.module.dim for e in cf.entries if e.degree >= 0
        )
        rows.append(
            {
                "case": case,
                "group": label,
                "degrees": list(cf.degrees()),
                "checks": {
                    "dim_formula": symbolic.dim == expected_dim,
                    "dims_agree": symbolic.dim == transported.dim,
                    "characters_agree": symbolic.character()
                    == transported.character(),
                },
            }
        )
    return _finish({"suite": "sections", "seed": seed, "cases": rows})


def run_suite(name: str, seed: int, cases: Optional[int] = None) -> dict:
    if name == "birkhoff":
        return suite_birkhoff(seed, cases or 200)
    if name == "roundtrip":
        return suite_roundtrip(seed, cases or 100)
    if name == "averaging":
        return suite_averaging(seed, cases or 20)
    if name == "parity":
        return suite_parity(seed)
    if name == "sections":
        return suite_sections(seed, cases or 50)
    if name == "all":
        return {
            "suite": "all",
            "seed": seed,
            "reports": {
                n: run_suite(n, seed, cases) for n in SUITE_NAMES
            },
        }
    raise EquibundleError(f"unknown suite {name!r}")
