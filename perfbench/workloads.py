"""Seeded workloads: planted inputs, one verdict each, with known answers.

Every expected answer is computed from the planting data, never from the
program's output.  A case has a timed `run()` that returns the exit code and
a payload, an untimed `encode()` that turns the payload into report bytes,
and an untimed `check()` that returns None when the report
matches the planted answer, or the reason it does not.

Inputs are stratified: a fixed rotation of shapes (rank, group) is filled
with seeded random content, so every seed gives the same mix of sizes and
only the coefficients, degrees and modules change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from equibundle import cli, plant, serialize, suites
from equibundle.bundle import TransitionCocycle
from equibundle.cyclotomic import CycNum
from equibundle.equivariant import (
    CanonicalEntry,
    CanonicalForm,
    EquivariantBundle,
    build_from_canonical,
)
from equibundle.extensions import PGLGroup, pgl_group
from equibundle.matgroup import catalog
from equibundle.ratfun import RatFun, RatMat

# split: Q(zeta_12), planted degrees in [-4, 4], dressing entry degree <= 3.
# Rank 4 fills one slot of five, so p90 falls near the middle of the rank-4
# costs and p50 among the rank-3 costs.  Rank 4 in three slots of five puts
# p90 in the long rank-4 tail, where it moves by about 0.15 between seeds.
# Each dressing factor is a product of SPLIT_DRESSING_OPS elementary
# matrices.  With plant's default length (1..2*rank) 5 of 600 rank-4 cases
# ran over 3 s, some for minutes, in the RatMat Gauss inverse; with two
# factors 0 of 1500 did.  Rank 5 is left out: 1 of 800 still did.
SPLIT_MODULUS = 12
SPLIT_RANKS = (2, 3, 3, 3, 4)
SPLIT_DRESSING_CAP = 3
SPLIT_DRESSING_OPS = 2
SPLIT_POOL = 1000

# classify: (family, parameter, module dimensions of the summands).  At most
# two summands, each of dimension at most 2, degrees in [-2, 2].  The
# tetrahedral slots stay at rank 1: rank 2 took 0.4 s to 4 s per verdict.
CLASSIFY_SLOTS = (
    ("cyclic", 3, (2, 1)),
    ("cyclic", 3, (2, 2)),
    ("cyclic", 6, (1, 1)),
    ("cyclic", 6, (2, 2)),
    ("binary_dihedral", 2, (1, 1)),
    ("binary_dihedral", 2, (2, 2)),
    ("binary_dihedral", 3, (2,)),
    ("binary_dihedral", 3, (2, 1)),
    ("binary_tetrahedral", None, (1,)),
    ("binary_tetrahedral", None, (1,)),
    ("pgl_binary_dihedral", 2, (1, 1)),
    ("pgl_binary_dihedral", 2, (2, 2)),
)
CLASSIFY_POOL = 168
CLASSIFY_DEGREES = (-2, 2)
# The two-chart change of trivialisation: entry degree <= 1, each chart
# factor a product of two elementary matrices (plant's default length,
# 1..2*rank, makes single bd2 rank-4 verdicts vary from 0.1 s to 1.9 s).
CLASSIFY_RETRIVIALIZATION_CAP = 1
CLASSIFY_RETRIVIALIZATION_OPS = 2

# roundtrip: criterion-3 cases of the roundtrip suite, one per verdict, as
# (family, planted rank) slots: ranks 2, 2, 3 for each of the six families.
# Ranks 2, 3, 3 put p90 deeper in the tail of the rank-3 binary dihedral
# slots, where it moves more between seeds.
# Ranks 4 to 6 are left out: single cases there take seconds to a minute,
# which one closed-loop run of half a minute cannot average out.
ROUNDTRIP_RANKS = (2, 2, 3)
ROUNDTRIP_SLOTS = tuple(
    (family, rank) for rank in ROUNDTRIP_RANKS for family in suites.ROUND_TRIP_FAMILIES
)
ROUNDTRIP_POOL = 360
# The suite's planting parameters, replayed to learn each seed's rank.
ROUNDTRIP_PLANT = {"min_deg": -3, "max_deg": 3, "max_dim": 3}


def _cli(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


class _Case:
    @staticmethod
    def encode(payload) -> bytes:
        """Report bytes of a run() payload; CLI cases return bytes already."""
        return payload


class SplitCase(_Case):
    def __init__(self, path: Path, degrees: list[int]):
        self.label = f"rank_{len(degrees)}"
        self.path = str(path)
        slopes: list[int] = []
        mults: list[int] = []
        for d in degrees:
            if slopes and slopes[-1] == d:
                mults[-1] += 1
            else:
                slopes.append(d)
                mults.append(1)
        self.expected = {
            "splitting_type": degrees,
            "total_degree": sum(degrees),
            "residual_zero": True,
            "hn_slopes": slopes,
            "hn_multiplicities": mults,
        }

    def run(self) -> tuple[int, bytes]:
        return _cli(["split", "--input", self.path])

    def check(self, code: int, report: bytes):
        if code != 0:
            return f"exit code {code}"
        data = json.loads(report)
        for key, want in self.expected.items():
            if data.get(key) != want:
                return f"{key}: got {data.get(key)!r}, planted {want!r}"
        return None


class ClassifyCase(_Case):
    def __init__(self, path: Path, label: str, cf: CanonicalForm):
        self.label = label
        self.path = str(path)
        self.degrees = list(cf.degrees())
        self.parities = [e.parity for e in cf.entries]
        self.dims = [e.module.dim for e in cf.entries]
        self.groups = [e.module.group for e in cf.entries]
        self.characters = [e.module.character() for e in cf.entries]

    def run(self) -> tuple[int, bytes]:
        return _cli(["classify", "--input", self.path])

    def check(self, code: int, report: bytes):
        if code != 0:
            return f"exit code {code}"
        data = json.loads(report)
        for key, want in (
            ("degrees", self.degrees),
            ("parities", self.parities),
            ("module_dims", self.dims),
        ):
            if data.get(key) != want:
                return f"{key}: got {data.get(key)!r}, planted {want!r}"
        if not data["certificates"]["validation"]["ok"]:
            return "validation certificate is not ok"
        entries = data["canonical_form"]["entries"]
        for i, (entry, group, chi) in enumerate(zip(entries, self.groups, self.characters)):
            module = serialize.representation_from_json(entry["module"], group=group)
            if module.character() != chi:
                return f"entry {i}: character differs from the planted module"
        return None


class RoundtripCase(_Case):
    def __init__(self, family: tuple, seed: int, cf: CanonicalForm):
        self.family = family
        self.label = f"{family[0]}_{family[1]}"
        self.seed = seed
        self.degrees = list(cf.degrees())
        self.rank = cf.rank()

    def run(self) -> tuple[int, bytes]:
        report = suites.suite_roundtrip(self.seed, cases=1, families=(self.family,))
        return (0 if report["pass"] else 1), report

    @staticmethod
    def encode(report: dict) -> bytes:
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")

    def check(self, code: int, report: bytes):
        data = json.loads(report)
        if code != 0 or data.get("pass") is not True:
            return f"suite verdict failed: {data.get('cases')!r}"
        (row,) = data["cases"]
        if row["group"] != self.label or row["rank"] != self.rank or row["degrees"] != self.degrees:
            return f"planted {self.label} rank {self.rank} {self.degrees}, report {row!r}"
        return None


def _planted_cocycle(rng: random.Random, degrees: list[int]) -> TransitionCocycle:
    """U_plus * diag(z^d) * U_minus with unimodular dressings of fixed length."""
    n, size = SPLIT_MODULUS, len(degrees)
    u_plus = plant.random_unimodular_z(rng, n, size, SPLIT_DRESSING_CAP, ops=SPLIT_DRESSING_OPS)
    u_minus = plant.random_unimodular_w(rng, n, size, SPLIT_DRESSING_CAP, ops=SPLIT_DRESSING_OPS)
    one = CycNum.one(n)
    diag = RatMat.diag([RatFun.monomial(one, d) for d in degrees])
    return TransitionCocycle(size, u_plus * diag * u_minus)


def _split_cases(seed: int, workdir: Path) -> list:
    rng = random.Random(f"split:{seed}")
    cases = []
    for k in range(SPLIT_POOL):
        rank = SPLIT_RANKS[k % len(SPLIT_RANKS)]
        degrees = sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True)
        cocycle = _planted_cocycle(rng, degrees)
        path = workdir / f"split-{k:04d}.json"
        path.write_text(serialize.dumps(serialize.cocycle_to_json(cocycle)), encoding="utf-8")
        cases.append(SplitCase(path, degrees))
    return cases


def _classify_group(family: str, param):
    if family == "pgl_binary_dihedral":
        group = pgl_group(catalog("binary_dihedral", param).generators)
        if group.splitting() is not None:
            raise RuntimeError("expected a non-split projective image")
        return group
    return catalog(family, param).group()


def _planted_form(rng: random.Random, group, dims: tuple) -> CanonicalForm:
    """Distinct degrees in CLASSIFY_DEGREES with modules of the given dimensions."""
    non_split = isinstance(group, PGLGroup) and group.splitting() is None
    lo, hi = CLASSIFY_DEGREES
    while True:
        degrees = sorted(rng.sample(range(lo, hi + 1), len(dims)), reverse=True)
        slots = []
        for d, dim in zip(degrees, dims):
            if non_split and d % 2:
                owner, parity = group.preimage, "odd_twist"
            else:
                owner, parity = group, "plain"
            if dim not in plant.achievable_dims(owner, parity, dim):
                break
            slots.append((d, owner, dim, parity))
        else:
            return CanonicalForm(
                [
                    CanonicalEntry(d, plant.random_module(rng, owner, dim, parity=parity), parity)
                    for d, owner, dim, parity in slots
                ]
            )


def _retrivialize(rng: random.Random, bundle: EquivariantBundle) -> EquivariantBundle:
    """plant.random_retrivialization with chart changes of fixed length.

    The chart-0 change P conjugates the action matrices; the chart-1 change
    Q only alters the transition.
    """
    n, r = bundle.n, bundle.rank
    cap, ops = CLASSIFY_RETRIVIALIZATION_CAP, CLASSIFY_RETRIVIALIZATION_OPS
    p_mat = plant.random_unimodular_z(rng, n, r, cap, ops=ops)
    q_mat = plant.random_unimodular_w(rng, n, r, cap, ops=ops)
    p_inv = p_mat.inv()
    base = TransitionCocycle(r, p_mat * bundle.base.transition * q_mat)
    action = [
        p_mat.compose_moebius(bundle.generator_moebius(t)) * a_mat * p_inv
        for t, a_mat in enumerate(bundle.gen_action)
    ]
    return EquivariantBundle(base, bundle.group, action)


def _classify_cases(seed: int, workdir: Path) -> list:
    rng = random.Random(f"classify:{seed}")
    groups = {}
    cases = []
    for k in range(CLASSIFY_POOL):
        family, param, dims = CLASSIFY_SLOTS[k % len(CLASSIFY_SLOTS)]
        key = (family, param)
        if key not in groups:
            groups[key] = _classify_group(family, param)
        group = groups[key]
        cf = _planted_form(rng, group, dims)
        conjugated = plant.conjugated_modules(rng, cf)
        bundle = _retrivialize(rng, build_from_canonical(conjugated, group))
        path = workdir / f"classify-{k:04d}.json"
        path.write_text(serialize.dumps(serialize.bundle_to_json(bundle)), encoding="utf-8")
        label = family if param is None else f"{family}_{param}"
        cases.append(ClassifyCase(path, label, cf))
    return cases


def _roundtrip_cases(seed: int) -> list:
    """Per slot, the next seed whose planted canonical form has the slot's rank."""
    rng = random.Random(f"roundtrip:{seed}")
    groups = {family: catalog(*family).group() for family, _ in ROUNDTRIP_SLOTS}
    cases = []
    for k in range(ROUNDTRIP_POOL):
        family, rank = ROUNDTRIP_SLOTS[k % len(ROUNDTRIP_SLOTS)]
        while True:
            case_seed = rng.getrandbits(31)
            cf = plant.random_canonical_form(
                random.Random(case_seed), groups[family], **ROUNDTRIP_PLANT
            )
            if cf.rank() == rank:
                break
        cases.append(RoundtripCase(family, case_seed, cf))
    return cases


# Slots per rotation.  Every pool is a whole number of rotations, and a timed
# phase ends on a rotation boundary, so every run measures the same mix.
ROTATIONS = {
    "split": len(SPLIT_RANKS),
    "classify": len(CLASSIFY_SLOTS),
    "roundtrip": len(ROUNDTRIP_SLOTS),
}
# Workloads whose planting happens inside the timed verdict, not at set-up.
PLANTS_IN_VERDICT = {"roundtrip"}
assert SPLIT_POOL % ROTATIONS["split"] == 0
assert CLASSIFY_POOL % ROTATIONS["classify"] == 0
assert ROUNDTRIP_POOL % ROTATIONS["roundtrip"] == 0


def build(name: str, seed: int, workdir: Path) -> list:
    """The seeded case pool of a workload; input files go to workdir."""
    if name == "split":
        return _split_cases(seed, workdir)
    if name == "classify":
        return _classify_cases(seed, workdir)
    if name == "roundtrip":
        return _roundtrip_cases(seed)
    raise ValueError(f"unknown workload {name!r}")
