"""Golden byte-identity of the classification and splitting output.

The determinism tests compare two runs of the same code; these digests pin
the bytes themselves, so a refactor of the pipeline must reproduce the
recorded canonical forms, certificates, averaged splittings and Birkhoff
factors exactly.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from equibundle import bundle, plant, serialize
from equibundle.bundle import TransitionCocycle
from equibundle.cli import main
from equibundle.cyclotomic import CycNum
from equibundle.equivariant import build_from_canonical, classify_with_certificates
from equibundle.extensions import pgl_group
from equibundle.matgroup import catalog
from equibundle.plant import (
    conjugated_modules,
    random_canonical_form,
    random_retrivialization,
)
from equibundle.ratfun import RatFun, RatMat


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _planted(group, seed: int, max_entries: int):
    rng = random.Random(seed)
    cf = random_canonical_form(
        rng, group, min_deg=-2, max_deg=2, max_dim=2, max_entries=max_entries
    )
    planted = conjugated_modules(rng, cf)
    return cf, random_retrivialization(rng, build_from_canonical(planted, group))


# (group, seed, max_entries, planted (degree, parity, dim) triples, classify
#  stdout digest, one digest per serialized averaged splitting)
CASES = {
    "sl2_two_blocks": (
        lambda: catalog("binary_dihedral", 2).group(),
        0,
        2,
        [(1, "plain", 2), (-2, "plain", 2)],
        "b2cb6b479abc64253a8bd5499bda17da6b47ce035542604c3f5a1e3a107707f6",
        ["772a62ee7224ddec5696075d39ad45efc692286437f4b5b6f7e02b967bf41665"],
    ),
    # Level "all" over 24 elements: the CLI report counts 576 cocycle pairs.
    "binary_tetrahedral_two_blocks": (
        lambda: catalog("binary_tetrahedral").group(),
        5,
        2,
        [(0, "plain", 2), (-2, "plain", 1)],
        "27f808c5a74068956f0a71633d42f34b8d9b40d4143a15a1c313fe0b49d2a5ce",
        ["cffed14a0f695222ce135d2044b2402fb0c4e5bd13a3a92b4ff4c94731173d01"],
    ),
    # Every summand has odd central parity: (-1)^1 on the 1-dimensional
    # module and (-1)^0 * (-1) on the 2-dimensional one, so a_{-I} = -I and
    # validation shares its products between g and -g up to sign.
    "binary_tetrahedral_odd_central_parity": (
        lambda: catalog("binary_tetrahedral").group(),
        278,
        2,
        [(1, "plain", 1), (0, "plain", 2)],
        "40a68992c007ccf609c40e278d3eadf13887eaa6e4c46612ec088dc023e8baae",
        ["3e02cafab0233bee50c4def0efa5b7c71ce3fd83234cd6ef15d7fb244e81bcf0"],
    ),
    "pgl_split_odd": (
        lambda: pgl_group(catalog("cyclic", 6).generators),
        0,
        2,
        [(1, "plain", 2), (-2, "plain", 2)],
        "8aad75cfe519348c7c56d49a7f0fa22880d3dc81e0cb00f65b3261e511bd2bd8",
        ["a9a67d0ca27e48dc6c51f57e8c2720866d1ede44407835860a565137ce013407"],
    ),
    "pgl_nonsplit_odd_twist": (
        lambda: pgl_group(catalog("binary_dihedral", 2).generators),
        0,
        2,
        [(1, "odd_twist", 2), (-2, "plain", 2)],
        "71818abbe9667652053d8512218ba9e708ca91dba995164ffce3e14fec1d45f0",
        ["bd07a154483ab16d52ff0cbb24399cd9a9a149f860f30b6331f8e884e299ca54"],
    ),
    # Three blocks, so two averaging stages; the second works on the leading
    # 3x3 block of the action, which no two-block case reaches.
    "pgl_nonsplit_three_blocks": (
        lambda: pgl_group(catalog("binary_dihedral", 2).generators),
        5,
        3,
        [(2, "plain", 1), (1, "odd_twist", 2), (0, "plain", 1)],
        "46b5fe35d0e6133d47ef59b6da9ccb9edda291e88bf93f7220dd87b992f84cc5",
        [
            "2d01322c1194fd85c610b2630d5103be220c53253b2c87281bdf77b27d7779ce",
            "d1a1e58bca69b095c1a827c5874bfbd2698521363cade4e2daae21fab26975bb",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_classify_output_bytes_pinned(name, tmp_path, capsys):
    make_group, seed, max_entries, planted_entries, stdout_sha, psi_shas = CASES[name]
    group = make_group()
    cf, bundle = _planted(group, seed, max_entries)
    assert [(e.degree, e.parity, e.module.dim) for e in cf.entries] == planted_entries
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(serialize.bundle_to_json(bundle)))
    assert main(["classify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["certificates"]["validation"]["checked"]["cocycle_pairs"] == group.order**2
    assert _sha(out) == stdout_sha
    _, certs = classify_with_certificates(bundle)
    digests = [
        _sha(serialize.dumps(serialize.ratmat_to_json(stage["data"]["psi_tilde"])))
        for stage in certs["averaging"]
    ]
    assert digests == psi_shas


# (seed, planted degrees, line subbundles peeled, split stdout digest).  The
# dressings are two elementary factors each over Q(zeta_12); a peel runs the
# section ladder (_max_degree_section, _SectionSpace.step_down) and the
# clearing step, so these digests pin the bytes of u_plus and u_minus there.
SPLIT_CASES = {
    "rank2_peel": (4, [2, -1], 1, "4e257b68222729088b23dcbc97c1d43aa23ff98b5a10e66b9d389b342cca86ad"),
    "rank2_diagonal": (1, [2, -1], 0, "ed06f92f4beb94fb993bde57a5bbabf7d1a0ade9d6337dbb8464b0521978f3d4"),
    "rank3_peel": (16, [3, 0, -2], 2, "84eab458d7aac98a81e3cc85f64c7525121a4ee0ee134bb79b8d1f63e74c8b8d"),
    "rank4_peel": (6, [2, 1, 0, -3], 3, "79b5f1817cbe84c4982588d9de1676da87430e144caeb7b55fe85ad2c498f115"),
    # Four peels: the rows that _birkhoff_core maps through U_minus^-1 pass
    # down three levels of the recursion.
    "rank5_peel": (10, [3, 1, 0, -1, -3], 4, "f81c2d5b093fa3263c0f0a8fa74959d99dea3eb36966f0ca2cd3694b6510cd38"),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_output_bytes_pinned(name, tmp_path, capsys, monkeypatch):
    seed, degrees, peels, stdout_sha = SPLIT_CASES[name]
    rng = random.Random(seed)
    n, size = 12, len(degrees)
    u_plus = plant.random_unimodular_z(rng, n, size, 3, ops=2)
    u_minus = plant.random_unimodular_w(rng, n, size, 3, ops=2)
    diag = RatMat.diag([RatFun.monomial(CycNum.one(n), d) for d in degrees])
    path = tmp_path / "cocycle.json"
    path.write_text(
        serialize.dumps(serialize.cocycle_to_json(TransitionCocycle(size, u_plus * diag * u_minus)))
    )
    peel = bundle._max_degree_section
    calls = []

    def counted_peel(*args):
        calls.append(args)
        return peel(*args)

    monkeypatch.setattr(bundle, "_max_degree_section", counted_peel)
    assert main(["split", "--input", str(path)]) == 0
    assert len(calls) == peels
    assert _sha(capsys.readouterr().out) == stdout_sha


def test_verify_output_bytes_pinned(capsys):
    # Every suite at seed 1, two cases each: planting, factorization,
    # validation, averaging, parity and sections all feed these bytes.
    assert main(["verify", "--suite", "all", "--seed", "1", "--cases", "2"]) == 0
    assert _sha(capsys.readouterr().out) == "3acba86bf014cd171eb3e150f12239570a87bf1bbfd30530b1f360c5170441fa"
