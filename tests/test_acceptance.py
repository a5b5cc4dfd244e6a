"""Acceptance suite: every release criterion at its stated size, exact.

Each test prints one pass/fail line.  All checks are zero-tolerance: exact
rational/cyclotomic identities, never floating point.
"""

from __future__ import annotations

import pytest

from equibundle import serialize
from equibundle.suites import (
    suite_averaging,
    suite_birkhoff,
    suite_parity,
    suite_roundtrip,
    suite_sections,
)

BIRKHOFF_SEED = 11
ROUNDTRIP_SEED = 12
PARITY_SEED = 13
SECTIONS_SEED = 14


@pytest.fixture(scope="module")
def birkhoff_report():
    return suite_birkhoff(BIRKHOFF_SEED, cases=200)


@pytest.fixture(scope="module")
def roundtrip_report():
    return suite_roundtrip(ROUNDTRIP_SEED, cases=100)


@pytest.fixture(scope="module")
def parity_report():
    return suite_parity(PARITY_SEED)


@pytest.fixture(scope="module")
def sections_report():
    return suite_sections(SECTIONS_SEED, cases=50)


def _announce(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_birkhoff_recovery(birkhoff_report):
    rows = birkhoff_report["cases"]
    assert len(rows) == 200
    ok = all(
        row["checks"]["recovered"]
        and row["checks"]["residual_zero"]
        and row["checks"]["factors_in_rings"]
        for row in rows
    )
    _announce("1 Birkhoff recovery (200/200 planted, zero residual)", ok)
    assert ok


def test_criterion_2_oracle_equivalence(birkhoff_report):
    rows = birkhoff_report["cases"]
    ok = all(row["checks"]["oracle_match"] for row in rows)
    _announce("2 section-count oracle over m in [-6, 6] (exact, 100%)", ok)
    assert ok


def test_criterion_3_round_trip(roundtrip_report):
    rows = roundtrip_report["cases"]
    assert len(rows) == 600  # 100 cases x 6 catalog groups
    groups = {row["group"] for row in rows}
    assert groups == {
        "cyclic_2", "cyclic_3", "cyclic_4", "cyclic_6",
        "binary_dihedral_2", "binary_dihedral_3",
    }
    ok = all(row["checks"]["roundtrip"] and row["checks"]["validated"] for row in rows)
    _announce("3 canonical-form round trip (600/600)", ok)
    assert ok


POLYHEDRAL_CASES = 20


@pytest.mark.parametrize("family", ["binary_tetrahedral", "binary_octahedral", "binary_icosahedral"])
def test_polyhedral_round_trip(family):
    # Criterion 3's round trip over the binary polyhedral groups: the first
    # 20 seed-1 cases of each family, every check of every row.
    report = suite_roundtrip(1, cases=POLYHEDRAL_CASES, families=((family, None),))
    assert len(report["cases"]) == POLYHEDRAL_CASES
    assert {row["group"] for row in report["cases"]} == {family}  # no parameter, no suffix
    _announce(f"3 canonical-form round trip, {family} ({POLYHEDRAL_CASES} cases)", report["pass"])
    assert report["pass"]


def test_criterion_4_averaging_certificates(roundtrip_report):
    rows = roundtrip_report["cases"]
    ok = all(row["checks"]["averaging_verified"] for row in rows)
    _announce("4 averaged splitting identities re-verified from serialized output", ok)
    assert ok


def test_criterion_5_hn_invariance(roundtrip_report):
    rows = roundtrip_report["cases"]
    ok = all(row["checks"]["hn_invariant"] for row in rows)
    _announce("5 filtration invariance on every validated bundle", ok)
    assert ok


def test_criterion_6_extension_dichotomy(parity_report):
    rows = parity_report["cases"]
    assert len(rows) >= 10
    verdicts = {row["splits"] for row in rows}
    assert verdicts == {True, False}, "both sides of the dichotomy must occur"
    ok = parity_report["pass"]
    _announce(
        f"6 central-extension dichotomy over {len(rows)} projective images", ok
    )
    assert ok


def test_criterion_7_sections_consistency(sections_report):
    rows = sections_report["cases"]
    assert len(rows) == 50
    ok = all(
        row["checks"]["characters_agree"] and row["checks"]["dims_agree"]
        and row["checks"]["dim_formula"]
        for row in rows
    )
    _announce("7 symbolic vs transported section characters (50/50, exact)", ok)
    assert ok


def test_criterion_8_determinism():
    reruns = [
        lambda: suite_birkhoff(21, cases=5),
        lambda: suite_roundtrip(22, cases=2),
        lambda: suite_averaging(23, cases=2),
        lambda: suite_parity(24, max_h_order=12),
        lambda: suite_sections(25, cases=5),
    ]
    ok = True
    for runner in reruns:
        first = serialize.dumps(runner())
        second = serialize.dumps(runner())
        if first.encode() != second.encode():
            ok = False
    _announce("8 byte-identical reports under a fixed seed", ok)
    assert ok
