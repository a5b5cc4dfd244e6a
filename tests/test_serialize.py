from __future__ import annotations

import json
import random

import pytest

from equibundle.cyclotomic import CycNum
from equibundle.equivariant import (
    CanonicalEntry,
    CanonicalForm,
    build_from_canonical,
    classify,
)
from equibundle.errors import MalformedInput, ModulusMismatch
from equibundle.extensions import pgl_group
from equibundle.matgroup import (
    SL2Elem,
    catalog,
    standard_representation,
)
from equibundle.plant import planted_cocycle, random_canonical_form
from equibundle import serialize
from equibundle.ratfun import Poly, RatFun, RatMat


def test_cyc_roundtrip():
    c = CycNum(12, [1, -2, 3, -4], 6)
    data = serialize.cyc_to_json(c)
    assert serialize.cyc_from_json(data) == c
    # decimal strings only
    assert all(isinstance(x, str) for pair in data["coeffs"] for x in pair)


def test_ratfun_and_ratmat_roundtrip():
    n = 12
    f = RatFun(Poly.from_ints(n, [1, 0, 3]), Poly.from_ints(n, [0, 0, 1]))
    assert serialize.ratfun_from_json(n, serialize.ratfun_to_json(f)) == f
    m = RatMat([[f, RatFun.one(n)], [RatFun.zero(n), f.inv()]])
    assert serialize.ratmat_from_json(n, serialize.ratmat_to_json(m)) == m


def test_cocycle_roundtrip():
    rng = random.Random(4)
    cocycle, _, _ = planted_cocycle(rng, 12, [2, -1])
    data = serialize.cocycle_to_json(cocycle)
    back = serialize.cocycle_from_json(data)
    assert back.transition == cocycle.transition
    assert back.degree == cocycle.degree


def test_group_roundtrip_preserves_element_order():
    g = catalog("binary_dihedral", 3).group()
    back = serialize.group_from_json(serialize.group_to_json(g))
    assert back.elements == g.elements
    assert back.mul_table == g.mul_table


def test_pgl_group_roundtrip():
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    data = serialize.group_to_json(h)
    assert data["pgl"] is True
    back = serialize.group_from_json(data)
    assert back.elements == h.elements


def test_representation_roundtrip():
    g = catalog("cyclic", 4).group()
    rep = standard_representation(g)
    back = serialize.representation_from_json(serialize.representation_to_json(rep))
    assert back.dim == rep.dim
    assert back.character() == rep.character()


def test_representation_rejects_inconsistent_images():
    g = catalog("cyclic", 4).group()
    rep = standard_representation(g)
    data = serialize.representation_to_json(rep)
    data["generator_images"][0][0][0] = serialize.cyc_to_json(CycNum.from_int(4, 7))
    with pytest.raises(Exception):
        serialize.representation_from_json(data)


def test_bundle_and_canonical_form_roundtrip():
    rng = random.Random(8)
    g = catalog("cyclic", 3).group()
    cf = random_canonical_form(rng, g, max_entries=2, max_dim=2)
    bundle = build_from_canonical(cf, g)
    data = serialize.bundle_to_json(bundle)
    back = serialize.bundle_from_json(data)
    assert back.base.transition == bundle.base.transition
    assert back.gen_action == bundle.gen_action
    assert classify(back).equal_up_to_iso(cf)
    cf_data = serialize.canonical_form_to_json(cf)
    cf_back = serialize.canonical_form_from_json(cf_data)
    assert cf_back.equal_up_to_iso(cf)


def test_odd_twist_canonical_form_roundtrip():
    h = pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])
    pre = h.preimage
    cf = CanonicalForm([CanonicalEntry(1, standard_representation(pre), "odd_twist")])
    data = serialize.canonical_form_to_json(cf)
    back = serialize.canonical_form_from_json(data)
    assert back.entries[0].parity == "odd_twist"
    assert back.entries[0].module.is_odd_twist()
    assert back.equal_up_to_iso(cf)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cli_report_objects(tmp_path, monkeypatch) -> list:
    """Every object the CLI renders: each command's success report and the three error reports."""
    from equibundle import cli
    from equibundle.suites import run_suite

    rng = random.Random(3)
    g = catalog("cyclic", 3).group()
    cf = random_canonical_form(rng, g, max_entries=2, max_dim=2)
    cocycle, _, _ = planted_cocycle(rng, 12, [2, 0, -1])
    not_cocycle = RatMat([[RatFun.from_poly(Poly.from_ints(12, [1, 1]))]])
    files = {
        "cocycle": serialize.cocycle_to_json(cocycle),
        "bundle": serialize.bundle_to_json(build_from_canonical(cf, g)),
        "pgl": serialize.group_to_json(pgl_group([SL2Elem.from_ints(4, 0, 1, -1, 0)])),
        "cf": serialize.canonical_form_to_json(cf),
        "not_cocycle": {
            "rank": 1, "modulus": 12, "transition": serialize.ratmat_to_json(not_cocycle)
        },
    }
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(_json_text(data))
    (tmp_path / "garbage.json").write_text("{not json")
    seen = []
    dumps = serialize.dumps

    def recording(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(serialize, "dumps", recording)
    commands = [
        (0, ["catalog", "--family", "binary_dihedral", "--n", "3"]),
        (0, ["split", "--input", paths["cocycle"]]),
        (0, ["classify", "--input", paths["bundle"]]),
        (0, ["ext-split", "--input", paths["pgl"]]),
        (0, ["iso", "--input-a", paths["bundle"], "--input-b", paths["bundle"]]),
        (0, ["sections", "--input", paths["cf"]]),
        (0, ["verify", "--suite", "all", "--seed", "1", "--cases", "1"]),
        (2, ["split", "--input", str(tmp_path / "garbage.json")]),
        (1, ["split", "--input", paths["not_cocycle"]]),
    ]
    for code, argv in commands:
        assert cli.main(argv) == code, argv
    # The plain EquibundleError report: an unknown suite name, past argparse's choices.
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed, cases: run_suite("none", seed, cases))
    assert cli.main(["verify", "--suite", "all"]) == 1
    # The averaging suite renders its stage payloads through dumps as well.
    reports = [r.get("command", r.get("error")) for r in seen if "command" in r or "error" in r]
    assert reports == [
        "catalog", "split", "classify", "ext-split", "iso", "sections", "verify",
        "malformed_input", "mathematical_rejection", "rejected",
    ]
    return seen


def test_dumps_deterministic(tmp_path, monkeypatch, capsys):
    payload = {"b": 1, "a": [1, 2], "c": {"y": 1, "x": 2}}
    assert serialize.dumps(payload) == serialize.dumps(json.loads(serialize.dumps(payload)))
    # Oracle: the writer gives json's sorted, indented text for every report.
    dumps = serialize.dumps
    edge_cases = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {"b": [[{}]]}],
        (1, (2, []), ()), {"t": (None, (True, False))},
        -1, 0, 10**200, -(10**200), None, True, False, "",
        "caf\u00e9 \u2603 \U0001f600", "tab\tnl\nnul\x00 quote\" slash\\ del\x7f",
        {"\u00e9": 1, "e": 2, "\x01": [3], "": None, "Z": {"z": "\u2028"}},
    ]
    for obj in edge_cases + _cli_report_objects(tmp_path, monkeypatch):
        assert dumps(obj) == _json_text(obj)
    capsys.readouterr()
    # Reports are exact and keyed by name: anything else is refused.
    for bad in (1.5, {1: "a"}, {"a": [float("nan")]}, {1, 2}, object()):
        with pytest.raises(TypeError):
            dumps(bad)


def test_malformed_input_raises():
    with pytest.raises(MalformedInput):
        serialize.cocycle_from_json({"rank": 1})
    with pytest.raises(MalformedInput):
        serialize.cyc_from_json({"modulus": 4, "coeffs": [["1", "1"]]})
    bad_pairs = (["1", "0"], ["x", "1"], ["1"], 5, [1.5, "1"], [True, "1"], ["1", 2.0], ["1", None])
    for bad_pair in bad_pairs:
        with pytest.raises(MalformedInput):
            serialize.cyc_from_json({"modulus": 4, "coeffs": [["1", "1"], bad_pair]})
    transition = serialize.ratmat_to_json(RatMat([[RatFun.one(4)]]))
    for bad_modulus in ({"modulus": "x"}, {}):
        with pytest.raises(MalformedInput):
            serialize.cocycle_from_json({"rank": 1, "transition": transition, **bad_modulus})


def test_poly_rows_match_scalar_path():
    # Polynomials are read and written as integer rows; the bytes and values
    # must be those of one scalar per coefficient.
    rng = random.Random(21)
    n = 12
    for _ in range(40):
        coeffs = [
            CycNum(n, [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(4)], rng.randint(1, 9))
            for _ in range(rng.randint(0, 5))
        ]
        p = Poly(n, coeffs)
        data = serialize._poly_to_json(p)
        assert data == [serialize.cyc_to_json(c) for c in p.coeffs]
        back = serialize._poly_from_json(n, data)
        assert (back.rows, back.den) == (p.rows, p.den)
        # Unreduced pairs, negative denominators and trailing zeros load canonically.
        raw = [
            {"modulus": n, "coeffs": [[str(k * x), str(-k * c.den)] for x in c.num]}
            for c, k in ((c, rng.choice([1, 2, 6])) for c in coeffs)
        ] + [serialize.cyc_to_json(CycNum.zero(n))]
        back = serialize._poly_from_json(n, raw)
        expected = -p
        assert (back.rows, back.den) == (expected.rows, expected.den)
    other = [serialize.cyc_to_json(CycNum.one(4))]
    with pytest.raises(ModulusMismatch):
        serialize._poly_from_json(n, other)
