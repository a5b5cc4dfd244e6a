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
from equibundle.errors import MalformedInput
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


def test_dumps_deterministic():
    payload = {"b": 1, "a": [1, 2], "c": {"y": 1, "x": 2}}
    assert serialize.dumps(payload) == serialize.dumps(json.loads(serialize.dumps(payload)))


def test_malformed_input_raises():
    with pytest.raises(MalformedInput):
        serialize.cocycle_from_json({"rank": 1})
    with pytest.raises(MalformedInput):
        serialize.cyc_from_json({"modulus": 4, "coeffs": [["1", "1"]]})
    for bad_pair in (["1", "0"], ["x", "1"], ["1"], 5):
        with pytest.raises(MalformedInput):
            serialize.cyc_from_json({"modulus": 4, "coeffs": [["1", "1"], bad_pair]})
    transition = serialize.ratmat_to_json(RatMat([[RatFun.one(4)]]))
    for bad_modulus in ({"modulus": "x"}, {}):
        with pytest.raises(MalformedInput):
            serialize.cocycle_from_json({"rank": 1, "transition": transition, **bad_modulus})
