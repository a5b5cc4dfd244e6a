"""Exact JSON serialization for every value the tool reads or writes.

All integers travel as decimal strings, so files are bit-independent and
byte-identical across platforms.  Groups are stored by generators and
rebuilt by the deterministic closure, which reproduces element order;
representations store generator images only and are re-extended (and
re-validated) on load.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any

from .bundle import TransitionCocycle
from .cyclotomic import CycNum, euler_phi
from .equivariant import CanonicalEntry, CanonicalForm, EquivariantBundle
from .errors import MalformedInput
from .extensions import PGLGroup, SplittingHom, pgl_group
from .matgroup import (
    DEFAULT_CLOSURE_CAP,
    Representation,
    SL2Elem,
    generate_group,
)
from .ratfun import Poly, RatFun, RatMat

__all__ = [
    "cyc_to_json",
    "cyc_from_json",
    "ratfun_to_json",
    "ratfun_from_json",
    "ratmat_to_json",
    "ratmat_from_json",
    "cocycle_to_json",
    "cocycle_from_json",
    "group_to_json",
    "group_from_json",
    "representation_to_json",
    "representation_from_json",
    "bundle_to_json",
    "bundle_from_json",
    "canonical_form_to_json",
    "canonical_form_from_json",
    "splitting_to_json",
    "dumps",
]


def dumps(obj: Any) -> str:
    """Deterministic rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedInput(message)


def _int_field(data: dict, key: str) -> int:
    """data[key] as an integer, written as a JSON integer or a decimal string."""
    value = data.get(key)
    _expect(
        isinstance(value, (int, str)) and not isinstance(value, bool),
        f"{key} must be an integer, got {value!r}",
    )
    try:
        return int(value)
    except ValueError as exc:
        raise MalformedInput(f"{key} must be an integer, got {value!r}") from exc


def cyc_to_json(c: CycNum) -> dict:
    return {
        "modulus": c.n,
        "coeffs": [[str(num), str(c.den)] for num in c.num],
    }


def cyc_from_json(data: Any) -> CycNum:
    _expect(isinstance(data, dict) and "coeffs" in data, "bad scalar")
    n = _int_field(data, "modulus")
    coeffs = data["coeffs"]
    _expect(isinstance(coeffs, list) and len(coeffs) == euler_phi(n), "bad coefficient count")
    fracs = []
    for pair in coeffs:
        _expect(isinstance(pair, list) and len(pair) == 2, "bad coefficient pair")
        try:
            fracs.append(Fraction(int(pair[0]), int(pair[1])))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"bad coefficient {pair!r}: {exc}") from exc
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    nums = [int(f * den) for f in fracs]
    return CycNum(n, nums, den)


def _poly_to_json(p: Poly) -> list:
    return [cyc_to_json(c) for c in p.coeffs]


def _poly_from_json(n: int, data: Any) -> Poly:
    _expect(isinstance(data, list), "bad polynomial")
    return Poly(n, [cyc_from_json(c) for c in data])


def ratfun_to_json(f: RatFun) -> dict:
    return {"num": _poly_to_json(f.num), "den": _poly_to_json(f.den)}


def ratfun_from_json(n: int, data: Any) -> RatFun:
    _expect(isinstance(data, dict) and "num" in data and "den" in data, "bad rational function")
    den = _poly_from_json(n, data["den"])
    _expect(not den.is_zero(), "zero denominator polynomial")
    return RatFun(_poly_from_json(n, data["num"]), den)


def ratmat_to_json(m: RatMat) -> list:
    return [[ratfun_to_json(e) for e in row] for row in m.entries]


def ratmat_from_json(n: int, data: Any) -> RatMat:
    _expect(isinstance(data, list) and data, "bad matrix")
    _expect(all(isinstance(row, list) and row for row in data), "bad matrix row")
    return RatMat([[ratfun_from_json(n, e) for e in row] for row in data])


def cocycle_to_json(c: TransitionCocycle) -> dict:
    return {
        "rank": c.rank,
        "modulus": c.n,
        "transition": ratmat_to_json(c.transition),
    }


def cocycle_from_json(data: Any) -> TransitionCocycle:
    _expect(isinstance(data, dict) and "transition" in data, "bad cocycle file")
    n = _int_field(data, "modulus")
    return TransitionCocycle(_int_field(data, "rank"), ratmat_from_json(n, data["transition"]))


def _elem_to_json(g: SL2Elem) -> list:
    return [cyc_to_json(g.a), cyc_to_json(g.b), cyc_to_json(g.c), cyc_to_json(g.d)]


def _elem_from_json(data: Any) -> SL2Elem:
    _expect(isinstance(data, list) and len(data) == 4, "bad group element")
    a, b, c, d = (cyc_from_json(x) for x in data)
    return SL2Elem(a, b, c, d)


def group_to_json(group) -> dict:
    if isinstance(group, PGLGroup):
        gens = group.generator_reps
        out = {
            "modulus": group.n,
            "generators": [_elem_to_json(g) for g in gens],
            "pgl": True,
        }
        return out
    gens = [group.elements[i] for i in group.generator_indices]
    return {"modulus": group.n, "generators": [_elem_to_json(g) for g in gens]}


def group_from_json(data: Any, cap: int = DEFAULT_CLOSURE_CAP):
    _expect(isinstance(data, dict) and "generators" in data, "bad group file")
    _expect(isinstance(data["generators"], list), "generators must be a list")
    pgl = data.get("pgl", False)
    _expect(isinstance(pgl, bool), f"pgl must be true or false, got {pgl!r}")
    gens = [_elem_from_json(g) for g in data["generators"]]
    if pgl:
        return pgl_group(gens, cap=cap)
    return generate_group(gens, cap=cap)


def representation_to_json(rep: Representation) -> dict:
    group = rep.group
    gen_images = [
        [[cyc_to_json(c) for c in row] for row in rep.image(gi)]
        for gi in group.generator_indices
    ]
    return {
        "group": group_to_json(group),
        "dim": rep.dim,
        "generator_images": gen_images,
    }


def representation_from_json(data: Any, cap: int = DEFAULT_CLOSURE_CAP, group=None) -> Representation:
    _expect(isinstance(data, dict) and "generator_images" in data, "bad representation file")
    if group is None:
        group = group_from_json(data["group"], cap=cap)
    dim = _int_field(data, "dim")
    if dim == 0:
        return Representation.zero_module(group)
    images = data["generator_images"]
    _expect(
        isinstance(images, list)
        and all(isinstance(img, list) and all(isinstance(row, list) for row in img) for img in images),
        "generator_images must be a list of matrices",
    )
    images = [[[cyc_from_json(c) for c in row] for row in img] for img in images]
    return Representation.from_generator_images(group, dim, images)


def bundle_to_json(bundle: EquivariantBundle) -> dict:
    return {
        "base": cocycle_to_json(bundle.base),
        "group": group_to_json(bundle.group),
        "action": {
            str(t): ratmat_to_json(a) for t, a in enumerate(bundle.gen_action)
        },
    }


def bundle_from_json(data: Any, cap: int = DEFAULT_CLOSURE_CAP) -> EquivariantBundle:
    _expect(
        isinstance(data, dict) and "base" in data and "group" in data and "action" in data,
        "bad bundle file",
    )
    base = cocycle_from_json(data["base"])
    group = group_from_json(data["group"], cap=cap)
    action_data = data["action"]
    _expect(isinstance(action_data, dict), "action must be an object")
    count = len(group.generator_indices)
    action = []
    for t in range(count):
        key = str(t)
        _expect(key in action_data, f"missing action matrix for generator {t}")
        action.append(ratmat_from_json(base.n, action_data[key]))
    return EquivariantBundle(base, group, action)


def canonical_form_to_json(cf: CanonicalForm) -> dict:
    return {
        "entries": [
            {
                "degree": e.degree,
                "parity": e.parity,
                "module": representation_to_json(e.module),
            }
            for e in cf.entries
        ]
    }


def canonical_form_from_json(data: Any, cap: int = DEFAULT_CLOSURE_CAP) -> CanonicalForm:
    _expect(isinstance(data, dict) and "entries" in data, "bad canonical form file")
    _expect(isinstance(data["entries"], list), "entries must be a list")
    entries = []
    for e in data["entries"]:
        _expect(isinstance(e, dict) and "module" in e, "bad canonical form entry")
        module = representation_from_json(e["module"], cap=cap)
        entries.append(CanonicalEntry(_int_field(e, "degree"), module, e.get("parity", "plain")))
    return CanonicalForm(entries)


def splitting_to_json(gamma: SplittingHom | None) -> dict:
    if gamma is None:
        return {"splits": False, "gamma": None}
    return {"splits": True, "gamma": [_elem_to_json(g) for g in gamma.gen_lifts]}
