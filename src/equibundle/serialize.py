"""Exact JSON serialization for every value the tool reads or writes.

All integers travel as decimal strings, so files are bit-independent and
byte-identical across platforms.  Groups are stored by generators and
rebuilt by the deterministic closure, which reproduces element order;
representations store generator images only and are re-extended (and
re-validated) on load.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd, lcm
from typing import Any

from .bundle import TransitionCocycle
from .cyclotomic import CycNum, euler_phi
from .equivariant import CanonicalEntry, CanonicalForm, EquivariantBundle
from .errors import MalformedInput, ModulusMismatch
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
    """Deterministic rendering: sorted keys, fixed separators, trailing newline.

    The text is json.dumps(obj, sort_keys=True, indent=2) + "\n", written
    without json's pure-Python indenting encoder.  Reports are exact and
    keyed by name, so a float or a non-string key raises TypeError.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of obj; newline is the line break plus the current indent."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedInput(message)


def _as_int(value: Any) -> int:
    """A JSON integer or a decimal string as an integer; ValueError otherwise (bools, floats)."""
    if type(value) not in (int, str):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _int_field(data: dict, key: str) -> int:
    """data[key] as an integer, written as a JSON integer or a decimal string."""
    value = data.get(key)
    try:
        return _as_int(value)
    except ValueError as exc:
        raise MalformedInput(f"{key} must be an integer, got {value!r}") from exc


def cyc_to_json(c: CycNum) -> dict:
    return {
        "modulus": c.n,
        "coeffs": [[str(num), str(c.den)] for num in c.num],
    }


def _scalar_from_json(data: Any) -> tuple[int, list[int], int]:
    """(modulus, numerators, denominator) of a scalar file value, in lowest terms.

    The denominator is positive and coprime to the numerators together: it is
    the lcm of the reduced pair denominators b, each numerator being a*(den/b).
    """
    _expect(isinstance(data, dict) and "coeffs" in data, "bad scalar")
    n = _int_field(data, "modulus")
    coeffs = data["coeffs"]
    # phi(n) >= sqrt(n / 2), so a short list refutes a large modulus before it is factored.
    _expect(isinstance(coeffs, list) and 2 * len(coeffs) ** 2 >= n, "bad coefficient count")
    _expect(len(coeffs) == euler_phi(n), "bad coefficient count")
    nums, dens = [], []
    den = 1
    for pair in coeffs:
        _expect(isinstance(pair, list) and len(pair) == 2, "bad coefficient pair")
        try:
            a, b = _as_int(pair[0]), _as_int(pair[1])
        except ValueError as exc:
            raise MalformedInput(f"bad coefficient {pair!r}: {exc}") from exc
        if b != 1:
            _expect(b != 0, f"bad coefficient {pair!r}: zero denominator")
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            a, b = a // g, b // g
            den = lcm(den, b)
        nums.append(a)
        dens.append(b)
    if den != 1:
        nums = [a * (den // b) for a, b in zip(nums, dens)]
    return n, nums, den


def cyc_from_json(data: Any) -> CycNum:
    n, nums, den = _scalar_from_json(data)
    return CycNum(n, nums, den, _normalized=True)


def _poly_to_json(p: Poly) -> list:
    """One scalar per coefficient, each row over its own reduced denominator (as cyc_to_json)."""
    n, den = p.n, p.den
    out = []
    for row in p.rows:
        g = gcd(den, *row)
        d = str(den // g)
        out.append({"modulus": n, "coeffs": [[str(x // g), d] for x in row]})
    return out


def _poly_from_json(n: int, data: Any) -> Poly:
    """The canonical polynomial: rows over the lcm of the coefficient denominators.

    Each coefficient's numerators are coprime to its denominator together, so
    over the lcm no prime divides the denominator and every numerator: one
    coefficient carries that prime's full power and keeps a numerator it
    does not divide.
    """
    _expect(isinstance(data, list), "bad polynomial")
    scalars = [_scalar_from_json(c) for c in data]
    den = 1
    for m, _, d in scalars:
        if m != n:
            raise ModulusMismatch(f"coefficient modulus {m} != {n}")
        den = lcm(den, d)
    rows = [
        tuple(nums) if d == den else tuple(x * (den // d) for x in nums) for _, nums, d in scalars
    ]
    while rows and not any(rows[-1]):
        rows.pop()
    return Poly._raw(n, tuple(rows), den if rows else 1)


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
