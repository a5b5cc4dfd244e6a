"""Batch command-line interface.

Commands read and write exact JSON files; reports embed certificates so any
third party can re-verify the computation from the output alone.  Exit
codes: 0 success, 1 mathematical rejection, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .bundle import birkhoff_factor, hn_filtration
from .equivariant import classify_with_certificates
from .errors import EquibundleError, MalformedInput, MathRejection
from .extensions import PGLGroup, extension_splits
from .matgroup import DEFAULT_CLOSURE_CAP, catalog
from .sections import sections_module
from .suites import SUITE_NAMES, run_suite


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _emit(report: dict, output: str | None) -> None:
    text = serialize.dumps(report)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_catalog(args) -> dict:
    entry = catalog(args.family, args.n)
    group = entry.group(cap=args.max_order, modulus=args.modulus_override)
    group_json = serialize.group_to_json(group)
    return {
        "command": "catalog",
        "family": entry.name,
        "order": group.order,
        "conjugacy_classes": len(group.conjugacy_classes),
        "required_modulus": entry.modulus,
        "modulus": group.n,
        "group": group_json,
    }


def cmd_split(args) -> dict:
    data = _load_json(args.input)
    cocycle = serialize.cocycle_from_json(data)
    fact = birkhoff_factor(cocycle)
    hn = hn_filtration(cocycle, fact)
    return {
        "command": "split",
        "splitting_type": list(fact.degrees),
        "total_degree": cocycle.degree,
        "residual_zero": fact.residual_zero,
        "hn_slopes": list(hn.slopes),
        "hn_multiplicities": list(hn.multiplicities),
        "factorization": {
            "u_plus": serialize.ratmat_to_json(fact.u_plus),
            "degrees": list(fact.degrees),
            "u_minus": serialize.ratmat_to_json(fact.u_minus),
        },
    }


def cmd_classify(args) -> dict:
    data = _load_json(args.input)
    bundle = serialize.bundle_from_json(data, cap=args.max_order)
    cf, certs = classify_with_certificates(bundle, validate_level="all")
    return {
        "command": "classify",
        "canonical_form": serialize.canonical_form_to_json(cf),
        "degrees": list(cf.degrees()),
        "parities": [e.parity for e in cf.entries],
        "module_dims": [e.module.dim for e in cf.entries],
        "certificates": {
            "validation": certs["validation"],
            "factorization_degrees": certs["factorization_degrees"],
            "factorization_residual_zero": certs["factorization_residual_zero"],
            "hn_blocks": certs["hn_blocks"],
            "averaging": [
                {k: v for k, v in stage.items() if k != "data"}
                for stage in certs["averaging"]
            ],
            "modules": certs["modules"],
        },
    }


def cmd_ext_split(args) -> dict:
    data = _load_json(args.input)
    group = serialize.group_from_json(data, cap=args.max_order)
    if not isinstance(group, PGLGroup):
        raise MalformedInput("extension splitting applies to projective group files")
    gamma = extension_splits(group)
    report = {
        "command": "ext-split",
        "h_order": group.order,
        "preimage_order": group.preimage.order,
    }
    report.update(serialize.splitting_to_json(gamma))
    return report


def cmd_iso(args) -> dict:
    b1 = serialize.bundle_from_json(_load_json(args.input_a), cap=args.max_order)
    b2 = serialize.bundle_from_json(_load_json(args.input_b), cap=args.max_order)
    if b1.group.elements != b2.group.elements:
        raise MathRejection("bundles carry different groups")
    cf1, _ = classify_with_certificates(b1)
    cf2, _ = classify_with_certificates(b2)
    return {
        "command": "iso",
        "isomorphic": cf1.equal_up_to_iso(cf2),
        "canonical_form_a": serialize.canonical_form_to_json(cf1),
        "canonical_form_b": serialize.canonical_form_to_json(cf2),
    }


def cmd_sections(args) -> dict:
    data = _load_json(args.input)
    cf = serialize.canonical_form_from_json(data, cap=args.max_order)
    group = next((e.module.group for e in cf.entries if e.parity == "plain"), None)
    if group is None:
        # all entries odd twist: the acting group is the projective quotient
        preimage = cf.entries[0].module.group
        gens = [
            preimage.elements[i]
            for i in preimage.generator_indices
            if not (-preimage.elements[i]).is_identity() and not preimage.elements[i].is_identity()
        ]
        from .extensions import pgl_group, sign_normalize

        group = pgl_group([sign_normalize(g) for g in gens], cap=args.max_order)
    module = sections_module(cf, group)
    chi = module.character()
    return {
        "command": "sections",
        "dimension": module.dim,
        "character": [serialize.cyc_to_json(v) for v in chi.values],
        "class_sizes": [len(c) for c in module.group.conjugacy_classes],
    }


def cmd_verify(args) -> dict:
    report = run_suite(args.suite, args.seed, args.cases)
    if args.suite == "all":
        report["pass"] = all(r["pass"] for r in report["reports"].values())
    return {"command": "verify", **report}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equibundle",
        description=(
            "Exact classification of finite-group-equivariant vector bundles "
            "on the complex projective line."
        ),
    )
    parser.add_argument("--max-order", type=int, default=DEFAULT_CLOSURE_CAP,
                        help="group closure cap (default 240)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit generators for a standard finite subgroup")
    p.add_argument("--family", required=True,
                   choices=["cyclic", "binary_dihedral", "binary_tetrahedral",
                            "binary_octahedral", "binary_icosahedral"])
    p.add_argument("--n", type=int, default=None, help="family parameter where applicable")
    p.add_argument("--modulus-override", type=int, default=None,
                   help="embed in a larger cyclotomic field (multiple of the default)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("split", help="splitting type and factorization certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("classify", help="canonical form of an equivariant bundle")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ext-split", help="central extension splitting verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_ext_split)

    p = sub.add_parser("iso", help="decide equivariant isomorphism of two bundles")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("sections", help="global sections module of a canonical form")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="override the default (acceptance-sized) case count")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


# Built once per process; parse_args returns a fresh Namespace on every call.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        report = args.func(args)
    except MalformedInput as exc:
        _emit({"error": "malformed_input", "detail": str(exc)}, getattr(args, "output", None))
        return 2
    except MathRejection as exc:
        _emit({"error": "mathematical_rejection", "detail": str(exc)}, getattr(args, "output", None))
        return 1
    except EquibundleError as exc:
        _emit({"error": "rejected", "detail": str(exc)}, getattr(args, "output", None))
        return 1
    _emit(report, getattr(args, "output", None))
    if report.get("pass") is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
