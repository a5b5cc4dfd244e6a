"""Outside-in layer tracer for the benchmark.

The tracer wraps public functions of the equibundle modules from outside,
without touching the package source.  Each wrapped function belongs to a
layer, named `<module>.<thing>`.  Two kinds of layer exist:

* leaf layers (scalar, polynomial, matrix arithmetic, elimination) are
  aggregated only: outermost call count, inclusive time and self time, where
  self time excludes every nested wrapped call;
* stage layers (factorisation, validation, closure, serialisation, planting,
  ...) are aggregated the same way, except that self time excludes only
  nested stages, and each outermost call also records a span tagged with the
  verdict id and its parent span.

A call into a layer that is already active on the stack passes straight
through: it is neither counted nor timed separately, so recursion and
internal helpers (`nullspace` calling `rref`) count once.  `CycNum`
construction is counted, never timed.

Installing rebinds every module-level alias of a wrapped function in every
loaded `equibundle` module (for example `birkhoff_factor` in `equivariant`,
`suites` and `cli`); uninstalling restores every original object.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

LEAF = "leaf"
STAGE = "stage"

# (module, attribute path, layer, kind).  An attribute path "Cls.meth"
# patches the method on the class.
TARGETS = (
    ("cyclotomic", "CycNum.__mul__", "cyclotomic.mul", LEAF),
    ("cyclotomic", "CycNum.inv", "cyclotomic.inv", LEAF),
    ("ratfun", "Poly.__mul__", "ratfun.poly_mul", LEAF),
    ("ratfun", "Poly.divmod", "ratfun.poly_divmod", LEAF),
    ("ratfun", "poly_gcd", "ratfun.poly_gcd", LEAF),
    ("ratfun", "poly_lcm", "ratfun.poly_gcd", LEAF),
    ("ratfun", "poly_xgcd", "ratfun.poly_gcd", LEAF),
    ("ratfun", "RatMat.inv", "ratfun.ratmat_inv", LEAF),
    ("ratfun", "RatMat.det", "ratfun.ratmat_det", LEAF),
    ("ratfun", "RatMat.compose_moebius", "ratfun.ratmat_compose", LEAF),
    ("ratfun", "RatMat.__mul__", "ratfun.ratmat_mul", LEAF),
    ("linalg", "rref", "linalg.elim", LEAF),
    ("linalg", "nullspace", "linalg.elim", LEAF),
    ("linalg", "mat_inv", "linalg.elim", LEAF),
    ("bundle", "birkhoff_factor", "bundle.birkhoff", STAGE),
    ("equivariant", "validate_equivariance", "equivariant.validate", STAGE),
    ("equivariant", "hn_invariance_failures", "equivariant.hn_check", STAGE),
    ("equivariant", "classify_with_certificates", "equivariant.classify", STAGE),
    ("matgroup", "closure_tables", "matgroup.closure", STAGE),
    ("matgroup", "generate_group", "matgroup.closure", STAGE),
    ("matgroup", "Representation.__init__", "matgroup.modules", STAGE),
    ("matgroup", "Representation.from_generator_images", "matgroup.modules", STAGE),
    ("matgroup", "Representation.character", "matgroup.modules", STAGE),
    ("matgroup", "Representation.direct_sum", "matgroup.modules", STAGE),
    ("matgroup", "Representation.tensor", "matgroup.modules", STAGE),
    ("matgroup", "Representation.conjugate", "matgroup.modules", STAGE),
    ("matgroup", "Representation.is_odd_twist", "matgroup.modules", STAGE),
    ("matgroup", "module_isomorphic", "matgroup.modules", STAGE),
    ("matgroup", "reynolds", "matgroup.modules", STAGE),
    ("extensions", "sign_normalize", "extensions", STAGE),
    ("extensions", "PGLGroup.__init__", "extensions", STAGE),
    ("extensions", "PGLGroup.splitting", "extensions", STAGE),
    ("extensions", "extension_splits", "extensions", STAGE),
    ("extensions", "preimage_group", "extensions", STAGE),
    ("extensions", "odd_twist_valid", "extensions", STAGE),
    ("cli", "_load_json", "serialize.load", STAGE),
    ("serialize", "cocycle_from_json", "serialize.load", STAGE),
    ("serialize", "bundle_from_json", "serialize.load", STAGE),
    ("serialize", "group_from_json", "serialize.load", STAGE),
    ("serialize", "representation_from_json", "serialize.load", STAGE),
    ("serialize", "canonical_form_from_json", "serialize.load", STAGE),
    ("serialize", "ratmat_from_json", "serialize.load", STAGE),
    ("serialize", "_elem_from_json", "serialize.load", STAGE),
    ("serialize", "dumps", "serialize.dump", STAGE),
    ("serialize", "cocycle_to_json", "serialize.dump", STAGE),
    ("serialize", "bundle_to_json", "serialize.dump", STAGE),
    ("serialize", "group_to_json", "serialize.dump", STAGE),
    ("serialize", "representation_to_json", "serialize.dump", STAGE),
    ("serialize", "canonical_form_to_json", "serialize.dump", STAGE),
    ("serialize", "splitting_to_json", "serialize.dump", STAGE),
    ("serialize", "ratmat_to_json", "serialize.dump", STAGE),
    ("serialize", "_elem_to_json", "serialize.dump", STAGE),
    ("plant", "planted_cocycle", "plant", STAGE),
    ("plant", "random_unimodular_z", "plant", STAGE),
    ("plant", "random_unimodular_w", "plant", STAGE),
    ("plant", "random_module", "plant", STAGE),
    ("plant", "random_canonical_form", "plant", STAGE),
    ("plant", "conjugated_modules", "plant", STAGE),
    ("plant", "random_retrivialization", "plant", STAGE),
)

VERDICT = "verdict"


class Layer:
    __slots__ = ("name", "kind", "depth", "calls", "self_s", "total_s")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.depth = 0
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Wraps the program's layers; aggregates counts and keeps stage spans."""

    def __init__(self, package: str = "equibundle"):
        self.package = package
        self.layers: dict[str, Layer] = {}
        for _, _, name, kind in TARGETS:
            self.layers.setdefault(name, Layer(name, kind))
        # Wrappers close over these lists, so reset() clears them in place.
        self.objects = [0]
        self.factorizations: list = []
        self.spans: list[tuple] = []
        self._all: list[float] = []  # child time of any wrapped call, per open frame
        self._stage: list[float] = []  # child time of nested stages, per open stage
        self._ids: list[int] = []  # span id of each open stage; 0 is "no parent"
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- bookkeeping ---------------------------------------------------

    def reset(self) -> None:
        """Forget all aggregates and spans; wrappers stay installed."""
        for layer in self.layers.values():
            layer.depth = layer.calls = 0
            layer.self_s = layer.total_s = 0.0
        self.objects[0] = 0
        self.factorizations.clear()
        self.spans.clear()
        self._all[:] = [0.0]
        self._stage[:] = [0.0]
        self._ids[:] = [0]
        self._next_id = 1
        self.verdict = None

    def begin_verdict(self, verdict_id) -> None:
        self.verdict = verdict_id
        self._verdict_id = self._next_id
        self._next_id += 1
        self._ids.append(self._verdict_id)
        self._stage.append(0.0)
        self._verdict_t0 = perf_counter()

    def end_verdict(self) -> None:
        t1 = perf_counter()
        self._stage.pop()
        self._ids.pop()
        self.spans.append((self.verdict, self._verdict_id, 0, VERDICT, self._verdict_t0, t1))
        self.verdict = None

    # -- wrapping ------------------------------------------------------

    def _leaf(self, fn, layer: Layer):
        frames = self._all

        def wrapper(*args, **kwargs):
            if layer.depth:
                return fn(*args, **kwargs)
            layer.depth = 1
            frames.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = frames.pop()
                frames[-1] += dur
                layer.depth = 0
                layer.calls += 1
                layer.self_s += dur - child
                layer.total_s += dur

        return wrapper

    def _stage_wrapper(self, fn, layer: Layer, keep_result: bool):
        frames, stages, ids, spans = self._all, self._stage, self._ids, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if layer.depth:
                return fn(*args, **kwargs)
            layer.depth = 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = ids[-1]
            frames.append(0.0)
            stages.append(0.0)
            ids.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    tracer.factorizations.append(result)
                return result
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                frames.pop()
                frames[-1] += dur
                child_stages = stages.pop()
                stages[-1] += dur
                ids.pop()
                layer.depth = 0
                layer.calls += 1
                layer.self_s += dur - child_stages
                layer.total_s += dur
                spans.append((tracer.verdict, span_id, parent, layer.name, t0, t1))

        return wrapper

    def _wrap(self, fn, layer: Layer):
        if layer.kind == LEAF:
            return self._leaf(fn, layer)
        return self._stage_wrapper(fn, layer, keep_result=layer.name == "bundle.birkhoff")

    def _counting_init(self, fn):
        counter = self.objects

        def wrapper(self_, *args, **kwargs):
            counter[0] += 1
            fn(self_, *args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        }
        wrapped: dict[int, tuple] = {}
        for mod_name, path, layer_name, _ in TARGETS:
            mod = modules[f"{self.package}.{mod_name}"]
            layer = self.layers[layer_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(self._wrap(raw.__func__, layer)))
                else:
                    self._set(cls, meth, self._wrap(raw, layer))
                continue
            fn = getattr(mod, path)
            wrapped[id(fn)] = (fn, self._wrap(fn, layer))
        # Rebind the defining module's name and every alias imported by name.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        cyc = modules[f"{self.package}.cyclotomic"].CycNum
        self._set(cyc, "__init__", self._counting_init(vars(cyc)["__init__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates per layer, as plain numbers."""
        out = {}
        for layer in self.layers.values():
            out[layer.name] = {
                "kind": layer.kind,
                "calls": layer.calls,
                "self_s": layer.self_s,
                "total_s": layer.total_s,
            }
        out["cyclotomic.objects"] = self.objects[0]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: verdict, span, parent, stage, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for verdict, span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "verdict": verdict,
                            "span": span,
                            "parent": parent,
                            "stage": name,
                            "start_s": t0,
                            "end_s": t1,
                        }
                    )
                    + "\n"
                )
