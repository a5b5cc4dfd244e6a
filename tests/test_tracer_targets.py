"""The benchmark's layer tracer must find every function it wraps.

perfbench/tracer.py names package functions by (module, attribute path);
a helper renamed or deleted in the package breaks every traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for mod_name, path, _, _ in _targets():
        mod = importlib.import_module(f"equibundle.{mod_name}")
        if "." in path:
            # The tracer patches the attribute the class itself defines.
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append(f"{mod_name}.{path}")
    assert not missing, missing
