"""One workload process: set up the seeded inputs, run the closed loop.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line.  Untraced runs never import the tracer.

Closed loop: one process, one thread; the next verdict starts when the
previous one returns.  The timed phase is the sum of verdict wall times; it
ends at the first rotation boundary after it reaches --seconds and at least
MIN_VERDICTS verdicts are done, so every run measures the same mix of cases.
Checking a report against its planted answer happens between verdicts,
outside the timers.  A pool smaller than the run is cycled; a repeated case
must give byte-identical report bytes.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # set-up is timed from here, before the other imports

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

MIN_VERDICTS = 100  # p90 then has at least ten samples beyond it
DIGEST_VERDICTS = 100
# peak_rss_mb is read when this many verdicts are done, so a fast run and a
# slow run report the memory of the same work.
RSS_VERDICTS = 100
# Traced runs: untraced share of --seconds, then the same verdicts traced.
UNTRACED_SHARE = 0.4


def run_phase(
    cases: list, rotation: int, seconds: float, min_count: int, count=None, tracer=None
) -> dict:
    """Run verdicts in pool order until the budget is spent (or `count` are done).

    A budgeted phase stops only on a rotation boundary.
    """
    durations: list[float] = []
    digests: list[str] = []
    concat = hashlib.sha256()  # over the report bytes of the first verdicts
    failures: list[dict] = []
    first_digest: dict[int, str] = {}
    done = 0
    busy = 0.0
    rss_mb = None
    while True:
        if count is not None and done >= count:
            break
        if count is None and busy >= seconds and done >= min_count and done % rotation == 0:
            break
        idx = done % len(cases)
        case = cases[idx]
        if tracer is not None:
            tracer.begin_verdict(done)
        t0 = time.perf_counter()
        try:
            code, payload = case.run()
            error = None
        except Exception:  # a verdict that raises is a failed verdict
            code, payload, error = None, None, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_verdict()
        busy += elapsed
        durations.append(elapsed)
        done += 1
        if done == RSS_VERDICTS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is not None:
            failures.append({"verdict": done - 1, "case": case.label, "reason": error})
            digests.append("")
            continue
        report = case.encode(payload)
        if done <= DIGEST_VERDICTS:
            concat.update(report)
        digest = hashlib.sha256(report).hexdigest()
        digests.append(digest)
        if idx in first_digest:
            if first_digest[idx] != digest:
                failures.append(
                    {"verdict": done - 1, "case": case.label, "reason": "rerun report bytes differ"}
                )
            continue
        first_digest[idx] = digest
        reason = case.check(code, report) if tracer is None else None
        if reason is not None:
            failures.append({"verdict": done - 1, "case": case.label, "reason": reason})
    return {
        "durations": durations,
        "digests": digests,
        "failures": failures,
        "busy_s": busy,
        "report_sha256": concat.hexdigest(),
        "rss_mb": rss_mb,
    }


def _bits(c) -> int:
    return max([abs(x).bit_length() for x in c.num] + [c.den.bit_length()])


def factorization_sizes(facts: list) -> tuple[int, int]:
    """Largest polynomial degree and coefficient bit-length in U_plus, U_minus."""
    max_deg = max_bits = 0
    for fact in facts:
        for mat in (fact.u_plus, fact.u_minus):
            for row in mat.entries:
                for e in row:
                    for poly in (e.num, e.den):
                        max_deg = max(max_deg, poly.degree())
                        for c in poly.coeffs:
                            max_bits = max(max_bits, _bits(c))
    return max_deg, max_bits


def untraced(cases: list, rotation: int, seconds: float) -> dict:
    """End-to-end metrics of the timed closed loop."""
    phase = run_phase(cases, rotation, seconds, MIN_VERDICTS)
    durations = phase["durations"]
    attempted = len(durations)
    return {
        "attempted": attempted,
        "failed": len(phase["failures"]),
        "failures": phase["failures"][:20],
        "busy_s": phase["busy_s"],
        "verdicts_per_s": attempted / phase["busy_s"],
        "verdict_s.p50": statistics.median(durations),
        "verdict_s.p90": statistics.quantiles(durations, n=10)[8],
        "samples": attempted,
        "report_sha256": phase["report_sha256"],
        "digest_verdicts": min(attempted, DIGEST_VERDICTS),
        "peak_rss_mb": phase["rss_mb"],
    }


def traced(
    cases: list, rotation: int, seconds: float, tracer, setup_plant_s: float, spans_path: Path
) -> dict:
    """Untraced pass, then the same verdicts traced; per-layer metrics."""
    tracer.uninstall()
    plain = run_phase(cases, rotation, seconds * UNTRACED_SHARE, 1)
    count = len(plain["durations"])
    tracer.reset()
    tracer.install()
    try:
        again = run_phase(cases, rotation, 0.0, 1, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    failures = plain["failures"] + again["failures"]
    for i, (a, b) in enumerate(zip(plain["digests"], again["digests"])):
        if a != b:
            failures.append({"verdict": i, "case": cases[i % len(cases)].label,
                             "reason": "traced report bytes differ from untraced"})
    layers = tracer.snapshot()
    max_deg, max_bits = factorization_sizes(tracer.factorizations)
    tracer.write_spans(spans_path)
    metrics = {}
    for name, agg in layers.items():
        if name == "cyclotomic.objects":
            metrics[name] = agg
            continue
        metrics[f"{name}.calls"] = agg["calls"]
        metrics[f"{name}.self_s"] = agg["self_s"]
        metrics[f"{name}.total_s"] = agg["total_s"]
        metrics[f"{name}.calls_per_verdict"] = agg["calls"] / count
    metrics["plant.total_s"] += setup_plant_s
    metrics["serialize.load_s"] = layers["serialize.load"]["total_s"]
    metrics["serialize.dump_s"] = layers["serialize.dump"]["total_s"]
    metrics["bundle.birkhoff.max_degree"] = max_deg
    metrics["bundle.birkhoff.max_bits"] = max_bits
    metrics["trace.overhead"] = again["busy_s"] / plain["busy_s"]
    stages = {
        name: agg["total_s"]
        for name, agg in layers.items()
        if name != "cyclotomic.objects" and agg["kind"] == "stage"
        and name != "equivariant.classify"
    }
    return {
        "attempted": count,
        "failed": len({f["verdict"] for f in failures}),
        "failures": failures[:20],
        "layer_metrics": metrics,
        "largest_stage": max(stages, key=stages.get),
        "untraced_s": plain["busy_s"],
        "traced_s": again["busy_s"],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    rotation = workloads.ROTATIONS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        # plant.total_s counts set-up planting only where the verdicts do not
        # plant; roundtrip's set-up replays plantings to pick its seeds.
        if args.workload not in workloads.PLANTS_IN_VERDICT:
            tracer.install()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"inputs-{args.workload}-", dir=OUT) as tmp:
        cases = workloads.build(args.workload, args.seed, Path(tmp))
        setup_s = time.monotonic() - T_START
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif tracer is None:
            result = untraced(cases, rotation, args.seconds)
            result["setup_s"] = setup_s
        else:
            setup_plant_s = tracer.snapshot()["plant"]["total_s"]
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = traced(cases, rotation, args.seconds, tracer, setup_plant_s, spans)
        result["pool"] = len(cases)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
