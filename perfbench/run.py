"""Benchmark of equibundle verdicts: `split`, `classify` and `roundtrip`.

Run from the repository root:

    python3 perfbench/run.py --workload split --seed 1 --seconds 30 --trace 0

The launcher imports nothing from the package.  It starts a fresh worker
process (perfbench/worker.py) per set-up sample; the middle one also runs
the workload, so the samples straddle the timed phase.  With --trace 0 it
reports the end-to-end metrics, with --trace 1 the per-layer metrics of
BENCHMARK.json.  It prints every metric with its
unit, the failure rate, the report digest and the provenance, writes the
same to perfbench/out/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 only when every verdict matched its planted answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 3  # fresh processes timed to the first verdict; median reported
DEADLINE_S = 170.0  # whole run, all workers included


class RunFailed(Exception):
    pass


def spawn_worker(args, setup_only: bool, deadline: float) -> dict:
    """Run one worker to completion and return its result object."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    """HEAD of this checkout; None outside a git checkout (src_sha256 still holds)."""
    if not (ROOT / ".git").exists():  # never report the commit of an enclosing repo
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:  # no git program
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    """Recorded beside every result; nothing is gated on it."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _git_commit(),
        "seed": seed,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="equibundle verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "equibundle").is_dir():
        print("perfbench: no src/equibundle next to perfbench/; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        for _ in range(extra // 2):
            setups.append(spawn_worker(args, True, deadline)["setup_s"])
        result = spawn_worker(args, False, deadline)
        for _ in range(extra - extra // 2):
            setups.append(spawn_worker(args, True, deadline)["setup_s"])
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layer_metrics"]
    else:
        setups.insert(extra // 2, result["setup_s"])  # samples in the order they ran
        values = dict(result)
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "failure_rate": failed / attempted,
        "metrics": metrics,
        "provenance": provenance(args.seed),
        "worker": {k: v for k, v in result.items() if k not in ("layer_metrics",)},
    }
    if not args.trace:
        summary["setup_samples_s"] = setups
    else:
        summary["all_layer_metrics"] = values

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  pool {result['pool']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failure_rate':40s} {summary['failure_rate']:>16.6g} failed/attempted ({failed}/{attempted})")
    if args.trace:
        print(f"  largest inclusive stage: {result['largest_stage']}")
        print(f"  spans: {result['spans']} in {result['spans_file']}")
    else:
        print(f"  verdict samples: {result['samples']}")
        print(f"  report sha256 over the first {result['digest_verdicts']} verdicts: {result['report_sha256']}")
    for f in result["failures"]:
        print(f"  FAILED verdict {f['verdict']} ({f['case']}): {f['reason']}")
    print("  provenance: " + json.dumps(summary["provenance"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
