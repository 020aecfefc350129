"""Benchmark of the cfnmc command line; see README.md in this directory.

    python3 benchmarks/run.py --workload ehrhart-survey --seed 1 --seconds 30 --trace 0

Runs the workload's job list in a fresh worker process, checks every job's
output against the reference computations in ``oracle.py``, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  ``--workload all`` runs the
workloads of BENCHMARK.json in turn and prints one such line for each, with
its name under ``workload``.  Exits 0 when every non-probe job passed its check, 1
when one did not, and 2 without a result when the checkout has no cfnmc
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from calibrate import KERNEL_REF_S  # noqa: E402
from oracle import CheckError  # noqa: E402
from workloads import WORKLOADS, jobs as job_list  # noqa: E402

SETUP_SAMPLES = 10  # fresh processes that only import cfnmc.cli, besides the worker
TIME_LIMIT_S = 170


def worker(args: list, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("CFNMC_THREADS", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def scale(kernel_s: list) -> float:
    """The calibration scale of a stretch of time in which the kernel took
    ``kernel_s`` seconds per sample (see calibrate.py)."""
    return KERNEL_REF_S / statistics.mean(kernel_s)


def judge(job, result: dict, changed: bool) -> str | None:
    """None when the job did what it should, else why not."""
    code = result["code"]
    if job.probe:
        return None if code == 2 else f"malformed input gave exit {code!r}, expected 2"
    if code != 0:
        return f"exit {code!r}: {result['err'].strip()[-300:]}"
    if changed:
        return "output changed between rounds"
    try:
        job.check(json.loads(result["out"]))
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh worker and check it; the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    spans_path = ROOT / ".bench_traces" / f"{name}.jsonl"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    setups = []
    if not trace:  # half before the workload and half after, to span the run
        setups += [worker(["--setup"], deadline) for _ in range(SETUP_SAMPLES // 2)]
    report = worker([name, str(seed), str(seconds), str(int(trace)), str(spans_path)], deadline)
    if not trace:
        setups += [worker(["--setup"], deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    jobs = job_list(name, seed)
    rounds = len(report["untraced_s"]) + len(report["traced_s"])
    failed_jobs = 0
    correct = True
    for i, (job, result) in enumerate(zip(jobs, report["jobs"])):
        why = judge(job, result, i in report["changed"])
        sys.stderr.write(f"{'FAIL' if why else 'ok  '} {job.name}" + (f": {why}\n" if why else "\n"))
        if why:
            failed_jobs += 1
            correct = correct and job.probe

    for kind in ("untraced", "traced"):
        for r in report[kind + "_s"]:
            sys.stderr.write(f"{kind} round: {sum(r):.3f} s = " + " + ".join(f"{t:.3f}" for t in r) + "\n")
    if trace:
        if report["missing"]:
            sys.stderr.write(f"trace: names not found, metrics left at 0: {', '.join(report['missing'])}\n")
        sys.stderr.write(f"trace: {report['spans']} spans of the fastest traced round in {spans_path}\n")
        values = dict(report["layers"])
        values["trace.overhead_s"] = statistics.median(map(sum, report["traced_s"])) - statistics.median(
            map(sum, report["untraced_s"])
        )
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in spans.METRICS.items()}
    else:
        scales = [scale(k) for k in report["kernel_s"]]
        setups.append(report)
        sys.stderr.write(
            "calibration: scale per untraced round " + " ".join(f"{x:.4f}" for x in scales)
            + "; measured setup s (scale) "
            + " ".join(f"{p['setup_s']:.4f} ({scale(p['setup_kernel_s']):.3f})" for p in setups)
            + "\n"
        )
        metrics = {
            "wall_s": {"value": statistics.median(sum(r) * x for r, x in zip(report["untraced_s"], scales)), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] * scale(p["setup_kernel_s"]) for p in setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": correct,
        "attempted": rounds * len(jobs),
        "failed": rounds * failed_jobs,
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "cfnmc" / "cli.py").is_file():
        sys.stderr.write(f"error: no cfnmc sources under {ROOT / 'src'}\n")
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workload": name, **result}), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
