"""One workload run in a fresh process; ``run.py`` starts it and checks its report.

    python3 worker.py ROOT --setup
    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE SPANS_PATH

The first form imports ``cfnmc.cli`` from ROOT/src, builds its parser and
prints the seconds that took, with the seconds of a few calibration kernel
runs right after it.  The second does the same, then runs the
workload's job list through ``cli.main`` in rounds, closed loop on one
thread, for about SECONDS (at least two rounds), with the calibration
kernel of ``calibrate.py`` sampled throughout.  With TRACE 1 the rounds
alternate untraced and traced.  It prints one JSON report: the seconds of
each job in each round (kernel time excluded), the kernel's seconds in
each untraced round, peak resident memory after the first round, each job's
exit code and output from the first round, the jobs whose output changed
in a later round, and with TRACE 1 the per-layer metrics of the fastest
traced round and the missing names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 2
SETUP_KERNEL_SAMPLES = 10  # kernel runs right after the import, to calibrate it


def run_job(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv) + ["--json"])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_round(cli, jobs, cal) -> tuple:
    """Seconds per job without the kernel's, and each job's (exit code,
    stdout, stderr)."""
    times, results = [], []
    for job in jobs:
        stolen, start = cal.stolen, time.perf_counter()
        results.append(run_job(cli, job.argv))
        times.append(time.perf_counter() - start - (cal.stolen - stolen))
    return times, results


def main(argv) -> int:
    root = argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    from cfnmc import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    from calibrate import Calibrator, kernel_samples

    setup = {"setup_s": setup_s, "setup_kernel_s": kernel_samples(SETUP_KERNEL_SAMPLES)}
    if argv[2] == "--setup":
        print(json.dumps(setup))
        return 0

    import spans as tracing
    from workloads import jobs as job_list

    workload, seed, seconds, trace, spans_path = argv[2], int(argv[3]), float(argv[4]), argv[5] == "1", argv[6]
    jobs = job_list(workload, seed)
    tracer = tracing.Tracer() if trace else None
    times = {False: [], True: []}  # traced? -> per-job seconds of each round
    kernel_s = []  # per untraced round, the kernel seconds sampled during it
    cal = Calibrator()
    cal.start()
    fastest, layers, kept_spans = None, None, []
    first, changed = None, set()
    began = time.perf_counter()
    while True:
        traced = trace and len(times[False]) > len(times[True])
        if traced:
            tracer.install()
            try:
                dt, results = run_round(cli, jobs, cal)
            finally:
                tracer.uninstall()
            round_spans = tracer.take()
            if fastest is None or sum(dt) < fastest:
                fastest, layers, kept_spans = sum(dt), tracing.layer_metrics(round_spans), round_spans
        else:
            sampled = len(cal.samples)
            dt, results = run_round(cli, jobs, cal)
            kernel_s.append(cal.samples[sampled:])
        times[traced].append(dt)
        if first is None:
            # Memory of one pass over the job list; later rounds add only the
            # harness's own fragmentation.
            first, peak_rss_mb = results, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        changed.update(i for i, (a, b) in enumerate(zip(first, results)) if a[:2] != b[:2])
        rounds = len(times[False]) + len(times[True])
        upcoming = times[trace and not traced] or times[traced]
        # Stop once the next round would end more than half a round after SECONDS.
        if rounds >= MIN_ROUNDS and time.perf_counter() - began + statistics.median(map(sum, upcoming)) / 2 > seconds:
            break
    cal.stop()

    report = {
        **setup,
        "untraced_s": times[False],
        "traced_s": times[True],
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": [{"code": code, "out": out, "err": err} for code, out, err in first],
        "changed": sorted(changed),
    }
    if trace:
        report["layers"] = layers
        report["missing"] = tracer.missing()
        report["spans"] = len(kept_spans)
        tracing.write_spans(spans_path, kept_spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
