"""One round of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --spawned T

``--spawned`` is the CLOCK_MONOTONIC reading taken just before this
process was started, so that set-up time covers interpreter start-up,
``import cellgreen`` and input generation.  ``bench/run.py`` starts the
rounds; this file is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import threading
import time

import harness
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    harness.import_cellgreen()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(harness.WORK, f"round-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs, extra = workloads.build(args.workload, args.seed, workdir, tracer)
        # Objects made during set-up stay alive; keep the collector from
        # scanning them during every job, as it would not in a fresh CLI.
        gc.collect()
        gc.freeze()
        setup_s = time.monotonic() - args.spawned

        loops = harness.Loops()
        stray = []

        def calibrate(after: str) -> dict:
            # A thread still running would be charged to no job.
            if threading.active_count() != 1:
                stray.append(f"{after}: {threading.active_count() - 1} thread(s) "
                             "besides the main one still alive")
            return loops.run()

        # One loop is short and noisy; set-up happens once, so its speed
        # gets the median of several.
        setup_loop = statistics.median(calibrate("set-up")["fraction"][1] for _ in range(8))
        outputs, job_cpu, job_wall, failures = [], [], [], []
        cal = [calibrate("set-up")]
        for job in jobs:
            if job.argv is not None:
                code, cpu, wall, out, err = harness.run_cli(job.argv)
            else:
                code, cpu, wall, out, err = harness.run_call(job.call)
            outputs.append((code, out))
            job_cpu.append(cpu)
            job_wall.append(wall)
            cal.append(calibrate(job.label))
            if code != 0:
                failures.append(f"{job.label}: exit {code}: {err.strip()[-300:]}")
        rss = harness.peak_rss_mb()
        layers = tracer.layer_metrics() if tracer else None
        problems = list(dict.fromkeys(stray)) + workloads.check(jobs, outputs, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256()
    for code, out in outputs:
        # Cell files live in a directory named after this process.
        out = workloads.stable_output(out).replace(workdir, "WORK")
        digest.update(f"{code}\n{out}\n".encode())

    # Scale each time to the machine's speed next to it: the job's kind of
    # calibration loop just before and just after it, against the reference.
    scaled_cpu, scaled_wall = [], []
    for i, job in enumerate(jobs):
        before, after = cal[i][job.loop], cal[i + 1][job.loop]
        scaled_cpu.append(harness.scaled(job_cpu[i], before[0], after[0]))
        scaled_wall.append(harness.scaled(job_wall[i], before[1], after[1]))
    print(json.dumps({
        "setup_s": harness.scaled(setup_s, setup_loop, setup_loop),
        "batch_cpu_s": sum(scaled_cpu),
        "batch_wall_s": sum(scaled_wall),
        "job_p50_cpu_s": statistics.median(scaled_cpu),
        "peak_rss_mb": rss,
        "raw": {
            "setup_s": setup_s,
            "job_cpu_s": job_cpu,
            "job_wall_s": job_wall,
            "loops": cal,
        },
        "jobs": {job.label: t for job, t in zip(jobs, scaled_cpu)},
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "digest": digest.hexdigest(),
        "layers": layers,
        "missing_targets": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
