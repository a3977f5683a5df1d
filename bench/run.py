"""cellgreen benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload green_deep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  It starts fresh rounds of the
workload, each a new ``bench/worker.py`` process that sets up, runs the
whole job list once and checks every output, until about ``--seconds``
have passed; every round runs the same jobs.  The last line of standard output
is one JSON object:

* ``--trace 0``: the end-to-end metrics, each the median over the rounds,
  except ``job_p50_cpu_s``, the median over the jobs of all rounds;
* ``--trace 1``: untraced and traced rounds alternate, and the per-layer
  metrics come from the traced ones, with ``trace.overhead_s`` the
  difference of their median batch CPU times.

``correct`` is false when any check failed in any round, or when two
rounds' outputs differ.  Exit code 2 means the benchmark could not run
(no ``src/cellgreen`` here, bad arguments, or a round that crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("batch_cpu_s", "s"),
    ("batch_wall_s", "s"),
    ("job_p50_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# A round still running this long after --seconds have passed is stopped,
# so that a run of 36 s ends within three minutes even if the program hangs.
OVERRUN_S = 130


def run_round(workload: str, seed: int, trace: int, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--spawned", repr(spawned)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(harness.SRC, "cellgreen", "__init__.py")):
        print(f"error: no cellgreen sources under {harness.SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    rounds = []
    try:
        while True:
            traced = args.trace and len(rounds) % 2 == 1
            begun = time.monotonic()
            r = run_round(args.workload, args.seed, int(traced),
                          args.seconds + OVERRUN_S - (begun - started))
            r["traced"] = bool(traced)
            last = time.monotonic() - begun
            rounds.append(r)
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  f"setup {r['setup_s']:.3f} s, batch cpu {r['batch_cpu_s']:.3f} s, "
                  f"wall {r['batch_wall_s']:.3f} s, p50 {r['job_p50_cpu_s']:.4f} s, "
                  f"rss {r['peak_rss_mb']:.1f} MB")
            for line in r["failures"] + r["problems"]:
                print(f"  {line}")
            # Stop when one more round would more likely end after
            # --seconds than before.
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and time.monotonic() - started + last / 2 >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = [r for r in rounds if not r["traced"]]
    correct = (
        not any(r["problems"] for r in rounds)
        and len({r["digest"] for r in rounds}) == 1
    )
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        if traced[0]["missing_targets"]:
            print("not traced (absent): " + ", ".join(traced[0]["missing_targets"]))
        from tracing import LAYER_METRICS

        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit in LAYER_METRICS
        }
        metrics["trace.overhead_s"] = {
            "value": median(traced, "batch_cpu_s") - median(plain, "batch_cpu_s"),
            "unit": "s",
        }
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END}
        # Pool the jobs of all rounds: a median over more samples.
        metrics["job_p50_cpu_s"]["value"] = statistics.median(
            t for r in plain for t in r["jobs"].values())
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    os.makedirs(harness.WORK, exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-{args.seed}.json"
    with open(os.path.join(harness.WORK, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "rounds": rounds}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
