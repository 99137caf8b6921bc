"""The nalg benchmark: one command, three workloads.

    python3 bench/run.py --workload scan --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; nalg is imported from ./src.
Every pass of a workload runs in a fresh interpreter (bench/worker.py)
that builds its inputs from the seed, runs the job list once and checks
every answer against the answer key.

--trace 0 runs as many passes as fit in --seconds (at least one) and
reports the median of each end-to-end metric over the passes.  Times are
rescaled to a reference machine speed sampled during the pass (speed.py);
the raw seconds stay in the run record.  Pass k uses the inputs and job
order of seed "<seed>.<k>", so the dense twins differ between passes and
the median smooths over them.  The set-up is timed at least three times
per run, adding set-up-only interpreters where fewer passes fit, and its
median is reported.

--trace 1 runs one plain, one traced and one counting pass on the
inputs and order of "<seed>.0" and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A run record with every pass, every job's
time and answer kind, and the machine goes to bench/.work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("scan", "space", "simple")
MIN_SETUPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "q_wall_s": "s",
    "fp_wall_s": "s",
    "early_wall_s": "s",
    "dense_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


class PassFailed(RuntimeError):
    pass


def run_worker(workload, seed, mode, work, deadline, spans=None):
    """One pass in a fresh interpreter; returns its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", seed, "--mode", mode, "--work", work,
    ]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.time()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise PassFailed("%s pass ran past the deadline" % mode) from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed("%s pass exited %d: %s" % (mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_job_at"] - spawned
    return result


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                model,
            )
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "git_commit": commit,
    }


def plain_run(workload, seed, seconds, deadline, work):
    """Passes and set-ups of a --trace 0 run, and its end-to-end metrics:
    medians over the passes of the rescaled times (see speed.py) and of
    the peak memory."""
    passes, setups = [], []
    start = time.monotonic()
    target = 1
    while len(passes) < target:
        k = len(passes)
        result = run_worker(workload, "%s.%d" % (seed, k), "plain", "%s/p%d" % (work, k), deadline)
        passes.append(result)
        setups.append(result["setup_s"] * result["speed_factor"])
        if k == 0:
            # as many passes as fit in the time asked for, judged by the first
            target = max(1, round(seconds / (time.monotonic() - start)))
    while len(setups) < MIN_SETUPS:
        k = len(setups)
        result = run_worker(workload, "%s.%d" % (seed, k), "setup", "%s/s%d" % (work, k), deadline)
        setups.append(result["setup_s"] * result["speed_factor"])
    metrics = {
        name: statistics.median(p["scaled"][name] for p in passes)
        for name in END_TO_END if name.endswith("wall_s")
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return passes, setups, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(workload, seed, deadline, work, spans):
    pass_seed = "%s.0" % seed
    plain = run_worker(workload, pass_seed, "plain", work + "/plain", deadline)
    traced = run_worker(workload, pass_seed, "trace", work + "/trace", deadline, spans)
    counted = run_worker(workload, pass_seed, "count", work + "/count", deadline)
    values = dict(traced["per_layer"])
    values.update(counted["per_layer"])
    values["catalog.build_s"] = traced["catalog_build_s"]
    values["trace.overhead_ratio"] = traced["raw"]["wall_s"] / plain["raw"]["wall_s"]
    metrics = {
        name: {"value": value, "unit": per_layer_unit(name)}
        for name, value in sorted(values.items())
    }
    return [plain, traced, counted], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nalg", "__init__.py")):
        sys.exit("no nalg source tree at %s/src; run from a source checkout" % ROOT)

    stamp = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(WORK, stamp)
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    try:
        if args.trace:
            spans = os.path.join(records, stamp + "-spans.jsonl.gz")
            passes, metrics = traced_run(args.workload, args.seed, deadline, work, spans)
            setups = []
        else:
            passes, setups, metrics = plain_run(
                args.workload, args.seed, args.seconds, deadline, work
            )
    except PassFailed as exc:
        sys.exit("benchmark failed: %s" % exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(passes),
        "setups_s": setups,
        "machine": machine(),
        "failed_frac": failed / attempted,
        "summary": summary,
        "passes": passes,
    }
    with open(os.path.join(records, stamp + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in passes:
        for failure in p["failures"]:
            print("FAILED %s: %s" % (failure["job"], failure["reason"]))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
