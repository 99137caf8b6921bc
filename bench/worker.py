"""One pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload scan --seed 1.0 --mode plain --work DIR

Builds the workload's inputs from the seed and writes them as algebra
JSON files under DIR (the set-up).  Then it runs the job list once, in an
order drawn from the seed, in a closed loop: one job at a time, each an
in-process call to ``nalg.cli.main(argv)`` with stdout captured and
``--par 1`` in argv.  Every answer is checked against the answer key
after the loop.  Prints one JSON object with the pass's timings, raw and
rescaled (see speed.py), per-job records and, in the ``trace`` and
``count`` modes, the per-layer numbers.  With ``--mode setup`` it stops
after the set-up and a few speed samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import nalg  # noqa: E402
import nalg.cli  # noqa: E402
from nalg import io as nalg_io  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from twins import change_basis, dense_twin  # noqa: E402
from workloads import (  # noqa: E402
    TWIN,
    WORKLOADS,
    build_input,
    field_kind,
    input_of,
    is_early,
    is_twin,
    job_id,
    original_id,
)


# speed samples a set-up-only run takes after its set-up, about 0.1 s
SETUP_SAMPLES = 100


def setup(jobs, seed, work_dir):
    """Write every input the jobs name; returns (paths, catalog seconds)."""
    os.makedirs(work_dir, exist_ok=True)
    names = sorted({input_of(job) for job in jobs})
    built, catalog_s = {}, 0.0
    for name in names:
        base = name.rstrip(TWIN)
        if base not in built:
            start = time.perf_counter()
            built[base] = build_input(base)
            catalog_s += time.perf_counter() - start
    paths = {}
    for name in names:
        path = os.path.join(work_dir, name + ".json")
        if name.endswith(TWIN):
            base = built[name[: -len(TWIN)]]
            twin, p, p_inv = dense_twin(base, seed, name)
            nalg_io.dump_file(twin, path)
            if change_basis(nalg_io.load_file(path), p_inv, p) != base:
                raise RuntimeError("dense twin %s does not map back" % name)
        else:
            nalg_io.dump_file(built[name], path)
        paths[name] = path
    return paths, catalog_s


def argv_for(job, paths):
    """CLI argv of a job: input names become files, and par is pinned to 1
    whatever NALG_PAR says."""
    return ["--par", "1"] + [paths.get(token, token) for token in job]


def run_cli(argv):
    """(exit code or None if it raised, stdout, error text)."""
    out, err = _io.StringIO(), _io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nalg.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


def run_pass(workload, seed, work_dir, key, replacements=(), tracer=None, sampler=None):
    """Set up, then run every job once, in an order drawn from the seed.

    ``replacements`` (see tracing.patched) are installed around the job
    loop only.  With a ``sampler`` the machine's speed is sampled during
    the loop, and the sampling time is taken out of every time reported.

    The machine's speed drifts over seconds, so a kind of job that sat in
    one stretch of the pass would see only that stretch's speed.  Shuffled,
    the many short jobs of a kind spread over the whole pass."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    paths, catalog_s = setup(jobs, seed, work_dir)
    result = {"catalog_build_s": catalog_s, "first_job_at": time.time()}
    outcomes = []
    clock = time.perf_counter
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    taken = (lambda: len(sampler.samples)) if sampler else (lambda: 0)
    with tracing.patched(list(replacements)), sampler or contextlib.nullcontext():
        loop_start = clock()
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            argv = argv_for(job, paths)
            start, sampled, first = clock(), spent(), taken()
            code, stdout, err = run_cli(argv)
            seconds = clock() - start - (spent() - sampled)
            outcomes.append((seconds, (first, taken()), code, stdout, err))
        result["loop_s"] = clock() - loop_start - spent()
    if sampler:
        result["speed_factor"] = sampler.factor()
        result["speed_samples"] = len(sampler.samples)

    records, failures = [], []
    raw = dict.fromkeys(("wall_s", "q_wall_s", "fp_wall_s", "early_wall_s", "dense_wall_s"), 0.0)
    scaled = dict(raw)
    for job, (seconds, span, code, stdout, err) in zip(jobs, outcomes):
        entry = key.get(original_id(job))
        early = is_early(job, entry["exit"] if entry else None)
        reason = err if code is None else gate.check(key, job, code, stdout)
        if reason is None and code == 3:
            reason = "exit 3"
        if reason is not None:
            failures.append({"job": job_id(job), "reason": reason})
        factor = sampler.job_factor(*span) if sampler else 1.0
        kinds = ["wall_s", "q_wall_s" if field_kind(job) == "Q" else "fp_wall_s"]
        if early:
            kinds.append("early_wall_s")
        if is_twin(job):
            kinds.append("dense_wall_s")
        for kind in kinds:
            raw[kind] += seconds
            scaled[kind] += seconds * factor
        records.append({
            "job": job_id(job),
            "seconds": seconds,
            "speed_factor": factor,
            "answer": "early" if early else "full",
            "field": field_kind(job),
            "table": "dense" if is_twin(job) else "sparse",
            "exit": code,
            "ok": reason is None,
        })
    result.update({
        "raw": raw,
        "scaled": scaled,
        "attempted": len(jobs),
        "failed": len(failures),
        "failed_frac": len(failures) / len(jobs),
        "failures": failures,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--mode", choices=["plain", "trace", "count", "setup"], required=True)
    parser.add_argument("--work", required=True, help="directory for the input files")
    parser.add_argument("--spans", help="gzip file for the spans of a traced pass")
    args = parser.parse_args(argv)

    if not os.path.abspath(nalg.__file__).startswith(SRC + os.sep):
        sys.exit("nalg was not imported from %s" % SRC)
    if args.mode == "setup":
        _, catalog_s = setup(WORKLOADS[args.workload], args.seed, args.work)
        result = {"catalog_build_s": catalog_s, "first_job_at": time.time()}
        sampler = SpeedSampler()
        sampler.take(SETUP_SAMPLES)
        result["speed_factor"] = sampler.factor()
    elif args.mode == "trace":
        tracer = tracing.Tracer()
        result = run_pass(
            args.workload, args.seed, args.work, gate.load_key(),
            tracer.replacements(nalg), tracer,
        )
        result["per_layer"] = tracing.span_metrics(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    elif args.mode == "count":
        counts = tracing.Counts()
        result = run_pass(
            args.workload, args.seed, args.work, gate.load_key(),
            counts.replacements(nalg),
        )
        result["per_layer"] = counts.metrics()
    else:
        result = run_pass(
            args.workload, args.seed, args.work, gate.load_key(), sampler=SpeedSampler()
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
