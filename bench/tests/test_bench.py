"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import nalg  # noqa: E402
import nalg.cli  # noqa: E402
from nalg import io as nalg_io  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from twins import change_basis, dense_twin, density, unimodular_pair  # noqa: E402
from workloads import (  # noqa: E402
    PROBES,
    TWIN,
    WORKLOADS,
    build_input,
    input_of,
    is_early,
    is_twin,
    job_id,
    original_id,
)

SECOND_SEED = "second-seed-7"


@pytest.fixture(scope="module")
def key():
    return gate.load_key()


def test_every_job_has_a_key_entry(key):
    for name, jobs in WORKLOADS.items():
        assert len(set(jobs)) == len(jobs), name  # no (question, input) repeats
        for job in jobs:
            assert original_id(job) in key, (name, job_id(job))


def test_answer_kinds_cover_every_workload(key):
    for name, jobs in WORKLOADS.items():
        kinds = {is_early(job, key[original_id(job)]["exit"]) for job in jobs}
        assert kinds == {True, False}, name
        # twins are made only from full answers, so a twin cannot turn a
        # keyed not_simple answer into undetermined
        for job in jobs:
            if is_twin(job):
                assert key[original_id(job)]["exit"] == 0, job_id(job)


def test_unimodular_pair_is_inverse():
    import random

    for dim in (1, 2, 5, 9):
        p, p_inv = unimodular_pair(dim, random.Random(dim))
        for i in range(dim):
            for j in range(dim):
                dot = sum(p[i][k] * p_inv[k][j] for k in range(dim))
                assert dot == (1 if i == j else 0)
        assert all(-2 <= c <= 2 for row in p for c in row)


def test_twin_maps_back_and_is_dense():
    base = build_input("dot.Q.4")
    twin, p, p_inv = dense_twin(base, SECOND_SEED, "dot.Q.4~")
    assert twin != base
    assert change_basis(twin, p_inv, p) == base
    assert density(twin) > 2 * density(base)


def test_twins_preserve_verdicts_and_dimensions_on_a_second_seed(tmp_path, key):
    twin_jobs = sorted(
        {job for jobs in WORKLOADS.values() for job in jobs if is_twin(job)}
    )
    assert twin_jobs
    paths, _ = worker.setup(twin_jobs, SECOND_SEED, str(tmp_path))
    for job in twin_jobs:
        code, stdout, err = worker.run_cli(worker.argv_for(job, paths))
        assert gate.check(key, job, code, stdout) is None, (job_id(job), err)
        assert gate.basis_free_lines(stdout)


def _mini_workload(monkeypatch, jobs):
    monkeypatch.setitem(worker.WORKLOADS, "mini", jobs)
    return "mini"


def test_gate_counts_a_corrupted_answer_as_a_failure(tmp_path, monkeypatch, key):
    jobs = PROBES[:3]
    name = _mini_workload(monkeypatch, jobs)
    result = worker.run_pass(name, "1", str(tmp_path / "good"), key)
    assert result["failed"] == 0 and result["attempted"] == 3

    corrupted = dict(key)
    entry = dict(corrupted[job_id(jobs[1])])
    entry["sha256"] = "0" * 64
    corrupted[job_id(jobs[1])] = entry
    result = worker.run_pass(name, "1", str(tmp_path / "bad"), corrupted)
    assert result["failed"] == 1
    assert result["failed_frac"] == pytest.approx(1 / 3)
    assert result["failures"][0]["job"] == job_id(jobs[1])


def test_gate_rejects_wrong_exit_code_and_twin_lines(key):
    job = ("check", "dxy", "dot.Q.6" + TWIN)
    entry = key[original_id(job)]
    good = "\n".join(entry["basis_free"]) + "\n"
    assert gate.check(key, job, entry["exit"], good) is None
    assert gate.check(key, job, 1 - entry["exit"], good) is not None
    assert gate.check(key, job, entry["exit"], good.replace("pass", "fail")) is not None
    assert gate.check(key, ("check", "dxy", "dot.Q.99"), 0, "") == "no key entry"


def test_par_stays_one_whatever_nalg_par_says(monkeypatch):
    monkeypatch.setenv("NALG_PAR", "4")
    parser = nalg.cli.build_parser()
    for jobs in WORKLOADS.values():
        for job in jobs:
            argv = worker.argv_for(job, {input_of(job): "in.json"})
            assert parser.parse_args(argv).par == 1


def test_self_time_on_a_synthetic_span_tree():
    N, S, E, P = tracing.NAME, tracing.START, tracing.END, tracing.PARENT

    def span(name, start, end, parent):
        out = [None] * 6
        out[N], out[S], out[E], out[P] = name, start, end, parent
        return out

    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("io.load_file", 0.0, 1.0, 0),
        span("structure.simplicity", 2.0, 9.0, 0),
        span("structure.ideal_closure", 3.0, 5.0, 2),
        span("linalg.insert", 3.5, 4.0, 3),
        span("linalg.closure", 6.0, 8.5, 2),
        span("linalg.insert", 7.0, 7.25, 5),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 2.5, 1.5, 0.5, 2.25, 0.25])
    m = tracing.span_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["structure.simplicity_self_s"] == pytest.approx(2.5)
    assert m["structure.simplicity_s"] == pytest.approx(7.0)
    assert m["linalg.insert_calls"] == 2
    assert m["linalg.insert_s"] == pytest.approx(0.75)
    assert m["cli.jobs"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["a", 0.0, 4.0, -1, 0, None],
        ["b", 1.0, 3.0, 0, 0, None],
        ["c", 2.0, 3.5, 0, 0, None],
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracing_and_counting_leave_answers_unchanged(tmp_path, key):
    jobs = list(PROBES)
    paths, _ = worker.setup(jobs, "1", str(tmp_path))
    tracer, counts = tracing.Tracer(), tracing.Counts()
    originals = (nalg.cli.main, nalg.linalg.Matrix.__init__)
    for replacements in (tracer.replacements(nalg), counts.replacements(nalg)):
        with tracing.patched(replacements):
            for job in jobs:
                code, stdout, _ = worker.run_cli(worker.argv_for(job, paths))
                assert gate.check(key, job, code, stdout) is None, job_id(job)
    assert (nalg.cli.main, nalg.linalg.Matrix.__init__) == originals
    m = tracing.span_metrics(tracer.spans)
    assert m["cli.jobs"] == len(jobs)
    for name in (
        "checks.dxy_s", "checks.jordan_s", "structure.simplicity_s",
        "linalg.closure_s", "derivations.der_s", "identities.lifting_s",
    ):
        assert m[name] > 0, name
    c = counts.metrics()
    assert c["fields.q_ops"] > 0 and c["linalg.matrix_inits"] > 0
    assert 0 < c["checks.basis_products"] <= c["algebra.basis_product_calls"]


def test_wrappers_reach_names_imported_directly():
    tracer = tracing.Tracer()
    original = nalg.structure.matrix_algebra_closure
    with tracing.patched(tracer.replacements(nalg)):
        assert nalg.structure.matrix_algebra_closure is nalg.linalg.matrix_algebra_closure
        assert nalg.structure.matrix_algebra_closure is not original
        assert nalg.cli.simplicity is nalg.structure.simplicity
    assert nalg.structure.matrix_algebra_closure is original


def test_inputs_round_trip_through_the_file_format(tmp_path):
    for name in ("diag.Q.7", "zero.Q.3", "red.Q.4", "fx.F2.2.fh", "tkk.F13"):
        alg = build_input(name)
        path = str(tmp_path / (name + ".json"))
        nalg_io.dump_file(alg, path)
        assert nalg_io.load_file(path) == alg


def test_metric_names_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = dict(tracing.span_metrics([]))
    layers.update(tracing.Counts().metrics())
    layers.update({"catalog.build_s": 0.0, "trace.overhead_ratio": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layers
    }


def test_speed_sampler_samples_while_active_and_then_stops():
    import signal
    import time

    from speed import REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    with sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 0.4
    mean = sum(sampler.samples) / len(sampler.samples)
    assert sampler.factor() == pytest.approx(REFERENCE_S / mean)
