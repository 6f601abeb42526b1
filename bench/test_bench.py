"""Tests of the benchmark itself: seeded inputs, the gate and the tracer.

Run with `python -m pytest bench -q` from the repository root.
"""

import hashlib
import json
from pathlib import Path

from checkout import use_checkout_source

use_checkout_source()

import porcfield.cli  # noqa: E402
import pytest  # noqa: E402

import spans  # noqa: E402
from gate import check_output  # noqa: E402
from porcfield import parse_system  # noqa: E402
from workloads import (  # noqa: E402
    GENERATED,
    WORKLOAD_NAMES,
    generated_systems,
    tail_jobs,
    workload_jobs,
)

# sha256 of the first system each generated workload draws for seed 0; a
# change here changes every recorded baseline and must be deliberate
PINNED_FIRST_SYSTEM = {
    "ie-lattice": "6402568b6a56030cb774adbcc1aae25b1e0e7b07dbcd24ac589072aa054086d4",
    "wide-minors": "affeacae472632497ed5e1b79356b526b732c50c7693614f525568e1bdd76a15",
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_jobs_are_byte_identical_for_a_seed(workload):
    assert workload_jobs(workload, 7) == workload_jobs(workload, 7)


@pytest.mark.parametrize("workload", sorted(GENERATED))
def test_generator_output_is_pinned(workload):
    shape, _ = GENERATED[workload]
    text = generated_systems(workload, shape, 1, 0)[0]
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FIRST_SYSTEM[workload]
    assert generated_systems(workload, shape, 2, 1) != generated_systems(workload, shape, 2, 2)


@pytest.mark.parametrize("workload", sorted(GENERATED))
def test_generated_systems_have_the_declared_shape(workload):
    shape, count = GENERATED[workload]
    texts = generated_systems(workload, shape, count, 3)
    assert len(texts) == count
    for text in texts:
        system = parse_system(text)
        assert (system.k, system.n) == (shape.k, shape.n)
        assert (len(system.equations), len(system.inequations)) == (shape.e, shape.s)
        for rel in system.relations:
            assert any(rel.exponents)
            assert all(p.degree <= shape.degree for p in rel.exponents if p)
            assert all(abs(c) <= shape.coeff for p in rel.exponents for c in p.coeffs)


def _run(job):
    return spans.run_cli(job.argv, timeout=60)


def test_gate_accepts_correct_outputs():
    for job in tail_jobs():
        code, out = _run(job)
        assert check_output(job, code, out) is None


def test_gate_rejects_a_flipped_term_sign():
    job = tail_jobs()[0]
    assert job.kind == "synthesize"
    code, out = _run(job)
    data = json.loads(out)
    data["terms"][-1]["sign"] *= -1
    reason = check_output(job, code, json.dumps(data))
    assert reason is not None and "closed form" in reason


def test_gate_rejects_a_wrong_exit_code():
    for job in tail_jobs():
        _, out = _run(job)
        assert check_output(job, 3, out) == "exit code 3"


def test_gate_rejects_bad_verify_and_table_lines():
    _, verify_job, table_job = tail_jobs()
    _, out = _run(verify_job)
    bad = out.replace("ok (", "MISMATCH (", 1)
    assert check_output(verify_job, 0, bad) is not None
    _, out = _run(table_job)
    head, first, *rest = out.splitlines()
    bad = "\n".join([head, first.split(": ")[0] + ": q^2", *rest])
    assert check_output(table_job, 0, bad) is not None


def test_traced_pass_covers_every_layer_and_restores_names():
    original = porcfield.cli.count_at
    rec = spans.Recorder()
    _, results = spans.run_pass(tail_jobs(), rec, timeout=60)
    assert [code for code, _ in results] == [0, 0, 0]
    assert porcfield.cli.count_at is original
    metrics = spans.layer_metrics(rec)
    for name, (value, unit) in metrics.items():
        if unit == "s":
            assert value > 0, name


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    emitted = set(spans.layer_metrics(spans.Recorder())) | {"cli.import_s", "cli.main_s", "trace.overhead_ratio"}
    assert declared == emitted
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)


def test_longer_jobs_get_more_runs_per_pass():
    import time

    from run import sample_jobs

    lengths = {"a": 0.002, "b": 0.002, "long": 0.02}
    passes = []

    def run_job(job):
        time.sleep(lengths[job])
        return job

    samples = sample_jobs(0.5, list(lengths), run_job, lambda: passes.append(1))
    runs = dict(zip(lengths, map(len, samples)))
    # after the first pass the long job runs round(sqrt(10)) = 3 times a pass
    assert len(passes) >= 3
    assert runs["long"] > runs["a"]
