"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run real jobs from this checkout's `src/`, so they take a few
seconds; no timing is asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import ELL, WORKLOADS, jobs_for

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


def _job(workload: str, name: str):
    (job,) = [j for j in jobs_for(workload, 7) if j.name == name]
    return job


def _deadline() -> float:
    return time.monotonic() + 120


def test_benchmark_json_names_every_reported_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.per_layer_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"])
               for m in BENCHMARK["per_layer"])
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_same_seed_same_jobs_and_seeds_derive_from_it():
    assert jobs_for("verify-mix", 3) == jobs_for("verify-mix", 3)
    assert jobs_for("verify-mix", 3) != jobs_for("verify-mix", 4)
    assert jobs_for("satake-ladder", 3) != jobs_for("satake-ladder", 4)


def test_oracle_on_gl2():
    # (X - v^2 s1)(X - v^2 s2) at s = (2, 3), v = 5
    v2 = 25
    assert checks.expected_coefficients(2, 1, [2, 3]) == [
        1, (-v2 * 5) % ELL, v2 * v2 * 6 % ELL]


@pytest.mark.parametrize("workload,name", [
    ("satake-ladder", "poly-GL4-k2"),
    ("verify-mix", "modell-PGL4"),
    ("weyl-affine", "coset-PGL3-10"),
])
def test_smallest_job_of_each_workload_passes(workload, name):
    job = _job(workload, name)
    (result,) = run.run_pass([job], "plain", _deadline(), checks.load_reference())
    assert result["problems"] == []
    assert result["code"] == 0 and result["seconds"] > 0


def test_traced_job_reports_layer_spans():
    job = _job("satake-ladder", "eval-GL4-k2")
    (spans,) = run.run_pass([job], "spans", _deadline(), checks.load_reference())
    (counts,) = run.run_pass([job], "counts", _deadline(), checks.load_reference())
    assert spans["problems"] == [] and counts["problems"] == []
    summary = tracing.summarize([spans["trace"]], [counts["trace"]])
    assert summary["missing"] == []
    metrics = summary["metrics"]
    assert metrics["characters.ext_power_calls"] == 7
    assert metrics["satake.evaluate_calls"] > 0
    assert metrics["laurent.domain_mul_calls"] > 0
    assert sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) == pytest.approx(1)


def test_coset_oracle_reads_only_lambda_and_coeff():
    job = _job("weyl-affine", "coset-PGL3-10")
    (result,) = run.run_pass([job], "plain", _deadline(), checks.load_reference())
    payload = json.loads(result["stdout"])
    for term in payload["coset_coefficients"][1]:
        term["label"] = "added key"
    assert checks.check(job, {**result, "stdout": json.dumps(payload)},
                        checks.load_reference()) == []
    payload["coset_coefficients"][1][0]["coeff"] = "-1*v^2"
    assert "X^(d-1) coefficient is not -T[mu]" in checks.check(
        job, {**result, "stdout": json.dumps(payload)}, checks.load_reference())


def _tamper_poly(payload):
    terms = payload["polynomial"]["coefficients"][1]
    terms[0]["coeff"] = terms[0]["coeff"].replace("-1*", "-2*", 1)


def _tamper_eval(payload):
    values = payload["coefficient_values"]
    values[2] = str((int(values[2]) + 1) % ELL)


def _tamper_ch(lines):
    lines[3]["residual"][1][1] = "1"


def test_wrong_coefficient_value_or_residual_is_a_failed_job():
    jobs = [_job("satake-ladder", "poly-GL4-k2"),
            _job("satake-ladder", "eval-GL4-k2"),
            _job("verify-mix", "ch-GL4-k2-F11")]
    reference = checks.load_reference()
    results = run.run_pass(jobs, "plain", _deadline(), reference)
    assert run.tally(jobs, [results]) == (3, [])

    for job, result, tamper in zip(jobs, results,
                                   (_tamper_poly, _tamper_eval, _tamper_ch)):
        lines = [json.loads(line) for line in result["stdout"].splitlines()]
        tamper(lines if job.kind == "verify" else lines[0])
        result["stdout"] = "".join(json.dumps(x) + "\n" for x in lines)
        result["problems"] = checks.check(job, result, reference)
    attempted, failures = run.tally(jobs, [results])
    assert attempted == 3 and len(failures) == 3, failures
    assert "coefficient 1 is wrong" in failures[0]
    assert "field coefficients differs" in failures[0]
    assert "coefficient values are wrong" in failures[1]
    assert "nonzero residual" in failures[2]
