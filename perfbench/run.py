"""heckepoly benchmark: fixed CLI workloads, timed end to end or traced.

    python3 perfbench/run.py --workload satake-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src/`
and from nowhere else.  One client runs one job at a time (a closed
loop); each job is a fresh process that times `heckepoly.cli.main(argv)`
after import, so no cache carries from one job to the next.

``--trace 0`` runs the workload's job list once, then again while
another pass would still end within ``--seconds``, and reports the
end-to-end metrics: the median over passes of the summed job time
(``wall_s``), the median of several fresh interpreter starts that import
`heckepoly.cli` (``setup_s``), and the largest peak RSS of any job.

``--trace 1`` runs the job list three times, once each untraced, with
layer spans, and with Laurent call counts (see tracing.py), and reports
the per-layer metrics and the tracing overhead.  The spans are written
to ``.perfbench-trace/`` in the checkout.

Every output is checked (checks.py).  The second-to-last stdout line is
a report with per-kind times and sample counts; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
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

import checks
import tracing
from workloads import KIND_METRIC, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_STARTS = 11
# A run must end within 180 s; no job or pass starts after this.
TIME_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(starts: int) -> list[float]:
    """Seconds for a fresh interpreter to start and import heckepoly.cli."""
    cmd = [sys.executable, "-c", "import heckepoly.cli"]
    # the first start may compile bytecode; that is a build, not set-up
    subprocess.run(cmd, env=_env(), check=True, capture_output=True, timeout=60)
    samples = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True, capture_output=True,
                       timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def execute(job, job_id: int, mode: str, deadline: float) -> dict:
    """Run one job in a fresh process; its report, or an error."""
    spec = json.dumps({"src": str(SRC), "argv": job.argv, "mode": mode,
                       "job_id": job_id})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py")], input=spec, text=True,
            capture_output=True, env=_env(),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "killed at the run's time limit"}
    if proc.returncode != 0:
        return {"error": f"job process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}"}
    return json.loads(proc.stdout)


def run_pass(jobs, mode: str, deadline: float, reference: dict) -> list[dict]:
    results = []
    for job_id, job in enumerate(jobs):
        if time.monotonic() >= deadline:
            result = {"error": "not started before the run's time limit"}
        else:
            result = execute(job, job_id, mode, deadline)
        result["problems"] = checks.check(job, result, reference)
        results.append(result)
    return results


def pass_times(jobs, results) -> dict[str, float]:
    times = {"wall_s": 0.0}
    for job, res in zip(jobs, results):
        seconds = res.get("seconds", 0.0)
        times["wall_s"] += seconds
        kind = KIND_METRIC[job.kind]
        times[kind] = times.get(kind, 0.0) + seconds
    return times


def tally(jobs, passes) -> tuple[int, list[str]]:
    """Jobs attempted, and one line per failed job."""
    failures = [f"{job.name}: {'; '.join(res['problems'])}"
                for results in passes for job, res in zip(jobs, results)
                if res["problems"]]
    return sum(len(results) for results in passes), failures


def measure(jobs, seconds: int, deadline: float, reference: dict):
    setup = measure_setup(SETUP_STARTS)
    passes = []
    started = time.monotonic()
    while True:
        pass_start = time.monotonic()
        passes.append(run_pass(jobs, "plain", deadline, reference))
        now = time.monotonic()
        # start another pass only if one like the last ends in time
        if now + (now - pass_start) > min(started + seconds, deadline):
            break
    per_pass = [pass_times(jobs, results) for results in passes]
    medians = {key: statistics.median(p[key] for p in per_pass)
               for key in per_pass[0]}
    metrics = {
        "wall_s": medians["wall_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(res.get("rss_kb", 0) for results in passes
                           for res in results) / 1024,
    }
    report = {"passes": len(passes), "jobs_per_pass": len(jobs),
              "setup_samples": len(setup),
              "median_s": medians,
              "wall_s_range": [min(p["wall_s"] for p in per_pass),
                               max(p["wall_s"] for p in per_pass)]}
    return passes, metrics, report


def trace(jobs, deadline: float, reference: dict, out: Path):
    plain = run_pass(jobs, "plain", deadline, reference)
    spans = run_pass(jobs, "spans", deadline, reference)
    counts = run_pass(jobs, "counts", deadline, reference)
    summary = tracing.summarize([r["trace"] for r in spans if r.get("trace")],
                                [r["trace"] for r in counts if r.get("trace")])
    metrics = summary["metrics"]
    metrics["cli.output_bytes"] = sum(len(r.get("stdout", "").encode())
                                      for r in plain)
    untraced, traced = pass_times(jobs, plain), pass_times(jobs, spans)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"]
                                       if untraced["wall_s"] else 0.0)
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        for res in spans:
            for span in (res.get("trace") or {}).get("spans", ()):
                fh.write(json.dumps(span) + "\n")
    report = {"untraced_s": untraced, "traced_s": traced,
              "missing": summary["missing"], "spans_file": str(out)}
    return [plain, spans, counts], metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckepoly" / "cli.py").is_file():
        print(f"no heckepoly source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    reference = checks.load_reference()
    jobs = jobs_for(args.workload, args.seed)
    if args.trace:
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        passes, metrics, report = trace(jobs, deadline, reference, out)
        units = {name: tracing.metric_unit(name)
                 for name in tracing.per_layer_names()}
    else:
        passes, metrics, report = measure(jobs, args.seconds, deadline,
                                          reference)
        units = END_TO_END
    attempted, failures = tally(jobs, passes)
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    report.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "failures": failures})
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
