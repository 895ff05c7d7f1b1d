"""Write reference.json: digests of the answers of jobs that take no seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose answers are trusted; the benchmark then
fails any later commit whose `poly` or `datum` answers differ.
"""

from __future__ import annotations

import json
import time

import checks
from run import execute
from workloads import WORKLOADS, jobs_for


def main() -> int:
    jobs = {}
    for workload in WORKLOADS:
        for job in jobs_for(workload, 0):
            if job.kind in ("poly", "coset", "datum"):
                result = execute(job, 0, "plain", time.monotonic() + 600)
                if result.get("code") != 0:
                    raise SystemExit(f"{job.name} failed: {result}")
                payload = json.loads(result["stdout"])
                jobs[job.name] = checks.answer_fields(job, payload)
    checks.REFERENCE_FILE.write_text(json.dumps({"jobs": jobs}, indent=1,
                                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
