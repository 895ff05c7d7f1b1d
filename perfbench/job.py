"""Run one heckepoly CLI job in this fresh process and report it.

Reads one JSON object on stdin: {"src", "argv", "mode", "job_id"}, where
``src`` is the checkout's source directory and ``mode`` is "plain",
"spans" or "counts" (see tracing.py).  Imports `heckepoly.cli`, refuses
to run a copy from anywhere but ``src``, then times `heckepoly.cli.main(argv)` alone, so interpreter
start-up and import stay out of the job time.  The command's stdout and
stderr are captured in memory.

Prints one JSON object: exit code, seconds in `main`, peak RSS of this
process, the captured output, any traceback, and the trace report.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.load(sys.stdin)
    src = Path(spec["src"]).resolve()
    import heckepoly.cli  # found through PYTHONPATH, which names src alone
    if not Path(heckepoly.cli.__file__).resolve().is_relative_to(src):
        print(f"heckepoly was imported from {heckepoly.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["mode"] != "plain":
        import tracing
        tracer = tracing.install(spec["mode"], spec["job_id"])
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = heckepoly.cli.main(list(spec["argv"]))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, reported with its traceback
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    result = {
        "code": code, "seconds": seconds, "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
        "trace": tracer.report() if tracer is not None else None,
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
