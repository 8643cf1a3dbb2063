"""Run one parmaint CLI command in this process and record what it did.

Usage::

    python3 probe.py RESULT.json TRACE WORKLOAD -- CLI ARGS...
    python3 probe.py RESULT.json --meta

The parent starts one probe per command, so each command pays the
interpreter and import start-up a user pays.  The probe stamps the
monotonic clock (shared by all processes of the machine) right after
``parmaint.cli`` is imported, which gives the parent the set-up time,
runs ``parmaint.cli.main`` with tracing on when TRACE is 1, and writes
its exit status, peak resident memory and spans to RESULT.json.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback

import parmaint.cli

T_IMPORT = time.monotonic()


def _meta() -> dict:
    import numpy
    import scipy

    import parmaint

    try:
        from parmaint import _kernels

        backend = getattr(_kernels, "BACKEND", "numpy")
    except ImportError:
        backend = "numpy"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "parmaint_file": parmaint.__file__,
        "kernel_backend": backend,
    }


def main(argv) -> None:
    out = argv[1]
    if argv[2] == "--meta":
        with open(out, "w") as fh:
            json.dump(_meta(), fh)
        return
    trace, workload = argv[2] == "1", argv[3]
    cli_args = argv[argv.index("--") + 1 :]
    record = {"t_import": T_IMPORT, "error": None, "spans": []}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(workload)
        tracer.install()
    try:
        status = parmaint.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        status = None
        record["error"] = traceback.format_exc()
    record["status"] = status
    record["t_end"] = time.monotonic()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv)
