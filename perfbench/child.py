"""One benchmark child process: import orliczlab, run the CLI `run` verb once.

Usage: python3 child.py RESULT_JSON [CONFIG REPORT TRACE]

With only RESULT_JSON it is a set-up probe: it imports the CLI and exits.
Otherwise it calls `orliczlab.cli.main(["run", ...])` on CONFIG, writing the
report to REPORT, with the tracer of tracer.py installed when TRACE is 1.  The
result file holds the monotonic time at which the import finished, the wall
time of the `run` verb, its exit code and the process's peak RSS.
"""

import json
import resource
import sys
import time

import orliczlab.cli

IMPORTED = time.monotonic()  # set-up ends here


def main(argv: list[str]) -> None:
    result = {"imported": IMPORTED}
    if len(argv) > 1:
        config, report, trace = argv[1:4]
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        code = orliczlab.cli.main(["run", "--config", config, "--out", report])
        result["wall_s"] = time.perf_counter() - start
        result["exit"] = code
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["trace"] = tracer.dump()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
