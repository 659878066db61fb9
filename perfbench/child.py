"""One benchmark invocation in a fresh interpreter.

Usage: python3 child.py '<request JSON>'

The request names ``argv`` (the chromaladder command line, or null to only
import), ``trace`` (wrap the public functions in spans), ``result`` (where to
write this process's measurements) and ``spans`` (where to write the raw
spans, or null). Nothing from the benchmark is imported before
``chromaladder.cli``, so the import timestamp covers interpreter start-up and
the program's own imports only.
"""

import sys
import time

import chromaladder.cli as cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main(request: dict) -> None:
    out = {"imported_at": IMPORTED_AT, "module_file": cli.__file__}
    if request["argv"] is not None:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        out["exit_code"] = cli.main(request["argv"])
        out["cmd_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu_start
        if tracer is not None:
            out["trace"] = tracer.summary()
            if request["spans"]:
                with open(request["spans"], "w", encoding="utf-8") as fh:
                    json.dump(tracer.dump(), fh, separators=(",", ":"))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
