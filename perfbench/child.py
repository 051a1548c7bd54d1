"""One measured sdwave run in a fresh process.

Usage: python3 child.py RESULT.json TRACE(0|1) SPANS_PATH -- <sdwave argv>

Imports sdwave from the checkout's ``src/``, optionally installs the tracer,
times one ``sdwave.cli.main(argv)`` call and writes a JSON result. The time
from the parent's spawn to the start of the timed call is the run's set-up;
both sides read CLOCK_MONOTONIC, which is shared by all processes.
"""

import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    result_path, trace, spans_path = argv[0], argv[1] == "1", argv[2]
    sd_argv = argv[argv.index("--") + 1:]
    src = os.path.join(os.path.dirname(BENCH_DIR), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)

    import numpy
    import scipy
    import sdwave
    import sdwave.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(sdwave.__file__)))
    if where != src:
        raise SystemExit("sdwave was imported from %s, not from %s" % (where, src))

    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer(run_id=os.getpid())
        tracer.install()

    out = {"error": None}
    call_start = time.monotonic()
    tic = time.perf_counter()
    try:
        sdwave.cli.main(sd_argv)
    except Exception as err:  # a raising run is a failed run, reported to the parent
        out["error"] = "%s: %s" % (type(err).__name__, err)
    out["wall_s"] = time.perf_counter() - tic
    out["call_start"] = call_start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
