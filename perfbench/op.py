"""One benchmark operation: a `chainlab.cli.main` call in a fresh interpreter.

    python3 perfbench/op.py RESULT.json [--setup-only] [--spans SPANS.json]
                            -- CLI ARGS...

Set-up is interpreter start, ``import chainlab.cli`` and loading the config
the command will use; its end is written as a ``time.monotonic()`` stamp so
the parent, which stamped the launch, can take the difference.  Then
``cli.main`` runs once, timed from entry to return.  With ``--spans`` the
call runs under the tracer and the spans are written at exit.  With
``--setup-only`` the process stops after set-up and also records its
environment.
"""

import json
import os
import platform
import re
import resource
import sys
import time


def _config_path(cli_args):
    if "--config" in cli_args:
        return cli_args[cli_args.index("--config") + 1]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    conf = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", conf)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cli_threads": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "max_threads": int(max_threads.group(1)) if max_threads else None},
    }


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import chainlab.cli as cli

    cli.load_config(_config_path(cli_args))
    result = {"setup_end": time.monotonic()}
    if "--setup-only" in opts:
        result["env"] = environment()
    else:
        tracer = None
        if spans_path is not None:
            from tracer import Tracer
            tracer = Tracer().install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            code = cli.main(cli_args)
        finally:
            t1 = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            if tracer is not None:
                tracer.uninstall()
                tracer.dump(spans_path)
        result.update({
            "exit_code": code,
            "wall_s": t1 - t0,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        })
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
