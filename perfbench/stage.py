"""Child-process entry points of the benchmark.

    stage.py cli --record R -- <axvector arguments>
        one CLI stage, exactly as ``python -m axvector.cli``, plus the stage
        clock (corpus loaded, training steps) written to R
    stage.py trace --spec S --record R
        the stages listed in S, called in-process through
        ``axvector.cli.dispatch`` with the tracer installed; spans are kept in
        memory and written to R at the end
    stage.py provenance --record R
        library versions and the thread count each loaded OpenBLAS reports

The parent pins BLAS threading in the environment before this interpreter
starts, so it holds before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, install, stage_clock  # noqa: E402


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def cmd_cli(args) -> int:
    from axvector import cli
    with stage_clock({}) as record:
        code = cli.dispatch(args.argv)
    _write(args.record, record)
    return code


def cmd_trace(args) -> int:
    start = time.perf_counter()
    import axvector.backend  # noqa: F401
    import axvector.config  # noqa: F401
    import axvector.metrics  # noqa: F401
    import axvector.training  # noqa: F401
    from axvector import cli
    import_s = time.perf_counter() - start
    with open(args.spec, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = Tracer()
    results = []
    for job in jobs:
        if job.get("reference"):
            # the same stage untraced: the base for the tracing overhead
            with stage_clock({"name": job["name"]}) as record:
                record["code"] = cli.dispatch(job["argv"])
        else:
            record = {"name": job["name"]}
            uninstall = install(tracer)
            tracer.run = job["name"]
            try:
                with tracer.span(f"cli.{job['argv'][0]}"):
                    record["code"] = cli.dispatch(job["argv"])
            finally:
                uninstall()
        results.append(record)
    _write(args.record, {"import_s": import_s, "jobs": results, **tracer.export()})
    return 0 if all(r["code"] == 0 for r in results) else 1


def blas_info() -> dict:
    """BLAS vendor from numpy's build config and the thread count each loaded
    OpenBLAS reports at run time."""
    import ctypes

    import numpy as np
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def cmd_provenance(args) -> int:
    import numpy
    import scipy
    _write(args.record, {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "blas": blas_info()})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--record", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(handler=cmd_cli)
    p = sub.add_parser("trace")
    p.add_argument("--spec", required=True)
    p.add_argument("--record", required=True)
    p.set_defaults(handler=cmd_trace)
    p = sub.add_parser("provenance")
    p.add_argument("--record", required=True)
    p.set_defaults(handler=cmd_provenance)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
