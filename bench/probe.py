"""Machine record and the measurements the benchmark takes in child processes.

    python3 bench/probe.py import              # seconds to import numpy and spinheat
    python3 bench/probe.py blas1 CONFIG.ini    # solve_steady p50 on that config

Run from the root of a checkout (``src/`` is put on the path).  Each command
prints one JSON object.  ``blas1`` is meant to be started with a single BLAS
thread in its environment; it reports the thread count it saw.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

BLAS1_REPS = 3


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def _import() -> dict:
    t0 = perf_counter()
    import numpy  # noqa: F401
    import spinheat.cli  # noqa: F401
    return {"import_s": perf_counter() - t0}


def _blas1(config: str) -> dict:
    from spinheat import build_liouvillian, cli, solve_steady

    cfg = cli.load_config(None, config)
    if "sweep" in cfg:
        parameter, grid = cli.sweep_grid(cfg)
        spec, baths = cli.point_config(cfg, parameter, grid[0])
    else:
        spec = cli.build_chain(cfg)
        baths = [cli.build_bath(cfg, side) for side in "LR"]
    liou = build_liouvillian(spec, baths)
    times = []
    for _ in range(BLAS1_REPS):
        t0 = perf_counter()
        solve_steady(liou)
        times.append(perf_counter() - t0)
    return {"p50_ms": 1e3 * statistics.median(times), "n": spec.n, "blas_threads": blas_threads()}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    if argv[:1] == ["import"]:
        result = _import()
    elif argv[:1] == ["blas1"] and len(argv) == 2:
        result = _blas1(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
