"""One workload process of the archdim benchmark.

Imports archdim from the checkout's ``src``, generates the run's ops from
the workload seed, and then (unless ``--mode setup``) issues them one after
another through ``archdim.cli.main``: a closed loop with a single client.
Every op's artifact is read back and checked.  The process writes one JSON
result file for ``run.py``, which spawned it.

    python3 bench/child.py --workload W --seed S --cycles C \\
        --mode setup|untraced|traced --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from tracer import Tracer
from workloads import RAISED, check_output, make_ops

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Probes a setup-only process times after its setup; run.py scales the
# setup time by their median (SETUP_PROBES_USED there).
SETUP_PROBE_RUNS = 5


def import_archdim():
    """archdim from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import archdim
    import archdim.cli  # noqa: F401  (traced and called through the module)
    if not Path(archdim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"archdim imported from {archdim.__file__}, not {SRC}")
    return archdim


# The yardstick for the gated timings (see run.py's PROBE_REF_S): interpreter
# work, small SVDs and one SVD of a tall frame-sized matrix, touching no
# archdim code.  It is timed before the first op and after every op, so each
# op has a measure of how fast the shared host's core ran around it.  Any
# change to it rescales every gated timing.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SQUARE = _PROBE_RNG.standard_normal((64, 64))
_PROBE_TALL = _PROBE_RNG.standard_normal((4096, 45))


def probe() -> float:
    """Seconds the calibration probe takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(15000):
        total += (i * i) % 7
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(3):
        np.linalg.svd(_PROBE_SQUARE)
    np.linalg.svd(_PROBE_TALL, compute_uv=False)
    return time.perf_counter() - started


@dataclass
class RunResult:
    latencies: list[float] = field(default_factory=list)
    # probes[0] runs before the first op, probes[k + 1] right after op k.
    probes: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0  # wall time of the ops, without the probes
    digest: str = ""


def execute(archdim, op, workdir: str, corrupt=None):
    """Issue one op and check its artifact: (failure kind or None, detail,
    digest material).  ``corrupt`` is a test hook that may rewrite the
    artifact before it is checked."""
    path = os.path.join(workdir, op.artifact)
    if os.path.exists(path):
        os.unlink(path)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = archdim.cli.main(op.argv(path))
    except Exception:  # an op that raises is a failed op, not a failed run
        return RAISED, traceback.format_exc().strip().splitlines()[-1], None
    if corrupt is not None:
        corrupt(path)
    return check_output(op, rc, stdout.getvalue(), path)


def run_ops(archdim, ops, workdir: str, tracer=None, deadline: float = float("inf"),
            corrupt=None) -> RunResult:
    """Issue ``ops`` in order until done or past ``deadline`` (monotonic)."""
    result = RunResult()
    digest = hashlib.sha256()
    clock = time.perf_counter
    result.probes.append(probe())
    started = clock()
    for op in ops:
        if time.monotonic() > deadline:
            break
        if tracer is not None:
            tracer.op_id = op.index
        t0 = clock()
        kind, detail, material = execute(archdim, op, workdir, corrupt)
        result.latencies.append(clock() - t0)
        if kind is not None:
            result.failures.append({"op": op.index, "argv": op.argv(),
                                    "kind": kind, "detail": detail})
        record = [op.index, op.argv(), kind, material]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        result.probes.append(probe())
    result.elapsed = clock() - started - sum(result.probes[1:])
    result.digest = digest.hexdigest()
    return result


def blas_info() -> dict:
    """BLAS library and its thread count as numpy reports them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        info = {"name": None, "version": None}
    info["threads"] = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "untraced", "traced"],
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--deadline", type=float, default=float("inf"),
                        help="monotonic time after which no new op starts")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    archdim = import_archdim()
    ops = make_ops(args.workload, args.seed, args.cycles)
    ready = time.monotonic()

    out: dict = {"ready": ready}
    if args.mode == "setup":
        out["probes"] = [probe() for _ in range(SETUP_PROBE_RUNS)]
    else:
        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
        try:
            run = run_ops(archdim, ops, args.workdir, tracer, args.deadline)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.update({
            "ops": len(ops),
            "latencies": run.latencies,
            "probes": run.probes,
            "elapsed": run.elapsed,
            "failures": run.failures,
            "digest": run.digest,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                    "blas": blas_info(), "nproc": os.cpu_count()},
        })
        if tracer is not None:
            metrics, inclusive = tracer.metrics()
            out["layers"] = metrics
            out["inclusive_s"] = inclusive
            if args.trace_out:
                tracer.write(args.trace_out)
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
