"""archdim benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload dim-wide --seed 1 --seconds 40 --trace 0

Each run starts fresh workload processes (``bench/child.py``) from the root
of a checkout and imports archdim from its ``src``.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it prints the per-layer
metrics of a traced run.  The line before the last is a report with the
environment, the result digest and the failures; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNT_METRICS, SELF_TIME_METRICS
from workloads import VERDICTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Setup-only processes per untraced run; with the measuring process they
# give the setup_s samples whose median is reported.
SETUP_PROCESSES = 8
# Workload processes run BLAS on one thread.  A second BLAS thread on this
# 2-core shared host made op times follow how the host scheduled that
# thread (runs of one seed differed by up to 1.6x), not the program's work.
# The environment header reports the thread count in effect.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A traced run makes one untraced and two traced passes over the same ops,
# and a traced pass takes up to ~1.3x the untraced time, so each pass gets
# about 1 / 3.5 of --seconds.
TRACE_PASS_SHARE = 3.5
# No op starts later than this into a run, so that a slow commit still
# finishes within the 180 s a run may take.
RUN_LIMIT_S = 150.0
# The tail percentile must leave at least this many ops beyond it.
TAIL_OPS = 10
# The gated timings are in seconds of a reference core.  The shared host's
# cores switch, for seconds to minutes at a time, between a fast speed and
# one 1.4x to 1.75x slower.  CPU time slows with wall time, so this is not
# steal time; most likely another tenant on the sibling hyperthread.  Whole
# runs can fall in the slow phase, which no statistic over wall-clock times
# removes.  So each op's wall time is scaled by PROBE_REF_S over the median
# of the four probe times around it (child.probe; two before the op, two
# after), and setup time by the median of the first SETUP_PROBES_USED
# probes of its process.  PROBE_REF_S is the probe's time in the fast phase
# of the reference machine (2-core x86-64 VM, CPython 3.11, numpy 2.4
# with OpenBLAS on one thread), where the scaled times therefore read as
# fast-phase wall times.  The report line keeps the wall-clock values.
PROBE_REF_S = 6.6e-3
SETUP_PROBES_USED = 5

# Layers expected to dominate each workload's traced op time: self-time
# metrics, or span names whose inclusive time counts (witness-certify's
# contraction work happens under verify_certificate).
EXPECTED_DOMINANT = {
    "sweep-ramp": ("self", ("contraction.pauli_s", "dense.apply_s",
                            "contraction.frame.self_s")),
    "dim-wide": ("self", ("contraction.pauli_s", "dense.apply_s",
                          "contraction.frame.self_s", "contraction.rank_s")),
    "witness-certify": ("inclusive", ("witness.build", "witness.verify")),
    "mc-arch": ("self", ("architecture.build_s", "architecture.detect_s")),
}


class BenchError(Exception):
    pass


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibrated(latencies: list[float], probes: list[float]) -> list[float]:
    """Op times in reference-core seconds; probes[k] ran just before op k
    and probes[k + 1] just after it."""
    return [latency * PROBE_REF_S / statistics.median(probes[max(0, k - 1):k + 3])
            for k, latency in enumerate(latencies)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_OPS ops beyond it (the minimum when there are fewer ops)."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_OPS)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


class Runner:
    """Spawns the workload processes of one run, one at a time."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.spawned = 0

    def spawn(self, mode: str, cycles: int, trace_out: Path | None = None) -> dict:
        self.spawned += 1
        result = self.workdir / f"result-{self.spawned}.json"
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--cycles", str(cycles), "--mode", mode,
               "--workdir", str(self.workdir), "--result", str(result),
               "--deadline", repr(self.deadline)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        started = time.monotonic()
        timeout = self.deadline - started + 25.0
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        data = json.loads(result.read_text())
        data["wall_setup_s"] = data["ready"] - started
        data["setup_s"] = data["wall_setup_s"] * PROBE_REF_S / statistics.median(
            data["probes"][:SETUP_PROBES_USED])
        return data


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    report: dict
    attempted: int
    failed: int
    correct: bool


def tally(passes: list[dict]) -> tuple[int, list[dict], bool]:
    """(ops attempted, failures, whether every failure is a designed
    verdict and not a wrong answer) over the given workload processes."""
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failures, all(f["kind"] in VERDICTS for f in failures)


def env_header(args: argparse.Namespace, child: dict) -> dict:
    return {"git_sha": git_sha(), **child["env"], "seed": args.seed}


def run_untraced(args: argparse.Namespace, runner: Runner) -> Outcome:
    workload = WORKLOADS[args.workload]
    cycles = workload.cycles(args.seconds)
    procs = [runner.spawn("setup", cycles) for _ in range(SETUP_PROCESSES)]
    timed = runner.spawn("untraced", cycles)
    procs.append(timed)
    attempted, failures, correct = tally([timed])
    failed = len(failures)
    wall = timed["latencies"]
    latencies = calibrated(wall, timed["probes"])
    percentile, tail_s = tail(latencies)
    size = len(workload.templates)
    cycle_times = [sum(wall[k:k + size]) for k in range(0, attempted - size + 1, size)]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in procs), "s"),
        "ops_per_s": (attempted / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (timed["peak_rss_kb"] * 1024 / 1e6, "MB"),
        # fail_frac is 0 on a healthy run; its complement is never 0.
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    report = {
        "env": env_header(args, timed),
        "digest": timed["digest"],
        "ops": timed["ops"],
        "truncated": attempted < timed["ops"],
        "fail_frac": failed / attempted,
        "failures": failures[:10],
        "tail_percentile": percentile,
        "setup_samples_s": [p["setup_s"] for p in procs],
        # The same metrics in wall-clock time, and the host's core speed
        # over the run relative to the reference (PROBE_REF_S / median probe).
        "wall": {
            "setup_s": statistics.median(p["wall_setup_s"] for p in procs),
            "ops_per_s": attempted / timed["elapsed"],
            "op_p50_ms": statistics.median(wall) * 1e3,
            "op_tail_ms": tail(wall)[1] * 1e3,
        },
        "core_speed": PROBE_REF_S / statistics.median(timed["probes"]),
        "cycle_times_s": cycle_times,
    }
    return Outcome(metrics, report, attempted, failed, correct)


def dominant_share(workload: str, layers: dict, inclusive: dict) -> float:
    kind, names = EXPECTED_DOMINANT[workload]
    total = inclusive.get("cli", 0.0)
    if not total:
        return 0.0
    if kind == "self":
        return sum(layers[n] for n in names) / total
    return sum(inclusive.get(n, 0.0) for n in names) / total


def run_traced(args: argparse.Namespace, runner: Runner) -> Outcome:
    workload = WORKLOADS[args.workload]
    cycles = max(1, round(args.seconds / (TRACE_PASS_SHARE * workload.cycle_s)))
    plain = runner.spawn("untraced", cycles)
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = [runner.spawn("traced", cycles,
                           trace_dir / f"{args.workload}-pass{k}.csv.gz")
              for k in (1, 2)]
    passes = [plain, *traced]
    attempted, failures, correct = tally(passes)
    failed = len(failures)

    first, second = (t["layers"] for t in traced)
    mismatched = [m for m in COUNT_METRICS if first[m] != second[m]]
    digests = {p["digest"] for p in passes}
    layers = dict(first)
    for metric in SELF_TIME_METRICS.values():
        layers[metric] = (first[metric] + second[metric]) / 2
    rate = [len(p["latencies"]) / p["elapsed"] for p in passes]
    layers["trace.untraced_ops_per_s"] = rate[0]
    layers["trace.ops_per_s"] = (rate[1] + rate[2]) / 2
    layers["trace.overhead_frac"] = 1.0 - layers["trace.ops_per_s"] / rate[0]
    layers["trace.dominant_share"] = statistics.mean(
        dominant_share(args.workload, t["layers"], t["inclusive_s"]) for t in traced)

    metrics = {name: (value, _unit(name)) for name, value in sorted(layers.items())}
    ranked = sorted(((v, k) for k, v in layers.items() if k in SELF_TIME_METRICS.values()),
                    reverse=True)
    report = {
        "env": env_header(args, plain),
        "digest": plain["digest"],
        "ops_per_pass": plain["ops"],
        "fail_frac": failed / attempted,
        "failures": failures[:10],
        "count_mismatches": mismatched,
        "digests_agree": len(digests) == 1,
        "expected_dominant": list(EXPECTED_DOMINANT[args.workload][1]),
        "dominant_share": layers["trace.dominant_share"],
        "top_self_s": [[k, v] for v, k in ranked[:5]],
        "trace_files": [str(trace_dir / f"{args.workload}-pass{k}.csv.gz")
                        for k in (1, 2)],
    }
    correct = correct and not mismatched and len(digests) == 1
    return Outcome(metrics, report, attempted, failed, correct)


def _unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # running workload process and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "archdim" / "__init__.py").is_file():
        print(f"error: no archdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        outcome = (run_traced if args.trace else run_untraced)(args, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **outcome.report}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
