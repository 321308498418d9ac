"""Workload definitions for the archdim benchmark: the ops each workload
issues, the checks every op's written artifact must pass, and the
deterministic material each op contributes to the run's result digest.

An op is one ``archdim.cli.main(argv)`` call.  A workload is a fixed cycle
of op templates; every cycle is shuffled by the workload seed, and ops that
take a ``--seed`` get one drawn from it.  The amount of work per cycle is
therefore the same for every seed, which keeps throughput comparable
between seeds, while the outputs (and the digest) depend on the seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass

import numpy as np

SWEEP_HEADER = "n,family,T,R,L,dA,witness_rank,lower,upper,cap,samples,seed,ms"

# Exit codes of the archdim CLI.
EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_VERDICT = 3

# Failure kinds.  Every failed op counts in ``failed``.
RAISED = "raised"
EXIT = "exit"
CHECK = "check"
INCONCLUSIVE = "inconclusive"
INTERVAL = "interval"
# Verdicts the program is designed to give, confirmed against the artifact:
# a Haar consensus it cannot decide (exit 2; a sample's singular value sits
# between the two tolerances) and a Monte Carlo fraction outside its 99%
# interval (exit 3; about 1% of ops by design).  They leave a run correct;
# every other kind means a wrong or missing answer.
VERDICTS = frozenset({INCONCLUSIVE, INTERVAL})


@dataclass(frozen=True)
class Workload:
    """A fixed cycle of op templates.  Why each workload exists is recorded
    in BENCHMARK.json and bench/README.md."""

    name: str
    templates: tuple[dict, ...]
    # Untraced seconds one cycle takes on the reference machine (2-core
    # x86-64 VM, CPython 3.11, numpy 2.4 with OpenBLAS).  A run of
    # --seconds S issues round(S / cycle_s) whole cycles, so the op count,
    # the failures and the digest are fixed by the arguments alone.
    cycle_s: float

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


def _sweep(n: int, t_max: int) -> dict:
    return {"kind": "sweep", "family": "staircase", "n": n, "t_max": t_max,
            "samples": 3}


def _dim(family: str, n: int, t: int) -> dict:
    return {"kind": "dim", "family": family, "n": n, "t": t, "samples": 3,
            "mode": "unitary"}


def _witness(family: str, n: int, t: int, mode: str) -> dict:
    # Dense rank checks are capped at n = 8 by the CLI's default n_max.
    return {"kind": "witness", "family": family, "n": n, "t": t, "mode": mode,
            "rank_check": n <= 8}


def _mc(n: int, trials: int) -> dict:
    return {"kind": "mc", "n": n, "trials": trials}


# The templates of a workload form a ladder of op sizes with no dominant
# class.  The host's speed drifts between slower and faster phases, and the
# median (or the 11th slowest) op of a run drawn from one big class of like
# ops jumps with the phase mix; over a ladder of sizes it moves smoothly.
# dim-wide's SVD-heavy ops follow the drift less, so it repeats its larger
# sizes instead, which keeps its tail op inside one class.  BENCHMARK.json
# gates dim-wide and witness-certify only; the sweep and mc-arch op added
# to them keep experiments and architecture.detect measured.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-ramp",
        tuple(_sweep(3, t) for t in range(3, 9)) + (_sweep(2, 15),),
        cycle_s=1.9),
    Workload(
        "dim-wide",
        (_dim("staircase", 6, 2), _dim("staircase", 7, 1), _dim("staircase", 7, 1),
         _dim("brickwork", 6, 1), _dim("brickwork", 6, 1), _sweep(3, 6)),
        cycle_s=4.4),
    Workload(
        "witness-certify",
        (_witness("staircase", 4, 12, "unitary"),
         _witness("staircase", 5, 10, "unitary"),
         _witness("staircase", 6, 8, "unitary"),
         _witness("brickwork", 4, 6, "unitary"),
         _witness("staircase", 5, 20, "state"),
         _witness("staircase", 8, 12, "state"),
         _witness("brickwork", 4, 8, "state"),
         _witness("brickwork", 8, 3, "state"),
         _witness("staircase", 12, 24, "unitary"),
         _witness("staircase", 16, 48, "unitary"),
         _witness("brickwork", 10, 4, "unitary"),
         _witness("brickwork", 16, 4, "unitary"),
         _witness("staircase", 10, 40, "state"),
         _witness("staircase", 16, 48, "state"),
         _witness("brickwork", 12, 6, "state"),
         _mc(5, 1000)),
        cycle_s=2.9),
    Workload(
        "mc-arch",
        (_mc(4, 2000), _mc(4, 4000), _mc(5, 2000), _mc(5, 2500), _mc(5, 3000),
         _mc(7, 1000), _mc(7, 1500), _mc(7, 2000)),
        cycle_s=2.1),
)}


@dataclass
class Op:
    index: int
    params: dict

    @property
    def kind(self) -> str:
        return self.params["kind"]

    @property
    def artifact(self) -> str:
        return "op.csv" if self.kind == "sweep" else "op.json"

    def argv(self, out: str | None = None) -> list[str]:
        p = self.params
        if p["kind"] == "sweep":
            argv = ["sweep", "--family", p["family"], "--n", str(p["n"]),
                    "--t-max", str(p["t_max"]), "--samples", str(p["samples"]),
                    "--seed", str(p["seed"])]
        elif p["kind"] == "dim":
            argv = ["dim", "--family", p["family"], "--n", str(p["n"]),
                    "--t", str(p["t"]), "--samples", str(p["samples"]),
                    "--mode", p["mode"], "--seed", str(p["seed"])]
        elif p["kind"] == "witness":
            argv = ["witness", "--family", p["family"], "--n", str(p["n"]),
                    "--t", str(p["t"]), "--mode", p["mode"]]
            if not p["rank_check"]:
                argv.append("--skip-rank-check")
        else:
            argv = ["mc-arch", "--n", str(p["n"]), "--trials",
                    str(p["trials"]), "--seed", str(p["seed"])]
        return argv + (["--out", out] if out is not None else [])


def make_ops(workload: str, seed: int, cycles: int) -> list[Op]:
    """The op sequence of a run: ``cycles`` shuffled copies of the
    workload's templates, with per-op CLI seeds drawn from ``seed``."""
    rng = random.Random(seed)
    templates = WORKLOADS[workload].templates
    ops: list[Op] = []
    for _ in range(cycles):
        order = list(range(len(templates)))
        rng.shuffle(order)
        for k in order:
            params = dict(templates[k])
            if params["kind"] != "witness":
                params["seed"] = rng.randrange(2 ** 31)
            ops.append(Op(len(ops), params))
    return ops


# -- output checks ---------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_output(op: Op, rc: int, stdout: str, path: str,
                 ) -> tuple[str | None, str, object]:
    """(failure kind or None, detail, digest material) for one finished op."""
    checker = {"sweep": _check_sweep, "dim": _check_dim,
               "witness": _check_witness, "mc": _check_mc}[op.kind]
    try:
        return checker(op, rc, stdout, path)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError,
            TypeError) as exc:
        return CHECK, f"{type(exc).__name__}: {exc}", None


def _check_sweep(op: Op, rc: int, stdout: str, path: str):
    if rc not in (EXIT_OK, EXIT_INCONCLUSIVE):
        return EXIT, f"exit code {rc}", None
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines()
                 if ln and not ln.startswith("#")]
    _require(lines[0] == SWEEP_HEADER, f"unexpected header {lines[0]!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    _require(len(rows) == op.params["t_max"],
             f"{len(rows)} rows for t_max={op.params['t_max']}")
    material, undecided = [], []
    for t, row in enumerate(rows, start=1):
        n, family, t_col, _r, _l, da, wrank, lower, upper = row[:9]
        _require((int(n), family, int(t_col)) == (op.params["n"], "staircase", t),
                 f"row {t} is {row[:3]}")
        _require(wrank != "", f"T={t}: witness rank inconclusive")
        _require(int(wrank) >= t, f"T={t}: witness rank {wrank} below T")
        if da == "":
            undecided.append(t)
        else:
            _require(int(lower) <= int(da) <= int(upper),
                     f"T={t}: dA={da} outside [{lower}, {upper}]")
        material.append(row[:-1])  # everything but the wall-clock ms column
    _require(bool(undecided) == (rc == EXIT_INCONCLUSIVE),
             f"exit code {rc} with undecided rows {undecided}")
    if undecided:
        return INCONCLUSIVE, f"consensus undecided at T={undecided}", material
    return None, "", material


def _check_dim(op: Op, rc: int, stdout: str, path: str):
    if rc not in (EXIT_OK, EXIT_INCONCLUSIVE):
        return EXIT, f"exit code {rc}", None
    with open(path) as handle:
        report = json.load(handle)
    _require(report["n"] == op.params["n"], "n differs from the request")
    ranks = [(s["loose_rank"], s["tight_rank"]) for s in report["per_sample"]]
    _require(len(ranks) == op.params["samples"], "wrong sample count")
    consensus = report["consensus"]
    _require(report["inconclusive"] is (rc == EXIT_INCONCLUSIVE),
             f"exit code {rc} disagrees with the inconclusive flag")
    if report["inconclusive"]:
        _require(consensus is None, "inconclusive report with a consensus")
        return INCONCLUSIVE, report["inconclusive_reason"], [ranks, None]
    _require(report["lower_ok"] is True and report["upper_ok"] is True,
             "bound flags do not both hold")
    _require(isinstance(consensus, int)
             and report["lower_bound"] <= consensus <= report["upper_bound"],
             f"consensus {consensus} outside the stated bounds")
    _require(all(r == (consensus, consensus) for r in ranks),
             f"sample ranks {ranks} disagree with consensus {consensus}")
    return None, "", [ranks, consensus]


_RANK_RE = re.compile(r", rank (\d+)\s*$")


def _check_witness(op: Op, rc: int, stdout: str, path: str):
    if rc != EXIT_OK:
        return EXIT, f"exit code {rc}", None
    with open(path) as handle:
        cert = json.load(handle)
    t = op.params["t"]
    _require(cert["n"] == op.params["n"] and cert["mode"] == op.params["mode"],
             "certificate n or mode differs from the request")
    _require(len(cert["slices"]) == t, f"{len(cert['slices'])} slices, want {t}")
    _require(len(cert["directions"]) == t,
             f"{len(cert['directions'])} directions, want {t}")
    match = _RANK_RE.search(stdout)
    if op.params["rank_check"]:
        _require(match is not None, "rank was not reported")
        _require(int(match.group(1)) >= t,
                 f"witness rank {match.group(1)} below T={t}")
    else:
        _require(match is None, "rank reported although the check was skipped")
    return None, "", {k: v for k, v in cert.items()
                      if k not in ("config", "version")}


def causal_blocks_reference(n: int, trials: int, seed: int) -> int:
    """Causal blocks of ``trials`` random adjacent-gate blocks, counted
    directly from the seeded position stream: a block of n(n-1)^2 gates is
    causal when each of its n-1 sub-blocks j holds a gate at (j, j+1)."""
    block = n * (n - 1) ** 2
    positions = np.random.default_rng(seed).integers(1, n, size=trials * block)
    body = positions.reshape(trials, n - 1, n * (n - 1))
    hits = (body == np.arange(1, n)[None, :, None]).any(axis=2).all(axis=1)
    return int(hits.sum())


def _check_mc(op: Op, rc: int, stdout: str, path: str):
    if rc not in (EXIT_OK, EXIT_VERDICT):
        return EXIT, f"exit code {rc}", None
    with open(path) as handle:
        summary = json.load(handle)
    n, trials = op.params["n"], op.params["trials"]
    blocks = summary["causal_blocks"]
    _require((summary["n"], summary["trials"]) == (n, trials),
             "n or trials differ from the request")
    _require(blocks == causal_blocks_reference(n, trials, op.params["seed"]),
             f"causal_blocks {blocks} differs from the direct count")
    _require(summary["empirical"] == blocks / trials,
             "empirical fraction is not causal_blocks / trials")
    lo, hi = summary["interval_99"]
    within = lo <= summary["empirical"] <= hi
    _require(summary["within_interval"] is within,
             "within_interval disagrees with the stated interval")
    _require((rc == EXIT_OK) is within, f"exit code {rc} disagrees with the verdict")
    if not within:
        return INTERVAL, f"fraction {summary['empirical']} outside [{lo}, {hi}]", blocks
    return None, "", blocks
