"""Tests of the benchmark itself: tiny runs of every workload, output checks
that catch a corrupted artifact, and a tracer that leaves archdim as it
found it.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import workloads
from tracer import TARGETS, Tracer
from workloads import CHECK, INCONCLUSIVE, INTERVAL, WORKLOADS, Op, make_ops

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

archdim = child.import_archdim()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(workload):
    report, result = _result(
        _bench("--workload", workload, "--seed", "3", "--seconds", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(WORKLOADS[workload].templates)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert len(report["digest"]) == 64
    assert {"git_sha", "python", "numpy", "blas", "nproc", "seed"} <= set(report["env"])
    assert report["env"]["blas"]["threads"] in (1, None)
    assert set(report["wall"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms"}
    assert report["core_speed"] > 0


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    report, result = _result(_bench("--workload", "sweep-ramp", "--seed", "3",
                                    "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True
    assert report["count_mismatches"] == [] and report["digests_agree"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["metrics"]["contraction.pauli_calls"]["value"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc-arch", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_ops_follow_the_seed_and_keep_the_cycle():
    ops = make_ops("mc-arch", 5, 3)
    assert [o.params for o in ops] == [o.params for o in make_ops("mc-arch", 5, 3)]
    assert [o.params for o in ops] != [o.params for o in make_ops("mc-arch", 6, 3)]
    templates = WORKLOADS["mc-arch"].templates
    for k in range(3):
        cycle = [o.params["n"] for o in ops[k * len(templates):(k + 1) * len(templates)]]
        assert sorted(cycle) == sorted(t["n"] for t in templates)


def test_calibration_scales_each_op_by_the_probes_around_it():
    ref = run.PROBE_REF_S
    # probes[k] ran just before op k and probes[k + 1] just after it; the
    # core is twice as slow from the third probe on.
    probes = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert run.calibrated([1.0] * 4, probes) == pytest.approx([1.0, 2 / 3, 0.5, 0.5])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    latencies = [float(i) for i in range(100, 0, -1)]
    assert run.tail(latencies) == (90.0, 90.0)
    assert run.tail([1.0, 2.0]) == (50.0, 1.0)


def _rewrite_json(edit):
    def corrupt(path):
        with open(path) as handle:
            data = json.load(handle)
        edit(data)
        with open(path, "w") as handle:
            json.dump(data, handle)
    return corrupt


def _bump_sweep_rank(path):
    lines = Path(path).read_text().splitlines()
    fields = lines[-1].split(",")
    fields[5] = str(int(fields[5]) + 100)  # dA of the last row
    lines[-1] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "sweep": ({"kind": "sweep", "family": "staircase", "n": 2, "t_max": 3,
               "samples": 3, "seed": 4}, _bump_sweep_rank),
    "dim": ({"kind": "dim", "family": "staircase", "n": 3, "t": 2, "samples": 3,
             "mode": "unitary", "seed": 4},
            _rewrite_json(lambda d: d["per_sample"][1].update(
                tight_rank=d["per_sample"][1]["tight_rank"] - 1))),
    "witness": ({"kind": "witness", "family": "staircase", "n": 3, "t": 4,
                 "mode": "unitary", "rank_check": True},
                _rewrite_json(lambda d: d["directions"].pop())),
    "mc": ({"kind": "mc", "n": 4, "trials": 200, "seed": 4},
           _rewrite_json(lambda d: d.update(causal_blocks=d["causal_blocks"] - 1))),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_a_corrupted_artifact_counts_as_failed(kind, tmp_path):
    params, corrupt = CORRUPTIONS[kind]
    ops = [Op(0, params), Op(1, params)]
    clean = child.run_ops(archdim, ops, str(tmp_path))
    assert [f["kind"] for f in clean.failures] in ([], [INTERVAL] * 2)
    broken = child.run_ops(archdim, ops, str(tmp_path), corrupt=corrupt)
    assert [f["kind"] for f in broken.failures] == [CHECK, CHECK]
    assert broken.digest != clean.digest


def _fill_undecided_cells(path):
    lines = Path(path).read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) > 5 and fields[5] == "":
            fields[5] = fields[8]  # claim the upper bound was reached
            lines[i] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


def test_an_inconclusive_consensus_is_a_failed_op_confirmed_by_the_artifact(tmp_path):
    # This seed puts a Haar singular value between the two tolerances at T=3.
    op = Op(0, {"kind": "sweep", "family": "staircase", "n": 3, "t_max": 3,
                "samples": 3, "seed": 1208319105})
    result = child.run_ops(archdim, [op], str(tmp_path))
    assert [f["kind"] for f in result.failures] == [INCONCLUSIVE]
    forged = child.run_ops(archdim, [op], str(tmp_path),
                           corrupt=_fill_undecided_cells)
    assert [f["kind"] for f in forged.failures] == [CHECK]


def test_mc_reference_count_matches_the_program():
    from archdim.experiments import randomized_architecture_experiment
    summary = randomized_architecture_experiment(5, 300, 9)
    assert workloads.causal_blocks_reference(5, 300, 9) == summary.causal_blocks


def _namespaces():
    modules = [m for k, m in sys.modules.items()
               if k == "archdim" or k.startswith("archdim.")]
    classes = [archdim.contraction.GateAssignment, archdim.clifford.CliffordTableau]
    return modules + classes


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = {id(ns): dict(vars(ns)) for ns in _namespaces()}
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        # Every target is patched in its home namespace and in each module
        # that imported it by name.
        assert archdim.experiments.tangent_frame is not before[
            id(archdim.experiments)]["tangent_frame"]
        assert archdim.cli.growth_sweep is not before[id(archdim.cli)]["growth_sweep"]
        assert len({(t[0], t[1]) for t in TARGETS}) <= len(patched)
        ops = [Op(0, CORRUPTIONS["sweep"][0]), Op(1, CORRUPTIONS["witness"][0])]
        result = child.run_ops(archdim, ops, str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert result.failures == []
    names = {span[0] for span in tracer.spans}
    assert {"cli", "experiments.sweep", "contraction.frame", "contraction.pauli",
            "dense.apply", "contraction.haar", "witness.build", "witness.verify",
            "clifford.conj", "clifford.routing"} <= names
    for ns in _namespaces():
        after = dict(vars(ns))
        assert after.keys() == before[id(ns)].keys()
        for key, value in before[id(ns)].items():
            assert after[key] is value, f"{ns!r}.{key} was not restored"
