"""End-to-end CLI behavior: exit codes, artifacts, reproducibility."""

import ast
import importlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import archdim.cli
import archdim.experiments
from archdim import contraction
from archdim import (
    Architecture,
    VerdictError,
    WitnessCertificate,
    brickwork,
    build_family,
    staircase,
    witness_point,
)
from archdim.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_VERDICT,
    build_parser,
    console_main,
    main,
)
from archdim.contraction import MEMORY_BUDGET, frame_shape, peak_bytes


def test_bounds_command_prints_lower_bound(capsys):
    assert main(["bounds", "--n", "3", "--R", "126", "--L", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "6" in out
    assert "63" in out


def test_arch_gen_roundtrip(tmp_path):
    out = tmp_path / "arch.json"
    rc = main(["arch", "gen", "--family", "staircase", "--n", "4", "--t", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    arch = Architecture.from_json_dict(payload)
    assert arch.n == 4
    assert arch.slice_boundaries == (3, 6)
    assert payload["version"]
    assert payload["config"]["family"] == "staircase"


def test_arch_gen_without_out_prints_its_json(tmp_path, capsys):
    args = ["arch", "gen", "--family", "brickwork", "--n", "4", "--t", "2"]
    out = tmp_path / "arch.json"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--n", "3", "--R", "20", "--L", "2"], EXIT_OK),
    (["bounds", "--n", "3"], EXIT_INVALID)], ids=["ok", "usage"])
def test_console_main_exits_with_the_command_code(monkeypatch, argv, code):
    monkeypatch.setattr("sys.argv", ["archdim", *argv])
    with pytest.raises(SystemExit) as info:
        console_main()
    assert info.value.code == code


def test_arch_gen_random_requires_r():
    assert main(["arch", "gen", "--family", "random", "--n", "4"]) == EXIT_INVALID


def test_arch_check_reports_sinks(tmp_path, capsys):
    out = tmp_path / "arch.json"
    main(["arch", "gen", "--family", "staircase", "--n", "4", "--t", "1",
          "--out", str(out)])
    rc = main(["arch", "check", "--in", str(out)])
    assert rc == EXIT_OK
    assert "sink 4" in capsys.readouterr().out


def test_arch_check_missing_file():
    assert main(["arch", "check", "--in", "/nonexistent.json"]) == EXIT_INVALID


def test_arch_check_refuses_non_integer_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3.9, "gates": [[1.5, 2], [2, 3]], "boundaries": [2.2]}')
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID
    assert "must be an integer" in capsys.readouterr().err
    path.write_text('{"n": true, "gates": []}')
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '"x"',
    '{"n": 3, "gates": 5}',
    '{"n": 3, "gates": [[1, 2], [2, 3]], "boundaries": 1}',
    '{"n": 3}',
], ids=["list", "string", "int-gates", "int-boundaries", "missing-gates"])
def test_arch_check_refuses_wrong_json_shape(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "gates": [')
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_is_invalid_input(tmp_path, capsys, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "arch.json"
        path.write_bytes(b'{"n": 3, "gates": [], "name": "\xff\xfe"}')
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_a_missing_key_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3}')
    assert main(["arch", "check", "--in", str(path)]) == EXIT_INVALID
    assert "gates" in capsys.readouterr().err


def test_an_internal_key_error_propagates(monkeypatch):
    # only undecodable JSON reads as bad input; a fault inside a command
    # is not reported as one
    def broken(n, r, lower):
        raise KeyError("internal")

    monkeypatch.setattr("archdim.cli.make_bound_sheet", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["bounds", "--n", "3", "--R", "6", "--L", "1"])


def test_dim_su4_saturation(tmp_path, capsys):
    out = tmp_path / "dim.json"
    rc = main(["dim", "--family", "staircase", "--n", "2", "--t", "3",
               "--samples", "5", "--seed", "7", "--out", str(out)])
    assert rc == EXIT_OK
    assert "d_A = 15" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["consensus"] == 15
    assert payload["config"]["samples"] == 5


def test_dim_from_file_and_spectra(tmp_path):
    arch_file = tmp_path / "a.json"
    main(["arch", "gen", "--family", "staircase", "--n", "3", "--t", "1",
          "--out", str(arch_file)])
    spectra = tmp_path / "spectra.csv"
    rc = main(["dim", "--in", str(arch_file), "--samples", "3",
               "--spectra", str(spectra)])
    assert rc == EXIT_OK
    assert spectra.read_text().startswith("sample,index,singular_value")


def test_dim_runs_eigvalsh_only_for_spectra(tmp_path, monkeypatch):
    # brickwork(6, 1) takes the gram route on every sample, whose
    # certificate needs no eigensolver; only --spectra asks for the C
    # eigenvalues of each sample's Gram matrix
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        lam = eigvalsh(a, *args, **kwargs)
        calls.append(lam.shape)
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    out, spectra = tmp_path / "dim.json", tmp_path / "spectra.csv"
    argv = ["dim", "--family", "brickwork", "--n", "6", "--t", "1",
            "--samples", "3", "--out", str(out)]
    assert main(argv) == EXIT_OK
    routes = [e["route"] for e in json.loads(out.read_text())["per_sample"]]
    assert routes == ["gram"] * 3
    assert calls == []
    assert main(argv + ["--spectra", str(spectra)]) == EXIT_OK
    c = frame_shape(build_family("brickwork", 6, 1), "unitary")[1]
    assert calls == [(c,)] * 3
    assert len(spectra.read_text().splitlines()) == 1 + 3 * c


def test_dim_runs_svd_only_for_spectra_on_a_wide_frame(tmp_path,
                                                       monkeypatch):
    # staircase(3, 6) frames are 64 x 117: every sample takes the wide
    # certificate, which needs no SVD; only --spectra asks for the SVD's
    # values of each sample's matrix
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    out, spectra = tmp_path / "dim.json", tmp_path / "spectra.csv"
    argv = ["dim", "--family", "staircase", "--n", "3", "--t", "6",
            "--samples", "3", "--out", str(out)]
    assert main(argv) == EXIT_OK
    entries = json.loads(out.read_text())["per_sample"]
    assert [e["route"] for e in entries] == ["gram"] * 3
    assert all(e["loose_rank"] == e["tight_rank"] == 63 for e in entries)
    assert calls == []
    assert main(argv + ["--spectra", str(spectra)]) == EXIT_OK
    shape = frame_shape(build_family("staircase", 3, 6), "unitary")
    assert shape == (64, 117)
    assert calls == [shape] * 3
    assert len(spectra.read_text().splitlines()) == 1 + 3 * 64


def test_dim_inconclusive_exit_code(monkeypatch, tmp_path):
    import archdim.cli as cli_mod

    real = cli_mod.accessible_dimension

    def flaky(*args, **kwargs):
        report = real(*args, **kwargs)
        object.__setattr__(report, "inconclusive", True)
        object.__setattr__(report, "inconclusive_reason", "forced")
        object.__setattr__(report, "consensus", None)
        return report

    monkeypatch.setattr(cli_mod, "accessible_dimension", flaky)
    out = tmp_path / "dim.json"
    rc = main(["dim", "--family", "staircase", "--n", "2", "--t", "1",
               "--samples", "3", "--out", str(out)])
    assert rc == EXIT_INCONCLUSIVE
    assert json.loads(out.read_text())["inconclusive"] is True


def test_dim_bound_violation_exit_code(monkeypatch):
    import archdim.cli as cli_mod

    real = cli_mod.accessible_dimension

    def inflated(*args, **kwargs):
        report = real(*args, **kwargs)
        object.__setattr__(report, "consensus", report.upper_bound + 1)
        return report

    monkeypatch.setattr(cli_mod, "accessible_dimension", inflated)
    rc = main(["dim", "--family", "staircase", "--n", "2", "--t", "1",
               "--samples", "3"])
    assert rc == EXIT_VERDICT


def test_witness_threshold_exit_code(capsys):
    rc = main(["witness", "--family", "staircase", "--n", "3", "--t", "70",
               "--mode", "unitary"])
    assert rc == EXIT_INVALID
    assert "63" in capsys.readouterr().err


def test_witness_certificate_artifact(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["witness", "--family", "staircase", "--n", "3", "--t", "4",
               "--mode", "unitary", "--out", str(out)])
    assert rc == EXIT_OK
    cert = WitnessCertificate.from_json(out.read_text())
    assert cert.slice_count == 4
    assert len(cert.directions) == 4


def test_witness_reports_exact_rank_beyond_n8(capsys):
    rc = main(["witness", "--family", "staircase", "--n", "9", "--t", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    rank = int(out.rsplit("rank ", 1)[1])
    assert rank >= 2


@pytest.mark.parametrize("command", [
    ["witness", "--family", "staircase", "--n", "3", "--t", "2"],
    ["dim", "--family", "staircase", "--n", "3", "--t", "2"],
    ["sweep", "--n", "3", "--t-max", "2"],
], ids=["witness", "dim", "sweep"])
def test_no_command_has_n_max_option(capsys, command):
    rc = main(command + ["--n-max", "8"])
    assert rc == EXIT_INVALID
    assert "--n-max" in capsys.readouterr().err


def test_dim_state_mode_beyond_n8(capsys):
    rc = main(["dim", "--family", "staircase", "--n", "9", "--t", "1",
               "--mode", "state", "--samples", "3"])
    assert rc == EXIT_OK
    assert "accessible dimension d_A = " in capsys.readouterr().out


def test_dim_over_memory_budget_is_invalid_input(capsys):
    started = time.perf_counter()
    rc = main(["dim", "--family", "staircase", "--n", "8", "--t", "40"])
    assert time.perf_counter() - started < 1.0
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "GiB" in err and "memory budget" in err


@pytest.mark.parametrize("n", [33, 40])
def test_dim_far_over_budget_exits_before_planning_the_sweep(n, capsys):
    # past n = 32 the unitary sweep's plan would overflow its row indices;
    # the frame alone is over budget, so the guard refuses before planning
    rc = main(["dim", "--family", "staircase", "--n", str(n), "--t", "2"])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: unitary on n=")
    assert "over the 2 GiB memory budget" in err


def test_dim_and_sweep_record_the_memory_budget(tmp_path):
    dim_out, sweep_out = tmp_path / "dim.json", tmp_path / "sweep.csv"
    assert main(["dim", "--family", "brickwork", "--n", "4", "--t", "1",
                 "--samples", "3", "--seed", "3", "--out", str(dim_out)]) \
        == EXIT_OK
    assert main(["sweep", "--n", "3", "--t-max", "3", "--samples", "3",
                 "--seed", "3", "--mode", "state", "--out", str(sweep_out)]) \
        == EXIT_OK
    config = json.loads(dim_out.read_text())["config"]
    comment = sweep_out.read_text().splitlines()[0]
    sweep_config = json.loads(comment.split("config=", 1)[1])
    # the sweep records every option it parsed, and no output path
    assert set(sweep_config) == ({"command", "family", "n", "t_max"}
                                 | RANK_KEYS | MEMORY_KEYS)
    # the sweep's estimate is that of the union frame its rows share,
    # over the last row's gates with every row's prefix length; both are
    # estimates over the runs' three samples
    for cfg, want in ((config, peak_bytes(brickwork(4, 4), "unitary",
                                          samples=3)),
                      (sweep_config, peak_bytes(staircase(3, 3), "state",
                                                [2, 4, 6], 3))):
        assert cfg["memory_budget_bytes"] == MEMORY_BUDGET
        assert cfg["peak_estimate_bytes"] == want
        assert 0 < cfg["peak_estimate_bytes"] < MEMORY_BUDGET
    assert sweep_config["peak_estimate_bytes"] \
        > peak_bytes(staircase(3, 3), "state")


def test_the_recorded_estimate_is_the_one_checked(tmp_path, monkeypatch):
    # dim and sweep record in their config the estimate that the consensus
    # checked against the memory budget before its first draw
    checked = []
    check_budget = contraction.check_budget

    def recorded(est, budget, needs):
        checked.append(est)
        check_budget(est, budget, needs)

    monkeypatch.setattr(contraction, "check_budget", recorded)
    runs = [(["dim", "--family", "staircase", "--n", "3", "--t", "5"],
             "dim.json"),
            (["sweep", "--n", "3", "--t-max", "5", "--mode", "state"],
             "sweep.csv")]
    for argv, name in runs:
        checked.clear()
        out = tmp_path / name
        assert main(argv + ["--samples", "3", "--seed", "2",
                            "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        config = json.loads(text)["config"] if name.endswith(".json") \
            else json.loads(text.splitlines()[0].split("config=", 1)[1])
        assert checked and config["peak_estimate_bytes"] == checked[0]


@pytest.mark.parametrize("arch, loose, tight", [
    (["--n", "2", "--t", "3"], "0", "0"),
    (["--n", "2", "--t", "3"], "1e-17", "1e-17"),
    (["--n", "3", "--t", "2"], "1.5", "1.2"),
    (["--n", "3", "--t", "2"], "nan", "nan"),
], ids=["zero", "below-eps", "above-one", "nan"])
def test_dim_rejects_out_of_range_tolerances(capsys, arch, loose, tight):
    rc = main(["dim", "--family", "staircase", *arch, "--seed", "1",
               "--samples", "3", "--tol-loose", loose, "--tol-tight", tight])
    assert rc == EXIT_INVALID
    captured = capsys.readouterr()
    assert "d_A" not in captured.out
    assert "tolerances" in captured.err


def test_non_integer_seed_environment_is_invalid_input(monkeypatch, capsys):
    monkeypatch.setenv("ARCHDIM_SEED", "abc")
    rc = main(["bounds", "--n", "3", "--R", "9", "--L", "3"])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "ARCHDIM_SEED" in err


def test_arch_gen_brickwork_rounds(tmp_path):
    out = tmp_path / "bw.json"
    rc = main(["arch", "gen", "--family", "brickwork", "--n", "4",
               "--rounds", "5", "--out", str(out)])
    assert rc == EXIT_OK
    arch = Architecture.from_json_dict(json.loads(out.read_text()))
    assert arch.gate_count == 15
    assert arch.slice_boundaries == (15,)


def test_witness_skip_rank_check(tmp_path, capsys):
    rc = main(["witness", "--family", "staircase", "--n", "3", "--t", "2",
               "--mode", "unitary", "--skip-rank-check"])
    assert rc == EXIT_OK
    assert "rank" not in capsys.readouterr().out


def test_artifacts_record_tolerances_and_rank_check(tmp_path):
    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--t-max", "1", "--samples", "3",
                 "--tol-loose", "1e-4", "--tol-tight", "1e-9",
                 "--out", str(sweep_out)]) == EXIT_OK
    comment = sweep_out.read_text().splitlines()[0]
    config = json.loads(comment.split("config=", 1)[1])
    assert (config["tol_loose"], config["tol_tight"]) == (1e-4, 1e-9)
    for flags, skipped in (([], False), (["--skip-rank-check"], True)):
        cert_out = tmp_path / "cert.json"
        assert main(["witness", "--n", "3", "--t", "2", "--out", str(cert_out)]
                    + flags) == EXIT_OK
        payload = json.loads(cert_out.read_text())
        assert payload["config"]["skip_rank_check"] is skipped


def test_witness_state_mode(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["witness", "--family", "staircase", "--n", "3", "--t", "5",
               "--mode", "state", "--out", str(out)])
    assert rc == EXIT_OK
    cert = WitnessCertificate.from_json(out.read_text())
    assert len(cert.state_images) == 5


def test_sweep_artifact_reproducible(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--n", "2", "--t-max", "3", "--samples", "3",
            "--seed", "11"]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK

    def strip_ms(text):
        return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

    assert strip_ms(out_a.read_text()) == strip_ms(out_b.read_text())
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# archdim")
    assert lines[1] == "n,family,T,R,L,dA,witness_rank,lower,upper,cap,samples,seed,ms"


def test_sweep_without_out_prints_its_csv(tmp_path, capsys):
    args = ["sweep", "--n", "2", "--t-max", "2", "--samples", "3",
            "--seed", "11"]
    out = tmp_path / "sweep.csv"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(args) == EXIT_OK

    def blank_ms(text):
        return [line.rsplit(",", 1)[0] if line[0] != "#" else line
                for line in text.splitlines()]

    printed = capsys.readouterr().out
    assert printed.endswith("\n")
    assert blank_ms(printed) == blank_ms(out.read_text())


def test_dim_artifact_byte_identical_on_rerun(tmp_path):
    args = ["dim", "--family", "staircase", "--n", "3", "--t", "2",
            "--samples", "3", "--seed", "13"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_mc_arch_within_interval(tmp_path, capsys):
    out = tmp_path / "mc.json"
    rc = main(["mc-arch", "--n", "4", "--trials", "500", "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["within_interval"] is True
    assert "causal fraction" in capsys.readouterr().out


def test_mc_arch_outside_its_interval_exits_verdict_with_its_json(tmp_path,
                                                                  capsys):
    # the 99% interval is meant to miss about 1% of seeds; this seed's
    # causal fraction, 0.978, sits just below its lower end 0.97828
    out = tmp_path / "mc.json"
    rc = main(["mc-arch", "--n", "5", "--trials", "1000", "--seed",
               "1967725507", "--out", str(out)])
    assert rc == EXIT_VERDICT
    assert capsys.readouterr().err \
        == "empirical fraction outside the 99% interval\n"
    payload = json.loads(out.read_text())
    assert payload["empirical"] == 0.978
    assert payload["within_interval"] is False


def test_a_verdict_error_exits_as_a_verdict_failure(monkeypatch, capsys):
    def planted(**kwargs):
        raise VerdictError("T=2: dimension 26 below slice count")

    monkeypatch.setattr(archdim.cli, "growth_sweep", planted)
    rc = main(["sweep", "--n", "3", "--t-max", "2", "--samples", "3"])
    assert rc == EXIT_VERDICT
    assert capsys.readouterr().err \
        == "verdict failure: T=2: dimension 26 below slice count\n"


def test_mc_arch_over_budget_exits_invalid(monkeypatch, tmp_path, capsys):
    # 500 trials at n = 4 draw 18000 gates, over a 64 KiB budget
    monkeypatch.setattr(archdim.experiments, "MEMORY_BUDGET", 2 ** 16)
    out = tmp_path / "mc.json"
    rc = main(["mc-arch", "--n", "4", "--trials", "500", "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "(18000 gates)" in err and "memory budget" in err
    assert not out.exists()


def test_validation_never_leaves_partial_output(tmp_path):
    out = tmp_path / "never.json"
    rc = main(["dim", "--family", "staircase", "--n", "2", "--t", "3",
               "--samples", "2", "--out", str(out)])  # samples < 3 invalid
    assert rc == EXIT_INVALID
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


@pytest.mark.parametrize("out, spectra", [
    ("same.txt", "same.txt"), ("./same.txt", "same.txt")],
    ids=["one-spelling", "two-spellings"])
def test_dim_refuses_out_and_spectra_on_one_file(tmp_path, monkeypatch,
                                                 capsys, out, spectra):
    # one file cannot hold both the report and the spectra, however the
    # two paths are spelled: refused before anything is written
    monkeypatch.chdir(tmp_path)
    rc = main(["dim", "--family", "staircase", "--n", "2", "--t", "2",
               "--samples", "3", "--out", out, "--spectra", spectra])
    assert rc == EXIT_INVALID
    assert "name one file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("spectra", ["missing/x.csv", "sub"],
                         ids=["missing-directory", "a-directory"])
def test_a_failed_dim_writes_none_of_its_files(tmp_path, capsys, spectra):
    # the spectra cannot be written: the JSON, staged first, is not
    # renamed into place and its fresh file is removed
    (tmp_path / "sub").mkdir()
    out = tmp_path / "ok.json"
    rc = main(["dim", "--family", "staircase", "--n", "3", "--t", "1",
               "--samples", "3", "--out", str(out),
               "--spectra", str(tmp_path / spectra)])
    assert rc == EXIT_INVALID
    assert spectra.split("/")[-1] in capsys.readouterr().err
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_usage_error_maps_to_invalid():
    assert main(["dim", "--family", "nosuch"]) == EXIT_INVALID
    assert main(["bounds", "--n", "3"]) == EXIT_INVALID


def test_seed_env_default(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("ARCHDIM_SEED", "123")
    out = tmp_path / "arch.json"
    rc = main(["arch", "gen", "--family", "random", "--n", "3", "--r", "5",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["config"]["seed"] == 123


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_seed_env_is_read_on_every_call(monkeypatch, tmp_path):
    seeds = []
    for env in ("5", "9"):
        monkeypatch.setenv("ARCHDIM_SEED", env)
        out = tmp_path / f"arch{env}.json"
        assert main(["arch", "gen", "--family", "random", "--n", "3",
                     "--r", "5", "--out", str(out)]) == EXIT_OK
        seeds.append(json.loads(out.read_text())["config"]["seed"])
    assert seeds == [5, 9]
    # an explicit --seed still wins over the environment
    out = tmp_path / "explicit.json"
    assert main(["arch", "gen", "--family", "random", "--n", "3", "--r", "5",
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["seed"] == 4


def test_options_do_not_carry_over_between_calls(capsys):
    argv = ["witness", "--family", "staircase", "--n", "3", "--t", "2"]
    assert main(argv + ["--skip-rank-check"]) == EXIT_OK
    assert "rank" not in capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert ", rank " in capsys.readouterr().out


def test_bad_seed_environment_after_a_good_call(monkeypatch, capsys):
    argv = ["bounds", "--n", "3", "--R", "9", "--L", "3"]
    assert main(argv) == EXIT_OK
    monkeypatch.setenv("ARCHDIM_SEED", "1.5")
    assert main(argv) == EXIT_INVALID
    assert "ARCHDIM_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_artifacts_get_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        plain = tmp_path / "plain.json"
        plain.write_text("")
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--n", "3", "--R", "9", "--L", "3",
                     "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert out.stat().st_mode == plain.stat().st_mode
    assert [p.name for p in tmp_path.iterdir()
            if p.name.endswith(".tmp")] == []


def test_bounds_with_alpha(tmp_path):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--n", "10", "--R", "900", "--L", "10",
               "--alpha", "0.5", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["randomized_probability"] == pytest.approx(
        1 - 18 * 2.718281828459045 ** -10)


def test_bounds_refuses_alpha_before_it_prints(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--n", "3", "--R", "10", "--L", "3",
               "--alpha", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_INVALID
    assert captured.out == ""
    assert "alpha" in captured.err
    assert not out.exists()


FAMILY_KEYS = {"family", "n", "t", "rounds"}
RANK_KEYS = {"samples", "seed", "mode", "tol_loose", "tol_tight"}
MEMORY_KEYS = {"memory_budget_bytes", "peak_estimate_bytes"}
WITNESS_KEYS = {"command", "infile", "mode", "skip_rank_check"} | FAMILY_KEYS

# name -> (argv, the exact key set of the artifact's config)
JSON_COMMANDS = {
    "arch-gen": (["arch", "gen", "--family", "staircase", "--n", "3",
                  "--t", "2"], {"command", "r", "seed"} | FAMILY_KEYS),
    "arch-check": (["arch", "check"], {"command", "infile"}),
    "dim": (["dim", "--n", "2", "--t", "2", "--samples", "3", "--seed", "3"],
            {"command", "r", "infile"} | FAMILY_KEYS | RANK_KEYS
            | MEMORY_KEYS),
    "witness-unitary": (["witness", "--n", "4", "--t", "3"], WITNESS_KEYS),
    "witness-state": (["witness", "--n", "4", "--t", "3", "--mode", "state"],
                      WITNESS_KEYS),
    "bounds": (["bounds", "--n", "3", "--R", "20", "--L", "2",
                "--alpha", "0.5"], {"command", "n", "R", "L", "alpha"}),
    "mc-arch": (["mc-arch", "--n", "4", "--trials", "300", "--seed", "5"],
                {"command", "n", "trials", "seed", "alpha"}),
}


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_json_artifacts_are_one_sorted_line(tmp_path, command):
    # the layout of every library to_json: one line with sorted keys and a
    # trailing newline, written by the C encoder; the config holds every
    # option the command parsed, and no output path
    argv, keys = JSON_COMMANDS[command]
    argv = list(argv)
    if command == "arch-check":
        arch_path = tmp_path / "arch.json"
        arch_path.write_text(staircase(3, 2).to_json())
        argv += ["--in", str(arch_path)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) in (EXIT_OK, EXIT_VERDICT)
    text = out.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["config"]["command"] == argv[0]
    assert set(payload["config"]) == keys
    if argv[0] == "witness":
        mode = "state" if "state" in argv else "unitary"
        del payload["config"], payload["version"]
        assert payload == witness_point(staircase(4, 3), mode).to_json_dict()


def test_every_bench_tracer_target_resolves():
    # bench/tracer.py wraps these by name; a missing one breaks --trace 1.
    # TARGETS is read from the source, so bench/ is neither imported nor
    # written to.
    source = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(source.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS"
                           for t in node.targets))
    assert targets
    for module_name, attr, _span in targets:
        obj = importlib.import_module(f"archdim.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"archdim.{module_name}.{attr}"
            obj = getattr(obj, part)
