import argparse
import importlib.util
import itertools
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import archdim.contraction
import archdim.plan
import archdim.sweep
from archdim.cli import build_parser

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digest = _load("cli_digest")
code_lines = _load("code_lines")
frame_digest = _load("frame_digest")
witness_digest = _load("witness_digest")

SNIPPET = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment is on a code line


class Box:
    """Class docstring."""

    size = 2


def area(x,
         y):
    """Function docstring.

    Over three lines."""
    text = """a string that is
    not a docstring"""

    return x * y + len(text)
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, size, def over two lines, text over two lines, return
    assert code_lines.code_lines(SNIPPET) == 8
    assert code_lines.docstring_lines(
        code_lines.ast.parse(SNIPPET)) == {1, 2, 9, 16, 17, 18}


def test_code_lines_counts_each_module(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SNIPPET)
    second.write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(first), str(second)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")


def test_every_module_stays_under_the_compile_token_step():
    # CPython 3.11 compiles a module of more than 16384 tokens at about
    # 0.8 MB more peak memory, which every process that compiles archdim
    # from source, such as each benchmark child, pays
    for path in sorted(code_lines.PACKAGE.glob("*.py")):
        with path.open() as source:
            count = sum(1 for _ in tokenize.generate_tokens(source.readline))
        assert count < 16384, (path.name, count)


def test_the_frame_layer_runs_no_sweep():
    # the thread's store (``sweep._Store``) binds, sweeps and frees every
    # frame's programs; the frame layer reaches it through ``_STORE`` only
    assert not {"_bind", "_sweep", "_gram_read", "_assemble",
                "_Store"} & vars(archdim.contraction).keys()


def test_frame_digest_repeats_one_line_per_item(capsys):
    # two runs, the second with every plan and table rebuilt, print the
    # same lines: per shape 5 items of each plan, 2 estimates, and per
    # seed the transfer stack, 3 Gram matrices, 3 Gram errors, the matrix,
    # the singular values, the route, the ranks and the two certified
    # bounds; per union shape 2 estimates, and per seed and prefix
    # (brickwork-4-8 serves 12 and 24 gates) the Gram block, its error, the
    # singular values, the route, the ranks and the two certified bounds,
    # then per seed, prefix and sample of a five-sample consensus without
    # the spectrum the route, the ranks and the two certified bounds
    argv = ["staircase-3-2", "sequence-4-5", "union-brickwork-4-8",
            "--seeds", "1", "2"]
    runs = []
    for _ in range(2):
        for module in (archdim.plan, archdim.sweep):
            for cached in vars(module).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
        assert frame_digest.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0]]
    assert len(lines) == 2 * (10 + 2 + 2 * 13) + 2 + 2 * 2 * (7 + 5 * 4)
    assert all(len(sha) == 64 for sha, _, _ in lines)
    assert len({(shape, item) for _, shape, item in lines}) == len(lines)
    assert [shape for _, shape, _ in lines] \
        == ["staircase-3-2"] * 38 + ["sequence-4-5"] * 38 \
        + ["union-brickwork-4-8"] * 110
    assert [item for _, shape, item in lines
            if shape == "union-brickwork-4-8"][:9] == [
        "peak_bytes.unitary", "peak_bytes.state", "seed1.prefix12.gram",
        "seed1.prefix12.gram_error", "seed1.prefix12.singular_values",
        "seed1.prefix12.route", "seed1.prefix12.ranks",
        "seed1.prefix12.sigma_max_upper", "seed1.prefix12.sigma_min_lower"]


def test_frame_digest_covers_a_dim_shape_s_consensus(capsys):
    # a dim shape adds, per seed, five items of each of the five samples of
    # its consensus, after its frame items, which open with the transfer
    # stack, then three items of each sample of a lone three-sample stack,
    # then four items of each sample of its consensus without the
    # spectrum, and those four again, with their digests, from a second
    # round on the kept Gram programs
    assert frame_digest.main(["dim-staircase-7-1", "--seeds", "3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    items = [item for _, _, item in lines]
    assert len(items) == 10 + 2 + 13 + 5 * 5 + 3 * 3 + 5 * 4 + 5 * 4
    assert items[79:] == [f"kept.{item}" for item in items[59:79]]
    assert [sha for sha, _, _ in lines[79:]] \
        == [sha for sha, _, _ in lines[59:79]]
    assert items[12] == "seed3.transfers"
    assert items[25:30] == [f"seed3.consensus.sample0.{item}" for item in (
        "route", "ranks", "sigma_max_upper", "sigma_min_lower",
        "singular_values")]
    assert items[49] == "seed3.consensus.sample4.singular_values"
    assert items[50:59] == [f"seed3.stack.sample{i}.{item}" for i in range(3)
                            for item in ("gram", "gram_error", "matrix")]
    assert items[59:63] == [f"seed3.bench.prefix6.sample0.{item}"
                            for item in ("route", "ranks", "sigma_max_upper",
                                         "sigma_min_lower")]
    assert items[78] == "seed3.bench.prefix6.sample4.sigma_min_lower"


def test_witness_digest_repeats_one_line_per_item(capsys):
    # two runs print the same lines: per shape and mode the certificate,
    # its witness rank and its verification; staircase-16-48 runs in both
    # modes
    argv = ["staircase-4-12", "staircase-16-48"]
    runs = []
    for _ in range(2):
        assert witness_digest.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0]]
    assert all(len(sha) == 64 for sha, _, _ in lines)
    assert [(shape, item) for _, shape, item in lines] == [
        (shape, f"{mode}.{item}")
        for shape, mode in [("staircase-4-12", "unitary"),
                            ("staircase-16-48", "unitary"),
                            ("staircase-16-48", "state")]
        for item in ("certificate", "rank", "verify")]
    assert len({sha for sha, _, _ in lines}) == len(lines)


def test_witness_digest_verify_item_holds_a_verdict_and_a_refusal():
    items = dict(witness_digest.items("staircase", 4, 12, "unitary"))
    verdict, refusal = items["verify"].split("\n")
    assert verdict.startswith(
        "WitnessVerdict(slice_count=12, distinct_directions=12, witness_rank=")
    assert refusal == "stored directions disagree with recomputation"


def test_witness_digest_covers_the_witness_certify_workload(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "workloads", TOOLS.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses
    spec.loader.exec_module(workloads)
    ops = workloads.WORKLOADS["witness-certify"].templates
    want = sorted((p["family"], p["n"], p["t"], p["mode"])
                  for p in ops if p["kind"] == "witness")
    assert sorted((*built, mode)
                  for built, modes in witness_digest.SHAPES.values()
                  for mode in modes) == want


def _leaf_commands(parser, prefix=()):
    """The word sequences that name each command of an argparse parser."""
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return set().union(*(_leaf_commands(sub, (*prefix, name))
                         for action in subs
                         for name, sub in action.choices.items()))


def test_cli_digest_runs_every_command():
    # a command the parser defines and COMMANDS leaves out would escape
    # the byte-identity check
    assert {tuple(itertools.takewhile(lambda w: not w.startswith("-"), argv))
            for _, argv in cli_digest.COMMANDS} \
        == _leaf_commands(build_parser()) == {
            ("arch", "gen"), ("arch", "check"), ("dim",), ("witness",),
            ("bounds",), ("sweep",), ("mc-arch",)}


def test_cli_digest_repeats_one_line_per_item(capsys, tmp_path, monkeypatch):
    # two runs print the same lines, the sweep CSV's wall times blanked: per
    # command its stdout, then each file it wrote; the working directory and
    # ARCHDIM_SEED are left as they were
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ARCHDIM_SEED", "4")
    runs = []
    for _ in range(2):
        assert cli_digest.main([]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert Path.cwd() == tmp_path and list(tmp_path.iterdir()) == []
    assert cli_digest.os.environ["ARCHDIM_SEED"] == "4"
    lines = [line.split() for line in runs[0]]
    assert all(len(sha) == 64 for sha, _, _ in lines)
    names = [name for name, _ in cli_digest.COMMANDS]
    assert [name for _, name, item in lines if item == "stdout"] == names
    # the two refusals write none of their files
    refusals = {"sweep-over-cap", "dim-same-file"}
    assert {(name, item) for _, name, item in lines if item != "stdout"} \
        == {(name, argv[i + 1]) for name, argv in cli_digest.COMMANDS
            if name not in refusals
            for i, word in enumerate(argv) if word in ("--out", "--spectra")}
    argvs = [argv for _, argv in cli_digest.COMMANDS]
    assert any(argv[0] == "dim" and "--spectra" in argv for argv in argvs)
    assert {("state" in argv, "--skip-rank-check" in argv)
            for argv in argvs if argv[0] == "witness"} \
        == set(itertools.product((False, True), repeat=2))


def test_unreached_lists_what_a_run_never_executes():
    # the plugin traces a run of test_bounds.py alone: the refusal of
    # saturation_threshold is listed and the rest of that function is
    # not; the sweep runner never runs, so its nested function's body is
    # listed under its own name, but not its nonlocal declaration
    repo = TOOLS.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(repo / "src"), str(TOOLS)])}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "unreached", "tests/test_bounds.py"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    head, listed = done.stdout.split("archdim statements never run: ")
    count, *lines = listed.splitlines()
    lines = [line for line in lines if line.startswith("src/")]
    assert len(lines) == int(count.split()[0]) > 0
    for line in lines:
        assert re.fullmatch(r"src/archdim/\w+\.py:\d+ \[[\w.]+\] \S.*",
                            line), line
    ran = [line for line in lines if "[saturation_threshold]" in line]
    assert len(ran) == 1 and "need n >= 1" in ran[0]
    assert any("[_carve.take] return" in line for line in lines)
    assert not any(re.search(r"\] (nonlocal|global) ", line)
                   for line in lines)

