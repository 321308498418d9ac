import argparse
import importlib.util
import itertools
import sys
from pathlib import Path

from archdim import contraction
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


def test_frame_digest_repeats_one_line_per_item(capsys):
    # two runs, the second with every plan and table rebuilt, print the
    # same lines: per shape 5 items of each plan, 2 estimates, and per
    # seed 3 Gram matrices, 3 Gram errors, the matrix, the singular values,
    # the route and the ranks
    argv = ["staircase-3-2", "sequence-4-5", "--seeds", "1", "2"]
    runs = []
    for _ in range(2):
        for cached in vars(contraction).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        assert frame_digest.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0]]
    assert len(lines) == 2 * (10 + 2 + 2 * 10)
    assert all(len(sha) == 64 for sha, _, _ in lines)
    assert len({(shape, item) for _, shape, item in lines}) == len(lines)
    assert [shape for _, shape, _ in lines] \
        == ["staircase-3-2"] * 32 + ["sequence-4-5"] * 32


def test_witness_digest_repeats_one_line_per_item(capsys):
    # two runs print the same lines: per shape and mode the certificate
    # and its witness rank; staircase-16-48 runs in both modes
    argv = ["staircase-4-12", "staircase-16-48"]
    runs = []
    for _ in range(2):
        assert witness_digest.main(argv) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0]]
    assert all(len(sha) == 64 for sha, _, _ in lines)
    assert [(shape, item) for _, shape, item in lines] == [
        ("staircase-4-12", "unitary.certificate"),
        ("staircase-4-12", "unitary.rank"),
        ("staircase-16-48", "unitary.certificate"),
        ("staircase-16-48", "unitary.rank"),
        ("staircase-16-48", "state.certificate"),
        ("staircase-16-48", "state.rank")]
    assert len({sha for sha, _, _ in lines}) == len(lines)


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
    assert {(name, item) for _, name, item in lines if item != "stdout"} \
        == {(name, argv[i + 1]) for name, argv in cli_digest.COMMANDS
            for i, word in enumerate(argv) if word in ("--out", "--spectra")}
    argvs = [argv for _, argv in cli_digest.COMMANDS]
    assert {tuple(itertools.takewhile(lambda w: not w.startswith("-"), argv))
            for argv in argvs} == _leaf_commands(build_parser())
    assert any(argv[0] == "dim" and "--spectra" in argv for argv in argvs)
    assert {("state" in argv, "--skip-rank-check" in argv)
            for argv in argvs if argv[0] == "witness"} \
        == set(itertools.product((False, True), repeat=2))
