"""Print SHA-256 digests of what every ``archdim`` command writes and prints,
so that two trees can be checked for byte-identical artifacts.

    PYTHONPATH=src python tools/cli_digest.py

It runs ``archdim.cli.main`` in-process on each argv of ``COMMANDS``, in
order, inside a fresh temporary directory and with ``ARCHDIM_SEED`` set to
``SEED``.  The paths in the argv are relative to that directory, so the
``infile`` a config records is the same on every run.  Per command it
prints one ``sha256 name item`` line for its exit code and standard output
(item ``stdout``), then one per file it wrote, in name order (the item is
the file name).  The wall-time ``ms`` column of a sweep CSV is blanked
before digesting.  Run the same command on two trees and diff the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from archdim.cli import main as archdim_main

SEED = "11"

WITNESS = ["witness", "--family", "brickwork", "--n", "4", "--t", "2"]

# (name, argv): every subcommand, dim with --spectra on a tall and on a
# wide frame, a dim whose seven samples take three batches (3, 3 and 1)
# of its consensus, both witness modes with and without
# --skip-rank-check, and sweeps in both modes and both families; each
# command writes files of its own, and one left without --seed reads
# SEED; the last two are refusals, which write nothing: a sweep past the
# slice cap and a dim whose two outputs name one file
COMMANDS: list[tuple[str, list[str]]] = [
    ("arch-gen", ["arch", "gen", "--family", "staircase", "--n", "3",
                  "--t", "2", "--out", "arch.json"]),
    ("arch-gen-random", ["arch", "gen", "--family", "random", "--n", "4",
                         "--r", "9", "--out", "random.json"]),
    ("arch-check", ["arch", "check", "--in", "random.json",
                    "--out", "check.json"]),
    ("dim", ["dim", "--in", "arch.json", "--samples", "3", "--seed", "3",
             "--out", "dim.json", "--spectra", "spectra.csv"]),
    ("dim-wide", ["dim", "--family", "staircase", "--n", "3", "--t", "5",
                  "--samples", "3", "--seed", "3", "--out", "dim-wide.json",
                  "--spectra", "dim-wide.csv"]),
    ("dim-state", ["dim", "--family", "brickwork", "--n", "4", "--t", "1",
                   "--mode", "state", "--samples", "3",
                   "--out", "dim-state.json"]),
    ("dim-many", ["dim", "--family", "staircase", "--n", "6", "--t", "2",
                  "--samples", "7", "--seed", "3", "--out", "dim-many.json"]),
    ("witness-unitary", WITNESS + ["--out", "unitary.json"]),
    ("witness-unitary-skip", WITNESS + ["--skip-rank-check",
                                        "--out", "unitary-skip.json"]),
    ("witness-state", WITNESS + ["--mode", "state", "--out", "state.json"]),
    ("witness-state-skip", WITNESS + ["--mode", "state", "--skip-rank-check",
                                      "--out", "state-skip.json"]),
    ("witness-file", ["witness", "--in", "arch.json", "--out", "file.json"]),
    ("bounds", ["bounds", "--n", "3", "--R", "20", "--L", "2",
                "--alpha", "0.5", "--out", "bounds.json"]),
    ("sweep", ["sweep", "--n", "2", "--t-max", "2", "--samples", "3",
               "--out", "sweep.csv"]),
    ("sweep-state", ["sweep", "--n", "3", "--t-max", "3", "--samples", "3",
                     "--mode", "state", "--seed", "2",
                     "--out", "sweep-state.csv"]),
    ("sweep-brickwork", ["sweep", "--family", "brickwork", "--n", "4",
                         "--t-max", "2", "--samples", "3", "--seed", "2",
                         "--out", "sweep-brickwork.csv"]),
    ("mc-arch", ["mc-arch", "--n", "4", "--trials", "300", "--seed", "5",
                 "--out", "mc.json"]),
    ("sweep-over-cap", ["sweep", "--n", "3", "--t-max", "64"]),
    ("dim-same-file", ["dim", "--family", "staircase", "--n", "2", "--t", "2",
                       "--samples", "3", "--out", "same.json",
                       "--spectra", "same.json"]),
]


def blank_ms(text: str) -> str:
    """A sweep CSV with the values of its last column, ``ms``, left empty."""
    comment, columns, *rows = text.splitlines()
    if not columns.endswith(",ms"):
        raise ValueError(f"not a sweep CSV header: {columns!r}")
    return "\n".join([comment, columns]
                     + [row.rsplit(",", 1)[0] + "," for row in rows]) + "\n"


def items(argv: list[str]):
    """(item, text) of one command run in the current directory: its exit
    code and stdout, then every file it wrote."""
    before = set(os.listdir())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = archdim_main(argv)
    yield "stdout", f"exit {code}\n{out.getvalue()}"
    for name in sorted(set(os.listdir()) - before):
        text = Path(name).read_text()
        yield name, blank_ms(text) if argv[0] == "sweep" else text


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]) \
        .parse_args(argv)
    cwd, seed = os.getcwd(), os.environ.get("ARCHDIM_SEED")
    os.environ["ARCHDIM_SEED"] = SEED
    try:
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            for name, command in COMMANDS:
                for item, text in items(command):
                    print(hashlib.sha256(text.encode()).hexdigest(), name,
                          item)
    finally:
        os.chdir(cwd)
        if seed is None:
            del os.environ["ARCHDIM_SEED"]
        else:
            os.environ["ARCHDIM_SEED"] = seed
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
