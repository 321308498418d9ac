"""Print SHA-256 digests of the witness certificates and their exact ranks,
so that two trees can be checked for bit-identical witnesses.

    PYTHONPATH=src python tools/witness_digest.py [SHAPE ...]

For each shape (all of ``SHAPES`` by default, the architectures of the
benchmark's witness-certify workload) and each of its modes it prints two
``sha256 shape mode.item`` lines: the certificate's ``to_json()`` and the
``witness_rank`` at its gates.  Run the same command on two trees and diff
the output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from archdim import build_family, witness_point, witness_rank

# (family, n, t) -> modes, as the witness-certify workload builds them
SHAPES: dict[str, tuple[tuple[str, int, int], tuple[str, ...]]] = {
    "staircase-4-12": (("staircase", 4, 12), ("unitary",)),
    "staircase-5-10": (("staircase", 5, 10), ("unitary",)),
    "staircase-6-8": (("staircase", 6, 8), ("unitary",)),
    "brickwork-4-6": (("brickwork", 4, 6), ("unitary",)),
    "staircase-5-20": (("staircase", 5, 20), ("state",)),
    "staircase-8-12": (("staircase", 8, 12), ("state",)),
    "brickwork-4-8": (("brickwork", 4, 8), ("state",)),
    "brickwork-8-3": (("brickwork", 8, 3), ("state",)),
    "staircase-12-24": (("staircase", 12, 24), ("unitary",)),
    "staircase-16-48": (("staircase", 16, 48), ("unitary", "state")),
    "brickwork-10-4": (("brickwork", 10, 4), ("unitary",)),
    "brickwork-16-4": (("brickwork", 16, 4), ("unitary",)),
    "staircase-10-40": (("staircase", 10, 40), ("state",)),
    "brickwork-12-6": (("brickwork", 12, 6), ("state",)),
}


def items(family: str, n: int, t: int, mode: str):
    """(item, text) of every item digested for one shape and mode."""
    arch = build_family(family, n, t)
    cert = witness_point(arch, mode)
    yield "certificate", cert.to_json()
    yield "rank", repr(witness_rank(arch, cert.gate_circuits, mode))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", metavar="SHAPE",
                        help=f"one of {', '.join(SHAPES)} (all by default)")
    args = parser.parse_args(argv)
    unknown = [shape for shape in args.shapes if shape not in SHAPES]
    if unknown:
        parser.error(f"unknown shape {unknown[0]!r}")
    for shape in args.shapes or SHAPES:
        built, modes = SHAPES[shape]
        for mode in modes:
            for item, text in items(*built, mode):
                print(hashlib.sha256(text.encode()).hexdigest(), shape,
                      f"{mode}.{item}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
