"""Print SHA-256 digests of what the unitary frame route computes, so that
two trees can be checked for bit-identical results.

    PYTHONPATH=src python tools/frame_digest.py [--seeds S ...] [SHAPE ...]

For each shape (all of ``SHAPES`` by default) it prints one
``sha256 shape quantity`` line per item: each plan's split, arena, held,
scratch and tables; ``peak_bytes`` in both modes; and per seed (1 to 5 by
default) the transfer stack (``transfer_matrices``), the Gram matrix and
``repr(gram_error)`` at the plan's split h, at h = 0 and at h = R, the
frame's matrix, and the singular values, route, loose/tight ranks,
``sigma_max_upper`` and ``sigma_min_lower`` of ``numerical_rank``, which
is asked for the spectrum.
Each dim shape (``CONSENSUS``) also prints, per seed, each sample's route,
loose/tight ranks, ``sigma_max_upper``, ``sigma_min_lower`` and singular
values from a five-sample unitary consensus asked for the spectrum
(``accessible_dimensions``), which draws its samples in draw batches and
sweeps them in sweep batches.  Then, per seed, it prints each sample's
Gram matrix, ``repr(gram_error)`` and matrix of a lone three-sample
unitary stack (``tangent_frame`` of a stacked assignment), read through
``TangentFrame.sample``.

Each union shape (all of ``UNIONS`` by default, after the shapes) is an
architecture and the gate counts of its prefixes that one union frame
serves (``tangent_frame`` with ``prefixes``).  It prints ``peak_bytes``
of that frame in both modes and, per seed and per prefix the frame
serves, the whole architecture included, the prefix frame's Gram block
and ``repr(gram_error)``, and the singular values, route, loose/tight
ranks, ``sigma_max_upper`` and ``sigma_min_lower`` of ``numerical_rank`` on
it, asked for the spectrum.

Each dim shape and each union shape, the latter with its prefixes, then
prints per seed, per prefix (a dim shape's one) and per sample the route,
loose/tight ranks, ``sigma_max_upper`` and ``sigma_min_lower`` of a
five-sample unitary consensus without the spectrum, the path the
benchmark's ``dim`` and ``sweep`` ops take.

Last, the dim shapes' consensuses without the spectrum run a second
round, seed by seed and within a seed shape by shape, in the order of
``CONSENSUS``, on the thread's store of kept Gram programs
(``sweep._Store``): each consensus borrows the store and returns it
with its programs kept, so that each finds the buffers and programs
that the consensuses before it left.  Their lines repeat the first
round's items with a ``kept.`` prefix, and their digests the first
round's.

A wide frame has no Gram matrix, and its Gram lines digest ``None``.
Arrays are digested by their shape and ``tobytes()`` after ``+ 0.0``,
which makes -0.0 read as 0.0, and other values by ``repr``; pickle is not
used, since its bytes follow object sharing.  Run the same command on two
trees and diff the output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import sys
from collections.abc import Callable, Iterator

import numpy as np

import archdim.plan
from archdim import (GateAssignment, accessible_dimensions, brickwork,
                     build_family, from_gate_sequence, numerical_rank,
                     random_adjacent, staircase, subseed, tangent_frame)
from archdim import contraction
from archdim.sweep import transfer_matrices

SHAPES: dict[str, Callable] = {
    "dim-staircase-6-2": lambda: build_family("staircase", 6, 2),
    "dim-staircase-7-1": lambda: build_family("staircase", 7, 1),
    "dim-brickwork-6-1": lambda: build_family("brickwork", 6, 1),
    **{f"staircase-3-{t}": (lambda t=t: staircase(3, t)) for t in range(1, 7)},
    "staircase-6-12": lambda: staircase(6, 12),
    "brickwork-4-2": lambda: brickwork(4, 2),
    "random-5-12-4": lambda: random_adjacent(5, 12, 4),
    "random-6-40-1": lambda: random_adjacent(6, 40, 1),
    # non-adjacent and reversed wires
    "sequence-4-5": lambda: from_gate_sequence(
        4, [(3, 1), (2, 4), (1, 4), (4, 3), (2, 1)]),
    "sequence-6-21": lambda: from_gate_sequence(
        6, [(1, 6), (2, 5), (3, 4), (6, 1), (1, 3), (2, 4), (5, 6)] * 3),
}

# the shapes of the benchmark's dim ops, whose consensus is digested too
CONSENSUS = ("dim-staircase-6-2", "dim-staircase-7-1", "dim-brickwork-6-1")

# (architecture, prefix gate counts) of each union frame
UNIONS: dict[str, Callable] = {
    # the rows of the dim-wide workload's sweep, staircase(3, 1..6)
    "union-staircase-3-6": lambda: (staircase(3, 6), (2, 4, 6, 8, 10)),
    # a tall first half under a wide whole
    "union-brickwork-4-8": lambda: (brickwork(4, 8), (12,)),
}


def digest(value: object) -> str:
    """The SHA-256 of an array's shape and bytes (after ``+ 0.0`` for a
    float array) or of any other value's ``repr``."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            value = value + 0.0
        data = repr(value.shape).encode() \
            + np.ascontiguousarray(value).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _split_at(split: int | None) -> Iterator[None]:
    """Make the Gram plan split at ``split`` (its own choice for None), in
    every module that reads ``_frame_plan``."""
    plan = archdim.plan._frame_plan
    readers = (archdim.plan, contraction)
    for module in readers:
        module._frame_plan = lambda arch, ends, prune=False: plan(
            arch, ends, prune=prune, split=split if prune else None)
    try:
        yield
    finally:
        for module in readers:
            module._frame_plan = plan


def items(arch, seeds: list[int]) -> Iterator[tuple[str, object]]:
    """(quantity, value) of every item digested for ``arch``."""
    for name, prune in (("matrix", False), ("gram", True)):
        plan = archdim.plan._frame_plan(arch, (arch.gate_count,), prune=prune)
        for key in ("split", "arena", "held", "scratch", "tables"):
            yield f"{name}-plan.{key}", getattr(plan, key)
    for mode in ("unitary", "state"):
        yield f"peak_bytes.{mode}", contraction.peak_bytes(arch, mode)
    end = arch.gate_count
    for seed in seeds:
        gates = GateAssignment.haar(arch, seed)
        yield f"seed{seed}.transfers", transfer_matrices(gates)
        for label, split in (("plan-h", None), ("h-0", 0), ("h-R", end)):
            with _split_at(split):
                frame = tangent_frame(arch, gates)
            yield f"seed{seed}.gram.{label}", frame.gram
            yield f"seed{seed}.gram_error.{label}", frame.gram_error
        frame = tangent_frame(arch, gates)
        rank = numerical_rank(frame, spectrum=True)
        yield f"seed{seed}.singular_values", rank.singular_values
        yield f"seed{seed}.route", rank.route
        yield f"seed{seed}.ranks", (rank.loose_rank, rank.tight_rank)
        yield f"seed{seed}.sigma_max_upper", rank.sigma_max_upper
        yield f"seed{seed}.sigma_min_lower", rank.sigma_min_lower
        yield f"seed{seed}.matrix", frame.matrix


def consensus_items(arch, seeds: list[int]) -> Iterator[tuple[str, object]]:
    """(quantity, value) of each sample of a five-sample unitary consensus
    over ``arch`` per seed, asked for the spectrum."""
    for seed in seeds:
        report, = accessible_dimensions(arch, "unitary", 5, seed,
                                        spectrum=True)
        for i, est in enumerate(report.estimates):
            label = f"seed{seed}.consensus.sample{i}"
            yield f"{label}.route", est.route
            yield f"{label}.ranks", (est.loose_rank, est.tight_rank)
            yield f"{label}.sigma_max_upper", est.sigma_max_upper
            yield f"{label}.sigma_min_lower", est.sigma_min_lower
            yield f"{label}.singular_values", est.singular_values


def stack_items(arch, seeds: list[int]) -> Iterator[tuple[str, object]]:
    """(quantity, value) of each sample of a lone three-sample unitary
    stack over ``arch`` per seed, read through ``TangentFrame.sample``."""
    for seed in seeds:
        stack = tangent_frame(arch, GateAssignment.haar(
            arch, [subseed(seed, i) for i in range(3)]))
        for i in range(3):
            frame = stack.sample(i)
            label = f"seed{seed}.stack.sample{i}"
            yield f"{label}.gram", frame.gram
            yield f"{label}.gram_error", frame.gram_error
            yield f"{label}.matrix", frame.matrix


def bench_items(arch, prefixes: tuple[int, ...] | None,
                seeds: list[int]) -> Iterator[tuple[str, object]]:
    """(quantity, value) of each sample of a five-sample unitary consensus
    over ``arch`` and ``prefixes`` per seed and prefix, without the
    spectrum."""
    for seed in seeds:
        for report in accessible_dimensions(arch, "unitary", 5, seed,
                                            prefixes=prefixes):
            for i, est in enumerate(report.estimates):
                label = f"seed{seed}.bench.prefix{report.gate_count}" \
                    f".sample{i}"
                yield f"{label}.route", est.route
                yield f"{label}.ranks", (est.loose_rank, est.tight_rank)
                yield f"{label}.sigma_max_upper", est.sigma_max_upper
                yield f"{label}.sigma_min_lower", est.sigma_min_lower


def union_items(arch, prefixes: tuple[int, ...],
                seeds: list[int]) -> Iterator[tuple[str, object]]:
    """(quantity, value) of every item digested for the union frame over
    ``arch`` that serves ``prefixes``."""
    for mode in ("unitary", "state"):
        yield f"peak_bytes.{mode}", contraction.peak_bytes(arch, mode,
                                                           prefixes)
    for seed in seeds:
        frame = tangent_frame(arch, GateAssignment.haar(arch, seed),
                              prefixes=prefixes)
        for length in frame.prefixes:
            row = frame.prefix(length)
            rank = numerical_rank(row, spectrum=True)
            label = f"seed{seed}.prefix{length}"
            yield f"{label}.gram", row.gram
            yield f"{label}.gram_error", row.gram_error
            yield f"{label}.singular_values", rank.singular_values
            yield f"{label}.route", rank.route
            yield f"{label}.ranks", (rank.loose_rank, rank.tight_rank)
            yield f"{label}.sigma_max_upper", rank.sigma_max_upper
            yield f"{label}.sigma_min_lower", rank.sigma_min_lower


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", metavar="SHAPE",
                        help=f"one of {', '.join([*SHAPES, *UNIONS])} "
                             f"(all by default)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)
    unknown = [shape for shape in args.shapes
               if shape not in SHAPES and shape not in UNIONS]
    if unknown:
        parser.error(f"unknown shape {unknown[0]!r}")
    for shape in args.shapes or [*SHAPES, *UNIONS]:
        found = items(SHAPES[shape](), args.seeds) if shape in SHAPES \
            else union_items(*UNIONS[shape](), args.seeds)
        if shape in CONSENSUS:
            found = itertools.chain(
                found, consensus_items(SHAPES[shape](), args.seeds),
                stack_items(SHAPES[shape](), args.seeds),
                bench_items(SHAPES[shape](), None, args.seeds))
        elif shape in UNIONS:
            found = itertools.chain(
                found, bench_items(*UNIONS[shape](), args.seeds))
        for quantity, value in found:
            print(digest(value), shape, quantity)
    again = [shape for shape in CONSENSUS
             if not args.shapes or shape in args.shapes]
    for seed in args.seeds:
        for shape in again:
            for quantity, value in bench_items(SHAPES[shape](), None, [seed]):
                print(digest(value), shape, f"kept.{quantity}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
