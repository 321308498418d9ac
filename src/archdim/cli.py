"""Command-line interface.

Subcommands: ``arch gen``, ``arch check``, ``dim``, ``witness``, ``bounds``,
``sweep``, ``mc-arch``.  Exit codes: 0 success, 1 invalid input, 2 a rank
consensus was numerically inconclusive, 3 a bound or verification verdict
failed.  Every artifact embeds the resolved configuration and tool version;
output files are written atomically after all computation succeeds.  A JSON
artifact is one line, ``json.dumps(payload, sort_keys=True)`` and a newline,
the layout of every library ``to_json``; ``python -m json.tool FILE``
indents one for reading.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import uuid

from . import __version__
from .architecture import Architecture, build_family, is_causal_slice
from .bounds import make_bound_sheet, randomized_bound_probability
from .contraction import (
    DEFAULT_TOLERANCES,
    MEMORY_BUDGET,
    accessible_dimension,
    peak_bytes,
)
from .errors import CertificateMismatch, ValidationError, VerdictError
from .experiments import (
    growth_sweep,
    randomized_architecture_experiment,
    rows_to_csv,
)
from .witness import verify_certificate, witness_point

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERDICT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _default_seed() -> int:
    text = os.environ.get("ARCHDIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(
            f"ARCHDIM_SEED must be an integer, got {text!r}") from None


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a fresh file beside ``path``, then rename it over
    ``path``.  The file is created with mode 0o666 less the umask, as
    ``open(path, "w")`` would create it; the rename keeps that mode."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stamp(payload: dict, args: argparse.Namespace,
           frame_of: Architecture | None = None) -> dict:
    """``payload`` with the tool ``version`` and the ``config``: every field
    the command parsed, seed resolved, except the handler, the output paths
    and ``arch_command``, which ``command`` already names.  With
    ``frame_of``, the config also records the memory budget and the peak
    estimate of that architecture's frame in the command's mode."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("func", "out", "spectra", "arch_command")}
    if frame_of is not None:
        config.update(memory_budget_bytes=MEMORY_BUDGET,
                      peak_estimate_bytes=peak_bytes(frame_of, args.mode))
    payload.update(config=config, version=__version__)
    return payload


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _load_arch(path: str) -> Architecture:
    with open(path) as handle:
        return Architecture.from_json(handle.read())


def _arch_from_args(args: argparse.Namespace) -> Architecture:
    if getattr(args, "infile", None):
        return _load_arch(args.infile)
    return build_family(args.family, args.n, args.t, args.rounds,
                        getattr(args, "r", None), getattr(args, "seed", 0))


# -- subcommand handlers -------------------------------------------------------


def cmd_arch_gen(args: argparse.Namespace) -> int:
    _emit_json(_stamp(_arch_from_args(args).to_json_dict(), args), args.out)
    return EXIT_OK


def cmd_arch_check(args: argparse.Namespace) -> int:
    arch = _load_arch(args.infile)
    ranges = arch.slice_ranges() or ((0, arch.gate_count),)
    slices = []
    for i, (start, stop) in enumerate(ranges):
        sink = is_causal_slice(arch, start, stop)
        slices.append({
            "index": i, "start": start, "stop": stop,
            "causal": sink is not None, "sink": sink,
        })
        state = f"causal, sink {sink}" if sink is not None else "not causal"
        print(f"slice {i} [{start}:{stop}): {state}")
    if args.out:
        _emit_json(_stamp({"n": arch.n, "gates": arch.gate_count,
                           "marked_slices": arch.slice_count,
                           "slices": slices}, args), args.out)
    return EXIT_OK


def cmd_dim(args: argparse.Namespace) -> int:
    arch = _arch_from_args(args)
    report = accessible_dimension(
        arch, mode=args.mode, samples=args.samples, seed=args.seed,
        tolerances=(args.tol_loose, args.tol_tight))
    if report.inconclusive:
        print(f"inconclusive: {report.inconclusive_reason}")
    else:
        print(f"accessible dimension d_A = {report.consensus} "
              f"(bounds [{report.lower_bound}, {report.upper_bound}], "
              f"cap {report.cap})")
    if args.out:
        _emit_json(_stamp(report.to_json_dict(), args, arch), args.out)
    if args.spectra:
        _write_atomic(args.spectra, report.spectra_csv())
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    if not report.bounds_ok:
        print("bound sandwich violated", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    arch = _arch_from_args(args)
    cert = witness_point(arch, mode=args.mode)
    verdict = verify_certificate(cert, arch, check_rank=not args.skip_rank_check)
    print(f"witness over {verdict.slice_count} slices: "
          f"{verdict.distinct_directions} distinct directions"
          + (f", rank {verdict.witness_rank}"
             if verdict.witness_rank is not None else ""))
    if args.out:
        _emit_json(_stamp(cert.to_json_dict(), args), args.out)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    sheet = make_bound_sheet(args.n, args.R, args.L)
    print(sheet.format_text())
    payload = sheet.to_json_dict()
    if args.alpha is not None:
        prob = randomized_bound_probability(args.n, args.alpha)
        payload["randomized_probability"] = prob
        print(f"{'randomized bound prob':<22}  {prob:.6g} (alpha={args.alpha})")
    if args.out:
        _emit_json(_stamp(payload, args), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = growth_sweep(
        n=args.n, family=args.family, t_max=args.t_max, samples=args.samples,
        seed=args.seed, mode=args.mode,
        tolerances=(args.tol_loose, args.tol_tight))
    # R grows with T, so the last row's frame sets the sweep's peak
    largest = build_family(args.family, args.n, args.t_max)
    cfg = _stamp({}, args, largest)["config"]
    comment = f"archdim {__version__} config={json.dumps(cfg, sort_keys=True)}"
    text = rows_to_csv(rows, header_comment=comment)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    if any(r.accessible is None for r in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_mc_arch(args: argparse.Namespace) -> int:
    summary = randomized_architecture_experiment(
        args.n, args.trials, args.seed, alpha=args.alpha)
    lo, hi = summary.interval
    print(f"causal fraction {summary.empirical:.5f} "
          f"(exact {summary.exact:.5f}, 99% interval [{lo:.5f}, {hi:.5f}])")
    if args.out:
        _emit_json(_stamp(summary.to_json_dict(), args), args.out)
    if not summary.within_interval:
        print("empirical fraction outside the 99% interval", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_family_options(p: argparse.ArgumentParser, with_random: bool = True,
                        with_infile: bool = True) -> None:
    p.add_argument("--family", default="staircase",
                   choices=["staircase", "brickwork", "random"] if with_random
                   else ["staircase", "brickwork"])
    p.add_argument("--n", type=int, default=3, help="qubit count")
    p.add_argument("--t", type=int, default=1, help="causal slice count")
    p.add_argument("--rounds", type=int, default=None,
                   help="brickwork rounds (defaults to n * t)")
    if with_random:
        p.add_argument("--r", type=int, default=None,
                       help="gate count for the random family")
    if with_infile:
        p.add_argument("--in", dest="infile", default=None,
                       help="architecture JSON file (overrides --family)")


def _add_rank_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["unitary", "state"], default="unitary")
    p.add_argument("--tol-loose", type=float, default=DEFAULT_TOLERANCES[0])
    p.add_argument("--tol-tight", type=float, default=DEFAULT_TOLERANCES[1])


@functools.cache
def build_parser() -> _Parser:
    """The ``archdim`` argument parser, built on first use and then shared by
    every ``main`` call in the process.  It must stay stateless: no
    environment reads, no mutable defaults and no ``append`` actions, so
    that one call's arguments never reach the next.  A ``--seed`` left out
    parses as None; ``main`` fills it in."""
    parser = _Parser(prog="archdim", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"archdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    arch = sub.add_parser("arch", help="generate or inspect architectures")
    arch_sub = arch.add_subparsers(dest="arch_command", required=True)

    gen = arch_sub.add_parser("gen", help="generate an architecture file")
    _add_family_options(gen, with_infile=False)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_arch_gen)

    check = arch_sub.add_parser("check", help="causal-slice report")
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_arch_check)

    dim = sub.add_parser("dim", help="consensus accessible dimension")
    _add_family_options(dim)
    _add_rank_options(dim)
    dim.add_argument("--out", default=None, help="rank report JSON")
    dim.add_argument("--spectra", default=None, help="singular-value CSV")
    dim.set_defaults(func=cmd_dim)

    wit = sub.add_parser("witness", help="build and verify a witness point")
    _add_family_options(wit, with_random=False)
    wit.add_argument("--mode", choices=["unitary", "state"], default="unitary")
    wit.add_argument("--skip-rank-check", action="store_true")
    wit.add_argument("--out", default=None, help="certificate JSON")
    wit.set_defaults(func=cmd_witness)

    bnd = sub.add_parser("bounds", help="closed-form bound sheet")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--R", type=int, required=True)
    bnd.add_argument("--L", type=int, required=True)
    bnd.add_argument("--alpha", type=float, default=None)
    bnd.add_argument("--out", default=None)
    bnd.set_defaults(func=cmd_bounds)

    swp = sub.add_parser("sweep", help="growth sweep over slice counts")
    swp.add_argument("--family", choices=["staircase", "brickwork"],
                     default="staircase")
    swp.add_argument("--n", type=int, default=3)
    swp.add_argument("--t-max", type=int, required=True)
    _add_rank_options(swp)
    swp.add_argument("--out", default=None, help="CSV output")
    swp.set_defaults(func=cmd_sweep)

    mc = sub.add_parser("mc-arch", help="randomized-architecture Monte Carlo")
    mc.add_argument("--n", type=int, default=5)
    mc.add_argument("--trials", type=int, default=10000)
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--alpha", type=float, default=0.5)
    mc.add_argument("--out", default=None)
    mc.set_defaults(func=cmd_mc_arch)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    ``ARCHDIM_SEED`` is read on every call, for every command, and fills in
    ``--seed`` where it was left out; the parser itself is built once per
    process (``build_parser``) and holds no per-call state.
    """
    try:
        seed = _default_seed()
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if getattr(args, "seed", 0) is None:
        args.seed = seed
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CertificateMismatch, VerdictError) as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (OSError, UnicodeDecodeError) as exc:  # a file unread or unwritten
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"error: invalid input ({exc})", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
