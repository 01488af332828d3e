"""Command-line front end for batch experiments.

Subcommands: classify, orbit, sweep, julia-verify.  Reports are JSON by
default (canonical ordering, no timestamps, so identical configurations
give byte-identical output) or CSV for sweep records.

Exit codes: 0 pass, 1 falsified invariant, 2 usage error, 3 precision
exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

from . import __version__, verify
from .mapping import PoleHit, VerificationError
from .padic import DEFAULT_DIGITS, PrecisionError

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

THETA_HELP = (
    "theta, as a rational or a one-plus-power shorthand.  Grammar: "
    "theta := INT [ '/' INT ] | '1+' [ INT '*' ] 'p^' INT ; "
    "examples: '126', '9/4', '1+p^3', '1+2*p^2'."
)


def non_negative_int(text: str) -> int:
    """A non-negative integer option value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """A positive integer option value."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime, p >= 3")
    sub.add_argument("--k", type=int, required=True, help="tree order, k >= 1")
    sub.add_argument("--q", type=int, required=True,
                     help="state count, divisible by p")
    sub.add_argument("--theta", type=str, required=True, help=THETA_HELP)
    sub.add_argument("--precision", type=positive_int,
                     default=DEFAULT_DIGITS,
                     help="working base-p digits (default %(default)s)")
    sub.add_argument("--format", choices=("json", "jsonl", "csv"),
                     default="json")
    sub.add_argument("--out", type=str, default=None,
                     help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottsbethe",
        description="Exact p-adic dynamics of the Potts-Bethe map",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify",
                        help="regime, kappa, pole, multiplier, partition")
    _add_common(c)

    o = subs.add_parser("orbit", help="iterate a single starting point")
    _add_common(o)
    o.add_argument("--x0", type=str, required=True,
                   help="starting point, a rational a or a/b")
    o.add_argument("--max-iter", type=non_negative_int, default=200)
    o.add_argument("--tol", type=non_negative_int, default=20,
                   help="convergence ball exponent (default %(default)s)")

    s = subs.add_parser("sweep", help="seeded batch of orbits")
    _add_common(s)
    s.add_argument("--samples", type=non_negative_int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--depth", type=non_negative_int, default=None,
                   help="also classify each seed to this depth")
    s.add_argument("--max-iter", type=non_negative_int, default=200)
    s.add_argument("--tol", type=non_negative_int, default=20)
    s.add_argument("--pole-tree-depth", type=non_negative_int, default=0,
                   help="append the backward tree of the pole as seeds")

    j = subs.add_parser("julia-verify",
                        help="verify the expanding-regime structure")
    _add_common(j)
    j.add_argument("--depth", type=non_negative_int, default=6,
                   help="word length to realize (default %(default)s)")
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--samples", type=non_negative_int, default=50,
                   help="pairs per ball for the expansion laws, >= 1")
    return parser


def _parse_x0(text: str) -> Fraction:
    """The rational a or a/b that ``--x0`` gives; a ValueError naming
    --x0 and the text when it is not one."""
    num, slash, den = text.partition("/")
    try:
        a, b = int(num), (int(den) if slash else 1)
    except ValueError:
        raise ValueError(f"--x0: not a rational a or a/b: {text!r}") from None
    if b == 0:
        raise ValueError(f"--x0: zero denominator in {text!r}")
    return Fraction(a, b)


def _sweep_jsonl(report: dict) -> str:
    """One JSON line per record, then a summary line."""
    lines = [verify.canonical_json(rec).rstrip("\n")
             for rec in report["records"]]
    summary = {k: v for k, v in report.items() if k != "records"}
    lines.append(verify.canonical_json(summary).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _sweep_csv(report: dict) -> str:
    buf = io.StringIO()
    fields = ["index", "category", "input", "status", "steps",
              "final_norm_exp_to_1", "final_norm_exp_exact", "itinerary",
              "classification", "classification_step", "reason", "retries"]
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in report["records"]:
        row = dict(rec)
        if row.get("itinerary") is not None:
            row["itinerary"] = "".join(str(s) for s in row["itinerary"])
        writer.writerow(row)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([])
    writer.writerow(["status", "count"])
    for key, count in report["histogram"].items():
        writer.writerow([key, count])
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "julia-verify" and args.samples < 1:
        parser.error("julia-verify --samples: the expansion laws need at "
                     f"least one pair per ball, got {args.samples}")
    try:
        params = verify.make_params(args.p, args.k, args.q, args.theta,
                                    args.precision)
        if args.command == "classify":
            report = verify.classify_report(params)
            _emit(verify.canonical_json(report), args.out)
            return EXIT_PASS
        if args.command == "orbit":
            report = verify.orbit_report(params, _parse_x0(args.x0),
                                         args.max_iter, args.tol)
            _emit(verify.canonical_json(report), args.out)
            if report["record"].get("reason") == "precision":
                return EXIT_PRECISION
            return EXIT_PASS
        if args.command == "sweep":
            report = verify.sweep_report(params, args.samples, args.seed,
                                         max_iter=args.max_iter,
                                         tol=args.tol,
                                         classify_depth=args.depth,
                                         pole_tree_depth=args.pole_tree_depth)
            if args.format == "csv":
                _emit(_sweep_csv(report), args.out)
            elif args.format == "jsonl":
                _emit(_sweep_jsonl(report), args.out)
            else:
                _emit(verify.canonical_json(report), args.out)
            return EXIT_PASS
        if args.command == "julia-verify":
            report = verify.julia_report(params, args.depth, seed=args.seed,
                                         pairs_per_ball=args.samples)
            _emit(verify.canonical_json(report), args.out)
            return EXIT_FALSIFIED if report["falsified"] else EXIT_PASS
    except (ValueError, ZeroDivisionError) as exc:
        print(f"pottsbethe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionError, PoleHit, VerificationError) as exc:
        # a pole hit that is only indistinguishable from the pole at the
        # working precision is a shortage of digits, not a falsification
        if isinstance(exc, PrecisionError) or (isinstance(exc, PoleHit)
                                               and not exc.exact):
            print(f"pottsbethe: precision exhausted: {exc}", file=sys.stderr)
            return EXIT_PRECISION
        print(f"pottsbethe: falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
