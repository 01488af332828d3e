"""Command-line front end for batch experiments.

Subcommands: classify, orbit, sweep, julia-verify.  Reports are JSON by
default (canonical ordering, no timestamps, so identical configurations
give byte-identical output) or CSV for sweep records.

Exit codes: 0 pass, 1 falsified invariant, 2 usage error, 3 precision
exhausted.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from . import __version__, verify
from .dynamics import DEFAULT_MAX_ITER, DEFAULT_TOL
from .mapping import PoleHit
from .padic import DEFAULT_DIGITS, PrecisionError, VerificationError

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
    o.add_argument("--max-iter", type=non_negative_int,
                   default=DEFAULT_MAX_ITER)
    o.add_argument("--tol", type=non_negative_int, default=DEFAULT_TOL,
                   help="convergence ball exponent (default %(default)s)")

    s = subs.add_parser("sweep", help="seeded batch of orbits")
    _add_common(s)
    s.add_argument("--samples", type=non_negative_int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--depth", type=positive_int, default=None,
                   help="also classify each seed to this depth")
    s.add_argument("--max-iter", type=non_negative_int,
                   default=DEFAULT_MAX_ITER)
    s.add_argument("--tol", type=non_negative_int, default=DEFAULT_TOL)
    s.add_argument("--pole-tree-depth", type=non_negative_int, default=0,
                   help="append the backward tree of the pole as seeds")
    s.add_argument("--format", choices=("json", "jsonl", "csv"),
                   default="json")

    j = subs.add_parser("julia-verify",
                        help="verify the expanding-regime structure")
    _add_common(j)
    j.add_argument("--depth", type=positive_int, default=6,
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
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # CPython's, on digits
            raise ValueError(f"--x0: {exc}") from None
        raise ValueError(f"--x0: not a rational a or a/b: {text!r}") from None
    if b == 0:
        raise ValueError(f"--x0: zero denominator in {text!r}")
    return Fraction(a, b)


_CSV_FIELDS = ("index", "category", "input", "status", "steps",
               "final_norm_exp_to_1", "final_norm_exp_exact", "itinerary",
               "classification", "classification_step", "reason", "retries")


def _json_record(rec: dict) -> str:
    """The record's canonical JSON text, with no line end."""
    return verify.canonical_json(rec, end="")


def _csv_row(values) -> str:
    """``values`` as one CSV line, None as an empty field."""
    import csv  # only a CSV sweep loads it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


def _csv_record(rec: dict) -> str:
    """The record's CSV line: the _CSV_FIELDS it has, its itinerary as one
    string of digits."""
    itinerary = rec.get("itinerary")
    if itinerary is not None:
        rec = {**rec, "itinerary": "".join(map(str, itinerary))}
    return _csv_row([rec.get(name) for name in _CSV_FIELDS])


# each sweep format's record form, applied where the record is computed
_RECORD_FORMS = {"json": _json_record, "jsonl": _json_record,
                 "csv": _csv_record}


def _sweep_pieces(report: dict, fmt: str):
    """The text of a sweep report in ``fmt``, in pieces, from a report
    whose records are already in ``_RECORD_FORMS[fmt]``.  JSON and JSONL
    are canonical: JSON sorts ``records`` among the summary's keys, and
    JSONL puts the summary on the last line.  CSV puts the status
    histogram after the records."""
    records = report.pop("records")
    if fmt == "csv":
        yield _csv_row(_CSV_FIELDS)
        yield from records
        yield _csv_row(())
        yield _csv_row(("status", "count"))
        yield from map(_csv_row, report["histogram"].items())
    elif fmt == "jsonl":
        for text in records:
            yield text
            yield "\n"
        yield verify.canonical_json(report)
    else:
        # a string value cannot hold this text unescaped, so it marks
        # where the records go
        head, _, tail = verify.canonical_json(
            {**report, "records": []}).partition('"records":[]')
        yield head + '"records":['
        for i, text in enumerate(records):
            if i:
                yield ","
            yield text
        yield "]" + tail


def _check_out(out: str) -> None:
    """ValueError unless ``out`` can be written: an existing target is a
    writable non-directory, a new one is named in a writable directory.
    Opens, creates and truncates nothing, so ``main`` checks the path
    before it computes the report."""
    try:
        os.stat(out)
    except FileNotFoundError as exc:
        parent = os.path.dirname(out) or "."
        if not os.path.isdir(parent):  # worded as open() words it
            raise ValueError(f"--out: {exc}") from None
        if not os.access(parent, os.W_OK | os.X_OK):
            raise ValueError(f"--out: cannot create a file in {parent!r}")
        return
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None
    if os.path.isdir(out) or not os.access(out, os.W_OK):
        raise ValueError(f"--out: cannot write {out!r}")


def _emit(pieces, out: str | None) -> None:
    """Write the report, whose text is the concatenation of ``pieces``."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None
    else:
        sys.stdout.writelines(pieces)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "julia-verify" and args.samples < 1:
        parser.error("julia-verify --samples: the expansion laws need at "
                     f"least one pair per ball, got {args.samples}")
    try:
        if args.out:
            _check_out(args.out)
        params = verify.make_params(args.p, args.k, args.q, args.theta,
                                    args.precision)
        code = EXIT_PASS
        if args.command == "classify":
            report = verify.classify_report(params)
        elif args.command == "orbit":
            report = verify.orbit_report(params, _parse_x0(args.x0),
                                         args.max_iter, args.tol)
            if report["record"].get("reason") == "precision":
                code = EXIT_PRECISION
                print("pottsbethe: precision exhausted: orbit undecided at "
                      f"{params.digits * verify.RETRY_LADDER[-1]} digits, "
                      "the last retry", file=sys.stderr)
        elif args.command == "sweep":
            report = verify.sweep_report(params, args.samples, args.seed,
                                         max_iter=args.max_iter,
                                         tol=args.tol,
                                         classify_depth=args.depth,
                                         pole_tree_depth=args.pole_tree_depth,
                                         form=_RECORD_FORMS[args.format])
        else:
            report = verify.julia_report(params, args.depth, seed=args.seed,
                                         pairs_per_ball=args.samples)
            if report["falsified"]:
                code = EXIT_FALSIFIED
        _emit(_sweep_pieces(report, args.format) if args.command == "sweep"
              else [verify.canonical_json(report)], args.out)
        return code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"pottsbethe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:  # a NearPoleHit among them
        print(f"pottsbethe: precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (PoleHit, VerificationError) as exc:
        print(f"pottsbethe: falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
