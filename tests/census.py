"""A parameter census: a fixed grid of CLI runs whose bytes are pinned.

Every byte oracle elsewhere sits in a narrow corner (p in {3, 5}, q = p).
This grid reaches p = 7, q = p^2, p | k (the p-th-root path of
``hensel._pth_root``), kappa up to 6, v(theta-1) on both sides of
2v(q)+1, unclassified parameters and the precision retry ladder.  The
``large-kappa`` family leaves the grid for the k axis: kappa = p - 1 at
p = 1009 and 2003, and the runs ``mapping.WORK_BUDGET`` refuses.

Each command family gets one SHA-256 over (argv, exit code, stdout) of its
runs, in grid or list order, and a count of its exit codes.
``tests/test_census.py`` checks both against the pins below.  Run this
file to print them:

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter

from pottsbethe import cli


def _ks(p: int) -> list[int]:
    """2, 3, p, 2p, p-1 and p(p-1), each once, in that order."""
    return list(dict.fromkeys((2, 3, p, 2 * p, p - 1, p * (p - 1))))


GRID = [(p, k, q, f"1+p^{m}")
        for p in (3, 5, 7)
        for k in _ks(p)
        for q in (p, p * p)
        for m in (1, 2, 3, 5)]
PRECISIONS = (3, 6, 12)
COMMANDS = {
    "classify": ["classify"],
    "sweep": ["sweep", "--samples", "12", "--depth", "6"],
    "pole-tree": ["sweep", "--samples", "6", "--depth", "4",
                  "--pole-tree-depth", "2"],
    "orbit": ["orbit", "--x0", "7/3"],
    "julia-verify": ["julia-verify", "--depth", "2", "--samples", "3"],
}


def _large(p: int, k: int, *command: str) -> list[str]:
    return [*command, "--p", str(p), "--k", str(k), "--q", str(p),
            "--theta", "1+p^3"]


# runs off the grid, at the default digits: kappa = 1 008 and 2 002 run;
# julia-verify's 1 008**2 incidence entries and a cover of 100 002 balls
# are refused before any root is taken
LARGE_KAPPA = [_large(p, p - 1, *command)
               for p in (1009, 2003)
               for command in (["classify"],
                               ["sweep", "--samples", "3", "--depth", "5"])]
LARGE_KAPPA += [_large(1009, 1008, "julia-verify", "--depth", "1"),
                _large(100003, 100002, "classify")]

# one SHA-256 per command over every run of GRID at PRECISIONS
DIGESTS = {
    "classify":
        "0dc05d33f4be758aa4d5a930ede4be06e36cd0060d7a666aa3a851153f385313",
    "sweep":
        "2436074d03c627b6d0660d4d4f0bccdb6795fb959bc8f14867d4b03acd9d4220",
    "pole-tree":
        "1f30161fdb50918cf25d1c40ef4dba6db46eb22d4ebbb718dd36c4f81e8215a3",
    "orbit":
        "694b9c1b547180f4eb1f7f5a3fb4683c4201ca16a9945b9d8641f30580969f15",
    "julia-verify":
        "fee36b0d48ba22332ea09d6e1d295867533c90191a81521feedcbfb2b43c3ad1",
    "large-kappa":
        "9a54cbe454a0ae9b0c8fd463777099d55d6dc82bf7a65d6f7b15f9aa337a6619",
}
# exit code -> runs, per command
EXIT_COUNTS = {
    "classify": {0: 360},
    "sweep": {0: 207, 2: 153},
    "pole-tree": {0: 179, 2: 153, 3: 28},
    "orbit": {0: 92, 2: 63, 3: 205},
    "julia-verify": {0: 7, 1: 120, 2: 153, 3: 80},
    "large-kappa": {0: 4, 2: 2},
}


def argvs(command: str):
    """The argument lists of ``command``'s runs, in grid order, or of the
    ``large-kappa`` family in list order."""
    if command == "large-kappa":
        yield from LARGE_KAPPA
        return
    for p, k, q, theta in GRID:
        for digits in PRECISIONS:
            yield COMMANDS[command] + [
                "--p", str(p), "--k", str(k), "--q", str(q),
                "--theta", theta, "--precision", str(digits)]


def run(command: str) -> tuple[str, dict[int, int]]:
    """The SHA-256 and the exit-code counts of ``command``'s runs, each
    through ``cli.main`` in this process."""
    digest = hashlib.sha256()
    codes: Counter = Counter()
    for argv in argvs(command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        codes[code] += 1
        digest.update(json.dumps([argv, code, out.getvalue()]).encode())
        digest.update(b"\n")
    return digest.hexdigest(), dict(sorted(codes.items()))


if __name__ == "__main__":
    for name in DIGESTS:
        sha, codes = run(name)
        print(f"{name!r}: {sha!r},  # {codes}")
