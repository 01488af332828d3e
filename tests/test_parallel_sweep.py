"""Sweeps split over forked processes: the same bytes and the same errors
as a serial run, no child process left behind and no descriptor left
open.  A child sends its whole span or nothing; when anything goes wrong
(a record raises in any process, a child dies, a fork fails) the parent
ends every child and computes the records itself as a serial run does,
so it returns that run's records or raises its error.  The benchmark's
workload reports are pinned here too, at 1 and 2 CPUs."""

import ast
import errno
import hashlib
import json
import os
import pathlib
import threading

import pytest

from pottsbethe import sampling, verify
from pottsbethe.cli import main
from pottsbethe.mapping import (MapParams, NearPoleHit, PoleHit,
                                VerificationError)

B1 = ["--p", "5", "--k", "3", "--q", "5", "--theta", "1+p^3"]
B2 = ["--p", "5", "--k", "2", "--q", "5", "--theta", "1+p^3"]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the sweep under test forks."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def run(argv, capsys, monkeypatch, cpus):
    """(exit code, stdout, stderr) of the CLI with ``cpus`` CPUs."""
    monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
    fds = open_fds()
    code = main(argv)
    out, err = capsys.readouterr()
    assert_no_child_left()
    assert open_fds() == fds
    return code, out, err


def open_fds():
    """This process's open file descriptors, where the platform lists
    them; None elsewhere."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv,spans", [
    (["sweep", *B1, "--samples", "1000", "--depth", "50", "--seed", "1"], 2),
    (["sweep", *B1, "--samples", "400", "--depth", "50", "--seed", "1",
      "--precision", "16"], 3),
    (["sweep", *B2, "--samples", "300", "--depth", "30", "--seed", "2",
      "--pole-tree-depth", "3"], 2),
    (["sweep", *B2, "--precision", "256", "--pole-tree-depth", "4",
      "--samples", "100", "--depth", "50", "--seed", "1"], 2),
], ids=["sweep-b1", "retried-16-digits", "pole-tree", "poletree-b2"])
@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
def test_forked_sweep_is_byte_identical(capsys, monkeypatch, forks, argv,
                                        spans, fmt):
    argv = argv + ["--format", fmt]
    serial = run(argv, capsys, monkeypatch, cpus=1)
    assert serial[0] == 0 and forks == []
    assert run(argv, capsys, monkeypatch, cpus=spans) == serial
    assert len(forks) == spans - 1


A = ["--p", "3", "--k", "3", "--q", "3", "--theta", "1+p^2"]
SWEEP_B1 = ["sweep", *B1, "--samples", "1000", "--depth", "50", "--seed",
            "11"]
POLETREE_B2 = ["sweep", *B2, "--precision", "256", "--pole-tree-depth", "4",
               "--samples", "100", "--depth", "50", "--seed", "11"]


@pytest.mark.parametrize("argv,digest", [
    (SWEEP_B1 + ["--format", "json"],
     "1de5ee7945c209bfd0d3bc6a224812ee21e50244c35e4eab71df3a1fb1dac040"),
    (SWEEP_B1 + ["--format", "jsonl"],
     "f9b8ce19eb6ec3edea025922f3172b03bbf70c958f8e6b9e7eebd92d6162f498"),
    (SWEEP_B1 + ["--format", "csv"],
     "891b0af7587c14d5e3922e4a345bcf26733d91eff0d1c225d40f044a11a699b4"),
    (POLETREE_B2 + ["--format", "json"],
     "8cae577d0959835d8de564e8acc4008932bce8040b4a8ecd8f6bba804f36fc92"),
    (POLETREE_B2 + ["--format", "jsonl"],
     "eecfe5d7b18dbafea51418be561f15a0e342d889c16d4e5d6e28b3766d75ab44"),
    (POLETREE_B2 + ["--format", "csv"],
     "71be7804523addc1119c9a6c49a492e5b33635e33d5169aec2ee08e93359c9df"),
    (["sweep", *A, "--samples", "300", "--depth", "20", "--seed", "11",
      "--format", "jsonl"],
     "b9e4fe785bffa72ae6d0ba73209f87cd55ca38a60a081888c83caf928fc76f09"),
    (["sweep", *B2, "--samples", "300", "--depth", "30", "--seed", "11",
      "--pole-tree-depth", "3", "--format", "csv"],
     "7cdb6c2867c09ee251e86404d45c70c61ff3907538cccfa36cd14d3ec3170488"),
], ids=["sweep-b1-json", "sweep-b1-jsonl", "sweep-b1-csv",
        "poletree-b2-json", "poletree-b2-jsonl", "poletree-b2-csv",
        "regime-a-jsonl", "b2-pole-tree-csv"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_bytes_are_pinned(capsys, monkeypatch, argv, digest, cpus):
    # recorded when each record was kept as a dict and the whole report
    # encoded at once, after the last record
    code, out, err = run(argv, capsys, monkeypatch, cpus=cpus)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the argv of the benchmark's workloads, as bench/workloads.py spells them
BENCH_WORKLOADS = {
    "sweep-b1": "sweep --p 5 --k 3 --q 5 --theta 1+p^3 --samples 1000 "
                "--depth 50 --seed {seed}",
    "julia-b2": "julia-verify --p 5 --k 2 --q 5 --theta 1+p^3 --depth 8 "
                "--samples 25 --seed {seed}",
    "poletree-b2": "sweep --p 5 --k 2 --q 5 --theta 1+p^3 --precision 256 "
                   "--pole-tree-depth 4 --samples 100 --depth 50 "
                   "--seed {seed}",
}


BENCH_SHA256 = {
    ("sweep-b1", 1):
    "7526989b56a06850a941707e0c89083ddd493a03651510d2a62fd098f116435a",
    ("sweep-b1", 11):
    "1de5ee7945c209bfd0d3bc6a224812ee21e50244c35e4eab71df3a1fb1dac040",
    ("julia-b2", 1):
    "8b3121f4dafa1e98a811e25e19599c45edca2ccc762961e51ffbd663eedcf045",
    ("julia-b2", 11):
    "8be8cc04e67a7b917b34a59b0fa6d11d9197ac1bfd118412b0f09e288b5fecf8",
    ("poletree-b2", 1):
    "86838a6bff0cf29ac3dfc57a887d75a43e43c0e21fab3a51ee06c234936dbc26",
    ("poletree-b2", 11):
    "8cae577d0959835d8de564e8acc4008932bce8040b4a8ecd8f6bba804f36fc92",
}


@pytest.mark.parametrize("run_id", BENCH_SHA256,
                         ids=lambda r: "{}-seed{}".format(*r))
@pytest.mark.parametrize("cpus", [1, 2])
def test_bench_workload_bytes_are_pinned(capsys, monkeypatch, run_id, cpus):
    workload, seed = run_id
    argv = BENCH_WORKLOADS[workload].format(seed=seed).split()
    code, out, err = run(argv, capsys, monkeypatch, cpus=cpus)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_SHA256[run_id]


def test_bench_workload_argv_is_the_benchmark_s():
    # BENCH_WORKLOADS is a copy: it must track each Workload(name=...,
    # args=...) of bench/workloads.py
    tree = ast.parse((pathlib.Path(__file__).resolve().parents[1] / "bench"
                      / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "Workload"]
    fields = [{kw.arg: ast.literal_eval(kw.value) for kw in call.keywords
               if kw.arg in ("name", "args")} for call in calls]
    assert {f["name"]: f["args"] for f in fields} == BENCH_WORKLOADS


SWEEP = ["sweep", *B1, "--samples", "400", "--depth", "50", "--seed", "4"]


def plant(monkeypatch, errors):
    """Make the sample record at each plan index of ``errors`` raise its
    exception, in whichever process computes it.  With three spans, span
    j holds the records j, j + 3, j + 6, ...: the parent computes the
    indexes divisible by 3, the first child those of remainder 1 and the
    second child those of remainder 2."""
    params = MapParams.make(5, 3, 5, "1+p^3")
    payloads = [s.payload for s in sampling.spanning_samples(params, 400, 4)]
    bad = {payloads[i]: exc for i, exc in errors.items()}
    assert all(payloads.count(p) == 1 for p in bad)
    realize = sampling.Sample.realize

    def planted(self, pd):
        if self.payload in bad:
            raise bad[self.payload]
        return realize(self, pd)

    monkeypatch.setattr(sampling.Sample, "realize", planted)


@pytest.mark.parametrize("errors,spans,code,first", [
    ({350: VerificationError("planted in the child")}, [2], 1,
     "falsified: planted in the child"),
    ({350: PoleHit("exact hit")}, [2], 1, "falsified: exact hit"),
    ({199: ValueError("second span"), 350: VerificationError("third")},
     [1, 2], 2, "error: second span"),
    ({21: VerificationError("parent"), 350: PoleHit("child")},
     [0, 2], 1, "falsified: parent"),
    ({300: VerificationError("parent"), 100: PoleHit("child")},
     [0, 1], 1, "falsified: child"),
    ({350: UnicodeDecodeError("utf-8", b"\xff", 0, 1, "planted")}, [2], 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 0: planted"),
], ids=["verification", "exact-pole-hit", "first-child-wins", "parent-wins",
        "earlier-child-beats-parent", "unicode-decode-error"])
def test_error_in_a_span_is_the_serial_error(capsys, monkeypatch, forks,
                                             errors, spans, code, first):
    # the errors fall in the spans the case is named for
    assert [i % 3 for i in errors] == spans
    plant(monkeypatch, errors)
    serial = run(SWEEP, capsys, monkeypatch, cpus=1)
    assert serial == (code, "", f"pottsbethe: {first}\n")
    assert run(SWEEP, capsys, monkeypatch, cpus=3) == serial
    assert len(forks) == 2


def test_near_pole_hit_in_a_span_is_retried(capsys, monkeypatch, forks):
    # a near hit is a shortage of digits: its record is retried on every
    # rung and ends undecided, in a child as in a serial run
    plant(monkeypatch, {350: NearPoleHit("near hit")})
    serial = run(SWEEP, capsys, monkeypatch, cpus=1)
    code, out, err = serial
    rec = json.loads(out)["records"][350]
    assert (code, err) == (0, "")
    assert (rec["status"], rec["reason"], rec["retries"]) == (
        "undecided", "precision", len(verify.RETRY_LADDER))
    assert run(SWEEP, capsys, monkeypatch, cpus=3) == serial
    assert len(forks) == 2


def test_child_that_dies_is_an_error(monkeypatch, forks):
    # a child that ends without sending its span is an error of that
    # process, not of the sweep: the parent ends every child and computes
    # the records itself, so they are those of a serial run
    params = MapParams.make(5, 3, 5, "1+p^3")
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    serial = verify.canonical_json(verify.sweep_report(params, 300, 4))
    parent = os.getpid()
    realize = sampling.Sample.realize

    def dying(self, pd):
        if os.getpid() != parent:
            os._exit(7)
        return realize(self, pd)

    monkeypatch.setattr(sampling.Sample, "realize", dying)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    assert verify.canonical_json(verify.sweep_report(params, 300, 4)) == \
        serial
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus,failing", [(2, 1), (3, 2)],
                         ids=["first-fork", "second-of-two"])
def test_failed_fork_gives_the_serial_report(capsys, monkeypatch, forks,
                                             cpus, failing):
    # a fork refused for want of processes (EAGAIN) is not a falsified
    # sweep: the parent ends the children it has and runs serially
    serial = run(SWEEP, capsys, monkeypatch, cpus=1)
    assert serial[0] == 0
    calls = []
    fork = os.fork

    def refused():
        calls.append(None)
        if len(calls) == failing:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", refused)
    assert run(SWEEP, capsys, monkeypatch, cpus=cpus) == serial
    assert len(calls) == failing and len(forks) == failing - 1


def test_small_sweeps_stay_serial(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 64)
    n = verify.SPAN_MIN_RECORDS
    assert [verify._span_count(c) for c in (0, 1, 2 * n - 1, 2 * n,
                                            3 * n, 100 * n)] == \
        [1, 1, 1, 2, 3, 64]


def test_without_fork_stays_serial(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert verify._span_count(1000) == 1
    rep = verify.sweep_report(MapParams.make(5, 3, 5, "1+p^3"), 300, 4)
    assert len(rep["records"]) == 300


def test_running_thread_keeps_sweeps_serial(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    assert verify._span_count(1000) == 2
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        assert verify._span_count(1000) == 1
    finally:
        release.set()
        worker.join()


def test_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert verify._cpu_count() == (os.cpu_count() or 1)
