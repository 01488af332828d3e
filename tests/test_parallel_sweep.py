"""Sweeps split over forked processes: the same bytes and the same errors
as a serial run, and no child process left behind."""

import os
import threading

import pytest

from pottsbethe import sampling, verify
from pottsbethe.cli import main
from pottsbethe.mapping import MapParams, PoleHit, VerificationError

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
    code = main(argv)
    out, err = capsys.readouterr()
    assert_no_child_left()
    return code, out, err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv,spans", [
    (["sweep", *B1, "--samples", "1000", "--depth", "50", "--seed", "1"], 2),
    (["sweep", *B1, "--samples", "400", "--depth", "50", "--seed", "1",
      "--precision", "16"], 3),
    (["sweep", *B2, "--samples", "300", "--depth", "30", "--seed", "2",
      "--pole-tree-depth", "3"], 2),
], ids=["sweep-b1", "retried-16-digits", "pole-tree"])
@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
def test_forked_sweep_is_byte_identical(capsys, monkeypatch, forks, argv,
                                        spans, fmt):
    argv = argv + ["--format", fmt]
    serial = run(argv, capsys, monkeypatch, cpus=1)
    assert serial[0] == 0 and forks == []
    assert run(argv, capsys, monkeypatch, cpus=spans) == serial
    assert len(forks) == spans - 1


SWEEP = ["sweep", *B1, "--samples", "400", "--depth", "50", "--seed", "4"]


def plant(monkeypatch, errors):
    """Make the sample record at each plan index of ``errors`` raise its
    exception, in whichever process computes it.  With three spans the
    parent computes records 0-132, the children 133-265 and 266-399."""
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


@pytest.mark.parametrize("errors,code,first", [
    ({350: VerificationError("planted in the child")}, 1,
     "falsified: planted in the child"),
    ({350: PoleHit("exact hit", exact=True)}, 1, "falsified: exact hit"),
    ({350: PoleHit("near hit", exact=False)}, 3,
     "precision exhausted: near hit"),
    ({200: ValueError("second span"), 350: VerificationError("third")}, 2,
     "error: second span"),
    ({20: VerificationError("parent"), 350: PoleHit("child", exact=True)},
     1, "falsified: parent"),
], ids=["verification", "exact-pole-hit", "inexact-pole-hit",
        "first-child-wins", "parent-wins"])
def test_error_in_a_span_is_the_serial_error(capsys, monkeypatch, forks,
                                             errors, code, first):
    plant(monkeypatch, errors)
    serial = run(SWEEP, capsys, monkeypatch, cpus=1)
    assert serial == (code, "", f"pottsbethe: {first}\n")
    assert run(SWEEP, capsys, monkeypatch, cpus=3) == serial
    assert len(forks) == 2


def test_child_that_dies_is_an_error(monkeypatch, forks):
    parent = os.getpid()
    realize = sampling.Sample.realize

    def dying(self, pd):
        if os.getpid() != parent:
            os._exit(7)
        return realize(self, pd)

    monkeypatch.setattr(sampling.Sample, "realize", dying)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="ended without sending"):
        verify.sweep_report(MapParams.make(5, 3, 5, "1+p^3"), 300, 4)
    assert len(forks) == 1
    assert_no_child_left()


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
