"""Sweep and orbit reports: work done per record and the retry ladder."""

import sys

import pytest

from pottsbethe import mapping, verify
from pottsbethe.mapping import MapParams, build_partition


@pytest.fixture
def eval_f_calls(monkeypatch):
    """Counts calls to eval_f through every name the package binds it to."""
    calls = [0]
    original = mapping.eval_f

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pottsbethe" or name.startswith("pottsbethe."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_b1_sweep_iterates_each_orbit_once(eval_f_calls):
    params = MapParams.make(5, 3, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=30, seed=7, classify_depth=50)
    assert rep["classification_histogram"] == {"basin": 30}
    # 990 when orbit, basin_classify and the consistency check each
    # iterated the orbit from its start
    assert eval_f_calls[0] == 657


def test_b2_pole_tree_is_built_once(eval_f_calls):
    params = MapParams.make(5, 2, 5, "1+p^3")
    rep = verify.sweep_report(params, samples=10, seed=7, classify_depth=50,
                              pole_tree_depth=3)
    assert rep["classification_histogram"] == {"basin": 10,
                                               "pole_preimage": 14}
    # 797 when the pole tree was rebuilt for every tree record
    assert eval_f_calls[0] == 302


def test_retried_sweep_adds_one_partition_per_rung():
    # at 16 digits some B1 orbits need the 32- or 64-digit rung
    def sweep():
        params = MapParams.make(5, 3, 5, "1+p^3", digits=16)
        return verify.sweep_report(params, samples=60, seed=0,
                                   classify_depth=50)

    before = build_partition.cache_info().currsize
    rep = sweep()
    assert rep["histogram"] == {"converged_to_1": 60}
    assert sum(r["retries"] for r in rep["records"]) > 0
    grown = build_partition.cache_info().currsize - before
    assert grown <= len(verify.RETRY_LADDER)
    # the same sweep again finds every rung's partition in the cache
    assert sweep() == rep
    assert build_partition.cache_info().currsize - before == grown


def test_expansion_laws_need_a_pair():
    params = MapParams.make(5, 2, 5, "1+p^3")
    with pytest.raises(ValueError, match="pairs_per_ball must be >= 1"):
        verify.expansion_law_report(params, 0, seed=0)
