"""Acceptance suite: the headline guarantees at their stated tolerances.

Each criterion builds a deterministic JSON-able report and prints one
PASS/FAIL line (run with ``pytest -s`` to see them).  The determinism
criterion rebuilds every report with the same seeds and compares canonical
bytes.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from pottsbethe import cli, dynamics, hensel, verify
from pottsbethe.mapping import MapParams, eval_f, multiplier
from pottsbethe.padic import INF, from_rational
from pottsbethe.verify import canonical_json

SEED = 20260808

PARAMS_A = dict(p=3, k=3, q=3, theta="1+p^2")
PARAMS_B1 = dict(p=5, k=3, q=5, theta="1+p^3")
PARAMS_B2 = dict(p=5, k=2, q=5, theta="1+p^3")
PARAMS_B4 = dict(p=5, k=4, q=5, theta="1+p^3")


def make(d):
    return MapParams.make(d["p"], d["k"], d["q"], d["theta"])


def criterion_1_regime_a():
    params = make(PARAMS_A)
    norms_ok = params.v_k >= params.v_qtheta1  # |k|_p <= |q+theta-1|_p
    sweep = verify.sweep_report(params, samples=1000, seed=SEED,
                                max_iter=200, tol=20, classify_depth=50)
    tree = dynamics.pole_preimage_tree(params, 5)
    ok = (norms_ok
          and sweep["histogram"] == {"converged_to_1": 1000}
          and sweep["classification_histogram"] == {"basin": 1000}
          and tree == [])
    return {"criterion": 1, "pass": bool(ok), "norm_condition": norms_ok,
            "pole_tree_levels": [len(l) for l in tree], "sweep": sweep}


def criterion_2_regime_b1():
    params = make(PARAMS_B1)
    x_star = hensel.fixed_point_B1(params)
    resid = eval_f(params, x_star) - x_star
    resid_ok = resid.is_zero_like and resid.val_lower_bound >= 40
    lam_star = multiplier(params, x_star)
    lam_one = multiplier(params, 1)
    sweep = verify.sweep_report(params, samples=1000, seed=SEED,
                                max_iter=200, tol=20, classify_depth=50)
    ok = (resid_ok and lam_star.valuation < 0 and lam_one.valuation > 0
          and sweep["classification_histogram"] == {"basin": 1000})
    return {
        "criterion": 2, "pass": bool(ok),
        "fixed_point": x_star.to_compact(),
        "residual_exp": resid.val_lower_bound if resid.val_lower_bound != INF
        else "inf",
        "multiplier_exp_at_fixed": int(lam_star.valuation),
        "multiplier_exp_at_one": int(lam_one.valuation),
        "sweep": sweep,
    }


def criterion_3_two_symbol_conjugacy():
    params = make(PARAMS_B2)
    report = verify.julia_report(params, depth=8, seed=SEED,
                                 pairs_per_ball=25)
    checks = {c["name"]: c for c in report["checks"]}
    ok = (not report["falsified"]
          and report["kappa"] == 2
          and checks["incidence_all_ones"]["pass"]
          and checks["words_realized_roundtrip"]["detail"]["total"] == 510
          and checks["words_realized_roundtrip"]["detail"]["realized"] == 510
          and checks["periodic_points"]["pass"]
          and checks["isometry_cylinder_vs_word_metric"]["detail"]
          ["mismatches"] == 0
          and checks["isometry_cylinder_vs_word_metric"]["detail"]
          ["pairs"] == 256 * 255 // 2)
    return {"criterion": 3, "pass": bool(ok), "report": report}


def criterion_4_four_symbol_shift():
    params = make(PARAMS_B4)
    report = verify.julia_report(params, depth=3, seed=SEED,
                                 pairs_per_ball=25)
    checks = {c["name"]: c for c in report["checks"]}
    words = checks["words_realized_roundtrip"]["detail"]
    ok = (not report["falsified"]
          and report["kappa"] == 4
          and checks["incidence_all_ones"]["pass"]
          and words["total"] == 4 + 16 + 64
          and words["realized"] == words["total"])
    return {"criterion": 4, "pass": bool(ok), "report": report}


def criterion_5_expansion_laws():
    out = {"criterion": 5, "sets": []}
    ok = True
    for combo in (PARAMS_B2, PARAMS_B4):
        params = make(combo)
        rep = verify.expansion_law_report(params, pairs_per_ball=200,
                                          seed=SEED)
        ok = ok and rep["pass"] and all(
            d["pairs"] >= 190 and d["failures"] == 0 for d in rep["detail"])
        out["sets"].append({"config": params.config_dict(), **rep})
    out["pass"] = bool(ok)
    return out


def criterion_6_principal_root_grid():
    rng = random.Random(SEED)
    cells = []
    ok = True
    for p in (3, 5, 7):
        for q in (p, p * p):
            for k in (2, 3, 4, 6):
                vq = 1 if q == p else 2
                vk = 0
                kk = k
                while kk % p == 0:
                    vk += 1
                    kk //= p
                if vk >= vq:  # needs |q|_p < |k|_p
                    continue
                failures = 0
                for _ in range(50):
                    z = rng.randrange(p**40)
                    a = from_rational(1 - q + p**(2 * vq + 1) * z, 1,
                                      prime=p, digits=64)
                    x = hensel.principal_kth_root(a, k)
                    power = x.pow_int(k) - a
                    if not (power.is_zero_like
                            and power.val_lower_bound >= 50):
                        failures += 1
                        continue
                    series = (1 - Fraction(q, k)
                              - Fraction((k - 1) * q**2, 2 * k**2)
                              + Fraction((k - 1) * (k - 2) * q**3, 6 * k**3))
                    resid = x - from_rational(series, 1, prime=p, digits=64)
                    if not resid.val_lower_bound > 2 * (vq - vk):
                        failures += 1
                cells.append({"p": p, "q": q, "k": k, "failures": failures})
                ok = ok and failures == 0
    return {"criterion": 6, "pass": bool(ok), "cells": cells}


def criterion_7_power_lower_bound():
    rng = random.Random(SEED)
    failures = 0
    tested = 0
    cases = []
    while tested < 500:
        p = rng.choice((3, 5, 7))
        k = rng.choice((p, 2 * p, p * p))
        vk = 1 if k != p * p else 2
        t = rng.randrange(1, vk + 1)
        unit = rng.randrange(1, p**30)
        if unit % p == 0:
            unit += 1
        a = from_rational(1 + p**t * unit, 1, prime=p, digits=48)
        if (a - 1).norm_exp() != t:
            continue
        kind = ("unit", "ep", "big")[tested % 3]
        if kind == "unit":
            n = rng.randrange(p**30)
            x = from_rational(n - n % p + rng.randrange(1, p), 1,
                              prime=p, digits=48)
        elif kind == "ep":
            x = from_rational(1 + p * rng.randrange(p**30), 1,
                              prime=p, digits=48)
        else:
            x = from_rational(rng.randrange(1, p**20),
                              p**rng.randrange(1, 6), prime=p, digits=48)
        tested += 1
        if not (x.pow_int(k) - a).norm_exp() <= (a - 1).norm_exp():
            failures += 1
            cases.append({"p": p, "k": k, "a": a.to_compact(),
                          "x": x.to_compact()})
    return {"criterion": 7, "pass": failures == 0, "tested": tested,
            "failures": failures, "failing_cases": cases}


def criterion_8_power_difference():
    rng = random.Random(SEED)
    failures = 0
    tested = 0
    while tested < 500:
        p = rng.choice((3, 5, 7))
        k = rng.randrange(1, 51)
        na, nb = rng.randrange(p**30), rng.randrange(p**30)
        if na == nb:
            continue
        alpha = from_rational(1 + p * na, 1, prime=p, digits=48)
        beta = from_rational(1 + p * nb, 1, prime=p, digits=48)
        lead = k * (alpha - beta)
        tested += 1
        diff = alpha.pow_int(k) - beta.pow_int(k) - lead
        if not diff.val_lower_bound > lead.norm_exp():
            failures += 1
    return {"criterion": 8, "pass": failures == 0, "tested": tested,
            "failures": failures}


BUILDERS = {
    1: criterion_1_regime_a,
    2: criterion_2_regime_b1,
    3: criterion_3_two_symbol_conjugacy,
    4: criterion_4_four_symbol_shift,
    5: criterion_5_expansion_laws,
    6: criterion_6_principal_root_grid,
    7: criterion_7_power_lower_bound,
    8: criterion_8_power_difference,
}

NAMES = {
    1: "regime A basin totality",
    2: "regime B1 repelling fixed point",
    3: "regime B2 full-shift conjugacy",
    4: "four-symbol shift",
    5: "expansion laws",
    6: "principal-root expansion grid",
    7: "power lower bound suite",
    8: "power difference suite",
}


# SHA-256 of each criterion's canonical report.  The reports are the
# oracle for refactors: a change that alters these bytes must say in
# CHANGES.md which field changed and why.
REPORT_SHA256 = {
    1: "be10d3221f19db0e66ae73adc9c73ed8fef9c2dff85963fc7d747f13adf142d6",
    2: "cac0260a59a649d33ce60d9ac66dd1c9ec06c15f3616638d865fdc90ed80a036",
    3: "8e90d8ed241d0de7300caa1185b9d3a320371a43e8b225a71f9301647bbb110c",
    4: "112d5fcf0c81e3768fd2f9b077947f8dd8b93ee909c106d4f472547cefad7e33",
    5: "ca002e278bb3a4fb8b64d7ad73446b9f1c834fde27d1799e02e2eb7c265f7ba9",
    6: "2b1ffcf3c9cf991f12ce2dcaac241859c38dc76997ae2f768b91991443992387",
    7: "8a81e8779302b0f3a8bcec231aebe68f19b766e0c310bb15254e9ccbc6add4da",
    8: "0f66866136812bfd7199de9ec73dd559f0d30341cf295f1b9dc9854d76c0a735",
}


# SHA-256 of the ``julia-verify --samples 5`` report at (p, k, q, theta,
# depth) outside the corner the criteria pin (p in {3, 5}, q = p, kappa
# <= 4): p >= 7, q = p^2, p | k, and kappa up to 10, and two B1 reports,
# whose fixed-point checks the criteria do not pin.  None is falsified.
JULIA_VERIFY_SHA256 = {
    (7, 3, 7, "1+p^3", 4):
    "581d5e9943e85251d76aa5ceb3521688b9abec19f5031b94d261cf7360c78068",
    (7, 6, 7, "1+p^3", 2):
    "b8129499bb31fd8fb2457f4af239cde4a2ba47af6ee72bdb5109e1e035791004",
    # v(q) = 2, decided on the 2x rung (128 digits)
    (3, 2, 9, "1+p^5", 4):
    "d6a3cbf011f3bc752481a5f5a38c680b612e04c3bc0cdfb8a8a393f5a7d17971",
    # p | k, decided on the 2x rung
    (5, 10, 25, "1+p^5", 3):
    "e79f9c08af4859f6331c8bf8e4b7f6ce2bdbbe69d38929252d77aa7804e63eea",
    (13, 4, 13, "1+p^4", 2):
    "3c861e5e6a408e5a6b492fc5c8ddcddb019b05ce374e9ce4de41b2dce8cdd06c",
    (11, 10, 11, "1+p^3", 2):
    "14bba3106bacb05ee93d489782cfd2064128ac9cd15191a6ea596e9177360d5a",
    # regime B1
    (5, 3, 5, "1+p^3", 4):
    "a1e715a8538c785a3a0ebe91dfd27b02db752857e7b0a79678c59875a2f09df3",
    (7, 5, 7, "1+p^4", 3):
    "5515b7239b77ca7a0d5672cf775c0ddd4f5c48240b3468449c4cdd5008897189",
    # the deep backward map: over 4 000 principal roots
    (5, 2, 5, "1+p^3", 12):
    "d26993fa7b6528f54cc5b43730d28232c7185dd1d15f01273dd0334015387291",
    # p | k at depth 5: every root also takes p-th roots
    (5, 10, 25, "1+p^5", 5):
    "b292de61327029935389f15ee6baa62b77a121b3d6b87aa5ed97799c0f81638d",
}


@pytest.mark.parametrize("config", JULIA_VERIFY_SHA256,
                         ids=lambda c: "p{}-k{}-q{}-{}-depth{}".format(*c))
def test_julia_verify_bytes_off_the_pinned_corner(capsys, config):
    p, k, q, theta, depth = config
    code = cli.main(["julia-verify", "--p", str(p), "--k", str(k),
                     "--q", str(q), "--theta", theta, "--depth", str(depth),
                     "--samples", "5"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert (code, report["falsified"]) == (0, False)
    assert report["regime"] in ("B1", "B2")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        JULIA_VERIFY_SHA256[config]


@pytest.fixture(scope="module")
def reports():
    return {}


def _run(reports, n):
    report = BUILDERS[n]()
    reports[n] = report
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"ACCEPTANCE {n} ({NAMES[n]}): {verdict}")
    assert report["pass"], f"criterion {n} failed"


def test_criterion_1_regime_a(reports):
    _run(reports, 1)


def test_criterion_2_regime_b1(reports):
    _run(reports, 2)


def test_criterion_3_two_symbol_conjugacy(reports):
    _run(reports, 3)


def test_criterion_4_four_symbol_shift(reports):
    _run(reports, 4)


def test_criterion_5_expansion_laws(reports):
    _run(reports, 5)


def test_criterion_6_principal_root_grid(reports):
    _run(reports, 6)


def test_criterion_7_power_lower_bound(reports):
    _run(reports, 7)


def test_criterion_8_power_difference(reports):
    _run(reports, 8)


def test_criterion_9_determinism(reports):
    for n, builder in BUILDERS.items():
        assert n in reports, "determinism check needs the earlier criteria"
        again = builder()
        assert canonical_json(again) == canonical_json(reports[n]), (
            f"criterion {n} report is not byte-identical on rerun"
        )
    print("ACCEPTANCE 9 (determinism): PASS")


def test_reports_match_recorded_bytes(reports):
    for n in BUILDERS:
        assert n in reports, "the byte check needs the earlier criteria"
        digest = hashlib.sha256(
            canonical_json(reports[n]).encode()).hexdigest()
        assert digest == REPORT_SHA256[n], (
            f"criterion {n} report bytes differ from the recorded ones"
        )
