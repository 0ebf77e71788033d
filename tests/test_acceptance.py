"""End-to-end guarantees, one test per shipped claim.

Each test prints a single `[acceptance] ... PASS/FAIL` line with the
measured numbers, so `pytest -v -s tests/test_acceptance.py` doubles as a
report. Budgeted runtimes are asserted, not just wished for.
"""

import dataclasses
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from factorbounds import estimate as est
from factorbounds.cli import main as cli_main
from factorbounds.design import enumerate_assignments
from factorbounds.oracle import (
    adjusted_bounds,
    conservative_bounds,
    exclusion_bounds,
    interaction_bounds,
    interaction_effect,
    itt_report,
    joint_bounds,
    joint_interaction_effect,
    main_effect,
    simple_bounds,
)
from factorbounds.simulate import load_scenario, monte_carlo

from conftest import assumption_population, constant_complier_share, wald_ratio

TOL = 1e-12
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(tag, ok, detail):
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Shared oracle sweep: 1000 populations per K in {1,2,3}, N <= 50.

    Even replicates let factor 1 upgrade across contexts (conditional
    compliers present, weak exclusion still holds for factor 1); odd
    replicates keep every factor context-invariant, which additionally
    validates every single factor, the interaction, and the joint method.
    """
    rng = np.random.default_rng(20260817)
    out = {
        "pops": Counter(),
        "checks": 0,
        "cover_bad": 0,
        "nest": 0,
        "nest_bad": 0,
        "cons": 0,
        "cons_bad": 0,
        "itt": 0,
        "itt_bad": 0,
        "max_n": 0,
    }
    t0 = time.perf_counter()
    for K in (1, 2, 3):
        tilde = tuple([-1] * (K - 1))
        for i in range(1000):
            N = int(rng.integers(4, 51))
            out["max_n"] = max(out["max_n"], N)
            upg = (1,) if (K > 1 and i % 2 == 0) else ()
            pop = assumption_population(rng, K, N, upgrade_factors=upg)
            out["pops"][K] += 1
            factors = (1,) if upg else tuple(range(1, K + 1))
            for k in factors:
                rep = itt_report(pop, k)
                for ctx in rep.contexts:
                    out["itt"] += 1
                    if abs(sum(rep.components[ctx]) - rep.gamma[ctx]) > TOL:
                        out["itt_bad"] += 1
                truth = main_effect(pop, k)
                adj = adjusted_bounds(pop, k, tilde)
                sim = simple_bounds(pop, k, tilde)
                exc = exclusion_bounds(pop, k, tilde)
                for iv in (adj, sim, exc):
                    out["checks"] += 1
                    inside_raw = iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL
                    inside_clip = iv.lower - TOL <= truth <= iv.upper + TOL
                    if not (inside_raw and inside_clip):
                        out["cover_bad"] += 1
                out["nest"] += 1
                if not (
                    exc.raw_upper - exc.raw_lower <= adj.raw_upper - adj.raw_lower + TOL
                    and adj.raw_upper - adj.raw_lower <= sim.raw_upper - sim.raw_lower + TOL
                ):
                    out["nest_bad"] += 1
                rho = constant_complier_share(pop, k)
                for t in (rho, 0.5 * rho):
                    cons = conservative_bounds(pop, k, t)
                    out["cons"] += 1
                    if not (
                        cons.raw_lower <= exc.raw_lower + TOL
                        and cons.raw_upper >= exc.raw_upper - TOL
                    ):
                        out["cons_bad"] += 1
            if K > 1:
                ivf = interaction_bounds(pop, (1, 2), 1, tilde)
                tf = interaction_effect(pop, (1, 2), 1)
                out["checks"] += 1
                if not (ivf.raw_lower - TOL <= tf <= ivf.raw_upper + TOL):
                    out["cover_bad"] += 1
            if K > 1 and not upg:
                tj = joint_interaction_effect(pop, 1, 2)
                ivj = joint_bounds(pop, 1, 2, tuple([-1] * (K - 2)))
                out["checks"] += 1
                if not (ivj.raw_lower - TOL <= tj <= ivj.raw_upper + TOL):
                    out["cover_bad"] += 1
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def separated_mc():
    """2000-replication run of the well-separated scenario, shared by the
    SE-calibration and CI-coverage tests."""
    config = load_scenario(SCENARIOS / "well_separated.json")
    t0 = time.perf_counter()
    report = monte_carlo(config, R=2000)
    return report, time.perf_counter() - t0


def test_criterion_01_fixture_exactness(p4, p4_census):
    t0 = time.perf_counter()
    bad = []

    def eq(tag, x, y):
        if abs(x - y) > TOL:
            bad.append(f"{tag}: {x!r} != {y!r}")

    rep = itt_report(p4, 1)
    eq("delta", main_effect(p4, 1), 1.0)
    eq("rho", constant_complier_share(p4, 1), 0.5)
    eq("gamma(+1)", rep.gamma[(1,)], 0.75)
    eq("gamma(-1)", rep.gamma[(-1,)], 0.5)
    adj = adjusted_bounds(p4, 1, (-1,))
    eq("adj raw lo", adj.raw_lower, 1.0)
    eq("adj raw hi", adj.raw_upper, 2.25)
    eq("adj lo", adj.lower, 1.0)
    eq("adj hi", adj.upper, 1.0)
    exc = exclusion_bounds(p4, 1, (-1,))
    eq("exc raw lo", exc.raw_lower, 1.0)
    eq("exc raw hi", exc.raw_upper, 1.5)
    eq("exc lo", exc.lower, 1.0)
    eq("exc hi", exc.upper, 1.0)
    sim = simple_bounds(p4, 1, (-1,))
    eq("sim lo", sim.lower, 0.25)
    eq("sim hi", sim.upper, 1.0)
    for method, ref in (("adjusted", adj), ("simple", sim), ("exclusion", exc)):
        hat = est.estimate_bounds(p4_census, 1, method)
        eq(f"census {method} center", hat.center, ref.center)
        eq(f"census {method} raw lo", hat.raw_lower, ref.raw_lower)
        eq(f"census {method} raw hi", hat.raw_upper, ref.raw_upper)
        eq(f"census {method} lo", hat.clipped_lower, ref.lower)
        eq(f"census {method} hi", hat.clipped_upper, ref.upper)
    eq("census wald", est.wald_reference(p4_census, 1).point, wald_ratio(p4, 1))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(
        "criterion 1: fixture exactness at 1e-12, census estimators included, <1s",
        ok,
        f"{'; '.join(bad) if bad else '35 equalities hold'}, {elapsed * 1e3:.0f}ms",
    )


def test_criterion_02_oracle_coverage_sweep(sweep):
    counts = dict(sweep["pops"])
    ok = (
        sweep["cover_bad"] == 0
        and all(counts.get(K, 0) >= 1000 for K in (1, 2, 3))
        and sweep["max_n"] <= 50
        and sweep["elapsed"] < 120.0
    )
    _report(
        "criterion 2: 100% oracle coverage over >=1000 populations per K in {1,2,3}, <2min",
        ok,
        f"{sweep['checks']} interval checks, {sweep['cover_bad']} misses, "
        f"pops per K {counts}, max N {sweep['max_n']}, {sweep['elapsed']:.1f}s",
    )


def test_criterion_03_nesting_and_conservative_containment(sweep):
    ok = sweep["nest_bad"] == 0 and sweep["cons_bad"] == 0
    _report(
        "criterion 3: pre-clipping width nesting and conservative containment, zero tolerance",
        ok,
        f"{sweep['nest']} nesting triples ({sweep['nest_bad']} bad), "
        f"{sweep['cons']} containment checks ({sweep['cons_bad']} bad)",
    )


def test_criterion_04_itt_decomposition_identity(sweep):
    ok = sweep["itt_bad"] == 0
    _report(
        "criterion 4: ITT decomposition components sum to gamma at 1e-12",
        ok,
        f"{sweep['itt']} (population, context) identities, {sweep['itt_bad']} over tolerance",
    )


def test_criterion_05_k1_reduction_to_wald():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        pop = assumption_population(rng, 1, int(rng.integers(2, 41)), upgrade_factors=())
        iv = exclusion_bounds(pop, 1, ())
        worst = max(
            worst,
            abs(iv.center - wald_ratio(pop, 1)),
            abs(iv.half_width_lower),
            abs(iv.half_width_upper),
        )
    ok = worst <= TOL
    _report(
        "criterion 5: K=1 interval collapses to the Wald ratio on 100 populations",
        ok,
        f"worst |center - wald| / half-width = {worst:.2e}",
    )


def test_criterion_06_clone_scaling_convergence():
    config = load_scenario(SCENARIOS / "clone_scaling.json")
    t0 = time.perf_counter()
    p95 = {}
    err_mean = {}
    labels = None
    all_ok = True
    for factor in (10, 100, 1000):
        rep = monte_carlo(dataclasses.replace(config, clone_factor=factor), R=200)
        labels = [t.label for t in rep.targets]
        for t in rep.targets:
            all_ok &= t.n_ok == 200 and t.n_oracle == 200
            p95[(factor, t.label)] = t.endpoint_err_p95
            err_mean[(factor, t.label)] = t.endpoint_err_mean
    elapsed = time.perf_counter() - t0
    shrinks = all(
        err_mean[(10, lbl)] > err_mean[(100, lbl)] > err_mean[(1000, lbl)] for lbl in labels
    )
    tail = {lbl: p95[(1000, lbl)] for lbl in labels}
    ok = all_ok and shrinks and all(v < 0.02 for v in tail.values()) and elapsed < 300.0
    _report(
        "criterion 6: clone 10/100/1000 scaling, endpoint error <0.02 in >=95% at 1000, <5min",
        ok,
        f"p95 at clone 1000 {tail}, mean err shrinks {shrinks}, {elapsed:.1f}s",
    )


def _fd_gradient(fn, m):
    g = np.empty_like(m)
    for i in range(m.size):
        h = 1e-6 * max(1.0, abs(m[i]))
        up = m.copy()
        dn = m.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn.value(up) - fn.value(dn)) / (2.0 * h)
    return g


def test_criterion_07_se_gradients_and_mc_calibration(separated_mc):
    report, mc_elapsed = separated_mc
    t0 = time.perf_counter()
    d2 = enumerate_assignments(2)
    families = (
        est.endpoint_functions(d2, 1, "adjusted", profile_index=0),
        est.endpoint_functions(d2, 1, "simple", profile_index=0),
        est.endpoint_functions(d2, 1, "exclusion", profile_index=1),
        est.endpoint_functions(d2, 1, "interaction:1+2", profile_index=0),
        est.endpoint_functions(d2, 1, "joint:2", profile_index=0),
        est.endpoint_functions(d2, 1, "exclusion", t_value=0.4),
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        fam = families[i % len(families)]
        fn = est.LinearFractional(fam.a[i % 3], fam.a0[i % 3], fam.b, fam.b0)
        while True:
            m = rng.uniform(-1.0, 1.0, size=fam.b.size)
            if abs(fn.denominator(m)) >= 0.3:
                break
        fd = _fd_gradient(fn, m)
        rel = np.linalg.norm(fn.gradient(m) - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    fd_elapsed = time.perf_counter() - t0
    ratios = {}
    for t in report.targets:
        ratios[t.label] = (
            t.sd_lower / t.mean_se_lower,
            t.sd_upper / t.mean_se_upper,
        )
    calibrated = all(abs(r - 1.0) <= 0.15 for pair in ratios.values() for r in pair)
    ok = worst < 1e-4 and calibrated and (fd_elapsed + mc_elapsed) < 300.0
    _report(
        "criterion 7: FD-vs-analytic gradients <1e-4 on 100 vectors; MC SD within 15% of mean SE, <5min",
        ok,
        f"worst gradient rel err {worst:.2e}, sd/se ratios "
        + ", ".join(f"{k} ({a:.3f}, {b:.3f})" for k, (a, b) in ratios.items())
        + f", {fd_elapsed + mc_elapsed:.1f}s",
    )


def test_criterion_08_imbens_manski_calibration(separated_mc):
    report, mc_elapsed = separated_mc
    c_point = est.im_critical_value(100.0, 0.05)
    c_wide = est.im_critical_value(0.0, 0.05)
    cov = {t.label: t.coverage_ci for t in report.targets}
    ok = (
        abs(c_point - 1.645) <= 1e-3
        and abs(c_wide - 1.960) <= 1e-3
        and all(t.n_ok == 2000 for t in report.targets)
        and all(v >= 0.93 for v in cov.values())
        and mc_elapsed < 600.0
    )
    _report(
        "criterion 8: IM critical-value limits 1.645/1.960 (1e-3); CI coverage >=0.93 at N=2000, <10min",
        ok,
        f"C(inf)={c_point:.4f}, C(0)={c_wide:.4f}, coverage {cov}, {mc_elapsed:.1f}s",
    )


def test_criterion_09_compliance_width_contrast():
    config = load_scenario(SCENARIOS / "appc_like.json")
    report = monte_carlo(config, R=500)
    by_factor = {t.target.factor: t for t in report.targets}
    lo_c, hi_c = by_factor[1], by_factor[2]

    def excludes_zero(t):
        return t.mean_lower > 0.0 or t.mean_upper < 0.0

    ok = (
        lo_c.n_ok == 500
        and hi_c.n_ok == 500
        and lo_c.mean_width > hi_c.mean_width
        and lo_c.mean_raw_width > hi_c.mean_raw_width
        and excludes_zero(lo_c)
        and excludes_zero(hi_c)
    )
    _report(
        "criterion 9: 0.63-compliance factor yields wider mean bounds than 0.98; neither interval spans 0",
        ok,
        f"widths {lo_c.mean_width:.4f} > {hi_c.mean_width:.4f}, mean intervals "
        f"({lo_c.mean_lower:.4f}, {lo_c.mean_upper:.4f}) and "
        f"({hi_c.mean_lower:.4f}, {hi_c.mean_upper:.4f})",
    )


def test_criterion_10_simulate_determinism(tmp_path):
    scenario = SCENARIOS / "appc_like.json"
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        rc = cli_main(
            ["simulate", str(scenario), "-R", "5", "--seed", "424242", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(
        "criterion 10: fixed-seed simulate reports are byte-identical across runs",
        ok,
        f"{len(outs[0])} bytes each",
    )
