import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbounds.data import ObservedDataset
from factorbounds.design import context_arms, contexts_for, enumerate_assignments
from factorbounds.errors import (
    InsufficientDataError,
    InvalidFactorError,
    InvalidInputError,
    WeakFirstStageError,
)
from factorbounds import estimate
from factorbounds.estimate import (
    _arm_moments,
    _se_from_gradient,
    endpoint_functions,
    estimate_bounds,
    im_critical_value,
    imbens_manski_ci,
    parse_method,
    parse_profile,
    wald_reference,
)
from factorbounds.oracle import (
    adjusted_bounds,
    exclusion_bounds,
    interaction_bounds,
    joint_bounds,
    method_interval,
    simple_bounds,
)
from factorbounds.population import check_least_compliant_profile
from factorbounds.simulate import census_dataset

from conftest import assumption_population, count_computations, nu_hat_table, random_population

TOL = 1e-12

Z975 = 1.9599639845141488
Z95 = 1.6448536269773764


def small_dataset(rng, K=1, per_arm=6):
    design = enumerate_assignments(K)
    J = design.J
    arm = np.repeat(np.arange(J, dtype=np.intp), per_arm)
    uptake = rng.choice(np.array([-1, 1], dtype=np.int8), size=(J * per_arm, K))
    outcome = rng.random(J * per_arm)
    return ObservedDataset(design=design, arm=arm, uptake=uptake, outcome=outcome)


# ------------------------------------------------------------- summaries


def test_summarize_needs_two_rows_per_arm():
    design = enumerate_assignments(1)
    data = ObservedDataset(
        design=design,
        arm=np.array([0, 0, 1], dtype=np.intp),
        uptake=np.array([[-1], [-1], [1]], dtype=np.int8),
        outcome=np.array([0.1, 0.2, 0.3]),
    )
    for _ in range(2):  # the check runs on every call, not only the first
        with pytest.raises(InsufficientDataError, match=r"\(1,\)"):
            estimate_bounds(data, 1, "exclusion")


def test_moments_built_without_sorting(p4_census, monkeypatch):
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    estimate_bounds(p4_census, 1, "exclusion")
    estimate_bounds(p4_census, 2, "adjusted")
    estimate_bounds(p4_census, 1, "joint:2")
    wald_reference(p4_census, 1)
    nu_hat_table(p4_census, 2)
    assert sorts == []


def test_arm_moments_built_once_and_read_only(p4_census):
    estimate_bounds(p4_census, 1, "exclusion")
    means, cov = _arm_moments(p4_census, 1, None, 1)
    wald_reference(p4_census, 1)
    estimate_bounds(p4_census, 1, "adjusted")
    assert _arm_moments(p4_census, 1, None, 1)[0] is means
    assert means.shape == (1, 4, 3) and cov.shape == (1, 4, 3, 3)
    for arr in (means, cov):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0.5


def test_analyze_loop_builds_each_layout_once(monkeypatch):
    # K=5, every arm with 8 rows, uptake following assignment except ~10% flips
    rng = np.random.default_rng(5)
    design = enumerate_assignments(5)
    arm = np.repeat(np.arange(design.J), 8)
    flip = rng.random((arm.size, 5)) < 0.1
    uptake = np.where(flip, -1, 1) * design.levels[arm]
    data = ObservedDataset(design=design, arm=arm, uptake=uptake, outcome=rng.random(arm.size))
    builds = count_computations(monkeypatch, estimate._arm_moments)
    for k in range(1, 6):
        for method in ("adjusted", "simple", "exclusion"):
            estimate_bounds(data, k, method)
        wald_reference(data, k)
    # every layout of a factor reads the one build of that factor
    assert builds == [(k, None, 1) for k in range(1, 6)]
    estimate_bounds(data, 1, "joint:2")
    estimate_bounds(data, 1, "joint:2", profile="declared:-1,-1,-1")
    assert builds[5:] == [(1, 2, 1)]


def test_nu_hat_and_min_profile(p4_census):
    contexts, nu = nu_hat_table(p4_census, 1)
    assert contexts == ((-1,), (1,))
    assert np.allclose(nu, [0.5, 0.75], atol=TOL)
    est = estimate_bounds(p4_census, 1, "exclusion")
    assert est.profile_context == (-1,) and est.nu_hat[0] == 0.5
    # exact tie: full compliance makes every context equal; first index wins
    est2 = estimate_bounds(p4_census, 2, "exclusion")
    assert est2.profile_context == (-1,) and est2.nu_hat == (1.0, 1.0)


# --------------------------------------------------------------- grammar


def test_parse_method():
    assert parse_method("adjusted") == ("adjusted", ())
    assert parse_method("interaction:2+1") == ("interaction", (1, 2))
    assert parse_method("joint:3") == ("joint", (3,))
    for bad in ("prop1", "interaction:1", "interaction:a+b", "joint:x", ""):
        with pytest.raises(InvalidInputError):
            parse_method(bad)


def test_parse_profile():
    assert parse_profile("min", 2) == ("min", None)
    assert parse_profile("declared:-1,1", 2) == ("declared", (-1, 1))
    assert parse_profile("declared:", 0) == ("declared", ())
    for bad in ("declared:-1", "declared:0,1", "smallest"):
        with pytest.raises(InvalidInputError):
            parse_profile(bad, 2)


@pytest.mark.parametrize("profile", [(0,), (1, -1), (), 5, None, (True,), (1.0,), ["1"]])
@pytest.mark.parametrize("caller", ["method_interval", "estimate_bounds"])
def test_a_declared_sequence_profile_is_checked_as_a_string_one(p4, p4_census, caller, profile):
    # one level in -1/+1, an integer and not a boolean, or the string profile's refusal, from either caller
    ask = {
        "method_interval": lambda levels: method_interval(p4, 1, "exclusion", levels),
        "estimate_bounds": lambda levels: estimate_bounds(p4_census, 1, "exclusion", profile=levels),
    }[caller]
    with pytest.raises(InvalidInputError, match=re.escape(f"declared profile {profile!r} must list 1 levels in -1/+1")):
        ask(profile)
    assert ask([-1]) == ask(np.array([-1])) == ask((-1,)) == ask("declared:-1")


# ------------------------------------------------------ census equalities


def test_census_matches_oracle_main_methods(p4, p4_census):
    pairs = [
        ("adjusted", adjusted_bounds),
        ("simple", simple_bounds),
        ("exclusion", exclusion_bounds),
    ]
    for method, fn in pairs:
        est = estimate_bounds(p4_census, 1, method)
        ref = fn(p4, 1, (-1,))
        assert est.profile_context == (-1,)
        assert abs(est.center - ref.center) < TOL
        assert abs(est.raw_lower - ref.raw_lower) < TOL
        assert abs(est.raw_upper - ref.raw_upper) < TOL
        assert abs(est.clipped_lower - ref.lower) < TOL
        assert abs(est.clipped_upper - ref.upper) < TOL


def test_census_matches_oracle_interaction(p4, p4_census):
    est = estimate_bounds(p4_census, 1, "interaction:1+2")
    ref = interaction_bounds(p4, (1, 2), 1, (-1,))
    assert abs(est.center - ref.center) < TOL
    assert abs(est.raw_lower - ref.raw_lower) < TOL
    assert abs(est.raw_upper - ref.raw_upper) < TOL


def test_census_matches_oracle_joint(k3_joint_pop):
    data = census_dataset(k3_joint_pop)
    est = estimate_bounds(data, 1, "joint:2")
    ref = joint_bounds(k3_joint_pop, 1, 2, (-1,))
    assert est.profile_context == (-1,)
    assert abs(est.center - ref.center) < TOL
    assert abs(est.raw_lower - ref.raw_lower) < TOL
    assert abs(est.raw_upper - ref.raw_upper) < TOL


def test_census_declared_profile(p4, p4_census):
    est = estimate_bounds(p4_census, 1, "exclusion", profile="declared:-1")
    ref = exclusion_bounds(p4, 1, (-1,))
    assert est.profile_policy == "declared"
    assert abs(est.raw_lower - ref.raw_lower) < TOL
    # declaring the wrong profile keeps the faithful (possibly inverted)
    # raw endpoints but orders the clipped ones
    bad = estimate_bounds(p4_census, 1, "exclusion", profile="declared:1")
    assert bad.raw_lower > bad.raw_upper  # nu(+1) > nu at the true profile
    assert bad.clipped_lower <= bad.clipped_upper


def test_census_wald_exact(p4_census):
    w = wald_reference(p4_census, 1)
    assert abs(w.point - 1.0) < TOL
    assert w.se == 0.0  # y = (d+1)/2 row by row, so the ratio is degenerate
    assert "exclusion" in w.label


def test_factor_set_paths_match_the_old_formulas():
    # the one- and two-factor calls of the least-compliant check and the
    # first-stage table against the separate formulas they replaced: the
    # 0/1 single-factor shift, the four-arm joint shift, (d_plus - d_minus)
    # / 2 and (p_pp - p_mp - p_pm + p_mm) / 4, bit for bit
    rng = np.random.default_rng(43)
    found = 0
    for K in (2, 3, 4, 5):
        for make in (random_population, assumption_population) * 2:  # most random ones have no valid context
            pop = make(rng, K, 9)
            data = census_dataset(pop)
            sets = [(k,) for k in range(1, K + 1)] + list(itertools.permutations(range(1, K + 1), 2))
            for ks in sets:
                arms, contexts = context_arms(pop.design, *ks), contexts_for(pop.design, *ks)
                d = pop.uptake[:, :, ks[0] - 1]
                dbar = _arm_moments(data, ks[0], ks[1] if len(ks) == 2 else None, 1)[0][:, :, 1]
                rows = np.moveaxis(dbar[..., arms], -2, 0)
                if len(ks) == 1:
                    on = (d > 0).astype(np.int8)
                    shift = on[:, arms[1]] - on[:, arms[0]]
                    nu = (rows[1] - rows[0]) / 2.0
                else:
                    prod = d * pop.uptake[:, :, ks[1] - 1]
                    p_mm, p_pm, p_mp, p_pp = (prod[:, a] for a in arms)
                    shift = p_pp - p_mp - p_pm + p_mm
                    nu = (rows[3] - rows[2] - rows[1] + rows[0]) / 4.0
                valid = (shift == shift.min(axis=1, keepdims=True)).all(axis=0)
                want = tuple(c for c, ok in zip(contexts, valid) if ok)
                assert check_least_compliant_profile(pop, *ks) == want
                found += bool(want)
                got_contexts, got = estimate._first_stage_table(pop.design, ks, dbar)
                assert got_contexts == tuple(contexts) and got.tobytes() == nu.tobytes(), ks
    assert found > 50


# ----------------------------------------------------------- derivatives


def _random_moment_vector(rng, funcs):
    J = funcs.center.a.size // funcs.p
    m = rng.uniform(-1.0, 1.0, size=funcs.p * J)
    # keep the denominator away from zero so the quotient is smooth
    while abs(funcs.center.denominator(m)) < 0.3:
        m = rng.uniform(-1.0, 1.0, size=funcs.p * J)
    return m


def fd_gradient(f, m, h=1e-6):
    g = np.empty_like(m)
    for i in range(m.size):
        hi = m.copy()
        lo = m.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (f.value(hi) - f.value(lo)) / (2 * h)
    return g


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(97)
    design = enumerate_assignments(2)
    built = [
        endpoint_functions(design, 1, "adjusted", profile_index=0),
        endpoint_functions(design, 1, "simple", profile_index=1),
        endpoint_functions(design, 1, "exclusion", profile_index=0),
        endpoint_functions(design, 1, "interaction:1+2", profile_index=0),
        endpoint_functions(design, 1, "joint:2", profile_index=0),
        endpoint_functions(design, 1, "exclusion", t_value=0.4),
    ]
    worst = 0.0
    for funcs in built:
        for f in (funcs.center, funcs.lower, funcs.upper):
            for _ in range(8):
                m = _random_moment_vector(rng, funcs)
                g = f.gradient(m)
                fd = fd_gradient(f, m)
                err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
                worst = max(worst, err)
    assert worst < 1e-8


# (K, k, method, profile_index or t_value) -> center, lower and upper values
# as float.hex at _pinned_moments(K), and a digest of their gradients
ENDPOINT_PINS = {
    (2, 1, "adjusted", 0): ("-0x1.4e14715dccbfep+1", "-0x1.2a43df2c7ed52p+2", "0x1.1b7fa83b134d6p+0", "ade79f51e8a66c35"),
    (2, 1, "adjusted", 1): ("0x1.4345d4b772187p+1", "0x1.9e8bd978483cdp+2", "-0x1.8505f4d2ee807p+1", "15e5dc9f2e6886d5"),
    (2, 1, "simple", 0): ("-0x1.557cf8a97aac6p+1", "-0x1.2e7a10e6777e8p+3", "0x1.077729237450ap+2", "3b9f3efc63c469ad"),
    (2, 1, "simple", 1): ("0x1.4a71024fa5cf3p+1", "0x1.63a82aadf39b0p+3", "-0x1.7cdf530c4166cp+2", "c18c843347138655"),
    (2, 1, "exclusion", 0): ("-0x1.557cf8a97aac6p+1", "-0x1.a6b2805f3d5fap+0", "-0x1.d7a0b12356a8fp+1", "30cf65d6eccc63a6"),
    (2, 1, "exclusion", 1): ("0x1.4a71024fa5cf3p+1", "0x1.c85f01aafc2cdp+1", "0x1.990605e89ee2fp+0", "f178e924b86d2af8"),
    (2, 1, "interaction:1+2", 0): ("-0x1.7a3c30bfc99bdp+1", "-0x1.f030f08bdb3e7p+0", "-0x1.fc5fe939a5985p+1", "584833f1d8ba791c"),
    (2, 1, "interaction:1+2", 1): ("0x1.6dffea7ef09b1p+1", "0x1.ebede9da46f8bp+1", "0x1.e023d647347abp+0", "2f22fbf7daac7bbf"),
    (2, 1, "joint:2", 0): ("0x1.74044e31472f8p+1", "0x1.74044e31472f8p+1", "0x1.74044e31472f8p+1", "f8e53d8bbd19f17d"),
    (2, 1, "exclusion", 0.4): ("-0x1.b6acfb033a1efp-1", "0x1.304a7c4b6f633p-3", "-0x1.dcb64a8ca80b6p+0", "85f5e515912c0efa"),
    (3, 2, "adjusted", 0): ("-0x1.ee37f7c41d013p-1", "0x1.edea5179e0eb4p+0", "-0x1.c279109706db0p+1", "ef024857a77f1305"),
    (3, 2, "adjusted", 1): ("0x1.a4fe92ebb797bp-1", "0x1.aaad3f66c23f6p-3", "0x1.2563c015c82d3p+0", "f9fcb492e2eac7a8"),
    (3, 2, "adjusted", 2): ("0x1.142db0acfe582p+0", "-0x1.3ce4b141964b3p-5", "0x1.d0d0b27a1e435p+0", "dcd4e758ab208441"),
    (3, 2, "adjusted", 3): ("0x1.cb4797c541e64p-1", "0x1.173bcece0d9ccp-3", "0x1.5759e455d3542p+0", "3c8721acb8841cd0"),
    (3, 2, "simple", 0): ("-0x1.b51c4f92b7f3dp-1", "0x1.87855ae09645ap+1", "-0x1.3109c154f91fcp+2", "5e178a5c4d662605"),
    (3, 2, "simple", 1): ("0x1.7458fce57e3b6p-1", "-0x1.81e8b4a139d4ap-1", "0x1.1aa6ab9b0d92ep+1", "ed7cf0d297d01fac"),
    (3, 2, "simple", 2): ("0x1.e887e9a378618p-1", "-0x1.4d0a983c42c5fp+0", "0x1.9ac940efdd93cp+1", "f67c565b3c7dedf3"),
    (3, 2, "simple", 3): ("0x1.96357a5124735p-1", "-0x1.d39099a60dbc3p-1", "0x1.3ffee39215a8cp+1", "ae22a2555aac2d3b"),
    (3, 2, "exclusion", 0): ("-0x1.b51c4f92b7f3dp-1", "0x1.5d6adaa814443p-1", "-0x1.31e8de73610b0p+1", "ca320b3c9e379dee"),
    (3, 2, "exclusion", 1): ("0x1.7458fce57e3b6p-1", "0x1.453f3f0d2b407p+0", "0x1.78cdeec297d72p-3", "a0c76ce530733358"),
    (3, 2, "exclusion", 2): ("0x1.e887e9a378618p-1", "0x1.5adaa9db9031fp+0", "0x1.1b5a7f8fd05f2p-1", "200336642dc444ce"),
    (3, 2, "exclusion", 3): ("0x1.96357a5124735p-1", "0x1.4b8b5ca819b11p+0", "0x1.2aa876a42b092p-2", "814084dd6818a144"),
    (3, 2, "interaction:1+2+3", 0): ("0x1.ad84dc9faf4f9p-3", "0x1.bef430b15c05fp+0", "-0x1.5392f98970321p+0", "346c21170b4487fd"),
    (3, 2, "interaction:1+2+3", 1): ("-0x1.6de17bb74dc0cp-3", "0x1.755a448e09aacp-2", "-0x1.719de022abb5dp-1", "581843dadd357653"),
    (3, 2, "interaction:1+2+3", 2): ("-0x1.e00bd7a61f414p-3", "0x1.54a9d0a880c84p-3", "-0x1.45305ffd2fd2bp-1", "7cfb03b929cf0d53"),
    (3, 2, "interaction:1+2+3", 3): ("-0x1.8f276beece9dcp-3", "0x1.3a2ec806b68eap-2", "-0x1.64ab19fac2962p-1", "7231ba34fbec7042"),
    (3, 2, "joint:3", 0): ("-0x1.759cee06170eep-1", "-0x1.a190bd1915ebbp-3", "-0x1.416ad662f4517p+0", "c6fd944caf08e855"),
    (3, 2, "joint:3", 1): ("0x1.c41f519413b0dp+3", "0x1.84f56093ad08ep+4", "0x1.f94f8803353fep+1", "7c4b95fabd50d62e"),
    (3, 2, "exclusion", 0.4): ("0x1.7734237cf7b39p-1", "0x1.45c738b3326a5p+0", "0x1.8b67564e2a4a2p-3", "1fd946f7485ca052"),
}


@pytest.mark.parametrize("method", ["exclusion", "simple", "joint:2"])
def test_endpoint_maps_need_exactly_one_of_profile_and_t_value(method):
    design = enumerate_assignments(3)
    for option in ({}, {"profile_index": 0, "t_value": 0.4}):
        with pytest.raises(InvalidInputError, match="exactly one of profile_index and t_value"):
            endpoint_functions(design, 1, method, **option)


def _pinned_moments(K):
    """A seeded (J, 3) table of arm moments: y, d and t means."""
    J = 2**K
    rng = np.random.default_rng(K)
    return np.column_stack([rng.random(J), rng.uniform(-1.0, 1.0, J), rng.random(J) / 2])


def _hex_digest(arrays):
    text = " ".join(float.hex(float(v)) for a in arrays for v in a)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_endpoint_maps_pinned_bit_for_bit():
    drifted = []
    for (K, k, method, arg), want in ENDPOINT_PINS.items():
        option = {"t_value": arg} if isinstance(arg, float) else {"profile_index": arg}
        funcs = endpoint_functions(enumerate_assignments(K), k, method, **option)
        m = _pinned_moments(K)[:, : funcs.p].ravel()
        maps = (funcs.center, funcs.lower, funcs.upper)
        got = tuple(f.value(m).hex() for f in maps) + (_hex_digest(f.gradient(m) for f in maps),)
        if got != want:
            drifted.append(((K, k, method, arg), got))
    assert drifted == []


def test_duplicating_rows_scales_ses_by_sqrt2(p4_census):
    doubled = ObservedDataset(
        design=p4_census.design,
        arm=np.concatenate([p4_census.arm, p4_census.arm]),
        uptake=np.concatenate([p4_census.uptake, p4_census.uptake]),
        outcome=np.concatenate([p4_census.outcome, p4_census.outcome]),
    )
    saw_positive = 0
    for method in ("adjusted", "simple", "exclusion", "interaction:1+2", "joint:2"):
        a = estimate_bounds(p4_census, 1, method)
        b = estimate_bounds(doubled, 1, method)
        assert abs(a.raw_lower - b.raw_lower) < TOL
        assert abs(a.raw_upper - b.raw_upper) < TOL
        # a zero SE (degenerate endpoint, e.g. adjusted lower on this
        # fixture where y tracks d exactly) must stay zero
        for sa, sb in ((a.se_lower, b.se_lower), (a.se_upper, b.se_upper)):
            assert abs(sb - sa / math.sqrt(2.0)) <= 1e-9 * max(sa, 1e-12)
            saw_positive += sa > 0.0
    assert saw_positive >= 5


def test_k1_exclusion_is_wald_with_zero_half_width():
    rng = np.random.default_rng(19)
    for _ in range(20):
        data = small_dataset(rng, K=1, per_arm=8)
        _, nu = nu_hat_table(data, 1)
        if nu[0] <= 0:
            continue
        est = estimate_bounds(data, 1, "exclusion")
        w = wald_reference(data, 1)
        assert abs(est.half_width_lower) < TOL and abs(est.half_width_upper) < TOL
        assert abs(est.center - w.point) < TOL
        assert abs(est.se_lower - w.se) < TOL
        assert abs(est.se_upper - w.se) < TOL


def test_k1_wald_se_matches_two_arm_formula():
    rng = np.random.default_rng(43)
    data = small_dataset(rng, K=1, per_arm=12)
    _, nu = nu_hat_table(data, 1)
    assert nu[0] != 0
    w = wald_reference(data, 1)
    theta = w.point
    var = 0.0
    for j, sign in ((0, -1.0), (1, 1.0)):
        mask = data.arm == j
        n = int(mask.sum())
        y = data.outcome[mask]
        d = data.uptake[mask, 0].astype(float)
        vy = y.var()  # central moment over n
        vd = d.var()
        cyd = ((y - y.mean()) * (d - d.mean())).mean()
        # endpoint = (ybar1 - ybar0) / nu with nu = (dbar1 - dbar0)/2
        var += (vy - theta * cyd + 0.25 * theta * theta * vd) / (nu[0] ** 2 * n)
    assert abs(w.se - math.sqrt(var)) < 1e-12


# -------------------------------------------------- Imbens-Manski intervals


def test_im_critical_value_limits():
    assert abs(im_critical_value(0.0, 0.05) - Z975) < 1e-8
    assert abs(im_critical_value(100.0, 0.05) - Z95) < 1e-6
    assert abs(im_critical_value(0.0, 0.10) - 1.6448536269773764) < 1e-8


def test_im_critical_value_monotone_and_consistent():
    from statistics import NormalDist

    nd = NormalDist()
    prev = None
    for w in (0.0, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0):
        c = im_critical_value(w, 0.05)
        if prev is not None:
            assert c <= prev + 1e-12
        prev = c
        gap = nd.cdf(c + w) - nd.cdf(-c) - 0.95
        assert abs(gap) < 1e-8
    with pytest.raises(InvalidInputError):
        im_critical_value(-0.5, 0.05)
    with pytest.raises(InvalidInputError):
        im_critical_value(1.0, 0.0)


def test_ci_contains_raw_interval(p4_census):
    est = estimate_bounds(p4_census, 1, "exclusion")
    ci = imbens_manski_ci(est, alpha=0.05)
    assert ci.level == 0.95
    assert ci.lower <= max(-1.0, est.raw_lower) + TOL
    assert ci.upper >= min(1.0, est.raw_upper) - TOL
    assert -1.0 <= ci.lower <= ci.upper <= 1.0
    assert Z95 - 1e-6 <= ci.critical_value <= Z975 + 1e-6


def test_ci_zero_se_path(p4_census):
    est = estimate_bounds(p4_census, 1, "exclusion")
    ci = imbens_manski_ci(dataclasses.replace(est, se_lower=0.0, se_upper=0.0))
    assert ci.lower == max(-1.0, est.raw_lower)
    assert ci.upper == min(1.0, est.raw_upper)
    assert abs(ci.critical_value - Z95) < 1e-9
    with pytest.raises(InvalidInputError):
        imbens_manski_ci(dataclasses.replace(est, se_lower=-0.1, se_upper=0.1))
    with pytest.raises(InvalidInputError):
        imbens_manski_ci(est, alpha=1.5)


# ------------------------------------------------------------ profile policy


def test_min_policy_is_widest_per_draw():
    # the plug-in share at the estimated minimum is weakly below the value
    # at any declared context, so the interval can only widen
    from factorbounds.simulate import (
        complete_randomization,
        generate_population,
        load_scenario,
        observe,
    )
    import pathlib

    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "well_separated.json")
    for rep in range(5):
        pop = generate_population(config, rep=rep)
        alloc = complete_randomization(config.N, config.resolved_arm_sizes(), 1000 + rep)
        data = observe(pop, alloc)
        est_min = estimate_bounds(data, 1, "exclusion", profile="min")
        est_dec = estimate_bounds(data, 1, "exclusion", profile="declared:-1")
        width_min = est_min.raw_upper - est_min.raw_lower
        width_dec = est_dec.raw_upper - est_dec.raw_lower
        assert width_min >= width_dec - TOL


def test_weak_first_stage_raises():
    design = enumerate_assignments(1)
    data = ObservedDataset(
        design=design,
        arm=np.array([0, 0, 1, 1], dtype=np.intp),
        uptake=np.array([[-1], [-1], [-1], [-1]], dtype=np.int8),
        outcome=np.array([0.2, 0.4, 0.6, 0.8]),
    )
    with pytest.raises(WeakFirstStageError, match="table"):
        estimate_bounds(data, 1, "simple")


def test_estimate_validates_factors(p4_census):
    with pytest.raises(InvalidFactorError):
        estimate_bounds(p4_census, 3, "simple")
    with pytest.raises(InvalidFactorError):
        estimate_bounds(p4_census, 1, "interaction:2+3")
    with pytest.raises(InvalidFactorError, match=r"^joint contexts need two distinct factors, got 1 twice$"):
        estimate_bounds(p4_census, 1, "joint:1")  # the oracle's wording for the same pair


def test_to_dict_field_contract(p4_census):
    est = estimate_bounds(p4_census, 1, "adjusted")
    ci = imbens_manski_ci(est)
    d = est.with_ci(ci).to_dict()
    assert set(d) == {
        "method", "factor", "contexts", "nu_hat", "center",
        "half_width_lower", "half_width_upper", "raw_lower", "raw_upper",
        "clipped_lower", "clipped_upper", "se_lower", "se_upper",
        "ci_level", "ci_lower", "ci_upper", "profile_policy", "profile_context",
    }
    assert d["ci_level"] == 0.95
    assert d["profile_context"] == [-1]


def test_moment_layout_mean_t_identity(p4_census):
    # sums run over the rows in their original order, so per-arm values
    # equal the masked ones exactly on shuffled data too
    perm = np.random.default_rng(3).permutation(p4_census.n)
    data = ObservedDataset(
        design=p4_census.design,
        arm=p4_census.arm[perm],
        uptake=p4_census.uptake[perm],
        outcome=p4_census.outcome[perm],
    )
    # the auxiliary column equals the observable noncomplier outcome mass:
    # nonzero only where uptake disagrees with the assignment sign
    (means,), (cov,) = _arm_moments(data, 1, None, 1)
    design = data.design
    for j in range(design.J):
        mask = data.arm == j
        y, d = data.outcome[mask], data.uptake[mask]
        z = design.assignment(j)
        want = (y * (d[:, 0] == (-1 if z[0] == 1 else 1))).mean()
        assert abs(means[j, 2] - want) < TOL
        assert np.array_equal(means[j, :2], np.column_stack([y, d[:, 0]]).mean(axis=0))
    assert cov.shape == (design.J, 3, 3)


def _reference_columns(data, k, k2):
    """The row columns of a layout, built directly from their definition."""
    y = data.outcome
    dk = data.uptake[:, k - 1].astype(np.float64)
    if k2 is not None:
        return [y, dk * data.uptake[:, k2 - 1]]
    z = data.design.levels[data.arm, k - 1]
    return [y, dk, y * (dk == -z)]


@given(
    K=st.integers(min_value=1, max_value=4),
    max_rows=st.integers(min_value=2, max_value=12),
    binary=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_arm_moments_match_masked_reference(K, max_rows, binary, seed):
    # every arm holds 2..max_rows rows in shuffled order; 0/1 or fractional y
    rng = np.random.default_rng(seed)
    design = enumerate_assignments(K)
    arm = rng.permutation(np.repeat(np.arange(design.J), rng.integers(2, max_rows + 1, design.J)))
    uptake = rng.choice(np.array([-1, 1], dtype=np.int8), size=(arm.size, K))
    outcome = rng.integers(0, 2, arm.size).astype(np.float64) if binary else rng.random(arm.size)
    data = ObservedDataset(design=design, arm=arm, uptake=uptake, outcome=outcome)
    builds = [(k, None, p) for k in range(1, K + 1) for p in (2, 3)]  # 'yd', 'ydt'
    builds += [(k, k2, 2) for k in range(1, K + 1) for k2 in range(1, K + 1) if k2 != k]  # 'yp'
    for k, k2, p in builds:
        (means,), (cov,) = _arm_moments(data, k, k2, 1)
        V = np.column_stack(_reference_columns(data, k, k2)[:p])
        blocks = []
        for j in range(design.J):
            rows = V[arm == j]
            assert np.array_equal(means[j, :p], rows.mean(axis=0))
            c = rows - rows.mean(axis=0)
            n = rows.shape[0]
            blocks.append((c.T @ c) / n / n)
            scale = (np.abs(c).T @ np.abs(c)) / n / n  # what the sums' rounding scales with
            assert np.all(np.abs(cov[j, :p, :p] - blocks[-1]) <= 1e-13 * scale)
        grad = rng.uniform(-3.0, 3.0, design.J * p)
        loop = 0.0  # reference: g_j' C_j g_j summed block by block
        for j, C in enumerate(blocks):
            gj = grad[p * j : p * (j + 1)]
            loop += float(gj @ C @ gj)
        assert abs(_se_from_gradient(grad, cov[:, :p, :p]) - math.sqrt(max(loop, 0.0))) <= 1e-12
