import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbounds.design import enumerate_assignments
from factorbounds.estimate import (
    _arm_moments,
    endpoint_functions,
    estimate_bounds,
)
from factorbounds import oracle
from factorbounds import population as popmod
from factorbounds.errors import (
    AssumptionViolationError,
    FactorBoundsError,
    InvalidFactorError,
    InvalidInputError,
    InvalidShareError,
    NoCompliersError,
)
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
    method_interval,
    method_truth,
    simple_bounds,
)
from factorbounds.population import Population, check_least_compliant_profile, group_shares
from factorbounds.simulate import (
    FactorSpec,
    ScenarioConfig,
    TargetSpec,
    census_dataset,
    generate_population,
    monte_carlo,
)

from conftest import (
    arm_outcome_means,
    arm_uptake_means,
    assumption_population,
    clone,
    constant_complier_share,
    count_computations,
    fixture_p4,
    random_population,
    wald_ratio,
)

TOL = 1e-12


# ---------------------------------------------------------------- P4 values


def test_p4_itt_and_first_stage(p4):
    rep = itt_report(p4, 1)
    assert rep.gamma[(-1,)] == 0.5
    assert rep.gamma[(1,)] == 0.75
    assert rep.nu[(-1,)] == 0.5
    assert rep.nu[(1,)] == 0.75
    assert rep.nu_minus[(-1,)] == 0.0 and rep.nu_minus[(1,)] == 0.0
    for ctx in rep.contexts:
        assert abs(sum(rep.components[ctx]) - rep.gamma[ctx]) < TOL


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_itt_report_sums_each_context_over_its_arm_pair_bit_for_bit(K):
    # a context's contrast is the difference of its two arms' outcome
    # columns, found by their assignments, summed over all units and over
    # each compliance group's, bit for bit
    pop = assumption_population(np.random.default_rng(60 + K), K, 37, upgrade_factors=tuple(range(1, K + 1)))
    for k in range(1, K + 1):
        rep, complies = itt_report(pop, k), popmod.classify(pop, k) == popmod.COMPLIER
        constant = complies.all(axis=0)
        for ctx, here in zip(rep.contexts, complies):
            j_minus, j_plus = (pop.design.index((*ctx[: k - 1], z, *ctx[k - 1 :])) for z in (-1, 1))
            diff = pop.outcome[:, j_plus] - pop.outcome[:, j_minus]
            assert rep.gamma[ctx] == float(diff.sum()) / pop.N
            parts = tuple(float(diff[mask].sum()) / pop.N for mask in (constant, here & ~constant, ~here))
            assert rep.components[ctx] == parts


def test_p4_truth_and_shares(p4):
    assert main_effect(p4, 1) == 1.0
    assert constant_complier_share(p4, 1) == 0.5
    assert check_least_compliant_profile(p4, 1) == ((-1,),)


def test_p4_adjusted(p4):
    iv = adjusted_bounds(p4, 1, (-1,))
    assert abs(iv.center - 1.25) < TOL
    assert abs(iv.raw_lower - 1.0) < TOL
    assert abs(iv.raw_upper - 2.25) < TOL
    assert iv.lower == 1.0 and iv.upper == 1.0
    assert iv.upper_clipped and not iv.lower_clipped


def test_p4_simple(p4):
    iv = simple_bounds(p4, 1, (-1,))
    assert abs(iv.center - 1.25) < TOL
    assert abs(iv.raw_lower - 0.25) < TOL
    assert abs(iv.raw_upper - 2.25) < TOL
    assert iv.lower == 0.25 and iv.upper == 1.0


def test_p4_exclusion(p4):
    iv = exclusion_bounds(p4, 1, (-1,))
    assert abs(iv.center - 1.25) < TOL
    assert abs(iv.half_width_lower - 0.25) < TOL
    assert abs(iv.raw_lower - 1.0) < TOL and abs(iv.raw_upper - 1.5) < TOL
    assert iv.lower == 1.0 and iv.upper == 1.0


def test_p4_interaction(p4):
    iv = interaction_bounds(p4, (1, 2), 1, (-1,))
    assert abs(iv.center - 0.25) < TOL
    assert abs(iv.raw_lower - 0.0) < TOL and abs(iv.raw_upper - 0.5) < TOL
    truth = interaction_effect(p4, (1, 2), 1)
    assert truth == 0.0
    assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL


def test_p4_conservative(p4):
    iv = conservative_bounds(p4, 1, 0.25)
    assert abs(iv.center - 2.5) < TOL
    assert abs(iv.raw_lower - 1.0) < TOL and abs(iv.raw_upper - 4.0) < TOL
    assert iv.lower == 1.0 and iv.upper == 1.0
    # plugging in the true constant-complier share reproduces the
    # least-compliant-profile bounds exactly
    ref = exclusion_bounds(p4, 1, (-1,))
    same = conservative_bounds(p4, 1, 0.5)
    assert same.raw_lower == ref.raw_lower
    assert same.raw_upper == ref.raw_upper
    assert same.center == ref.center
    with pytest.raises(InvalidShareError):
        conservative_bounds(p4, 1, 0.6)
    with pytest.raises(InvalidShareError):
        conservative_bounds(p4, 1, 0.0)


def _formulas(pop):
    """Each method's formula over factor 1 as a function of its profile."""
    return {
        "adjusted": lambda tilde: adjusted_bounds(pop, 1, tilde),
        "simple": lambda tilde: simple_bounds(pop, 1, tilde),
        "exclusion": lambda tilde: exclusion_bounds(pop, 1, tilde),
        "interaction:1+2": lambda tilde: interaction_bounds(pop, (1, 2), 1, tilde),
        "joint:2": lambda tilde: joint_bounds(pop, 1, 2, tilde),
    }


@pytest.mark.parametrize("bad", [(2,), (1, 1), (True,), (-1.0,), "declared:2", "maximal"], ids=repr)
def test_formulas_refuse_a_malformed_profile_as_the_estimator_does(p4, bad):
    # the joint formula reads K-2 = 0 levels, so each of these is malformed there too
    data = census_dataset(p4)
    shares = ("exclusion", lambda tilde: group_shares(p4, 1, tilde))  # read as the one-factor estimator reads it
    for method, formula in [*_formulas(p4).items(), shares]:
        with pytest.raises(InvalidInputError) as want:
            estimate_bounds(data, 1, method, profile=bad)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(want.value))}$"):
            formula(bad)


def test_formulas_read_a_declared_profile_in_every_spelling(p4):
    for method, formula in [*_formulas(p4).items(), ("shares", lambda tilde: group_shares(p4, 1, tilde))]:
        if method != "joint:2":  # p4's pair breaks cross exclusion
            want = formula((-1,))
            for spelling in ("declared:-1", " declared:-1 ", [-1], np.array([-1]), (np.int64(-1),)):
                assert formula(spelling) == want, (method, spelling)
    assert group_shares(p4, 1, "min") == group_shares(p4, 1, (-1,))  # (-1,) is factor 1's one least-compliant context


@pytest.mark.parametrize("t", ["0.3", True, None, 1j, float("nan"), float("inf"), -0.5], ids=repr)
def test_conservative_refuses_a_floor_that_is_no_real_number_in_range(p4, t):
    with pytest.raises(InvalidShareError, match=f"finite and at least .*, got {re.escape(repr(t))}$"):
        conservative_bounds(p4, 1, t)


def test_conservative_compares_an_int_floor_exactly(p4):
    with pytest.raises(InvalidShareError, match="exceeds the constant-complier share"):
        conservative_bounds(p4, 1, 10**400)  # past the float range, so never converted to one


def test_p4_wald(p4):
    assert abs(wald_ratio(p4, 1) - 1.0) < TOL


def test_p4_full_compliance_factor2(p4):
    # factor 2 is taken exactly as assigned, so every method collapses to
    # the same point and the truth is the plain factorial effect
    truth = main_effect(p4, 2)
    for fn in (adjusted_bounds, simple_bounds, exclusion_bounds):
        iv = fn(p4, 2, (-1,))
        assert abs(iv.raw_lower - truth) < TOL
        assert abs(iv.raw_upper - truth) < TOL
    assert abs(wald_ratio(p4, 2) - truth) < TOL


# ------------------------------------------------------------ joint bounds


def test_joint_fixture_truth(k3_joint_pop):
    assert abs(joint_interaction_effect(k3_joint_pop, 1, 2) - 0.125) < TOL


def test_joint_fixture_bounds(k3_joint_pop):
    iv = joint_bounds(k3_joint_pop, 1, 2, (-1,))
    # hand-computed: nu_J(-1) = 1/4, g12'Ybar = 0.1875, g12'Pbar = 3
    assert abs(iv.center - 0.1875) < TOL
    assert abs(iv.half_width_lower - 0.5) < TOL
    assert abs(iv.raw_lower - (-0.3125)) < TOL
    assert abs(iv.raw_upper - 0.6875) < TOL
    truth = joint_interaction_effect(k3_joint_pop, 1, 2)
    assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL
    with pytest.raises(AssumptionViolationError):
        joint_bounds(k3_joint_pop, 1, 2, (1,))  # not least compliant


def test_joint_full_compliance_point_identifies():
    rng = np.random.default_rng(3)
    pop = assumption_population(rng, 2, 6, upgrade_factors=())
    # overwrite: everyone complies with both factors
    design = pop.design
    uptake = np.empty_like(pop.uptake)
    for j, z in enumerate(design.levels):
        uptake[:, j, 0] = z[0]
        uptake[:, j, 1] = z[1]
    pop = Population(design=design, uptake=uptake, outcome=pop.outcome)
    iv = joint_bounds(pop, 1, 2, ())
    assert abs(iv.half_width_lower) < TOL and abs(iv.half_width_upper) < TOL
    assert abs(iv.center - joint_interaction_effect(pop, 1, 2)) < TOL


def test_joint_requires_cross_exclusion(k3_joint_pop):
    # factors (1, 3): unit 1's factor-1 uptake moves with z3
    with pytest.raises(AssumptionViolationError, match="uptake cross-dependence"):
        joint_bounds(k3_joint_pop, 1, 3, (-1,))


# ------------------------------------------------------- property sweeps


def test_identity_nu_decomposition():
    # nu(c) = constant share + conditional-complier share at c, exactly
    rng = np.random.default_rng(23)
    from factorbounds.oracle import _nu_arrays
    from factorbounds.population import classify, group_shares

    for _ in range(60):
        K = int(rng.integers(1, 4))
        pop = assumption_population(rng, K, int(rng.integers(2, 12)), upgrade_factors=(1,))
        contexts, _, _, (nu,) = _nu_arrays(pop, 1)
        valid = check_least_compliant_profile(pop, 1)
        assert tuple([-1] * (K - 1)) in valid
        shares = group_shares(pop, 1, valid[0])
        for i, ctx in enumerate(contexts):
            want = shares.rho_constant + shares.rho_conditional_complier[ctx]
            assert abs(nu[i] - want) < TOL
        # and at the least-compliant profile the conditional share vanishes
        assert shares.rho_conditional_complier[valid[0]] == 0.0


def test_coverage_and_nesting_sweep():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(150):
        K = int(rng.integers(1, 4))
        N = int(rng.integers(2, 14))
        pop = assumption_population(rng, K, N, upgrade_factors=(1,))
        tilde = tuple([-1] * (K - 1))
        truth = main_effect(pop, 1)
        iv_adj = adjusted_bounds(pop, 1, tilde)
        iv_sim = simple_bounds(pop, 1, tilde)
        iv_exc = exclusion_bounds(pop, 1, tilde)
        for iv in (iv_adj, iv_sim, iv_exc):
            assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL
            assert iv.lower >= -1.0 and iv.upper <= 1.0
            assert iv.raw_lower <= iv.center <= iv.raw_upper
        # raw width ordering, zero tolerance
        assert iv_exc.raw_upper - iv_exc.raw_lower <= iv_adj.raw_upper - iv_adj.raw_lower + TOL
        assert iv_adj.raw_upper - iv_adj.raw_lower <= iv_sim.raw_upper - iv_sim.raw_lower + TOL
        # conservative plug-ins below the true share only widen
        rho = constant_complier_share(pop, 1)
        assert rho > 0.0
        cons = conservative_bounds(pop, 1, rho / 2)
        assert cons.raw_lower <= iv_exc.raw_lower + TOL
        assert cons.raw_upper >= iv_exc.raw_upper - TOL
        checked += 1
    assert checked == 150


def test_coverage_all_factors_upgrading():
    # monotonicity and the common worst context alone cover adjusted and
    # simple bounds even when every factor's compliance shifts with context
    rng = np.random.default_rng(31)
    for _ in range(80):
        K = int(rng.integers(2, 4))
        pop = assumption_population(rng, K, int(rng.integers(2, 10)),
                                    upgrade_factors=tuple(range(1, K + 1)))
        tilde = tuple([-1] * (K - 1))
        truth = main_effect(pop, 1)
        for fn in (adjusted_bounds, simple_bounds):
            iv = fn(pop, 1, tilde)
            assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL


def test_interaction_coverage_sweep():
    rng = np.random.default_rng(37)
    for _ in range(60):
        K = int(rng.integers(2, 4))
        pop = assumption_population(rng, K, int(rng.integers(2, 10)), upgrade_factors=(1,))
        tilde = tuple([-1] * (K - 1))
        truth = interaction_effect(pop, (1, 2), 1)
        iv = interaction_bounds(pop, (1, 2), 1, tilde)
        assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL
        ref = exclusion_bounds(pop, 1, tilde)
        assert abs(iv.half_width_lower - ref.half_width_lower) < TOL


def test_joint_coverage_sweep():
    rng = np.random.default_rng(41)
    covered = 0
    for _ in range(80):
        K = int(rng.integers(2, 4))
        pop = assumption_population(rng, K, int(rng.integers(2, 10)), upgrade_factors=())
        try:
            truth = joint_interaction_effect(pop, 1, 2)
        except NoCompliersError:
            continue
        iv = joint_bounds(pop, 1, 2, tuple([-1] * (K - 2)))
        assert iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL
        covered += 1
    assert covered > 30


# ------------------------------------------------------------- error paths


def test_defier_rejected(p4):
    uptake = p4.uptake.copy()
    uptake[0, 0, 0] = 1
    uptake[0, 1, 0] = -1
    bad = Population(design=p4.design, uptake=uptake, outcome=p4.outcome)
    with pytest.raises(AssumptionViolationError):
        adjusted_bounds(bad, 1, (-1,))


def test_invalid_profile_rejected(p4):
    with pytest.raises(AssumptionViolationError):
        exclusion_bounds(p4, 1, (1,))


def test_no_compliers_at_profile():
    design = enumerate_assignments(2)
    uptake = np.full((3, 4, 2), -1, dtype=np.int8)  # nobody ever takes anything
    outcome = np.zeros((3, 4))
    pop = Population(design=design, uptake=uptake, outcome=outcome)
    with pytest.raises(NoCompliersError):
        simple_bounds(pop, 1, (-1,))
    with pytest.raises(NoCompliersError):
        wald_ratio(pop, 1)


def test_conservative_and_joint_truth_raise_the_assumption_table_errors():
    # unit 0 complies with factor 1 only at z2 = -1, unit 1 only at z2 = +1:
    # no context is least compliant for both, nobody complies everywhere
    design = enumerate_assignments(2)
    pattern = np.array([[0, 1, 2, 2], [0, 0, 2, 3]], dtype=np.uint8)
    pop = Population.from_pattern(design, pattern, np.zeros((2, 4)))
    with pytest.raises(AssumptionViolationError) as profile:
        conservative_bounds(pop, 1, 0.1)
    assert str(profile.value) == "factor 1: no uniformly least compliant context exists"
    with pytest.raises(NoCompliersError) as joint:
        joint_interaction_effect(pop, 1, 2)
    assert str(joint.value) == "factors (1, 2): no joint constant compliers"


def test_exclusion_requires_uptake_invariance():
    # unit 0 never takes factor 1, yet its factor-2 uptake flips with z1:
    # exactly the cross-move the exclusion bounds rule out
    design = enumerate_assignments(2)
    uptake = np.empty((2, 4, 2), dtype=np.int8)
    for j, z in enumerate(design.levels):
        uptake[0, j, 0] = -1
        uptake[0, j, 1] = z[0]
        uptake[1, j, 0] = z[0]
        uptake[1, j, 1] = z[1]
    outcome = np.tile(np.linspace(0, 1, 4), (2, 1))
    pop = Population(design=design, uptake=uptake, outcome=outcome)
    with pytest.raises(AssumptionViolationError):
        exclusion_bounds(pop, 1, check_least_compliant_profile(pop, 1)[0])
    # adjusted and simple do not require it
    tilde = check_least_compliant_profile(pop, 1)[0]
    adjusted_bounds(pop, 1, tilde)
    simple_bounds(pop, 1, tilde)


def _three_units(takes, outcomes):
    """A K=2 population of three units from their (d1, d2) and their outcome per arm, arms in canonical order."""
    design = enumerate_assignments(2)
    return Population(design=design, uptake=np.array(takes, dtype=np.int8), outcome=np.array(outcomes, dtype=float))


ARMS = [(-1, -1), (1, -1), (-1, 1), (1, 1)]  # the assignments, so a full complier's uptake per arm


def test_interaction_requires_outcome_exclusion_of_its_anchor():
    # at z2 = +1 unit 2 takes (+1, -1) whatever z1 is, yet its outcome moves
    # with z1: without the check the interval was [0, 0] against a true effect of 0.25
    pop = _three_units([ARMS, ARMS, [(-1, 1), (-1, 1), (1, -1), (1, -1)]], [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 0)])
    assert popmod.check_outcome_exclusion(pop, 1) == [(2, (1,))] and popmod.check_outcome_exclusion(pop, 2) == []
    assert method_truth(pop, 1, "interaction:1+2") == 0.25
    with pytest.raises(AssumptionViolationError, match=r"^factor 1: outcome shifts with assignment"):
        method_interval(pop, 1, "interaction:1+2")


def test_joint_requires_outcome_exclusion_of_its_partner():
    # unit 0 never takes factor 2 and its outcome moves with z2 at z1 = -1:
    # without the check the interval was [0.5, 0.5] against a true effect of 0.25
    pop = _three_units([[(-1, -1), (1, -1), (-1, -1), (1, -1)], ARMS, ARMS], [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1)])
    assert popmod.check_outcome_exclusion(pop, 1) == [] and popmod.check_outcome_exclusion(pop, 2) == [(0, (-1,))]
    assert method_truth(pop, 1, "joint:2") == 0.25
    with pytest.raises(AssumptionViolationError, match=r"^factor 2: outcome shifts with assignment"):
        method_interval(pop, 1, "joint:2")


def test_a_refused_factor_pair_has_one_wording(p4):
    # the truth, the interval under either profile policy and the check all
    # refuse joint:2 at factor 2 with the factor-set check's own message
    calls = (
        lambda: method_truth(p4, 2, "joint:2"),
        lambda: method_interval(p4, 2, "joint:2", "min"),
        lambda: method_interval(p4, 2, "joint:2", ()),
        lambda: popmod.check_conditional_treatment_exclusion(p4, 2, 2),
    )
    for call in calls:
        with pytest.raises(InvalidFactorError, match=r"^joint contexts need two distinct factors, got 2 twice$"):
            call()


def test_interaction_anchor_must_be_member(p4):
    with pytest.raises(InvalidFactorError):
        interaction_bounds(p4, (2,), 1, (-1,))
    with pytest.raises(InvalidFactorError):
        interaction_effect(p4, (2,), 1)


# ------------------------------------------------------------- method table


@given(
    K=st.sampled_from([2, 3]),
    N=st.integers(min_value=4, max_value=30),
    upgrade=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_method_table_matches_census_estimator(K, N, upgrade, seed):
    # with every unit observed in every arm the plug-in moments are the
    # population moments, so each method's oracle interval is the estimate
    pop = assumption_population(np.random.default_rng(seed), K, N, (1,) if upgrade else ())
    data = census_dataset(pop)
    factors = (1,) if upgrade else tuple(range(1, K + 1))  # weak exclusion holds here
    for k in factors:
        everything = "interaction:" + "+".join(map(str, range(1, K + 1)))
        methods = ["adjusted", "simple", "exclusion", everything]
        if not upgrade:  # cross exclusion for the joint pair
            methods.append(f"joint:{k % K + 1}")
        for method in methods:
            iv, ctx = method_interval(pop, k, method)
            est = estimate_bounds(data, k, method, profile=ctx)
            assert est.profile_context == ctx
            for a, b in (
                (iv.center, est.center),
                (iv.raw_lower, est.raw_lower),
                (iv.raw_upper, est.raw_upper),
                (iv.lower, est.clipped_lower),
                (iv.upper, est.clipped_upper),
            ):
                assert abs(a - b) <= TOL, (method, k, a, b)
            assert iv.raw_lower - TOL <= method_truth(pop, k, method) <= iv.raw_upper + TOL
        rho = constant_complier_share(pop, k)
        mvec = _arm_moments(data, k, None, 1)[0][0, :, :2].ravel()
        for t in (rho, 0.5 * rho):
            iv, ctx = method_interval(pop, k, f"conservative:{t!r}")
            assert ctx is None
            funcs = endpoint_functions(pop.design, k, "exclusion", t_value=t)
            for a, v in zip((iv.center, iv.raw_lower, iv.raw_upper), funcs.value(mvec).tolist()):
                assert abs(a - v) <= TOL, (t, k, a, v)


# ------------------------------------------------------- the stacked oracle


def _parts(rng, K, n, R):
    """R populations of n units over one design, each passing or failing
    different assumptions: unconstrained units, the constrained generator,
    and generated ones whose violate surgery breaks one assumption."""
    violations = [(), ("monotone:1",), ("exclusion:1",), ("profile:1",)] if K >= 2 else [(), ("monotone:1",)]
    if K >= 3:
        violations += [("cross_exclusion:1,2",), ("joint_profile:1,2",)]
    factors = (FactorSpec(complier=0.5, always=0.2, upgrade=0.4, depends_on=(K,), worst=(-1,)),) if K >= 2 else ()
    factors += (FactorSpec(complier=0.7, always=0.1),) * (K - len(factors))
    parts = []
    for r in range(R):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            parts.append(random_population(rng, K, n))
        elif kind == 1:
            parts.append(assumption_population(rng, K, n, upgrade_factors=(1,)))
        else:
            violate = violations[int(rng.integers(0, len(violations)))]
            config = ScenarioConfig(K=K, N=n, factors=factors, seed=int(rng.integers(0, 2**31)), violate=violate)
            parts.append(generate_population(config, rep=r))
    return parts


def _key(value):
    """A comparison key equal only for bit-identical values or errors of one type and message."""
    if isinstance(value, FactorBoundsError):
        return ("raises", type(value).__name__, str(value))
    return _canonical(value)


def _answer(call):
    """The key of a value or of the error it raises."""
    try:
        return _key(call())
    except FactorBoundsError as exc:
        return _key(exc)


def _stacked_answers(stacked):
    """The keys of a stacked answer, one per block, or of the error it raises for all of them."""
    try:
        return [_key(v) for v in stacked()]
    except FactorBoundsError as exc:
        return _key(exc)


@pytest.mark.filterwarnings("error")  # a failed block's array steps warn of nothing
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("R", [1, 2, 5])
def test_stacked_oracle_equals_its_one_block_calls(K, R):
    # method_truth and method_interval with R= on a stack of R populations answer per
    # block as method_truth and method_interval on each population alone:
    # the same floats bit for bit, or the same error type and message. At K = 5
    # and 6 a row of 16 or 32 contexts sums 8-way pairwise; one trial at the
    # first and last factor keeps their time down
    rng = np.random.default_rng(1000 * K + R)
    for trial in range(3 if K <= 4 else 1):
        parts = _parts(rng, K, 6 + 2 * trial, R)
        design = parts[0].design
        stack = Population.from_pattern(
            design, np.concatenate([p.pattern for p in parts]), np.concatenate([p.outcome for p in parts])
        )
        fresh = [Population.from_pattern(design, p.pattern, p.outcome) for p in parts]
        methods = ["adjusted", "simple", "exclusion", "conservative:0.05", "conservative:0.4"]
        methods += ["interaction:1+2", "joint:2", "joint:1"] if K >= 2 else ["interaction:1+2", "joint:2"]
        for k in range(1, K + 1) if K <= 4 else (1, K):
            for method in methods:
                want = [_answer(lambda p=p: method_truth(p, k, method)) for p in fresh]
                got = _stacked_answers(lambda: method_truth(stack, k, method, R=R))
                assert got == (want[0] if isinstance(got, tuple) else want), (K, R, k, method)
                context_len = K - (2 if method.startswith("joint") else 1)
                for profile in ("min", f"declared:{','.join(['-1'] * context_len)}", (1,) * max(context_len, 0)):
                    want = [_answer(lambda p=p: method_interval(p, k, method, profile)) for p in fresh]
                    got = _stacked_answers(lambda: method_interval(stack, k, method, profile, R=R))
                    if isinstance(got, tuple):  # a bad argument raises for the whole stack, as for each block
                        assert all(w == got for w in want), (K, R, k, method, profile)
                    else:
                        assert got == want, (K, R, k, method, profile)


def test_stacked_oracle_reaches_different_errors_within_one_stack():
    # one stack whose blocks fail different assumptions reports each block's
    # own first error, in the scalar order of checks
    rng = np.random.default_rng(5)
    parts = _parts(rng, 3, 10, 12)
    stack = Population.from_pattern(
        parts[0].design, np.concatenate([p.pattern for p in parts]), np.concatenate([p.outcome for p in parts])
    )
    methods = ("adjusted", "exclusion", "joint:2", "conservative:0.05")
    answers = [v for method in methods for v in method_interval(stack, 1, method, R=12)]
    errors = {str(v)[:40] for v in answers if isinstance(v, FactorBoundsError)}
    assert len(errors) >= 4 and len(errors) < len(answers), errors  # defiers, no profile, weak and cross exclusion


def test_each_block_reports_its_first_failing_check_in_the_scalar_order():
    # a population failing monotonicity, the profile and weak and outcome
    # exclusion of factor 1 reports, per method, the first failing check in
    # the order the formula runs them, alone and as a block of a stack beside
    # a population passing them; joint:1's refused factor pair comes after
    # them, and is the other block's answer
    bad = random_population(np.random.default_rng(0), 2, 12)
    good = clone(fixture_p4(), 3)
    stack = Population.from_pattern(bad.design, np.concatenate([bad.pattern, good.pattern]),
                                    np.concatenate([bad.outcome, good.outcome]))
    defiers, no_profile = "factor 1: defiers present", "factor 1: no uniformly least compliant context"
    first = [
        ("exclusion", (-1,), "factor 1: uptake of other factors shifts"),
        ("exclusion", "min", no_profile),
        ("interaction:1+2", (-1,), "factor 1: uptake of other factors shifts"),
        ("adjusted", (-1,), defiers),
        ("adjusted", "min", no_profile),
        ("joint:2", (), defiers),
        ("conservative:0.1", "min", defiers),
        ("joint:1", (), defiers),
    ]
    for method, profile, message in first:
        with pytest.raises(FactorBoundsError, match=f"^{re.escape(message)}"):
            method_interval(bad, 1, method, profile)
        failed, passed = method_interval(stack, 1, method, profile, R=2)
        assert str(failed).startswith(message), (method, profile, failed)
        assert _key(passed) == _answer(lambda: method_interval(good, 1, method, profile)), (method, profile)
    assert str(passed) == "joint contexts need two distinct factors, got 1 twice"


def test_the_min_profile_is_the_first_least_compliant_context():
    # every unit responds to z1 alike at both contexts (always-takers at one
    # are never-takers at the other), so both are least compliant; their
    # first stages differ in the last bit, and min takes the first context
    design = enumerate_assignments(2)
    pattern = np.array([[0, 0, 2, 2], [0, 1, 2, 3], [0, 1, 2, 3], [1, 1, 2, 2], [1, 1, 3, 3], [0, 1, 2, 3]], np.uint8)
    pop = Population.from_pattern(design, pattern, np.full((6, 4), 0.5))
    assert check_least_compliant_profile(pop, 1) == ((-1,), (1,))
    assert exclusion_bounds(pop, 1, (-1,)) != exclusion_bounds(pop, 1, (1,))
    for method, formula in (("exclusion", exclusion_bounds), ("adjusted", adjusted_bounds)):
        assert formula(pop, 1, "min") == formula(pop, 1, (-1,))
        assert method_interval(pop, 1, method) == (formula(pop, 1, (-1,)), (-1,))
    stack = Population.from_pattern(design, np.tile(pattern, (2, 1)), np.full((12, 4), 0.5))
    assert method_interval(stack, 1, "exclusion", R=2) == [method_interval(pop, 1, "exclusion")] * 2


@pytest.mark.parametrize("mode", ["fixed", "clone"])
def test_fixed_and_clone_runs_compute_each_oracle_formula_once(monkeypatch, mode):
    # one population serves every replication, so each formula runs once per
    # monte_carlo call, as a one-block stack, however many chunks the
    # replications take; the main-effect targets of factor 1 share one truth.
    # The calls go through the module attributes, where a tracer sees them;
    # a computation is a call that passes the memo to the formula's compute
    targets = tuple(
        TargetSpec(factor=1, method=m) for m in ("adjusted", "simple", "exclusion", "interaction:1+2", "joint:2")
    ) + (TargetSpec(factor=2, method="exclusion", profile="declared:-1"),)
    config = ScenarioConfig(
        K=2,
        N=200,
        seed=7,
        factors=(FactorSpec(complier=0.6, always=0.1), FactorSpec(complier=0.8)),
        require=("monotone:1", "profile:1", "first_stage:1"),
        population_mode=mode,
        clone_factor=3 if mode == "clone" else 1,
        targets=targets,
    )
    calls, reached = [], set()
    names = ("interaction_effect", "adjusted_bounds", "simple_bounds", "interaction_bounds", "joint_bounds")
    for name in names:
        formula = getattr(oracle, name)
        compute = lambda *a, _f=formula.__wrapped__, _n=name, **kw: calls.append((_n, kw["R"])) or _f(*a, **kw)
        monkeypatch.setattr(formula, "__wrapped__", compute)
        monkeypatch.setattr(oracle, name, lambda *a, _f=formula, _n=name, **kw: reached.add(_n) or _f(*a, **kw))
    report = monte_carlo(config, R=120)  # several chunks of replications
    assert all(t.n_ok == 120 for t in report.targets)
    assert reached == set(names)
    assert sorted(calls) == sorted(
        [("interaction_effect", 1)] * 4  # main effects of factors 1 and 2, interaction:1+2, joint:2
        + [("adjusted_bounds", 1)]
        + [("simple_bounds", 1), ("interaction_bounds", 1), ("interaction_bounds", 1)]  # both exclusion targets
        + [("interaction_bounds", 1), ("joint_bounds", 1)]
    )


# ------------------------------------------------- the per-population memo


ORACLE_MEMOIZED = [
    (oracle._nu_arrays, (1,)),
    (arm_uptake_means, (1, 2)),
    (oracle.interaction_effect, ((1,), 1)),
    (oracle.interaction_effect, ((1, 2), 1, 2)),
    (method_interval, (1, "exclusion")),
    (method_interval, (2, "interaction:1+2", "min")),
]


@pytest.mark.parametrize(
    "fn, args", ORACLE_MEMOIZED, ids=[f"{fn.__name__}-{'-'.join(map(str, args))}" for fn, args in ORACLE_MEMOIZED]
)
def test_oracle_memo_computes_once_per_population_and_arguments(monkeypatch, fn, args):
    calls = count_computations(monkeypatch, fn)
    pop = fixture_p4()
    first = fn(pop, *args)
    assert fn(pop, *args) is first
    assert calls == [args]
    fn(fixture_p4(), *args)
    assert calls == [args, args]


FOLDED = {  # a folded name, the question it asks, and calls that must read that question's one entry
    "main_effect": ("interaction_effect", ((1,), 1), [
        lambda pop: main_effect(pop, 1), lambda pop: main_effect(pop, 1, R=1)[0],
        lambda pop: method_truth(pop, 1, "adjusted"), lambda pop: method_truth(pop, 1, "exclusion"),
    ]),
    "joint_interaction_effect": ("interaction_effect", ((1, 2), 1, 2), [
        lambda pop: joint_interaction_effect(pop, 1, 2), lambda pop: method_truth(pop, 1, "joint:2"),
    ]),
    "exclusion_bounds": ("interaction_bounds", ((1,), 1, "min"), [
        lambda pop: exclusion_bounds(pop, 1, "min"), lambda pop: exclusion_bounds(pop, 1, "min", R=1)[0],
    ]),
}


@pytest.mark.parametrize("folded", FOLDED)
def test_folded_names_compute_nothing_of_their_own(monkeypatch, folded):
    # main_effect, joint_interaction_effect and exclusion_bounds (and method_truth) are one call of the
    # question they fold into: after that question, they compute nothing and add no memo entry
    name, args, calls_of_it = FOLDED[folded]
    calls = count_computations(monkeypatch, getattr(oracle, name))
    pop = fixture_p4()
    want = getattr(oracle, name)(pop, *args)
    entries = len(pop._memo)
    for call in calls_of_it:
        assert call(pop) == want
    assert calls == [args] and len(pop._memo) == entries


def test_effects_of_one_factor_share_its_masked_arm_means(monkeypatch):
    # main_effect and interaction_effect of factor 1 compress the outcome rows
    # of its constant compliers once per (population, R, factors); the joint
    # effect's pair has its own entry. In p4 units 0 and 1 comply with factor
    # 1 everywhere, so of two blocks only the first has a row of means
    calls = count_computations(monkeypatch, oracle._masked_arm_means)
    p4 = fixture_p4()
    for R in (None, 2):
        kw = {} if R is None else {"R": R}
        main_effect(p4, 1, **kw)
        interaction_effect(p4, (1, 2), 1, **kw)
        joint_interaction_effect(p4, 1, 2, **kw)
        main_effect(p4, 2, **kw)
    assert calls == [(1, 1), (1, 1, 2), (1, 2), (2, 1), (2, 1, 2), (2, 2)]
    means = oracle._masked_arm_means(p4, 2, 1)
    assert means[0].tobytes() == p4.outcome[:2].mean(axis=0).tobytes() and np.isnan(means[1]).all()
    assert isinstance(main_effect(p4, 1, R=2)[1], NoCompliersError) and not means.flags.writeable
    fn = oracle._masked_arm_means  # computed once per population
    assert fn(p4, 1, 1) is fn(p4, 1, 1) and fn(fixture_p4(), 1, 1) is not fn(p4, 1, 1)


def test_oracle_memo_keys_carry_types_and_refuse_writes(p4):
    for fn, args in ((oracle._nu_arrays, ()), (method_truth, ("adjusted",)), (method_interval, ("exclusion",))):
        fn(p4, 1, *args)
        with pytest.raises(InvalidFactorError):
            fn(p4, True, *args)
    _, nu_plus, nu_minus, nu = oracle._nu_arrays(p4, 1)
    for arr in (nu_plus, nu_minus, nu, arm_uptake_means(p4, 1, 2)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_method_interval_takes_list_and_keyword_profiles(p4):
    want = method_interval(p4, 1, "exclusion", (-1,))
    assert method_interval(p4, 1, "exclusion", [-1]) == want  # a list is computed uncached
    assert method_interval(p4, 1, "exclusion", profile=[-1]) == want
    assert method_interval(p4, 1, "exclusion", profile="min") == want
    assert method_interval(p4, 1, method="exclusion") == want
    with pytest.raises(AssumptionViolationError):
        method_interval(p4, 1, "exclusion", profile=[1])


def test_oracle_memo_stores_nothing_for_a_raising_call(monkeypatch, p4):
    calls = count_computations(monkeypatch, method_interval)
    for _ in range(2):
        with pytest.raises(AssumptionViolationError):
            method_interval(p4, 1, "adjusted", (1,))
    assert len(calls) == 2


def test_memo_does_not_keep_a_dropped_population_alive():
    pop = assumption_population(np.random.default_rng(31), 3, 10)
    for method in ("adjusted", "simple", "exclusion", "interaction:1+2", "joint:2", "conservative:0.01"):
        for call in (method_truth, method_interval):
            try:
                call(pop, 1, method)
            except FactorBoundsError:
                pass
    assert pop._memo  # something was kept on the population itself
    ref = weakref.ref(pop)
    del pop
    gc.collect()
    assert ref() is None


def _canonical(value):
    """A comparison key equal only for bit-identical results."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(map(_canonical, value)))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _canonical(dataclasses.astuple(value)))
    return value


MEMO_CALLS = [
    lambda pop, k, k2: popmod.classify(pop, k),
    lambda pop, k, k2: popmod.constant_compliers(pop, k),
    lambda pop, k, k2: arm_outcome_means(pop),
    lambda pop, k, k2: arm_uptake_means(pop, k),
    lambda pop, k, k2: popmod.check_conditional_monotonicity(pop, k),
    lambda pop, k, k2: popmod.check_least_compliant_profile(pop, k),
    lambda pop, k, k2: popmod.check_weak_treatment_exclusion(pop, k),
    lambda pop, k, k2: popmod.check_least_compliant_profile(pop, k, k2),
    lambda pop, k, k2: popmod.check_conditional_treatment_exclusion(pop, k, k2),
    lambda pop, k, k2: popmod.check_outcome_exclusion(pop, k),
    lambda pop, k, k2: oracle._nu_arrays(pop, k),
    lambda pop, k, k2: main_effect(pop, k),
    lambda pop, k, k2: interaction_effect(pop, (1, 2), k),
    lambda pop, k, k2: joint_interaction_effect(pop, k, k2),
    lambda pop, k, k2: method_truth(pop, k, "adjusted"),
    lambda pop, k, k2: method_truth(pop, k, "interaction:1+2"),
    lambda pop, k, k2: method_truth(pop, k, f"joint:{k2}"),
    lambda pop, k, k2: method_interval(pop, k, "adjusted"),
    lambda pop, k, k2: method_interval(pop, k, "simple", profile=(-1,) * (pop.design.K - 1)),
    lambda pop, k, k2: method_interval(pop, k, "exclusion", "min"),
    lambda pop, k, k2: method_interval(pop, k, "interaction:1+2"),
    lambda pop, k, k2: method_interval(pop, k, f"joint:{k2}"),
    lambda pop, k, k2: method_interval(pop, k, "conservative:0.05"),
    lambda pop, k, k2: itt_report(pop, k),
]


def _result(call, pop, k, k2):
    try:
        return _canonical(call(pop, k, k2))
    except FactorBoundsError as exc:
        return ("raises", type(exc).__name__, str(exc))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    K=st.sampled_from([2, 3]),
    constrained=st.booleans(),
    calls=st.lists(
        st.tuples(st.integers(0, len(MEMO_CALLS) - 1), st.integers(1, 3), st.integers(1, 3)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_memo_results_match_a_fresh_population_in_any_call_order(seed, K, constrained, calls):
    rng = np.random.default_rng(seed)
    pop = assumption_population(rng, K, 12) if constrained else random_population(rng, K, 12)
    for index, k, k2 in calls:
        k, k2 = min(k, K), min(k2, K)
        fresh = Population(design=pop.design, uptake=pop.uptake.copy(), outcome=pop.outcome.copy())
        assert _result(MEMO_CALLS[index], pop, k, k2) == _result(MEMO_CALLS[index], fresh, k, k2)


@pytest.mark.parametrize(
    "ask",
    [
        lambda pop: main_effect(pop, [1]),
        lambda pop: exclusion_bounds(pop, [1], "min"),
        lambda pop: interaction_bounds(pop, ([1], 2), 1, "min"),
        lambda pop: interaction_effect(pop, ([1], 2), 1),
    ],
    ids=["main_effect", "exclusion_bounds", "interaction_bounds", "interaction_effect"],
)
def test_an_unhashable_factor_is_refused_with_the_package_error(p4, ask):
    # each factor is checked before the factor set is hashed
    with pytest.raises(InvalidFactorError, match=r"^factor \[1\] outside 1\.\.2$"):
        ask(p4)
