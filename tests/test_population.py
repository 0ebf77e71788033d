import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from factorbounds.data import ObservedDataset
from factorbounds.design import (
    context_arms,
    contexts_for,
    enumerate_assignments,
)
from factorbounds.errors import AssumptionViolationError, InvalidFactorError, InvalidInputError
from factorbounds.population import (
    ASSUMPTIONS,
    ALWAYS_TAKER,
    COMPLIER,
    DEFIER,
    NEVER_TAKER,
    Population,
    arm_means,
    check_conditional_monotonicity,
    check_conditional_treatment_exclusion,
    check_least_compliant_profile,
    check_outcome_exclusion,
    check_weak_treatment_exclusion,
    classify,
    constant_complier_count,
    constant_compliers,
    from_dict,
    group_shares,
    load_population,
    pack_uptake,
    require,
    require_least_compliant,
    save_population,
    to_dict,
)
from factorbounds import oracle, simulate
from factorbounds.estimate import estimate_bounds
from factorbounds.simulate import FactorSpec, ScenarioConfig, _generate, generate_population

from conftest import (
    arm_outcome_means,
    arm_uptake_means,
    assignments,
    assumption_population,
    clone,
    count_computations,
    fixture_p4,
    random_population,
    strip_factor,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def bf_label(pop, unit, k, ctx):
    """Compliance label computed straight from assignment tuples."""
    design = pop.design
    z_plus = None
    z_minus = None
    for z in assignments(design):
        if strip_factor(z, k) == ctx:
            if z[k - 1] == 1:
                z_plus = z
            else:
                z_minus = z
    d_plus = pop.uptake[unit, design.index(z_plus), k - 1]
    d_minus = pop.uptake[unit, design.index(z_minus), k - 1]
    if d_plus == 1 and d_minus == -1:
        return COMPLIER
    if d_plus == 1:
        return ALWAYS_TAKER
    if d_minus == -1:
        return NEVER_TAKER
    return DEFIER


def test_classify_matches_bruteforce_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        K = int(rng.integers(1, 4))
        pop = random_population(rng, K, int(rng.integers(1, 9)))
        for k in range(1, K + 1):
            types = classify(pop, k)
            for i in range(pop.N):
                for c_index, ctx in enumerate(contexts_for(pop.design, k)):
                    assert types[c_index, i] == bf_label(pop, i, k, ctx)


def test_monotonicity_check_lists_defiers():
    rng = np.random.default_rng(11)
    for _ in range(40):
        pop = random_population(rng, 2, 5)
        viol = check_conditional_monotonicity(pop, 1)
        types, contexts = classify(pop, 1), contexts_for(pop.design, 1)
        expected = [  # unit-major
            (i, contexts[c])
            for i in range(pop.N)
            for c in range(len(contexts))
            if types[c, i] == DEFIER
        ]
        assert viol == expected


def test_least_compliant_profile_bruteforce():
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(200):
        pop = random_population(rng, 2, 4)
        if check_conditional_monotonicity(pop, 1):
            continue
        comp = (classify(pop, 1) == COMPLIER).astype(int)
        # unit-level minimizer sets, then intersect
        valid = None
        for i in range(pop.N):
            row = comp[:, i]
            mins = {c for c in range(row.size) if row[c] == row.min()}
            valid = mins if valid is None else (valid & mins)
        expected = tuple(contexts_for(pop.design, 1)[c] for c in sorted(valid))
        assert check_least_compliant_profile(pop, 1) == expected
        hits += bool(expected)
    assert hits > 10  # the sweep saw real valid profiles, not only empties


def test_weak_exclusion_bruteforce():
    # the check concerns uptake only: when flipping z_k leaves the unit's
    # own factor-k uptake in place, no other uptake coordinate may move
    rng = np.random.default_rng(17)
    flagged = 0
    for _ in range(80):
        pop = random_population(rng, 3, 3)
        design = pop.design
        viol = check_weak_treatment_exclusion(pop, 1)
        expected = []
        for ctx in contexts_for(pop.design, 1):  # context-major
            for i in range(pop.N):
                z_minus = None
                z_plus = None
                for z in assignments(design):
                    if strip_factor(z, 1) == ctx:
                        if z[0] == 1:
                            z_plus = z
                        else:
                            z_minus = z
                a, b = design.index(z_minus), design.index(z_plus)
                if pop.uptake[i, a, 0] != pop.uptake[i, b, 0]:
                    continue
                moved = any(
                    pop.uptake[i, a, kk] != pop.uptake[i, b, kk]
                    for kk in range(1, design.K)
                )
                if moved:
                    expected.append((i, ctx))
        assert viol == expected
        flagged += bool(expected)
    assert flagged > 20


def test_conditional_exclusion_bruteforce_order():
    # (unit, factor, joint context) triples, ordered by context, then the
    # four arm pairs (k against z_k2 at z_k=-1 and +1, then k2 against z_k
    # at z_k2=-1 and +1), then unit
    rng = np.random.default_rng(19)
    flagged = clean = 0
    for _ in range(30):
        pop = random_population(rng, 3, 3)
        if rng.random() < 0.3:  # each unit complies with a fixed factor set: no cross moves
            comply = rng.random((pop.N, 1, 3)) < 0.7
            uptake = np.where(comply, pop.design.levels, -1).astype(np.int8)
            pop = Population(design=pop.design, uptake=uptake, outcome=pop.outcome)
        design = pop.design
        for k, k2 in itertools.permutations((1, 2, 3), 2):
            expected = []
            for ctx in contexts_for(design, k, k2):
                arm = {}
                for z in assignments(design):
                    if strip_factor(strip_factor(z, max(k, k2)), min(k, k2)) == ctx:
                        arm[(z[k - 1], z[k2 - 1])] = design.index(z)
                for f, lo, hi in (
                    (k, (-1, -1), (-1, 1)),
                    (k, (1, -1), (1, 1)),
                    (k2, (-1, -1), (1, -1)),
                    (k2, (-1, 1), (1, 1)),
                ):
                    for i in range(pop.N):
                        if pop.uptake[i, arm[lo], f - 1] != pop.uptake[i, arm[hi], f - 1]:
                            expected.append((i, f, ctx))
            assert check_conditional_treatment_exclusion(pop, k, k2) == expected
            flagged += bool(expected)
            clean += not expected
    assert flagged > 20 and clean > 5


def test_uptake_pattern_matches_bruteforce_bits():
    # uint8 holds K <= 8 factors, uint16 the rest: K=8 and K=9 sit on either side
    rng = np.random.default_rng(23)
    for K in range(1, 10):
        pop = random_population(rng, K, 3)
        pattern = pop.pattern
        assert pattern.dtype == (np.uint8 if K <= 8 else np.uint16)
        assert pattern.shape == (3, pop.design.J)
        want = [
            [sum(1 << k for k in range(K) if pop.uptake[i, j, k] == 1) for j in range(pop.design.J)]
            for i in range(3)
        ]
        assert pattern.tolist() == want


def reference_weak_exclusion(pop, k):
    """The (N, C, K) formulation: compare the whole uptake vector across the two arms."""
    contexts = contexts_for(pop.design, k)
    j_minus, j_plus = context_arms(pop.design, k)
    moved = pop.uptake[:, j_plus, :] != pop.uptake[:, j_minus, :]
    hidden = ~moved[:, :, k - 1] & moved.any(axis=2)
    ctxs, units = np.nonzero(hidden.T)
    return [(i, contexts[c]) for c, i in zip(ctxs.tolist(), units.tolist())]


def reference_conditional_exclusion(pop, k, k2):
    """Four (N, C) comparisons of one factor's uptake column across an arm pair."""
    contexts = contexts_for(pop.design, k, k2)
    j_mm, j_pm, j_mp, j_pp = context_arms(pop.design, k, k2)
    d, d2 = pop.uptake[:, :, k - 1], pop.uptake[:, :, k2 - 1]
    pairs = ((k, d, j_mm, j_mp), (k, d, j_pm, j_pp), (k2, d2, j_mm, j_pm), (k2, d2, j_mp, j_pp))
    moved = np.stack([u[:, lo] != u[:, hi] for _, u, lo, hi in pairs])
    ctxs, which, units = np.nonzero(moved.transpose(2, 0, 1))
    return [(i, pairs[p][0], contexts[c]) for c, p, i in zip(ctxs.tolist(), which.tolist(), units.tolist())]


def _violating_populations():
    """Generated K=3 and K=4 populations, one per violate token and factor choice."""
    for K, seed in ((3, 5), (4, 6)):
        factors = tuple(FactorSpec(complier=0.7, always=0.1) for _ in range(K))
        tokens = [f"{name}:{k}" for name in ("monotone", "profile", "exclusion") for k in (1, K)]
        tokens += [f"{name}:1,{K}" for name in ("cross_exclusion", "joint_profile")] + [None]
        for token in tokens:
            violate = (token,) if token else ()
            yield generate_population(ScenarioConfig(K=K, N=12, factors=factors, seed=seed, violate=violate))


def test_exclusion_checks_match_the_uptake_vector_formulation():
    rng = np.random.default_rng(29)
    pops = [random_population(rng, K, 6) for K in (2, 3, 4, 5) for _ in range(5)]
    pops.append(random_population(rng, 9, 2))  # a uint16 pattern
    pops += list(_violating_populations())
    weak = cond = 0
    for pop in pops:
        K = pop.design.K
        for k in range(1, K + 1):
            want = reference_weak_exclusion(pop, k)
            assert check_weak_treatment_exclusion(pop, k) == want
            weak += bool(want)
        for k, k2 in itertools.permutations(range(1, K + 1), 2):
            want = reference_conditional_exclusion(pop, k, k2)
            assert check_conditional_treatment_exclusion(pop, k, k2) == want
            cond += not want
    assert weak > 50 and cond > 20  # both checks met populations that fail and that pass


def reference_outcome_exclusion(pop, k):
    """(unit, context) pairs, context-major, whose uptake vector is equal in
    the two arms of the context and whose outcome is not, read off the
    assignment tuples."""
    design = pop.design
    arm = {(strip_factor(z, k), z[k - 1]): j for j, z in enumerate(assignments(design))}
    found = []
    for ctx in contexts_for(design, k):
        a, b = arm[ctx, -1], arm[ctx, 1]
        for i in range(pop.N):
            if (pop.uptake[i, a] == pop.uptake[i, b]).all() and pop.outcome[i, a] != pop.outcome[i, b]:
                found.append((i, ctx))
    return found


def test_outcome_exclusion_matches_the_assignment_tuple_formulation():
    # random outcomes move wherever uptake stays; outcomes that are a
    # function of the uptake vector never do, nor do generated ones
    rng = np.random.default_rng(41)
    moving = [random_population(rng, K, 6) for K in (1, 2, 3, 4) for _ in range(5)]
    moving.append(random_population(rng, 9, 2))  # a uint16 pattern
    still = [assumption_population(rng, K, 6, upgrade_factors=range(1, K + 1)) for K in (2, 3) for _ in range(5)]
    still += list(_violating_populations())
    flagged = 0
    for pop, can_move in [(pop, True) for pop in moving] + [(pop, False) for pop in still]:
        for k in range(1, pop.design.K + 1):
            want = reference_outcome_exclusion(pop, k)
            assert check_outcome_exclusion(pop, k) == want
            assert can_move or not want
            flagged += bool(want)
    assert flagged > 30
    fixture = load_population(DATA / "p4_outcome_exclusion.json")
    assert check_outcome_exclusion(fixture, 1) == [(2, (-1,)), (3, (-1,)), (2, (1,)), (3, (1,))]
    assert check_outcome_exclusion(fixture, 2) == []


def reference_labels_and_shift(pop, k):
    """Labels and least-compliant shift read off the strided (N, C) uptake columns of factor k."""
    j_minus, j_plus = context_arms(pop.design, k)
    d = pop.uptake[:, :, k - 1]
    table = np.array([[NEVER_TAKER, COMPLIER], [DEFIER, ALWAYS_TAKER]], dtype=np.int8)
    return table[(d[:, j_minus] + 1) >> 1, (d[:, j_plus] + 1) >> 1], d[:, j_plus] - d[:, j_minus]


def test_labels_and_profiles_from_the_pattern_match_the_uptake_columns():
    rng = np.random.default_rng(31)
    for K in range(1, 10):
        for N in (1, 5):
            pop = random_population(rng, K, N)
            for k in range(1, K + 1):
                labels, shift = reference_labels_and_shift(pop, k)
                assert np.array_equal(classify(pop, k), labels.T)
                valid = (shift == shift.min(axis=1, keepdims=True)).all(axis=0)
                want = tuple(ctx for ctx, ok in zip(contexts_for(pop.design, k), valid) if ok)
                assert check_least_compliant_profile(pop, k) == want


def test_stacked_checks_answer_per_block_as_the_scalar_checks():
    rng = np.random.default_rng(37)
    for K in (1, 2, 3, 4):
        parts = [random_population(rng, K, 3) for _ in range(4)]
        factors = (FactorSpec(complier=0.8),) * K
        parts += [generate_population(ScenarioConfig(K=K, N=3, factors=factors, seed=s)) for s in range(3)]
        stack = Population(
            design=parts[0].design,
            uptake=np.concatenate([p.uptake for p in parts]),
            outcome=np.concatenate([p.outcome for p in parts]),
        )
        single = [(k,) for k in range(1, K + 1)]
        pairs = list(itertools.permutations(range(1, K + 1), 2))
        checks = [
            (check_conditional_monotonicity, single),
            (check_least_compliant_profile, single),
            (check_weak_treatment_exclusion, single),
            (check_outcome_exclusion, single),
            (check_conditional_treatment_exclusion, pairs),
            (check_least_compliant_profile, pairs),
            (constant_complier_count, single + pairs),
        ]
        for check, arguments in checks:
            for a in arguments:
                want = [check(Population(design=p.design, uptake=p.uptake, outcome=p.outcome), *a) for p in parts]
                assert check(stack, *a, R=len(parts)) == want, (check.__name__, a)
        # the per-block arm means the stacked oracle reads are each part's own, bit for bit
        for ks in [(), *single, *pairs]:
            for part, means in zip(parts, arm_means(stack, len(parts), *ks)):
                own = arm_uptake_means(part, *ks) if ks else arm_outcome_means(part)
                assert means.tobytes() == own.tobytes(), ks
    # R, a keyword of every question, must be a positive integer dividing the
    # units, or a dataset's rows; anything else is refused before any work
    p4 = fixture_p4()
    census = simulate.census_dataset(p4)  # 16 rows
    calls = [
        (lambda R: check_conditional_monotonicity(p4, 1, R=R), 4),
        (lambda R: constant_complier_count(p4, 1, 2, R=R), 4),
        (lambda R: require(p4, "monotone", 1, R=R), 4),
        (lambda R: require_least_compliant(p4, (-1,), 1, R=R), 4),
        (lambda R: oracle.method_truth(p4, 1, "adjusted", R=R), 4),
        (lambda R: oracle.method_interval(p4, 1, "adjusted", R=R), 4),
        (lambda R: oracle.exclusion_bounds(p4, 1, "min", R=R), 4),
        (lambda R: estimate_bounds(census, 1, "exclusion", R=R), 16),
    ]
    for call, size in calls:
        for R in (0, -2, 3, 2.5, 2.0, True, "2", [2]):
            message = f"R must be a positive integer dividing {size}, got {R!r}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                call(R)
        assert len(call(np.int64(2))) == 2


def test_a_stored_answer_is_looked_up_first_and_a_refused_R_is_never_kept(monkeypatch):
    # the memo is read before R is checked; its keys carry their types, so
    # with R=2 and a plain call stored, an R that equals 2 or 1 as a float
    # or a boolean still misses, is refused and stores nothing
    p4 = fixture_p4()
    one = simulate.census_dataset(p4)
    census = ObservedDataset(  # two censuses, 32 rows: each block of R=2 has every arm
        design=p4.design, arm=np.tile(one.arm, 2), uptake=np.tile(one.uptake, (2, 1)), outcome=np.tile(one.outcome, 2)
    )
    questions = [
        (check_conditional_monotonicity, (p4, 1), 4),
        (oracle.method_interval, (p4, 1, "adjusted"), 4),
        (estimate_bounds, (census, 1, "exclusion"), 32),
    ]
    for fn, (owner, *args), size in questions:
        stored = fn(owner, *args, R=2), fn(owner, *args)
        kept, computed = dict(owner._memo), count_computations(monkeypatch, fn)
        for R in (2.0, True, np.float64(2)):
            message = f"R must be a positive integer dividing {size}, got {R!r}"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                fn(owner, *args, R=R)
        assert owner._memo.keys() == kept.keys()
        assert (fn(owner, *args, R=2), fn(owner, *args)) == stored
        assert computed == []  # every answer above was a kept one


def test_a_plain_call_reads_the_answer_an_R_1_call_kept(monkeypatch):
    p4 = fixture_p4()
    calls = count_computations(monkeypatch, oracle.interaction_effect)
    [value] = oracle.interaction_effect(p4, (1,), 1, R=1)
    assert oracle.interaction_effect(p4, (1,), 1) == value
    assert calls == [((1,), 1)]  # the plain call computed nothing
    # an error the R=1 call kept is the plain call's: raised, not recomputed
    calls = count_computations(monkeypatch, oracle.adjusted_bounds)
    [error] = oracle.adjusted_bounds(p4, 1, (1,), R=1)
    assert isinstance(error, AssumptionViolationError)
    with pytest.raises(AssumptionViolationError) as raised:
        oracle.adjusted_bounds(p4, 1, (1,))
    assert raised.value is error
    assert calls == [(1, (1,))]


def test_conditional_treatment_exclusion_detects_cross_moves(k3_joint_pop):
    # in the joint fixture unit 1 switches factor-1 uptake with z3, not z2
    assert check_conditional_treatment_exclusion(k3_joint_pop, 1, 2) == []
    assert check_conditional_treatment_exclusion(k3_joint_pop, 1, 3) != []


def test_joint_least_compliant(k3_joint_pop):
    assert check_least_compliant_profile(k3_joint_pop, 1, 2) == ((-1,),)


def test_p4_fixture_values():
    pop = fixture_p4()
    assert pop.N == 4 and pop.design.K == 2
    assert np.allclose(arm_outcome_means(pop), [0.0, 0.5, 0.0, 0.75])
    d1 = pop.uptake[:, :, 0]
    assert (d1 == np.array([
        [-1, 1, -1, 1],
        [-1, 1, -1, 1],
        [-1, -1, -1, 1],
        [-1, -1, -1, -1],
    ])).all()
    assert (pop.uptake[:, :, 1] == np.array([-1, -1, 1, 1])[None, :]).all()
    assert check_conditional_monotonicity(pop, 1) == []
    assert check_least_compliant_profile(pop, 1) == ((-1,),)
    assert check_weak_treatment_exclusion(pop, 1) == []
    assert constant_complier_count(pop, 1) == 2


def test_p4_group_shares():
    pop = fixture_p4()
    shares = group_shares(pop, 1, (-1,))
    assert shares.rho_constant == 0.5
    assert shares.tilde == (-1,)
    # at the least compliant profile nobody extra complies
    assert shares.rho_conditional_complier[(-1,)] == 0.0
    assert shares.rho_conditional_complier[(1,)] == 0.25
    total = {
        c: shares.rho_constant
        + shares.rho_conditional_complier[c]
        + shares.rho_conditional_noncomplier[c]
        for c in shares.rho_conditional_complier
    }
    assert all(abs(v - 1.0) < 1e-15 for v in total.values())


def _k3_population(*specs, **kw):
    """A generated K=3, N=40 population; factors default to a 0.7 complier share."""
    factors = (*specs, *(FactorSpec(complier=0.7),) * (3 - len(specs)))
    return generate_population(ScenarioConfig(K=3, N=40, seed=3, factors=factors, **kw))


def _failing_population(token, args):
    """A population that fails the token's assumption at the factors args: a
    violate surgery, a factor 1 that nobody complies with, or for outcome
    exclusion the four-unit fixture whose outcome moves with untouched z1."""
    if token == "outcome_exclusion":
        return load_population(DATA / "p4_outcome_exclusion.json")
    if token in simulate._VIOLATE_TOKENS:
        return _k3_population(violate=(f"{token}:{args}",))
    return _k3_population(FactorSpec(complier=0.0))


@pytest.fixture(scope="module")
def passing_population():
    """A population drawn to pass every assumption at factors 1 and (1, 2)."""
    return _k3_population(require=tuple(f"{t}:{'1,2' if row.factors == 2 else '1'}" for t, row in ASSUMPTIONS.items()))


@pytest.mark.parametrize("token", list(ASSUMPTIONS))
def test_require_reads_each_assumption_from_the_table(token, passing_population):
    factors, check, _, error, _ = ASSUMPTIONS[token]
    ks = (1, 2, 3)[:factors]
    args = ",".join(map(str, ks))
    # the scenario token asks for the table's factor count, no more and no fewer
    assert simulate._parse_token(f"{token}:{args}", 3, simulate._REQUIRE_TOKENS) == (token, ks)
    for wrong in ((1, 2, 3)[: factors + 1], (1, 2, 3)[: factors - 1]):
        with pytest.raises(InvalidInputError, match=f"needs {factors} distinct factor"):
            simulate._parse_token(f"{token}:{','.join(map(str, wrong))}", 3, simulate._REQUIRE_TOKENS)
    # a population that fails it raises the table's error, naming the factors
    with pytest.raises(error) as failed:
        require(_failing_population(token, args), token, *ks)
    assert type(failed.value) is error
    assert str(failed.value).startswith("factor 1: " if factors == 1 else "factors (1, 2): ")
    # one drawn to pass every token gets the check's own value back
    assert require(passing_population, token, *ks) == check(passing_population, *ks)


def test_require_least_compliant_names_the_factor_set_and_its_valid_set(k3_joint_pop):
    with pytest.raises(AssumptionViolationError) as single:
        require_least_compliant(fixture_p4(), (1,), 1)
    assert str(single.value) == "factor 1: context (1,) is not a least-compliant profile; valid set ((-1,),)"
    with pytest.raises(AssumptionViolationError) as joint:
        require_least_compliant(k3_joint_pop, (1,), 1, 2)
    assert str(joint.value) == "factors (1, 2): context (1,) is not a joint least-compliant profile; valid set ((-1,),)"
    require_least_compliant(k3_joint_pop, (-1,), 1, 2)


def test_population_validation():
    design = enumerate_assignments(1)
    good_up = np.ones((2, 2, 1), dtype=np.int8)
    good_out = np.zeros((2, 2))
    with pytest.raises(InvalidInputError):
        Population(design=design, uptake=np.zeros((2, 2, 1), dtype=np.int8), outcome=good_out)
    with pytest.raises(InvalidInputError):
        Population(design=design, uptake=good_up, outcome=good_out + 1.5)
    with pytest.raises(InvalidInputError):
        Population(design=design, uptake=good_up, outcome=np.zeros((2, 3)))
    pop = Population(design=design, uptake=good_up, outcome=good_out)
    with pytest.raises(ValueError):
        pop.uptake[0, 0, 0] = -1  # arrays are frozen


@pytest.mark.parametrize("value", [0, 2, 255])
def test_constructor_refuses_uptake_other_than_plus_minus_one(value):
    uptake = np.ones((2, 2, 1), dtype=np.int16)
    uptake[1, 0, 0] = value
    with pytest.raises(InvalidInputError, match="uptake entries must be -1 or \\+1"):
        Population(design=enumerate_assignments(1), uptake=uptake, outcome=np.zeros((2, 2)))


@pytest.mark.parametrize(
    "value, message",
    [(np.nan, "outcomes must be finite"), (np.inf, "outcomes must be finite"), (-np.inf, "outcomes must be finite"),
     (-0.1, "outcomes must lie in \\[0, 1\\]"), (1.5, "outcomes must lie in \\[0, 1\\]")],
)
def test_both_constructors_refuse_an_outcome_that_is_not_finite_or_outside_the_unit_interval(value, message):
    # one bad cell among valid ones, in the middle of the array: the range
    # check fails first and the finiteness check only names the error
    p = fixture_p4()
    outcome = p.outcome.copy()
    outcome[2, 1] = value
    with pytest.raises(InvalidInputError, match=message):
        Population(design=p.design, uptake=p.uptake.copy(), outcome=outcome)
    with pytest.raises(InvalidInputError, match=message):
        Population.from_pattern(p.design, p.pattern, outcome)
    outcome[2, 1] = 1.0  # the bounds themselves are accepted
    outcome[0, 0] = 0.0
    assert Population.from_pattern(p.design, p.pattern, outcome).outcome.tobytes() == outcome.tobytes()


@pytest.mark.parametrize("K, dtype", [(2, np.uint8), (8, np.uint8), (9, np.uint16)])
def test_pattern_with_a_bit_at_or_above_two_to_the_k_is_refused(K, dtype):
    design = enumerate_assignments(K)
    pattern = np.zeros((3, design.J), dtype=dtype)
    pattern[2, 1] = (1 << K) - 1
    pop = Population.from_pattern(design, pattern, np.zeros((3, design.J)))
    assert pop.uptake[2, 1].tolist() == [1] * K
    for bit in range(K, np.iinfo(dtype).bits):
        pattern[2, 1] = 1 << bit
        with pytest.raises(InvalidInputError, match=f"below 2\\^{K}"):
            Population.from_pattern(design, pattern, np.zeros((3, design.J)))
    with pytest.raises(InvalidInputError, match="unsigned"):
        Population.from_pattern(design, pattern.astype(np.int16), np.zeros((3, design.J)))
    with pytest.raises(InvalidInputError, match="outcomes must lie in"):
        Population.from_pattern(design, np.zeros_like(pattern), np.full((3, design.J), 1.5))


def test_split_clone_and_retry_patterns_pack_their_uptake(monkeypatch):
    # every path that builds a population from a pattern keeps the layout
    # pack_uptake gives: arm-major rows, equal to a fresh pack of the uptake
    def packed(pop):
        assert pop.pattern.dtype == pack_uptake(pop.uptake).dtype
        assert np.array_equal(pop.pattern, pack_uptake(pop.uptake))

    p4 = fixture_p4()
    big = clone(p4, 3)
    blocks = [Population.from_pattern(p4.design, big.pattern[i : i + 4], big.outcome[i : i + 4]) for i in (0, 4, 8)]
    for pop in (big, *blocks):  # a retry stacks the blocks of a chunk split this way
        packed(pop)
    assert clone(p4, 3).pattern.T.flags.c_contiguous
    # rare constant compliers: some replications miss first_stage:1 and draw again
    config = ScenarioConfig(
        K=2,
        N=24,
        seed=1,
        factors=(
            FactorSpec(complier=0.1, upgrade=0.5, depends_on=(2,), worst=(-1,)),
            FactorSpec(always=0.1, complier=0.6, upgrade=0.5, depends_on=(1,), worst=(-1,)),
        ),
        require=("monotone:1", "profile:1", "first_stage:1"),
    )
    draws = []
    draw_pattern = simulate._draw_pattern
    monkeypatch.setattr(simulate, "_draw_pattern", lambda *a: draws.append(a) or draw_pattern(*a))
    stack = _generate(config, range(40))
    assert len(draws) > 1  # the stack was assembled after a retry
    assert stack.pattern.T.flags.c_contiguous
    packed(stack)


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_population_refuses_non_integer_uptake(dtype):
    p = fixture_p4()
    uptake = p.uptake.astype(dtype)
    message = f"uptake entries must be integers, got dtype {uptake.dtype}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        Population(design=p.design, uptake=uptake, outcome=p.outcome.copy())


@pytest.mark.parametrize("dtype", [np.bool_, np.str_, object])
def test_population_refuses_non_numeric_outcome(dtype):
    p = fixture_p4()
    outcome = p.outcome.astype(dtype)
    message = f"outcome entries must be numbers, got dtype {outcome.dtype}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        Population(design=p.design, uptake=p.uptake.copy(), outcome=outcome)


def test_population_stores_float64_outcome():
    p = fixture_p4()
    pop = Population(design=p.design, uptake=p.uptake.copy(), outcome=p.outcome.astype(np.float32))
    assert pop.outcome.dtype == np.float64 and not pop.outcome.flags.writeable
    assert arm_outcome_means(pop).dtype == np.float64
    assert np.array_equal(arm_outcome_means(pop), arm_outcome_means(p))


def test_caller_arrays_stay_writable_and_apart_from_the_population():
    pop = fixture_p4()
    u, o = np.array(pop.uptake), np.array(pop.outcome)
    copy = Population(design=pop.design, uptake=u, outcome=o)
    u[0, 0, 0] = 1
    o[0, 0] = 0.5
    assert copy.uptake[0, 0, 0] == -1 and copy.outcome[0, 0] == 0.0
    assert not copy.uptake.flags.writeable and not copy.outcome.flags.writeable
    arm, d, y = np.array([0, 1, 2, 3]), np.ones((4, 2), dtype=np.int8), np.full(4, 0.25)
    data = ObservedDataset(design=pop.design, arm=arm, uptake=d, outcome=y)
    arm[0], d[0, 0], y[0] = 3, -1, 1.0
    assert (data.arm[0], data.uptake[0, 0], data.outcome[0]) == (0, 1, 0.25)


def test_read_only_view_of_writable_memory_is_copied():
    pop = fixture_p4()
    u = np.array(pop.uptake)
    v = u.view()
    v.setflags(write=False)
    q = Population(design=pop.design, uptake=v, outcome=pop.outcome)
    u[0, 0, 0] = 1  # the caller still writes the memory under its read-only view
    assert q.uptake[0, 0, 0] == -1 and not np.shares_memory(q.uptake, u)
    copies = clone(pop, 3)  # the package's own arrays are kept: owned and frozen
    assert copies.uptake.base is None and copies.outcome.base is None
    assert Population(design=pop.design, uptake=copies.uptake, outcome=copies.outcome).uptake is copies.uptake


def test_read_only_arrays_are_stored_without_a_copy():
    pop = fixture_p4()
    again = Population(design=pop.design, uptake=pop.uptake, outcome=pop.outcome)
    assert again.uptake is pop.uptake and again.outcome is pop.outcome


def test_compliance_profile_computed_once_and_read_only():
    pop = fixture_p4()
    types = classify(pop, 1)
    assert classify(pop, 1) is types and types.dtype == np.int8
    constant = constant_compliers(pop, 1)
    assert constant_compliers(pop, 1) is constant
    assert np.array_equal(constant, (types == COMPLIER).all(axis=0))
    for arr in (types, constant):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(InvalidFactorError):
        classify(pop, True)  # not the cached factor-1 types
    assert classify(clone(pop, 2), 1) is not types


def test_arm_uptake_means_is_the_per_arm_mean_uptake_product():
    # one factor keeps (2 * taken - N) / N, a pair the joint table's
    # (N - 2 * count(D_k != D_k2)) / N, both against the unpacked product's mean
    for K in (2, 3, 9):
        pop = random_population(np.random.default_rng(K), K, 7)
        pat, N = pop.pattern.T, pop.N
        for k in range(1, K + 1):
            taken = np.count_nonzero(pat & (1 << (k - 1)), axis=1)
            assert arm_uptake_means(pop, k).tobytes() == ((2 * taken - N) / N).tobytes()
        for k, k2 in itertools.combinations(range(1, K + 1), 2):
            joint = (N - 2 * np.count_nonzero(((pat >> (k - 1)) ^ (pat >> (k2 - 1))) & 1, axis=1)) / N
            product = (pop.uptake[:, :, k - 1] * pop.uptake[:, :, k2 - 1]).mean(axis=0)
            assert arm_uptake_means(pop, k, k2).tobytes() == joint.tobytes() == product.tobytes()
    with pytest.raises(InvalidFactorError):
        arm_uptake_means(pop, 1, K + 1)


def test_clone_preserves_means():
    pop = fixture_p4()
    big = clone(pop, 7)
    assert big.N == 28
    assert np.array_equal(arm_outcome_means(big), arm_outcome_means(pop))
    assert np.array_equal(arm_uptake_means(big, 1), arm_uptake_means(pop, 1))
    assert constant_complier_count(big, 1) == 7 * constant_complier_count(pop, 1)
    with pytest.raises(InvalidInputError):
        clone(pop, 0)


def test_population_io_roundtrip(tmp_path):
    pop = fixture_p4()
    path = tmp_path / "pop.json"
    save_population(pop, path)
    back = load_population(path)
    assert back.design.K == pop.design.K
    assert np.array_equal(back.uptake, pop.uptake)
    assert np.array_equal(back.outcome, pop.outcome)
    payload = json.loads(path.read_text())
    assert set(payload) == {"K", "N", "uptake", "outcome"}


@pytest.mark.parametrize(
    "array, value, message",
    [
        ("uptake", 300, "uptake entries must be -1 or +1"),
        ("uptake", 255, "uptake entries must be -1 or +1"),  # int8 would wrap it to -1
        ("uptake", -1.5, "uptake entries must be integers"),
        ("uptake", True, "uptake entries must be integers"),
        ("outcome", True, "outcome entries must be numbers"),
        ("outcome", "0.5", "outcome entries must be numbers"),
        ("outcome", None, "outcome entries must be numbers"),
    ],
    ids=["uptake_300", "uptake_255", "uptake_fraction", "uptake_true", "outcome_true", "outcome_string", "outcome_null"],
)
def test_from_dict_refuses_mistyped_entries_before_casting(array, value, message):
    payload = json.loads(json.dumps(to_dict(fixture_p4())))
    entry = payload[array][1]
    entry[0] = value if array == "outcome" else [value, entry[0][1]]
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        from_dict(payload)


def test_from_dict_refuses_an_oversized_population_before_reading_its_arrays():
    # the declared K and N are enough: the empty arrays are never reached
    with pytest.raises(InvalidInputError, match="over the 4 GiB budget"):
        from_dict({"K": 10, "N": 200_000, "uptake": [], "outcome": []})
    with pytest.raises(InvalidInputError) as refused:  # K=8 passes and reaches the arrays
        from_dict({"K": 8, "N": 200_000, "uptake": [], "outcome": []})
    assert "budget" not in str(refused.value)


# ------------------------------------------------- the per-population memo


MEMOIZED = [
    (classify, (1,)),
    (constant_compliers, (1,)),
    (arm_outcome_means, ()),
    (arm_uptake_means, (2,)),
    (check_conditional_monotonicity, (1,)),
    (check_least_compliant_profile, (1,)),
    (check_weak_treatment_exclusion, (2,)),
    (check_least_compliant_profile, (1, 2)),
    (check_conditional_treatment_exclusion, (1, 2)),
    (check_outcome_exclusion, (2,)),
]
# the pair case checks the joint least-compliant profile of factors 1 and 2
MEMOIZED_IDS = [
    "check_joint_least_compliant" if fn is check_least_compliant_profile and len(args) == 2 else fn.__name__
    for fn, args in MEMOIZED
]


@pytest.mark.parametrize("fn, args", MEMOIZED, ids=MEMOIZED_IDS)
def test_memoized_functions_compute_once_per_population_and_arguments(monkeypatch, fn, args):
    calls = count_computations(monkeypatch, fn)
    pop = fixture_p4()
    first = fn(pop, *args)
    again = fn(pop, *args)
    assert again is first or again == first
    assert calls == [args]
    fn(fixture_p4(), *args)  # another population computes its own
    assert calls == [args, args]
    if args:  # and another factor is another entry
        fn(pop, *(3 - a for a in args))
        assert len(calls) == 3


@pytest.mark.parametrize(
    "fn, args",
    [entry for entry in MEMOIZED if entry[1]],
    ids=[name for name, (fn, args) in zip(MEMOIZED_IDS, MEMOIZED) if args],
)
def test_memo_keys_carry_argument_types(fn, args):
    pop = fixture_p4()
    fn(pop, *args)
    with pytest.raises(InvalidFactorError):  # True is not the cached factor 1
        fn(pop, True, *args[1:])


def test_memo_stores_nothing_for_a_raising_call(monkeypatch):
    calls = count_computations(monkeypatch, check_conditional_treatment_exclusion)
    pop = fixture_p4()
    for _ in range(2):
        with pytest.raises(InvalidFactorError):
            check_conditional_treatment_exclusion(pop, 1, 1)
    assert len(calls) == 2


def test_memo_hands_out_read_only_arrays_and_fresh_lists():
    pop = fixture_p4()
    for arr in (arm_outcome_means(pop), arm_uptake_means(pop, 1)):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    passed = check_weak_treatment_exclusion(pop, 1)
    passed.append((0, (-1,)))
    assert check_weak_treatment_exclusion(pop, 1) == []
    passed = require(pop, "exclusion", 1)  # require reads the stacked memo and hands out a copy too
    passed.append((0, (-1,)))
    assert require(pop, "exclusion", 1) == [] and check_weak_treatment_exclusion(pop, 1, R=1) == [[]]
    defiers = random_population(np.random.default_rng(2), 2, 20)
    found = check_conditional_monotonicity(defiers, 1)
    assert found
    want = list(found)
    found.clear()
    assert check_conditional_monotonicity(defiers, 1) == want


def test_a_population_compares_and_hashes_by_identity():
    pop = load_population(DATA / "p4_population.json")
    assert pop == pop
    assert pop != load_population(DATA / "p4_population.json")
    assert {pop: 1}[pop] == 1
