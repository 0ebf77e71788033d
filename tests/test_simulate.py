import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from factorbounds import design as dsg
from factorbounds import population as popmod
from factorbounds import simulate
from factorbounds.design import enumerate_assignments
from factorbounds.errors import (
    GenerationError,
    InvalidDesignError,
    InvalidInputError,
    WeakFirstStageError,
)
from factorbounds.estimate import estimate_bounds
from factorbounds.population import (
    COMPLIER,
    DEFIER,
    NEVER_TAKER,
    Population,
    check_conditional_monotonicity,
    check_conditional_treatment_exclusion,
    check_least_compliant_profile,
    check_weak_treatment_exclusion,
    classify,
    constant_complier_count,
    fixture_p4,
)
from factorbounds.simulate import (
    FactorSpec,
    OutcomeSpec,
    ScenarioConfig,
    TargetSpec,
    census_dataset,
    complete_randomization,
    config_hash,
    generate_population,
    load_scenario,
    monte_carlo,
    observe,
    save_scenario,
)

from conftest import random_population


def basic_config(**over):
    kw = dict(
        K=2,
        N=40,
        factors=(
            FactorSpec(complier=0.6, upgrade=0.3, depends_on=(2,), worst=(-1,)),
            FactorSpec(complier=0.9),
        ),
        outcome=OutcomeSpec(),
        seed=1234,
        require=("monotone:1", "profile:1", "first_stage:1"),
    )
    kw.update(over)
    return ScenarioConfig(**kw)


# ----------------------------------------------------------------- configs


def test_config_roundtrip(tmp_path):
    config = basic_config(targets=(TargetSpec(factor=1, method="exclusion"),))
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    back = load_scenario(path)
    assert back == config
    assert config_hash(back) == config_hash(config)


def test_config_rejects_unknown_keys(tmp_path):
    config = basic_config()
    d = config.to_dict()
    d["extra_knob"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidInputError, match="extra_knob"):
        load_scenario(path)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        basic_config(K=3)  # factor list length mismatch
    with pytest.raises(InvalidInputError):
        basic_config(require=("monotone:5",))
    with pytest.raises(InvalidInputError):
        basic_config(require=("flatness:1",))
    with pytest.raises(InvalidDesignError):
        basic_config(arm_sizes=(10, 10, 10, 11))
    with pytest.raises(InvalidDesignError):
        basic_config(N=7).resolved_arm_sizes()  # 4 arms cannot all get 2 units
    with pytest.raises(InvalidInputError):
        FactorSpec(complier=1.2)
    with pytest.raises(InvalidInputError):
        FactorSpec(complier=0.5, always=0.6)
    with pytest.raises(InvalidInputError):
        OutcomeSpec(model="m3")
    # the scenario's targets get estimate_bounds' checks
    with pytest.raises(InvalidInputError, match="oracle"):
        basic_config(targets=(TargetSpec(factor=1, method="conservative:0.3"),))
    with pytest.raises(InvalidInputError, match="no targets: set them in the scenario"):
        monte_carlo(basic_config(), 2)


def test_monte_carlo_refuses_a_replication_count_that_is_not_a_positive_integer():
    config = basic_config(targets=(TargetSpec(factor=1, method="exclusion"),))
    with pytest.raises(InvalidInputError, match=re.escape("R must be >= 1, got 0")):
        monte_carlo(config, 0)
    for bad in (True, 2.5, "3"):
        with pytest.raises(InvalidInputError, match="R must be an integer"):
            monte_carlo(config, bad)


def test_resolved_arm_sizes_near_equal():
    config = basic_config(N=42)
    sizes = config.resolved_arm_sizes()
    assert sum(sizes) == 42
    assert max(sizes) - min(sizes) <= 1


# -------------------------------------------------------------- generation


def test_generation_deterministic():
    config = basic_config()
    a = generate_population(config, rep=3)
    b = generate_population(config, rep=3)
    c = generate_population(config, rep=4)
    assert np.array_equal(a.uptake, b.uptake)
    assert np.array_equal(a.outcome, b.outcome)
    assert not np.array_equal(a.uptake, c.uptake) or not np.array_equal(a.outcome, c.outcome)


# sha256 of uptake.tobytes() + outcome.tobytes() for reps 0 and 1, taken
# before the generation kernels were rewritten; any change of an RNG draw,
# its order or a floating-point step shows here
GENERATION_PINS = {
    "K5_m1_eta": (
        "60fc7bc8c184e0a145920151dfe61621e007e2b034aa630d3875b8f040884d1b",
        "1c84f85f0d8de4fc09efc2e45abece1165d0ea8fdc73fe8bf891021f2bcb5bf8",
    ),
    "K3_m2_violate": (
        "bef36931d5dfbf4e74a90b1036eaea682371473ee4f509ada5762af0f4a13d80",
        "842b55f90c0a883c84fd2d3f303d8943107f7bcaf6b06d69fa30416189a41481",
    ),
    # taken before outcomes were gathered through the uptake pattern
    "K9_m1_negative_eta": (
        "d020bd37de2ffb039c1a839e1314077bea1097f28b28f92352f21830c7741810",
        "376beb9c5fa941cc207e40d1dff53218060197eb27cd13d7e1c47a9b7f818124",
    ),
    "K1_m2": (
        "129a4af5cf4a32a65cd7afcd2147371c7d25727b8c0ff179e163df1d545fb296",
        "9726b31b49b539d6489e10e7e1176f6012db5c10fc123e63bb7fd2cc96577a54",
    ),
}


def _pinned_configs():
    yield "K5_m1_eta", ScenarioConfig(
        K=5,
        N=300,
        seed=11,
        factors=(
            FactorSpec(complier=0.6, always=0.1, upgrade=0.5, depends_on=(2, 4)),
            FactorSpec(complier=0.7),
            FactorSpec(complier=0.5, always=0.2, upgrade=0.3, depends_on=(5,), worst=(1,)),
            FactorSpec(complier=0.8, always=0.05),
            FactorSpec(complier=0.65),
        ),
        outcome=OutcomeSpec(model="m1", alpha=(0.0, 0.2), beta=((0.05, 0.15),) * 5, eta=(0.01, 0.08)),
    )
    yield "K3_m2_violate", ScenarioConfig(
        K=3,
        N=200,
        seed=5,
        factors=(
            FactorSpec(complier=0.6, upgrade=0.4, depends_on=(2,)),
            FactorSpec(complier=0.75),
            FactorSpec(complier=0.7, always=0.1),
        ),
        outcome=OutcomeSpec(model="m2", alpha=(0.1, 0.3), beta=((0.1, 0.3),) * 3, eta=(-0.1, 0.1)),
        require=("monotone:1", "first_stage:1"),
        violate=("exclusion:1",),
    )
    # a uint16 pattern, pairs across bit 8 and negative pair terms
    yield "K9_m1_negative_eta", ScenarioConfig(
        K=9,
        N=24,
        seed=17,
        factors=(
            FactorSpec(complier=0.6, always=0.1, upgrade=0.5, depends_on=(9,)),
            *(FactorSpec(complier=0.5 + 0.05 * k, always=0.05) for k in range(7)),
            FactorSpec(complier=0.55, upgrade=0.4, depends_on=(1, 8), worst=(1, -1)),
        ),
        outcome=OutcomeSpec(model="m1", alpha=(0.2, 0.4), beta=((0.0, 0.1),) * 9, eta=(-0.06, 0.04)),
    )
    yield "K1_m2", ScenarioConfig(  # no pairs: no eta draws
        K=1,
        N=30,
        seed=3,
        factors=(FactorSpec(complier=0.6, always=0.1),),
        outcome=OutcomeSpec(model="m2", alpha=(0.1, 0.3), beta=((0.3, 0.5),), eta=(-0.1, 0.1)),
        require=("first_stage:1",),
    )


def test_generation_pinned_bit_for_bit():
    got = {}
    for name, config in _pinned_configs():
        pops = [generate_population(config, rep=rep) for rep in (0, 1)]
        got[name] = tuple(hashlib.sha256(p.uptake.tobytes() + p.outcome.tobytes()).hexdigest() for p in pops)
    assert got == GENERATION_PINS


def test_stacked_generation_equals_one_replication_at_a_time():
    # replications drawn together, some of them again after a miss, give the
    # populations generate_population draws alone, as blocks of a read-only stack
    config = basic_config(N=12, factors=(FactorSpec(complier=0.15), FactorSpec(complier=0.9)))
    stack = simulate._generate(config, range(3, 40))
    assert stack.N == 37 * 12 and not stack.pattern.flags.writeable
    valid = check_least_compliant_profile.stacked(stack, 37, 1)
    for i, rep in enumerate(range(3, 40)):
        alone = generate_population(config, rep=rep)
        block = slice(i * 12, i * 12 + 12)
        assert np.array_equal(stack.uptake[block], alone.uptake)
        assert np.array_equal(stack.outcome[block], alone.outcome)
        assert valid[i] == check_least_compliant_profile(alone, 1)


def _elementwise_outcomes(config, uptake, rngs):
    """The outcome formula cell by cell over (unit, arm) on the (R*N, J, K)
    uptake, as generation computed it before the pattern tables: the same
    draws from each replication's generator, the same float steps in order."""
    spec, n, K = config.outcome, config.N, config.K
    draws = lambda lo, hi: np.concatenate([rng.uniform(lo, hi, n) for rng in rngs])
    alpha = draws(*spec.alpha)
    beta = np.column_stack([draws(lo, hi) for lo, hi in spec.beta])
    pairs = list(itertools.combinations(range(K), 2))
    eta = np.column_stack([draws(*spec.eta) for _ in pairs]) if pairs else None
    on = (uptake > 0).astype(np.float64)
    lin = np.einsum("nk,njk->nj", beta, on)
    lin += alpha[:, None]
    for idx, (a, b) in enumerate(pairs):
        lin += eta[:, idx, None] * ((uptake[:, :, a] > 0) & (uptake[:, :, b] > 0))
    y = np.clip(lin, 0.0, 1.0)
    if spec.model == "m2":
        y = (y >= draws(0.0, 1.0)[:, None]).astype(np.float64)
    return y


@pytest.mark.parametrize("model", ["m1", "m2"])
@pytest.mark.parametrize("K", range(1, 10))
def test_pattern_outcome_tables_equal_elementwise_formula(K, model):
    # three replications of N units fill about ten blocks of 2^15 (pattern,
    # unit) cells, the last one partial; random uptake reaches every pattern
    J, R = 1 << K, 3
    N = (1 << 17) // J * 5 // 6 + 1
    config = ScenarioConfig(
        K=K,
        N=N,
        seed=0,
        factors=(FactorSpec(complier=0.5),) * K,
        outcome=OutcomeSpec(model=model, alpha=(-0.1, 0.3), beta=((-0.2, 0.3),) * K, eta=(-0.15, 0.1)),
    )
    uptake = np.where(np.random.default_rng(K).random((R * N, J, K)) < 0.5, -1, 1).astype(np.int8)
    rngs = lambda: [np.random.default_rng([K, rep]) for rep in range(R)]
    got = simulate._draw_outcomes(config, enumerate_assignments(K), popmod.pack_uptake(uptake), rngs())
    assert got.tobytes() == _elementwise_outcomes(config, uptake, rngs()).tobytes()


def test_generation_seeds_the_packed_pattern():
    # the stack generation writes holds the pattern arm-major, equal to a
    # fresh pack of its own uptake
    stack = simulate._generate(basic_config(N=12, require=()), range(4))
    assert stack.pattern.T.flags.c_contiguous and "uptake" not in stack.__dict__
    assert np.array_equal(stack.pattern, popmod.pack_uptake(stack.uptake))


# The generation kernels as they were before generation wrote the pattern
# straight from factor-major types: (N, K, C) types, the violate surgeries on
# that layout, the (N, J, K) uptake and then pack_uptake. They are the
# reference the pattern kernels are checked against.
_UPTAKE_TABLE = np.array([[-1, 1], [1, 1], [-1, -1], [1, -1]], dtype=np.int8)  # complier, always, never, defier


def _reference_uptake(design, types):
    """(N, J, K) uptake from the (N, K, C) types, one factor plane at a time."""
    N, K, C = types.shape
    uptake = np.empty((N, design.J, K), dtype=np.int8)
    for k in range(1, K + 1):
        lo = 1 << (k - 1)
        t = types[:, k - 1, :].astype(np.intp).reshape(N, C // lo, 1, lo)
        plane = uptake[:, :, k - 1].reshape(N, C // lo, 2, lo)  # a view: (hi, z_k, lo)
        plane[:, :, :1] = _UPTAKE_TABLE[:, 0].take(t)
        plane[:, :, 1:] = _UPTAKE_TABLE[:, 1].take(t)
    return uptake


def _reference_violations(config, design, types):
    """The violate surgeries on units 0 and 1 of every replication of the (R*N, K, C) types, in place."""
    K, N = config.K, config.N
    types = types.reshape(-1, N, K, types.shape[2])

    def gated(kk, by, want):
        return np.where(design.levels[dsg.context_arms(design, kk)[0], by - 1] == want, COMPLIER, NEVER_TAKER)

    for token in config.violate:
        name, ks = simulate._parse_token(token, K, simulate._VIOLATE_TOKENS)
        if name == "monotone":
            types[:, 0, ks[0] - 1, 0] = DEFIER
        elif name == "profile":
            k = ks[0]
            types[:, 0, k - 1, :] = NEVER_TAKER
            types[:, 0, k - 1, 0] = COMPLIER
            types[:, 1, k - 1, :] = COMPLIER
            types[:, 1, k - 1, 0] = NEVER_TAKER
        elif name == "exclusion":
            k = ks[0]
            k2 = 1 if k != 1 else 2
            types[:, 0, k - 1, :] = NEVER_TAKER
            types[:, 0, k2 - 1, :] = gated(k2, k, 1)
        elif name == "cross_exclusion":
            k, k2 = ks
            types[:, 0, k - 1, :] = gated(k, k2, 1)
        elif name == "joint_profile":
            k, k2 = ks
            k3 = min(f for f in range(1, K + 1) if f not in (k, k2))
            for unit, want in ((0, -1), (1, 1)):
                for kk in (k, k2):
                    types[:, unit, kk - 1, :] = gated(kk, k3, want)


def _violate_tokens(K):
    """One token of each violate kind that K factors allow."""
    pairs = ["profile:2", "exclusion:1", "cross_exclusion:2,1"]
    return ["monotone:1"] + pairs * (K >= 2) + ["joint_profile:1,3"] * (K >= 3)


@pytest.mark.parametrize("K", range(1, 10))
def test_pattern_from_types_equals_packed_reference_uptake(K):
    # random types hold all four codes, defiers included; each violate token
    # is applied alone and then all of them in order
    R, N = 3, 5
    design = enumerate_assignments(K)
    rng = np.random.default_rng(100 + K)
    tokens = _violate_tokens(K)
    for violate in [[], *([t] for t in tokens), tokens]:
        config = ScenarioConfig(K=K, N=N, seed=0, factors=(FactorSpec(complier=0.5),) * K, violate=violate)
        types = rng.integers(0, 4, size=(K, design.J // 2, R * N)).astype(np.int8)
        old = types.transpose(2, 0, 1).copy()  # (R*N, K, C)
        _reference_violations(config, design, old)
        want = popmod.pack_uptake(_reference_uptake(design, old))
        got = simulate._pack_types(design, simulate._apply_violations(config, design, types))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), violate
        assert np.array_equal(got, want) and not got.flags.writeable


def test_generated_population_unpacks_to_the_reference_uptake(tmp_path):
    # the unpacked uptake, the observed rows, the census and the saved file
    # of a generated population are those of the reference (N, J, K) uptake
    config = ScenarioConfig(
        K=4,
        N=50,
        seed=9,
        factors=(
            FactorSpec(complier=0.5, always=0.2, upgrade=0.5, depends_on=(2,)),
            FactorSpec(complier=0.7, always=0.1),
            FactorSpec(complier=0.6, upgrade=0.3, depends_on=(1, 4), worst=(1, -1)),
            FactorSpec(complier=0.8),
        ),
        outcome=OutcomeSpec(eta=(-0.05, 0.05)),
        violate=("monotone:3", "exclusion:2"),
    )
    K, N, J = 4, 50, 16
    design = enumerate_assignments(K)
    rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, 0, 0, 0]))]  # rep 0, attempt 0
    types = simulate._draw_types(config, design, rngs).transpose(2, 0, 1).copy()
    _reference_violations(config, design, types)
    uptake = _reference_uptake(design, types)
    pop = generate_population(config)
    assert pop.uptake.dtype == np.int8 and pop.uptake.tobytes() == uptake.tobytes()
    alloc = np.stack([complete_randomization(N, config.resolved_arm_sizes(), seed) for seed in (1, 2)])
    data = observe(pop, alloc)
    rows = (np.arange(0, N * J, J) + alloc).reshape(-1)
    assert data.uptake.tobytes() == uptake.reshape(-1, K)[rows].tobytes()
    census = census_dataset(pop)
    assert census.uptake.tobytes() == np.concatenate([uptake[:, j, :] for j in range(J)]).tobytes()
    popmod.save_population(pop, tmp_path / "pop.json")
    saved = {"K": K, "N": N, "uptake": uptake.tolist(), "outcome": pop.outcome.tolist()}
    assert (tmp_path / "pop.json").read_text() == json.dumps(saved, sort_keys=True) + "\n"


def _census_by_arm(pop):
    """The every-arm rows built directly: arm j's N units, arm by arm."""
    arm = np.repeat(np.arange(pop.design.J, dtype=np.intp), pop.N)
    return arm, pop.design.levels.take(pop.pattern.T.ravel(), axis=0), pop.outcome.T.ravel()


@pytest.mark.parametrize("K", [2, 3, 9])
def test_census_dataset_is_the_direct_every_arm_construction(K):
    # K=9 packs its pattern in uint16
    pop = fixture_p4() if K == 2 else random_population(np.random.default_rng(K), K, 5)
    census = census_dataset(pop)
    for got, want in zip((census.arm, census.uptake, census.outcome), _census_by_arm(pop)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (K < 9) == (pop.pattern.dtype == np.uint8)


def test_memory_preflight_refuses_before_any_array_exists():
    # K=10, N=200k is refused by its estimate (4.6 GiB) before a population
    # is built; K=8, N=200k (1.0 GiB) passes; monte_carlo counts the clones
    factors = lambda K: (FactorSpec(complier=0.5),) * K
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match=re.escape("needs about 4.6 GiB, over the 4 GiB budget")):
            ScenarioConfig(K=10, N=200_000, seed=1, factors=factors(10))
        ScenarioConfig(K=8, N=200_000, seed=1, factors=factors(8))
        clones = ScenarioConfig(
            K=8,
            N=600,
            seed=1,
            factors=factors(8),
            population_mode="clone",
            clone_factor=5000,
            targets=(TargetSpec(factor=1),),
        )
        with pytest.raises(InvalidInputError, match="N=3000000 units over 2\\^8 arms"):
            monte_carlo(clones, R=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a population of either would take gigabytes


def test_generation_honors_requires():
    config = basic_config()
    for rep in range(30):
        pop = generate_population(config, rep=rep)
        assert check_conditional_monotonicity(pop, 1) == []
        assert check_least_compliant_profile(pop, 1) != ()
        assert constant_complier_count(pop, 1) > 0
        # factor 2's uptake depends only on z2, so factor 1 keeps uptake
        # exclusion by construction; factor 2 generally loses it because
        # factor 1's compliance shifts with z2
        assert check_weak_treatment_exclusion(pop, 1) == []


def test_one_sided_monotone_by_construction():
    # no always-takers and no defiers: uptake is -1 wherever assigned -1
    config = basic_config(require=())
    pop = generate_population(config)
    design = pop.design
    for j, z in enumerate(design.assignments()):
        for k in (1, 2):
            if z[k - 1] == -1:
                assert (pop.uptake[:, j, k - 1] == -1).all()


def test_uptake_from_types_classifies_back():
    # types -> uptake -> labels is the identity for every factor, all four codes
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(60):
        K = int(rng.integers(1, 5))
        N = int(rng.integers(1, 7))
        design = enumerate_assignments(K)
        types = rng.integers(0, 4, size=(K, design.J // 2, N)).astype(np.int8)
        pattern = simulate._pack_types(design, types)
        pop = Population.from_pattern(design, pattern, np.zeros((N, design.J)))
        for k in range(1, K + 1):
            assert np.array_equal(classify(pop, k).labels, types[k - 1].T)
        seen.update(np.unique(types).tolist())
    assert seen == {0, 1, 2, 3}


def test_compliance_rates_close_to_spec():
    config = basic_config(
        N=4000,
        factors=(FactorSpec(complier=0.63), FactorSpec(complier=0.98)),
        require=(),
    )
    pop = generate_population(config)
    for k, want in ((1, 0.63), (2, 0.98)):
        share = classify(pop, k).constant_complier_mask().mean()
        assert abs(share - want) < 0.03


def test_worst_pattern_is_least_compliant():
    config = basic_config()
    for rep in range(10):
        pop = generate_population(config, rep=rep)
        valid = check_least_compliant_profile(pop, 1)
        assert (-1,) in valid


def test_upgrade_raises_marginal_compliance():
    config = basic_config(N=6000, require=())
    pop = generate_population(config)
    prof = classify(pop, 1)
    comp = prof.complier_mask()
    # context (z2=-1) is worst; (z2=+1) collects upgraded units
    i_worst = prof.contexts.index((-1,))
    i_best = prof.contexts.index((1,))
    assert comp[:, i_best].mean() > comp[:, i_worst].mean() + 0.05


# -------------------------------------------------------------- violations


def test_violate_monotone():
    config = basic_config(require=("profile:2",), violate=("monotone:1",))
    pop = generate_population(config)
    viol = check_conditional_monotonicity(pop, 1)
    assert viol and viol[0][0] == 0


def test_violate_profile():
    config = basic_config(require=(), violate=("profile:1",))
    pop = generate_population(config)
    assert check_least_compliant_profile(pop, 1) == ()


def test_violate_exclusion():
    config = basic_config(require=(), violate=("exclusion:1",))
    pop = generate_population(config)
    assert check_weak_treatment_exclusion(pop, 1) != []


def test_violate_cross_exclusion():
    config = basic_config(require=(), violate=("cross_exclusion:1,2",))
    pop = generate_population(config)
    assert check_conditional_treatment_exclusion(pop, 1, 2) != []


def test_violate_joint_profile():
    config = ScenarioConfig(
        K=3,
        N=30,
        factors=(FactorSpec(complier=0.7), FactorSpec(complier=0.7), FactorSpec(complier=0.9)),
        outcome=OutcomeSpec(),
        seed=77,
        violate=("joint_profile:1,2",),
    )
    pop = generate_population(config)
    assert check_least_compliant_profile(pop, 1, 2) == ()


def test_unsatisfiable_requires_fail_loudly():
    config = basic_config(
        factors=(FactorSpec(complier=0.0), FactorSpec(complier=0.9)),
        require=("first_stage:1",),
    )
    with pytest.raises(GenerationError, match="first_stage:1"):
        generate_population(config)


# ------------------------------------------------------------ randomization


def test_partition_uniformity():
    # N=4 into two arms of 2: all 6 partitions should be equally likely
    rng = np.random.default_rng(2024)
    counts = {}
    reps = 10_000
    for _ in range(reps):
        arm = complete_randomization(4, (2, 2), rng)
        key = frozenset(np.nonzero(arm == 0)[0].tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, c in counts.items():
        assert abs(c / reps - 1 / 6) < 0.02, (sorted(key), c)


def test_randomization_respects_sizes_and_seed():
    arm = complete_randomization(10, (3, 3, 2, 2), 99)
    assert sorted(np.bincount(arm).tolist()) == [2, 2, 3, 3]
    again = complete_randomization(10, (3, 3, 2, 2), 99)
    assert np.array_equal(arm, again)
    other = complete_randomization(10, (3, 3, 2, 2), 100)
    assert not np.array_equal(arm, other)
    with pytest.raises(InvalidDesignError):
        complete_randomization(10, (5, 4), 1)
    with pytest.raises(InvalidDesignError):
        complete_randomization(3, (2, 1), 1)


def test_observe_reads_assigned_rows():
    pop = fixture_p4()
    alloc = np.array([0, 1, 2, 3], dtype=np.intp)
    data = observe(pop, alloc)
    for i in range(4):
        j = alloc[i]
        assert np.array_equal(data.uptake[i], pop.uptake[i, j, :])
        assert data.outcome[i] == pop.outcome[i, j]
        assert data.arm[i] == j
    with pytest.raises(InvalidInputError):
        observe(pop, np.array([0, 1, 2], dtype=np.intp))


def test_observe_equals_fancy_index_read_off():
    pop = random_population(np.random.default_rng(11), 3, 40)
    alloc = complete_randomization(40, (5,) * 8, 12)
    data = observe(pop, alloc)
    idx = np.arange(pop.N)
    assert np.array_equal(data.arm, alloc)
    assert np.array_equal(data.uptake, pop.uptake[idx, alloc, :])
    assert data.uptake.dtype == np.int8
    assert data.outcome.tobytes() == pop.outcome[idx, alloc].tobytes()


def test_arm_means_unbiased_over_allocations():
    # complete randomization is unbiased for every arm mean on a fixed
    # population; check to 3 Monte Carlo SEs with a fixed seed
    pop = fixture_p4().clone(2)  # N=8 so every arm gets 2 units
    sizes = (2, 2, 2, 2)
    reps = 10_000
    rng = np.random.default_rng(515)
    sums = np.zeros(4)
    sq = np.zeros(4)
    for _ in range(reps):
        data = observe(pop, complete_randomization(8, sizes, rng))
        for j in range(4):
            m = data.outcome[data.arm == j].mean()
            sums[j] += m
            sq[j] += m * m
    want = pop.arm_outcome_means()
    for j in range(4):
        mean = sums[j] / reps
        sd = np.sqrt(sq[j] / reps - mean**2)
        mcse = sd / np.sqrt(reps)
        assert abs(mean - want[j]) < 3 * mcse + 1e-12, (j, mean, want[j], mcse)


# ---------------------------------------------------------------- outcomes


def test_binary_outcome_model():
    config = basic_config(outcome=OutcomeSpec(model="m2"), require=())
    pop = generate_population(config)
    assert set(np.unique(pop.outcome).tolist()) <= {0.0, 1.0}


def test_outcomes_respond_to_uptake():
    config = basic_config(N=3000, require=())
    pop = generate_population(config)
    data = census_dataset(pop)
    taken = data.outcome[data.uptake[:, 0] == 1].mean()
    not_taken = data.outcome[data.uptake[:, 0] == -1].mean()
    assert taken > not_taken + 0.1


# -------------------------------------------------------------- monte carlo


def test_monte_carlo_deterministic_and_covering():
    config = basic_config(
        N=60,
        targets=(
            TargetSpec(factor=1, method="adjusted"),
            TargetSpec(factor=1, method="exclusion"),
        ),
    )
    rep1 = monte_carlo(config, 25)
    rep2 = monte_carlo(config, 25)
    assert rep1.to_json() == rep2.to_json()
    for tr in rep1.targets:
        assert tr.n_reps == 25
        assert tr.n_ok == 25
        assert tr.failures == {}
        assert 0.0 <= tr.coverage_ci <= 1.0
        assert tr.mean_width >= 0.0
        assert tr.label.startswith("factor1:")


def test_monte_carlo_fixed_mode_reuses_population():
    config = basic_config(
        N=60,
        population_mode="fixed",
        targets=(TargetSpec(factor=1, method="exclusion"),),
    )
    rep = monte_carlo(config, 10)
    tr = rep.targets[0]
    # one population, so the truth is the same number every replication and
    # the oracle reference is available throughout
    assert tr.n_oracle == 10
    assert tr.truth_mean is not None


def test_monte_carlo_clone_mode_scales():
    config = basic_config(
        N=12,
        arm_sizes=(3, 3, 3, 3),
        population_mode="clone",
        clone_factor=5,
        require=(),
        targets=(TargetSpec(factor=1, method="simple"),),
    )
    rep = monte_carlo(config, 5)
    assert rep.targets[0].n_ok == 5
    assert rep.replications == 5


def test_monte_carlo_tallies_failures():
    # nobody takes anything: the joint first stage is identically zero
    config = ScenarioConfig(
        K=2,
        N=24,
        factors=(FactorSpec(complier=0.0), FactorSpec(complier=0.0)),
        outcome=OutcomeSpec(),
        seed=9,
        targets=(TargetSpec(factor=1, method="joint:2"),),
    )
    rep = monte_carlo(config, 4)
    tr = rep.targets[0]
    assert tr.n_ok == 0
    assert sum(tr.failures.values()) == 4
    assert tr.coverage_bounds is None


def test_monte_carlo_schema():
    config = basic_config(targets=(TargetSpec(factor=1, method="simple"),))
    d = monte_carlo(config, 3).to_dict()
    assert d["schema"] == "factorbounds-coverage-v1"
    assert d["config"]["seed"] == config.seed
    assert d["config_hash"] == config_hash(config)
    assert len(d["targets"]) == 1
    json.dumps(d)  # serializable as given


@pytest.mark.parametrize("mode", ["fresh", "fixed", "clone"])
def test_coverage_report_reruns_from_its_own_config(mode):
    # the report carries everything its run read, so its own config reruns it byte for byte
    config = basic_config(
        population_mode=mode,
        clone_factor=3 if mode == "clone" else 1,
        targets=(TargetSpec(factor=1, method="exclusion"), TargetSpec(factor=2, method="simple")),
    )
    report = monte_carlo(config, 6)
    again = monte_carlo(ScenarioConfig.from_dict(report.to_dict()["config"]), 6)
    assert again.to_json() == report.to_json()


# ------------------------------------------------------------ shipped files


def test_shipped_scenarios_load_and_run(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.json"))
    assert names == [
        "appc_like.json",
        "clone_scaling.json",
        "full_compliance.json",
        "well_separated.json",
    ]
    for name in names:
        config = load_scenario(root / name)
        pop = generate_population(config)
        assert pop.N == config.N
        save_scenario(config, tmp_path / name)  # the shipped files are in saved form
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes()


def test_monte_carlo_classifies_once_per_population_and_factor(monkeypatch):
    import pathlib

    from factorbounds import population as popmod

    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "well_separated.json")
    calls = []
    classify_ = popmod.classify
    monkeypatch.setattr(popmod, "classify", lambda pop, k: calls.append(k) or classify_(pop, k))
    report = monte_carlo(config, R=5)
    assert all(t.n_ok == 5 for t in report.targets)
    assert 0 < len(calls) <= 2 * 5  # one fresh population per replication, K=2


def test_monte_carlo_clone_mode_computes_each_oracle_answer_once(monkeypatch):
    # one population serves every replication, so each target's oracle
    # interval is computed once, not once per replication, and the two
    # main-effect targets share one truth
    import pathlib

    from factorbounds import oracle

    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "clone_scaling.json")
    assert config.population_mode == "clone"
    assert [(t.factor, t.method) for t in config.targets] == [(1, "exclusion"), (1, "adjusted")]
    calls = []
    for name in ("main_effect", "exclusion_bounds", "adjusted_bounds"):
        compute = getattr(oracle, name)
        wrapper = lambda *a, _f=compute, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        monkeypatch.setattr(oracle, name, wrapper)
    report = monte_carlo(config, R=5)
    assert all(t.n_ok == 5 and t.n_oracle == 5 for t in report.targets)
    assert sorted(calls) == ["adjusted_bounds", "exclusion_bounds", "main_effect"]


def test_report_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    # one replication per chunk, seven, the default chunk size and every
    # replication in one chunk give the same report on a fresh scenario
    # whose generation retries, whose violate token puts a defier on factor
    # 2, and whose factor-1 exclusion target has an oracle reference in some
    # replications only
    config = ScenarioConfig.from_dict({
        "K": 2,
        "N": 24,
        "factors": [
            {"always": 0.0, "complier": 0.1, "depends_on": [2], "upgrade": 0.5, "worst": [-1]},
            {"always": 0.1, "complier": 0.6},
        ],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.2, 0.4], [0.1, 0.2]], "model": "m1"},
        "require": ["monotone:1", "profile:1", "first_stage:1"],
        "violate": ["monotone:2"],
        "seed": 4,
        "targets": [
            {"factor": 1, "method": "exclusion"},
            {"factor": 1, "method": "adjusted"},
            {"factor": 2, "method": "simple"},
        ],
    })
    R, draws = 30, []
    draw_types = simulate._draw_types
    monkeypatch.setattr(simulate, "_draw_types", lambda c, d, rngs: draws.append(len(rngs)) or draw_types(c, d, rngs))
    reports, cells = [], config.N << config.K  # per replication
    for chunk_cells in (cells, 7 * cells, simulate._CHUNK_CELLS, R * cells):
        monkeypatch.setattr(simulate, "_CHUNK_CELLS", chunk_cells)
        draws.clear()
        reports.append(monte_carlo(config, R).to_json())
        assert len(draws) > -(-R // (chunk_cells // cells))  # some chunk drew again
    assert len(set(reports)) == 1
    exclusion, adjusted, defier = json.loads(reports[0])["targets"]
    assert 0 < exclusion["n_oracle"] < exclusion["n_ok"]
    assert defier["n_oracle"] == 0 and defier["n_ok"] > 0


def test_retry_scenario_report_pinned():
    # report_bytes' small-N scenario: generation retries, replications whose
    # estimate fails with WeakFirstStageError and skipped oracle references;
    # sha256 of its report taken when every replication still ran alone
    import importlib.util
    import pathlib

    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "report_bytes.py"
    spec = importlib.util.spec_from_file_location("report_bytes", script)
    report_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_bytes)
    report = monte_carlo(ScenarioConfig.from_dict(report_bytes.retry_scenario()), 40)
    exclusion, adjusted = report.targets
    assert exclusion.failures == {"WeakFirstStageError": 21} and exclusion.n_oracle < exclusion.n_ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "4b39e9ea7d70e90985a332538368a1e79c3df93a7cdf3b90788272597cd117f7"
    )


def test_joint_zero_denominator_is_a_weak_first_stage():
    # the joint first-stage table leaves nu = 2.8e-17 at the chosen profile
    # of replications 0 and 24 while the endpoint maps' denominator, summed
    # in another order, is exactly 0.0: a weak first stage, not a division by zero
    config = ScenarioConfig(
        K=5,
        N=400,
        seed=7,
        population_mode="clone",
        factors=(
            FactorSpec(complier=0.494, always=0.015, upgrade=0.46, depends_on=(2,), worst=(-1,)),
            FactorSpec(complier=0.343, always=0.054),
            FactorSpec(complier=0.519, always=0.006),
            FactorSpec(complier=0.604, always=0.004),
            FactorSpec(complier=0.56, always=0.007),
        ),
        outcome=OutcomeSpec(model="m2", alpha=(0.05, 0.3), beta=((0.1, 0.2),) * 5, eta=(0.0, 0.05)),
        require=("monotone:1", "first_stage:1", "profile:1", "joint_profile:1,2"),
        targets=(TargetSpec(factor=1, method="joint:2", profile="min"),),
    )
    (target,) = monte_carlo(config, 37).targets
    assert target.failures == {"WeakFirstStageError": 25} and target.n_ok == 12
    pop = generate_population(config)
    alloc = complete_randomization(pop.N, config.resolved_arm_sizes(), np.random.SeedSequence([7, 1, 0]))
    with pytest.raises(WeakFirstStageError, match=r"is 2\.7755575615628914e-17 \(endpoint denominator 0\.0\)"):
        estimate_bounds(observe(pop, alloc), 1, "joint:2")


@pytest.mark.parametrize(
    "path, value",
    [
        (("factors", 0, "complier"), True),
        (("factors", 1, "always"), "0.1"),
        (("factors", 0, "upgrade"), float("nan")),
        (("outcome", "alpha", 1), False),
        (("outcome", "beta", 0, 0), "0.2"),
        (("outcome", "eta", 0), float("inf")),
        (("targets", 0, "alpha"), True),
    ],
)
def test_number_fields_refuse_bools_strings_nonfinite(path, value):
    outcome = OutcomeSpec(beta=((0.1, 0.2), (0.3, 0.4)))
    d = basic_config(outcome=outcome, targets=(TargetSpec(factor=1),)).to_dict()
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]
    with pytest.raises(InvalidInputError, match=re.escape(where) + " must be a finite number"):
        ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("record", [FactorSpec, OutcomeSpec, TargetSpec, ScenarioConfig])
def test_field_table_lists_every_field(record):
    assert list(record._FIELDS) == [f.name for f in dataclasses.fields(record)]


def test_nested_cross_field_error_names_the_record():
    d = basic_config().to_dict()
    d["factors"][1]["always"] = 0.5  # complier 0.9 + always 0.5 > 1
    with pytest.raises(InvalidInputError, match=r"^factors\[1\]: complier \+ always"):
        ScenarioConfig.from_dict(d)
    with pytest.raises(InvalidInputError, match=r"^complier \+ always"):
        FactorSpec(complier=0.9, always=0.5)
