import dataclasses
import hashlib
import itertools
import json
import pathlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from factorbounds import design as dsg
from factorbounds import estimate as est
from factorbounds import oracle
from factorbounds import population as popmod
from factorbounds import simulate
from factorbounds.data import save_csv
from factorbounds.design import enumerate_assignments
from factorbounds.errors import (
    FactorBoundsError,
    GenerationError,
    InsufficientDataError,
    InvalidDesignError,
    InvalidInputError,
    WeakFirstStageError,
)
from factorbounds.estimate import estimate_bounds
from factorbounds.population import (
    ALWAYS_TAKER,
    COMPLIER,
    DEFIER,
    NEVER_TAKER,
    Population,
    check_conditional_monotonicity,
    check_conditional_treatment_exclusion,
    check_least_compliant_profile,
    check_outcome_exclusion,
    check_weak_treatment_exclusion,
    classify,
    constant_complier_count,
    constant_compliers,
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
)

from conftest import (
    arm_outcome_means,
    assumption_population,
    clone,
    count_computations,
    fixture_p4,
    random_population,
    save_scenario,
)


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
    with pytest.raises(InvalidDesignError, match="arm sizes sum to 41, not N=40"):
        basic_config(arm_sizes=(10, 10, 10, 11))
    with pytest.raises(InvalidDesignError, match="every arm needs at least 2 units"):
        basic_config(arm_sizes=(1, 13, 13, 13))
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
# its order or a floating-point step shows here. K5_m1_eta and
# K9_m1_negative_eta were re-taken when the outcome tables came to be built
# by subset sums (simulate._subset_sums): that summation order moved some
# m1 outcomes in the last bit, and it is the order _elementwise_outcomes states
GENERATION_PINS = {
    "K5_m1_eta": (
        "923d5d77dc59ec8b87a9289aff7af07c2f8969f4fd787a464da01b95fa3ec239",
        "f701fd3f5af53a58cc47970f3f4ae4bf9cdd5b0dac1a1d4cb02d0e6e46c5e6d1",
    ),
    "K3_m2_violate": (
        "bef36931d5dfbf4e74a90b1036eaea682371473ee4f509ada5762af0f4a13d80",
        "842b55f90c0a883c84fd2d3f303d8943107f7bcaf6b06d69fa30416189a41481",
    ),
    "K9_m1_negative_eta": (
        "9a91e4c4f3a0770e34553e88c1f0b92cbd1f80fcdc742694fba0b589a279b7c5",
        "faca170e9f8cfa4a0c373b5d877a8bb1ad4edd01aed48c47700e128f18bff49a",
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
    valid = check_least_compliant_profile(stack, 1, R=37)
    for i, rep in enumerate(range(3, 40)):
        alone = generate_population(config, rep=rep)
        block = slice(i * 12, i * 12 + 12)
        assert np.array_equal(stack.uptake[block], alone.uptake)
        assert np.array_equal(stack.outcome[block], alone.outcome)
        assert valid[i] == check_least_compliant_profile(alone, 1)


def _elementwise_outcomes(config, uptake, rngs, einsum=False):
    """The outcome formula cell by cell over (unit, arm) on the (R*N, J, K)
    uptake, with the draws of each replication's generator in generation's
    order. Each sum starts from 0.0 and runs in increasing factor order:
    the beta terms, then alpha, then the pair terms grouped by their higher
    factor. einsum=True sums the beta terms by np.einsum and adds each pair
    term in draw order, as generation did before the subset sums."""
    spec, n, K = config.outcome, config.N, config.K
    draws = lambda lo, hi: np.concatenate([rng.uniform(lo, hi, n) for rng in rngs])
    alpha = draws(*spec.alpha)
    beta = [draws(lo, hi) for lo, hi in spec.beta]
    eta = {pair: draws(*spec.eta) for pair in itertools.combinations(range(K), 2)}
    on = uptake > 0
    if einsum:
        lin = np.einsum("nk,njk->nj", np.column_stack(beta), on.astype(np.float64))
        lin += alpha[:, None]
        for (a, h), term in eta.items():
            lin += term[:, None] * (on[:, :, a] & on[:, :, h])
    else:
        lin = np.zeros(on.shape[:2])
        for k in range(K):
            lin += beta[k][:, None] * on[:, :, k]  # an exact 0.0 or -0.0 where factor k is off
        lin += alpha[:, None]
        pairs = np.zeros_like(lin)
        for h in range(K):
            group = np.zeros_like(lin)
            for a in range(h):
                group += eta[a, h][:, None] * (on[:, :, a] & on[:, :, h])
            pairs += group
        lin += pairs
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
    want = _elementwise_outcomes(config, uptake, rngs())
    assert got.tobytes() == want.tobytes()
    if K <= 2:  # the subset sums keep the bits of the einsum generation used before them
        assert want.tobytes() == _elementwise_outcomes(config, uptake, rngs(), einsum=True).tobytes()


@pytest.mark.parametrize("K", range(1, 11))
def test_subset_sums_add_each_patterns_terms_lowest_bit_first(K):
    rng = np.random.default_rng([K, 99])
    terms = rng.uniform(-1.0, 1.0, (K, 3))
    got = simulate._subset_sums(terms, np.empty((1 << K, 3)))
    for p in range(1 << K):
        want = np.zeros(3)
        for h in range(K):
            if p >> h & 1:
                want = want + terms[h]
        assert got[p].tobytes() == want.tobytes()
    # every unit takes every pattern once, so its J outcomes are its table:
    # N = 21 units fill blocks of 5 units and a last one of 1 at every K;
    # the terms are negative or positive, and K = 1 has no pair terms
    N, J = 21, 1 << K
    config = ScenarioConfig(
        K=K,
        N=N,
        seed=0,
        factors=(FactorSpec(complier=0.5),) * K,
        outcome=OutcomeSpec(model="m1", alpha=(0.3, 0.6), beta=((-0.05, 0.06),) * K, eta=(-0.01, 0.01)),
    )
    pattern = np.broadcast_to(np.arange(J, dtype=popmod.pattern_dtype(K)), (N, J))
    got = simulate._draw_outcomes(config, enumerate_assignments(K), pattern, [np.random.default_rng(K)])
    rng = np.random.default_rng(K)
    alpha = rng.uniform(*config.outcome.alpha, N)
    beta = [rng.uniform(lo, hi, N) for lo, hi in config.outcome.beta]
    eta = {pair: rng.uniform(*config.outcome.eta, N) for pair in itertools.combinations(range(K), 2)}
    for p in range(J):
        on = [k for k in range(K) if p >> k & 1]
        lin = np.zeros(N)
        for k in on:
            lin = lin + beta[k]
        lin = lin + alpha
        pairs = np.zeros(N)
        for h in on:
            group = np.zeros(N)
            for a in on:
                if a < h:
                    group = group + eta[a, h]
            pairs = pairs + group
        lin = lin + pairs
        assert got[:, p].tobytes() == np.clip(lin, 0.0, 1.0).tobytes()


def test_generation_seeds_the_packed_pattern():
    # the stack generation writes holds the pattern arm-major, equal to a
    # fresh pack of its own uptake
    stack = simulate._generate(basic_config(N=12, require=()), range(4))
    assert stack.pattern.T.flags.c_contiguous and "uptake" not in stack.__dict__
    assert np.array_equal(stack.pattern, popmod.pack_uptake(stack.uptake))


# Generation spelled out in type codes: (N, K, C) types drawn in the
# generator's order, the violate surgeries on that layout, the (N, J, K)
# uptake and then pack_uptake. They are the reference _draw_pattern, which
# writes the bits straight from its draws, is checked against.
_UPTAKE_TABLE = np.empty((4, 2), dtype=np.int8)  # by type code: D_k under z_k = -1 and under z_k = +1
_UPTAKE_TABLE[[COMPLIER, ALWAYS_TAKER, NEVER_TAKER, DEFIER]] = [[-1, 1], [1, 1], [-1, -1], [1, -1]]


def _reference_types(config, design, rngs):
    """(R*N, K, C) types of the R replications of rngs, drawn factor by factor: one
    uniform per unit of each replication gives a complier below complier, an
    always-taker below complier + always, else a never-taker; then, at each
    non-worst pattern of the depends_on levels in lexicographic order, one more
    upgrades a noncomplier below upgrade to complier at that pattern's contexts."""
    N, K, C = config.N, config.K, design.J // 2
    types = np.empty((len(rngs) * N, K, C), dtype=np.int8)
    draw = lambda: np.concatenate([rng.random(N) for rng in rngs])
    for k, spec in enumerate(config.factors, start=1):
        u = draw()
        noncomplier = np.where(u < spec.complier + spec.always, ALWAYS_TAKER, NEVER_TAKER)
        base = np.where(u < spec.complier, COMPLIER, noncomplier)
        types[:, k - 1, :] = base[:, None]
        levels = design.levels[dsg.context_arms(design, k)[0]][:, [f - 1 for f in spec.depends_on]]  # (C, len(dep))
        for pat in sorted(set(map(tuple, levels.tolist()))) if spec.depends_on else ():
            if pat != spec.worst_pattern():
                up = (draw() < spec.upgrade) & (base != COMPLIER)
                types[np.ix_(up, [k - 1], (levels == pat).all(axis=1))] = COMPLIER
    return types


def _reference_factors(K):
    """K factors with always-takers and upgrades: factor 1 depends on two others where K >= 3, factor K on factor 1."""
    first = FactorSpec(complier=0.4, always=0.2, upgrade=0.5, depends_on=tuple(range(2, min(K, 3) + 1)))
    if K >= 3:
        first = dataclasses.replace(first, worst=(1, -1))
    rest = [FactorSpec(complier=0.5 + 0.04 * k, always=0.1 * (k % 2)) for k in range(2, K)]
    last = [FactorSpec(complier=0.5, always=0.15, upgrade=0.6, depends_on=(1,), worst=(1,))] * (K >= 2)
    return (first, *rest, *last)


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


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("K", range(1, 10))
def test_drawn_pattern_equals_packed_reference_uptake(K, R):
    # always-takers, upgrades at a factor depending on two others and each
    # violate token alone and then all of them in order, from the same draws
    N, design, tokens = 6, enumerate_assignments(K), _violate_tokens(K)
    rngs = lambda: [np.random.default_rng(np.random.SeedSequence([100 + K, 0, r, 0])) for r in range(R)]
    for violate in [[], *([t] for t in tokens), tokens]:
        config = ScenarioConfig(K=K, N=N, seed=0, factors=_reference_factors(K), violate=violate)
        types = _reference_types(config, design, rngs())
        if not violate:  # the draws reach always-takers, and upgrades where a factor depends on others
            assert (types == ALWAYS_TAKER).any() and (K == 1 or (types[:, 0] != types[:, 0, :1]).any())
        _reference_violations(config, design, types)
        want = popmod.pack_uptake(_reference_uptake(design, types))
        got = simulate._draw_pattern(config, design, rngs())
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), violate
        assert np.array_equal(got, want) and not got.flags.writeable and got.T.flags.c_contiguous


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
    types = _reference_types(config, design, rngs)
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


def _k8_clones(clone_factor):
    """K=8, N=600 in clone mode: a base population of 600*256 cells."""
    factors = (FactorSpec(complier=0.5),) * 8
    return ScenarioConfig(
        K=8,
        N=600,
        seed=1,
        factors=factors,
        population_mode="clone",
        clone_factor=clone_factor,
        targets=(TargetSpec(factor=1),),
    )


def test_memory_preflight_refuses_before_any_array_exists():
    # K=10, N=200k is refused by its estimate (4.6 GiB) before a population
    # is built; K=8, N=200k (1.0 GiB) passes. A clone run is charged its
    # base population and 40 bytes per clone unit for the allocation arrays
    # a chunk draws: K=8, N=600 at clone factor 5000 (3M clone units, 0.1
    # GiB) passes, and at 200,000 (120M clone units, 4.5 GiB) is refused
    factors = lambda K: (FactorSpec(complier=0.5),) * K
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match=re.escape("needs about 4.6 GiB, over the 4 GiB budget")):
            ScenarioConfig(K=10, N=200_000, seed=1, factors=factors(10))
        ScenarioConfig(K=8, N=200_000, seed=1, factors=factors(8))
        _k8_clones(5000)
        with pytest.raises(InvalidInputError, match="N=600 units over 2\\^8 arms with 120000000 clone units"):
            _k8_clones(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a population of either would take gigabytes


def test_an_accepted_clone_run_stays_within_its_memory_charge():
    # 3M clone units run, and the traced peak stays under the 40 bytes per
    # clone unit the preflight charges for the allocation arrays
    config = _k8_clones(5000)
    tracemalloc.start()
    try:
        report = monte_carlo(config, R=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.targets[0].n_ok == 1
    assert peak < config.N * config.clone_factor * 40


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
    for j, z in enumerate(design.levels):
        for k in (1, 2):
            if z[k - 1] == -1:
                assert (pop.uptake[:, j, k - 1] == -1).all()


def test_uptake_from_types_classifies_back():
    # types -> uptake -> pattern -> types is the identity for every factor, all four codes
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(60):
        K = int(rng.integers(1, 5))
        N = int(rng.integers(1, 7))
        design = enumerate_assignments(K)
        types = rng.integers(0, 4, size=(N, K, design.J // 2)).astype(np.int8)
        pattern = popmod.pack_uptake(_reference_uptake(design, types))
        pop = Population.from_pattern(design, pattern, np.zeros((N, design.J)))
        for k in range(1, K + 1):
            assert np.array_equal(classify(pop, k), types[:, k - 1].T)
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
        share = constant_compliers(pop, k).mean()
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
    comp = classify(pop, 1) == COMPLIER
    # context (z2=-1) is worst; (z2=+1) collects upgraded units
    i_worst = dsg.contexts_for(pop.design, 1).index((-1,))
    i_best = dsg.contexts_for(pop.design, 1).index((1,))
    assert comp[i_best].mean() > comp[i_worst].mean() + 0.05


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
    with pytest.raises(InvalidDesignError, match="arm sizes sum to 9, not N=10"):
        complete_randomization(10, (5, 4), 1)
    with pytest.raises(InvalidDesignError, match="every arm needs at least 2 units"):
        complete_randomization(3, (2, 1), 1)
    # empty, boolean and fractional sizes are refused, not truncated
    for N, sizes in ((4, [2.7, 2.3]), (0, []), (4, [True, 3]), (4, (2, "2")), (5, [2.5, 2.5])):
        with pytest.raises(InvalidDesignError, match="arm sizes must be a nonempty list of integers"):
            complete_randomization(N, sizes, 1)
    assert np.array_equal(complete_randomization(4, [2.0, np.int64(2)], 1), complete_randomization(4, (2, 2), 1))


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, [1, 2]])
def test_randomization_refuses_a_bad_seed_before_numpy_sees_it(seed):
    with pytest.raises(InvalidInputError, match="^seed must be"):
        complete_randomization(8, (2, 2, 2, 2), seed)


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
    # entries are checked before the cast and the gather: a fraction is no arm, J and -1 are out of range
    for bad in ([0, 1, 2, 1.7], [0, 1, 2, 4], [0, -1, 2, 3], [True, False, True, False], [[0, 1, 2, 3], [0, 1, 4, 3]]):
        with pytest.raises(InvalidInputError, match="arm indices in 0..3"):
            observe(pop, bad)
    assert np.array_equal(observe(pop, np.array([0, 1, 2, 3], dtype=np.uint8)).arm, alloc)


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
    pop = clone(fixture_p4(), 2)  # N=8 so every arm gets 2 units
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
    want = arm_outcome_means(pop)
    for j in range(4):
        mean = sums[j] / reps
        sd = np.sqrt(sq[j] / reps - mean**2)
        mcse = sd / np.sqrt(reps)
        assert abs(mean - want[j]) < 3 * mcse + 1e-12, (j, mean, want[j], mcse)


# ------------------------------------------------------------- clone counts


CLONE_SCALING = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "clone_scaling.json"


@pytest.mark.parametrize("c, R", [(1, 3), (3, 2), (1000, 1), (10, 81)])
def test_clone_counts_give_the_moments_of_the_cloned_rows(c, R):
    # the base cells weighted by their copies per arm give the arm moments
    # of the observed clones' rows, for every layout; R=81 stacks 81 count
    # tables, as a monte_carlo chunk of clones does
    config = load_scenario(CLONE_SCALING)
    base, sizes = generate_population(config), tuple(s * c for s in config.resolved_arm_sizes())
    alloc = np.stack([complete_randomization(base.N * c, sizes, np.random.SeedSequence([5, 1, r])) for r in range(R)])
    counted = simulate._observe_clones(base, alloc)
    rows = observe(clone(base, c), alloc)
    assert counted.n == R * base.N * base.design.J and counted.weight.sum() == rows.n
    for k, k2 in ((1, None), (2, None), (1, 2)):
        (m_counts, c_counts), (m_rows, c_rows) = (est._arm_moments(d, k, k2, R) for d in (counted, rows))
        assert np.abs(m_counts - m_rows).max() <= 1e-12 and np.abs(c_counts - c_rows).max() <= 1e-12
        if c == 1:  # one copy each: the same sums in the same order, bit for bit
            assert m_counts.tobytes() == m_rows.tobytes() and c_counts.tobytes() == c_rows.tobytes()


def test_clone_counts_refuse_a_short_arm_as_the_rows_do():
    base = fixture_p4()
    alloc = np.array([[0, 1, 1, 2, 2, 3, 3, 3]])  # arm 0 draws one of the 8 clones
    messages = []
    for data in (simulate._observe_clones(base, alloc), observe(clone(base, 2), alloc)):
        with pytest.raises(InsufficientDataError) as short:
            estimate_bounds(data, 1, "simple")
        messages.append(str(short.value))
    assert messages[0] == messages[1] == "arm (-1, -1) has 1 row(s); need at least 2"


def test_clone_mode_builds_no_clone(monkeypatch, serial):
    # the oracle and the moments read the 20-unit base population, not its 1000 copies
    config = dataclasses.replace(load_scenario(CLONE_SCALING), clone_factor=1000)
    store = Population._store  # where either constructor keeps a population's arrays

    def base_sized(pop, design, pattern, outcome):
        if pattern.shape[0] > config.N:
            pytest.fail("clone mode built a clone population")
        store(pop, design, pattern, outcome)

    monkeypatch.setattr(Population, "_store", base_sized)
    assert all(t.n_ok == t.n_oracle == 2 for t in monte_carlo(config, 2).targets)


@pytest.mark.parametrize(
    "weight, message",
    [
        (np.ones(3), "float64 (3,)"),
        (np.ones((4, 1)), "float64 (4, 1)"),
        (np.array([True] * 4), "bool (4,)"),
        (np.array([1.0, -1.0, 1.0, 1.0]), "float64 (4,)"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "float64 (4,)"),
        (np.array([1.0, np.inf, 1.0, 1.0]), "float64 (4,)"),
        (np.array(["1"] * 4), "<U1 (4,)"),
    ],
    ids=["short", "column", "boolean", "negative", "nan", "inf", "string"],
)
def test_dataset_refuses_a_malformed_weight(weight, message):
    rows = observe(fixture_p4(), [0, 1, 2, 3])
    with pytest.raises(InvalidInputError, match=re.escape(f"weight must be 4 finite numbers >= 0, not {message}")):
        dataclasses.replace(rows, weight=weight)


def test_save_csv_refuses_a_weighted_dataset(tmp_path):
    data = simulate._observe_clones(fixture_p4(), np.array([[0, 0, 1, 1, 2, 2, 3, 3]]))
    with pytest.raises(InvalidInputError, match="weighted dataset"):
        save_csv(data, tmp_path / "counts.csv")
    assert not (tmp_path / "counts.csv").exists()


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


def test_monte_carlo_classifies_once_per_population_and_factor(monkeypatch, serial):
    import pathlib

    from factorbounds import population as popmod

    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "well_separated.json")
    calls = count_computations(monkeypatch, popmod.classify)  # classify is memoized: its computations
    report = monte_carlo(config, R=5)
    assert all(t.n_ok == 5 for t in report.targets)
    assert 0 < len(calls) <= 2 * 5  # one fresh population per replication, K=2


def test_monte_carlo_keeps_a_repeated_target_s_tallies_apart():
    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "well_separated.json")
    first = config.targets[0]
    report = monte_carlo(dataclasses.replace(config, targets=(first, first)), R=10)
    for t in report.targets:
        assert t.n_reps == 10 and t.n_ok + sum(t.failures.values()) == 10
    assert report.targets[0] == report.targets[1]


def test_monte_carlo_clone_mode_computes_each_oracle_answer_once(monkeypatch, serial):
    # one population serves every replication, so each target's oracle
    # interval is computed once, not once per replication, and the two
    # main-effect targets share one truth; a computation is a call that
    # passes the memo, and every formula is reached through its module attribute
    import pathlib

    from factorbounds import oracle

    config = load_scenario(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "clone_scaling.json")
    assert config.population_mode == "clone"
    assert [(t.factor, t.method) for t in config.targets] == [(1, "exclusion"), (1, "adjusted")]
    calls, reached = [], set()
    names = ("interaction_effect", "interaction_bounds", "adjusted_bounds")
    for name in names:
        formula = getattr(oracle, name)
        compute = lambda *a, _f=formula.__wrapped__, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        monkeypatch.setattr(formula, "__wrapped__", compute)
        monkeypatch.setattr(oracle, name, lambda *a, _f=formula, _n=name, **kw: reached.add(_n) or _f(*a, **kw))
    report = monte_carlo(config, R=5)
    assert all(t.n_ok == 5 and t.n_oracle == 5 for t in report.targets)
    assert reached == set(names)
    assert sorted(calls) == ["adjusted_bounds", "interaction_bounds", "interaction_effect"]


def test_report_bytes_do_not_depend_on_the_chunk_size(monkeypatch, serial):
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
    draw_pattern = simulate._draw_pattern
    monkeypatch.setattr(simulate, "_draw_pattern", lambda *a: draws.append(len(a[2])) or draw_pattern(*a))
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


def _clone1000():
    return dataclasses.replace(load_scenario(CLONE_SCALING), clone_factor=1000)


def test_clone_report_bytes_do_not_depend_on_the_chunk_size(monkeypatch, serial):
    # clone chunks are sized by the base population's cells: one replication
    # per chunk, seven, the default chunk size and every replication in one
    # chunk give the same report at clone factor 1000; at the default, 15
    # replications observe 1200 cells, one chunk, though each allocates 20,000 clones
    config, R, chunks, reports = _clone1000(), 15, [], []
    run_chunk, cells = simulate._run_chunk, config.N << config.K  # per replication
    monkeypatch.setattr(simulate, "_run_chunk", lambda c, reps, *a: chunks.append(reps) or run_chunk(c, reps, *a))
    for chunk_cells in (cells, 7 * cells, simulate._CHUNK_CELLS, R * cells):
        monkeypatch.setattr(simulate, "_CHUNK_CELLS", chunk_cells)
        chunks.clear()
        reports.append(monte_carlo(config, R).to_json())
        assert len(chunks) == {cells: R, 7 * cells: 3}.get(chunk_cells, 1)
    assert len(set(reports)) == 1 and chunks == [range(R)]


def test_clone_counts_of_a_generator_equal_those_of_the_stacked_allocations():
    config = load_scenario(CLONE_SCALING)
    base, sizes = generate_population(config), tuple(s * 10 for s in config.resolved_arm_sizes())
    draws = [complete_randomization(base.N * 10, sizes, np.random.SeedSequence([5, 1, r])) for r in range(4)]
    stacked, drawn = simulate._observe_clones(base, np.stack(draws)), simulate._observe_clones(base, iter(draws))
    for field in ("arm", "uptake", "outcome", "weight"):
        a, b = getattr(stacked, field), getattr(drawn, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("R", [2, 40])
def test_clone_chunk_keeps_one_allocation_alive(monkeypatch, R, serial):
    # each allocation of the 20,000 clones is counted as it is drawn and
    # dropped, so when the next one is drawn none of the earlier is alive
    alive, most, allocations = [], [], simulate._allocations

    def tracked(*args):
        for alloc in allocations(*args):
            alive.append(weakref.ref(alloc))
            most.append(sum(ref() is not None for ref in alive))
            yield alloc

    monkeypatch.setattr(simulate, "_allocations", tracked)
    assert all(t.n_ok == R for t in monte_carlo(_clone1000(), R).targets)
    assert len(most) == R and max(most) == 1


@pytest.mark.filterwarnings("error")
def test_retry_scenario_report_pinned():
    # report_bytes' small-N scenario: generation retries, replications whose
    # estimate fails with WeakFirstStageError and skipped oracle references;
    # sha256 of its report taken when every replication still ran alone. A
    # chunk's array steps run over its failed blocks too, and warn of no
    # division by their first stage: a warning is an error here
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


@pytest.mark.filterwarnings("error")
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
def test_every_record_field_names_a_converter(record):
    assert all("convert" in f.metadata for f in dataclasses.fields(record))


def test_nested_cross_field_error_names_the_record():
    d = basic_config().to_dict()
    d["factors"][1]["always"] = 0.5  # complier 0.9 + always 0.5 > 1
    with pytest.raises(InvalidInputError, match=r"^factors\[1\]: complier \+ always"):
        ScenarioConfig.from_dict(d)
    with pytest.raises(InvalidInputError, match=r"^complier \+ always"):
        FactorSpec(complier=0.9, always=0.5)


# ----------------------------------------------------------------- arm-major outcomes


def _stored_arm_major(pop):
    out = pop.outcome
    return out.flags.f_contiguous and out.flags.owndata and not out.flags.writeable and out.dtype == np.float64


@pytest.mark.parametrize("model", ["m1", "m2"])
def test_generated_outcomes_are_stored_arm_major_owned_and_read_only(model):
    config = basic_config(outcome=OutcomeSpec(model=model), N=24)
    pop = generate_population(config)
    assert _stored_arm_major(pop) and pop.outcome.T.flags.c_contiguous
    stack = simulate._generate(config, range(3))  # three replications in one chunk
    assert _stored_arm_major(stack) and stack.N == 3 * config.N


def test_constructed_outcomes_are_stored_arm_major_owned_and_read_only():
    pop = fixture_p4()
    for outcome in (np.ascontiguousarray(pop.outcome), np.asfortranarray(pop.outcome), pop.outcome.tolist()):
        built = Population(design=pop.design, uptake=pop.uptake, outcome=np.asarray(outcome))
        assert _stored_arm_major(built) and np.array_equal(built.outcome, pop.outcome)
        assert _stored_arm_major(Population.from_pattern(pop.design, pop.pattern, np.asarray(outcome)))
    assert _stored_arm_major(clone(pop, 3))


def _answers(pop, methods):
    """Each method's oracle report, or its error's type and message, at every factor."""
    found = []
    for k in range(1, pop.design.K + 1):
        for method in methods:
            try:
                found.append(oracle.method_report(pop, k, method))
            except FactorBoundsError as error:
                found.append((type(error).__name__, str(error)))
    return found


@pytest.mark.parametrize("make", [assumption_population, random_population])
def test_c_and_f_ordered_outcomes_give_the_same_population(make):
    pop = make(np.random.default_rng(11), 3, 40)
    c_order = np.ascontiguousarray(pop.outcome)
    assert c_order.flags.c_contiguous and not c_order.flags.f_contiguous
    from_c = Population(design=pop.design, uptake=pop.uptake, outcome=c_order)
    from_f = Population(design=pop.design, uptake=pop.uptake, outcome=np.asfortranarray(c_order))
    alloc = np.stack([complete_randomization(40, [5] * 8, seed) for seed in (1, 2)])
    for a, b in ((observe(from_c, alloc), observe(from_f, alloc)), (census_dataset(from_c), census_dataset(from_f))):
        assert np.array_equal(a.arm, b.arm) and np.array_equal(a.uptake, b.uptake)
        assert np.array_equal(a.outcome, b.outcome)
    for k in (1, 2, 3):
        assert check_outcome_exclusion(from_c, k) == check_outcome_exclusion(from_f, k)
    methods = ("adjusted", "simple", "exclusion", "interaction:1+2", "joint:2", "conservative:0.05")
    assert _answers(from_c, methods) == _answers(from_f, methods)
    if make is random_population:  # uptake unmoved and outcome moved at some (unit, context) of every factor
        assert all(len(check_outcome_exclusion(from_c, k)) >= 2 for k in (1, 2, 3))
    else:  # factor 1 keeps uptake exclusion: every method but joint:2, whose pair has no joint profile, answers
        answered = [isinstance(answer, dict) for answer in _answers(from_c, methods)[: len(methods)]]
        assert answered == [method != "joint:2" for method in methods]


def test_full_compliance_truths_equal_their_collapsed_intervals_bit_for_bit():
    # the truth's per-arm means sum each arm's units as arm_means does, so where everyone complies
    # the truth and both raw ends are one float, block by block of a stacked chunk
    config = load_scenario(pathlib.Path(__file__).parents[1] / "scenarios" / "full_compliance.json")
    stack = simulate._generate(config, range(4))
    for k, method in itertools.product((1, 2), ("adjusted", "simple", "exclusion", "interaction:1+2")):
        truths = oracle.method_truth(stack, k, method, R=4)
        for truth, (iv, _) in zip(truths, oracle.method_interval(stack, k, method, R=4)):
            assert truth == iv.center == iv.raw_lower == iv.raw_upper
