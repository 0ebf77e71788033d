import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

# hypothesis imports its failure-report helper (and libcst, which warns of a
# deprecation) when a @given test first fails; under filterwarnings = error that
# warning would end the run in INTERNALERROR, so the helper is imported here once
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from factorbounds import _workers
from factorbounds import estimate as est
from factorbounds.design import contexts_for, enumerate_assignments, main_effect_contrast, validate_factor
from factorbounds.errors import InvalidFactorError, InvalidInputError, NoCompliersError
from factorbounds.population import Population, _memoized, arm_means, constant_complier_count, frozen
from factorbounds.simulate import census_dataset

# the four-unit worked example is built by the script that writes it to data/
_spec = importlib.util.spec_from_file_location(
    "make_fixture_data", Path(__file__).resolve().parents[1] / "scripts" / "make_fixture_data.py"
)
_fixture_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_fixture_script)
fixture_p4 = _fixture_script.fixture_p4


@_memoized
def arm_outcome_means(pop):
    """Population mean outcome per arm, length J: arm_means' one block."""
    return arm_means(pop, 1)[0]


@_memoized
def arm_uptake_means(pop, *ks):
    """Population mean of the uptake product over factors ks per arm,
    length J: of D_k for one factor, of D_k * D_k2 for a pair."""
    return arm_means(pop, 1, *ks)[0]


def clone(pop, factor):
    """Stack `factor` copies of every unit, unit i a copy of unit i % N; all
    population means persist. The row path that clone mode's counts replace."""
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise InvalidInputError(f"clone factor must be a positive integer, got {factor!r}")
    pattern, out = frozen(np.tile(pop.pattern.T, factor), np.concatenate([pop.outcome] * factor))
    return Population.from_pattern(pop.design, pattern.T, out)


def constant_complier_share(pop, k):
    return constant_complier_count(pop, k) / pop.N


def nu_hat_table(data, k):
    """Estimated first stage per context of factor k, canonical order."""
    validate_factor(data.design, k)
    return est._first_stage_table(data.design, (k,), est._arm_moments(data, k, None, 1)[0][0, :, 1])


def save_scenario(config, path):
    """Write a scenario in the shipped files' form."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def assignments(design):
    """The design's assignments as level tuples, in canonical order."""
    return list(map(tuple, design.levels.tolist()))


def strip_factor(z, k):
    """Drop factor k's coordinate of an assignment, leaving the context over the others."""
    if not 1 <= k <= len(z):
        raise InvalidFactorError(f"factor {k} outside 1..{len(z)}")
    return tuple(z[:k - 1]) + tuple(z[k:])


def wald_ratio(pop, k):
    """Population ratio of the marginal outcome ITT to the marginal uptake ITT."""
    g = main_effect_contrast(pop.design, k)
    m = 1 << (pop.design.K - 1)
    itt_y = float(g @ arm_outcome_means(pop)) / m
    itt_d = float(g @ arm_uptake_means(pop, k)) / (2 * m)
    if itt_d == 0.0:
        raise NoCompliersError(f"factor {k}: marginal uptake ITT is zero")
    return itt_y / itt_d


def build_population(K, uptake_rules, outcome_fn):
    """Assemble a Population from per-unit uptake rules.

    uptake_rules: one callable per unit, z -> length-K tuple of levels.
    outcome_fn: (unit_index, z, d) -> float in [0, 1].
    """
    design = enumerate_assignments(K)
    N = len(uptake_rules)
    uptake = np.empty((N, design.J, K), dtype=np.int8)
    outcome = np.empty((N, design.J), dtype=np.float64)
    for i, rule in enumerate(uptake_rules):
        for j, z in enumerate(assignments(design)):
            d = rule(z)
            uptake[i, j, :] = d
            outcome[i, j] = outcome_fn(i, z, d)
    return Population(design=design, uptake=uptake, outcome=outcome)


def random_population(rng, K, N):
    """Unconstrained uptake and outcomes; no assumption is guaranteed."""
    design = enumerate_assignments(K)
    uptake = rng.choice(np.array([-1, 1], dtype=np.int8), size=(N, design.J, K))
    outcome = rng.random((N, design.J))
    return Population(design=design, uptake=uptake, outcome=outcome)


def assumption_population(rng, K, N, upgrade_factors=(1,)):
    """Random population satisfying monotonicity with the all-minus context
    least compliant.

    Types (complier, always, never) are drawn at the all-minus context and
    only ever upgraded toward compliance elsewhere, so the all-minus context
    is least compliant for every unit. Factors outside `upgrade_factors`
    keep context-invariant types, which preserves uptake exclusion for the
    factors inside. Outcomes are per-unit functions of the realized uptake
    vector alone. Unit 0 complies with everything everywhere, so first
    stages and joint compliance never collapse.
    """
    C, A, NV = 0, 1, 2
    design = enumerate_assignments(K)
    J = design.J
    base = rng.choice([C, A, NV], size=(N, K), p=[0.4, 0.2, 0.4])
    base[0, :] = C
    # one upgrade draw per (unit, context) so both arms of a context agree
    lift_tbl = {
        k: rng.random((N, J // 2)) < 0.5 for k in range(1, K + 1) if k in upgrade_factors
    }
    uptake = np.empty((N, J, K), dtype=np.int8)
    for j, z in enumerate(assignments(design)):
        for k in range(1, K + 1):
            ctx = strip_factor(z, k)
            t = base[:, k - 1].copy()
            if k in upgrade_factors and ctx != tuple([-1] * (K - 1)):
                lift = lift_tbl[k][:, contexts_for(design, k).index(ctx)]
                t = np.where(lift & (t != C), C, t)
            uptake[:, j, k - 1] = np.where(t == C, z[k - 1], np.where(t == A, 1, -1))
    ymap = rng.random((N, J))
    outcome = np.empty((N, J))
    for j in range(J):
        d_idx = ((uptake[:, j, :] + 1) // 2 * (1 << np.arange(K))).sum(axis=1)
        outcome[:, j] = ymap[np.arange(N), d_idx]
    return Population(design=design, uptake=uptake, outcome=outcome)


def count_computations(monkeypatch, memoized):
    """Record the arguments of every call that reaches the function a memo
    wrapper computes with (its __wrapped__), past the memo."""
    calls = []
    compute = memoized.__wrapped__
    monkeypatch.setattr(memoized, "__wrapped__", lambda pop, *a, **kw: calls.append(a) or compute(pop, *a, **kw))
    return calls


@pytest.fixture
def serial(monkeypatch):
    """monte_carlo runs every replication in this process, where the calls a
    test records through monkeypatched module attributes happen."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)


@pytest.fixture
def p4():
    return fixture_p4()


@pytest.fixture
def p4_census(p4):
    return census_dataset(p4)


@pytest.fixture
def k3_joint_pop():
    """Four units, three factors; factors 1 and 2 are the bounded pair.

    Unit 0 complies with everything everywhere. Unit 1 complies with
    factors 1 and 2 only when factor 3 sits at +1, so the joint valid set
    is exactly {z3 = -1}. Units 2 and 3 never take factors 1 or 2.
    Everyone complies with factor 3.
    """

    def full(z):
        return z

    def gated(z):
        on = z[2] == 1
        return (z[0] if on else -1, z[1] if on else -1, z[2])

    def inert(z):
        return (-1, -1, z[2])

    def y(i, z, d):
        u = [(v + 1) // 2 for v in d]
        return 0.25 * u[0] * u[1] + 0.25 * u[0] + 0.1 * u[2]

    return build_population(3, [full, gated, inert, inert], y)
