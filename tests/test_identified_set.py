"""Brute-force audit of the oracle's intervals on small random populations.

The populations are built directly, not through the generator, so their
outcomes may move with assignment at unchanged uptake (outcome exclusion
fails), which no generated population does. Wherever the oracle answers
a method, its assumptions hold, and the true effect must lie in the raw
interval.
"""

from collections import Counter

import numpy as np

from factorbounds.design import enumerate_assignments
from factorbounds.errors import FactorBoundsError
from factorbounds.oracle import method_interval, method_truth
from factorbounds.population import Population, constant_complier_count

TOL = 1e-12  # criterion 2's
DESIGN = enumerate_assignments(2)
Z = DESIGN.levels.astype(np.int8)  # (J, K) assignment per arm
LEVELS = np.array([0.0, 0.5, 1.0])


def _random_population(rng) -> Population:
    """K=2, N in 3..6, about 60% of units complying with both factors in
    every arm. The other units take, in half the populations, a complier,
    always-taker or never-taker type per factor that no assignment of the
    other factor moves (so monotonicity and both exclusions on uptake
    hold), and in the other half any uptake per arm. Outcomes in {0, 0.5,
    1} are a function of the unit's uptake, of its uptake and one factor's
    assignment, or free per arm, a third of the populations each."""
    N = int(rng.integers(3, 7))
    uptake = np.tile(Z, (N, 1, 1))
    for i in np.flatnonzero(rng.random(N) >= 0.6):
        if rng.random() < 0.5:
            for k, kind in enumerate(rng.integers(0, 3, 2)):  # complier, always-taker, never-taker
                uptake[i, :, k] = Z[:, k] if kind == 0 else (1 if kind == 1 else -1)
        else:
            uptake[i] = rng.choice(np.array([-1, 1], dtype=np.int8), size=(DESIGN.J, 2))
    taken = (uptake[:, :, 0] > 0) + 2 * (uptake[:, :, 1] > 0)  # (N, J) uptake pattern 0..3
    mode = rng.integers(0, 3)
    if mode == 0:
        outcome = LEVELS[rng.integers(0, 3, (N, 4))][np.arange(N)[:, None], taken]
    elif mode == 1:
        m = rng.integers(0, 2)  # the factor whose assignment moves the outcome
        table = LEVELS[rng.integers(0, 3, (N, 8))]
        outcome = table[np.arange(N)[:, None], taken + 4 * (Z[:, m] > 0)]
    else:
        outcome = LEVELS[rng.integers(0, 3, (N, DESIGN.J))]
    return Population(design=DESIGN, uptake=uptake, outcome=outcome)


def test_every_answered_interval_holds_its_truth():
    rng = np.random.default_rng(20260307)
    answered, misses = Counter(), []
    for _ in range(1000):
        pop = _random_population(rng)
        for k in (1, 2):
            methods = ["adjusted", "simple", "exclusion", "interaction:1+2", f"joint:{3 - k}"]
            count = constant_complier_count(pop, k)
            if count:  # the tightest floor the conservative method accepts
                methods.append(f"conservative:{count / pop.N!r}")
            for method in methods:
                try:
                    iv, _ = method_interval(pop, k, method)
                    truth = method_truth(pop, k, method)
                except FactorBoundsError:
                    continue
                answered[method.split(":")[0]] += 1
                if not iv.raw_lower - TOL <= truth <= iv.raw_upper + TOL:
                    misses.append((method, k, truth, iv.raw_lower, iv.raw_upper, pop.uptake.tolist(), pop.outcome.tolist()))
    assert not misses, f"{len(misses)} intervals miss their truth; first: {misses[0]}"
    assert min(answered.values()) >= 100 and len(answered) == 6, answered
