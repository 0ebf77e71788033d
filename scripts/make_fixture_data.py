"""Regenerate the small fixture datasets under data/.

Writes the four-unit two-factor population, its census CSV, a variant
with a defier so the assumption-check error paths have a file to point
at, and a four-unit population whose outcome moves with z1 where uptake
does not (outcome exclusion fails).  Everything here is deterministic;
re-running overwrites in place.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from factorbounds.data import ObservedDataset, save_csv
from factorbounds.design import enumerate_assignments
from factorbounds.population import Population, save_population
from factorbounds.simulate import census_dataset


def assignment_rows(data: ObservedDataset) -> np.ndarray:
    """(n, K) matrix of assigned levels, one row per unit."""
    return data.design.levels[data.arm]


def fixture_p4() -> Population:
    """Four-unit K=2 population, the worked example of the tests and README.

    Factor 2 is taken by everyone exactly when assigned. Factor 1 has two
    constant compliers, one unit complying only when factor 2 is at +1,
    and one unit never taking. The outcome equals the factor-1 uptake
    indicator, so every effect is hand-checkable.
    """
    design = enumerate_assignments(2)
    # canonical arms (-1,-1), (+1,-1), (-1,+1), (+1,+1); bit 0 is D1 = +1, bit 1 is D2 = +1
    pattern = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [0, 0, 2, 3], [0, 0, 2, 2]], dtype=np.uint8)
    return Population.from_pattern(design, pattern, (pattern & 1).astype(np.float64))


def outcome_exclusion_population() -> Population:
    """Units 0-1 comply with factor 1 at both contexts and have Y = 0.5
    everywhere; units 2-3 never take factor 1 and have Y = 1 under z1 = +1,
    Y = 0 under z1 = -1. Nobody takes factor 2. The exclusion interval
    alone would be [1, 1] against a true effect of 0."""
    design = enumerate_assignments(2)
    # canonical arms (-1,-1), (+1,-1), (-1,+1), (+1,+1); bit 0 is D1 = +1
    pattern = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)
    outcome = np.array([[0.5] * 4, [0.5] * 4, [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    return Population.from_pattern(design, pattern, outcome)


def main() -> None:
    out = pathlib.Path(__file__).resolve().parents[1] / "data"
    out.mkdir(exist_ok=True)

    pop = fixture_p4()
    save_population(pop, out / "p4_population.json")
    data = census_dataset(pop)
    save_csv(data, out / "p4_census.csv")

    # same design, but unit 0 defies on factor 1 in the (z2=-1) context
    uptake = pop.uptake.copy()
    uptake[0, 0, 0] = 1
    uptake[0, 1, 0] = -1
    bad = type(pop)(design=pop.design, uptake=uptake, outcome=pop.outcome)
    save_population(bad, out / "p4_defier.json")
    save_csv(census_dataset(bad), out / "p4_defier_census.csv")

    save_population(outcome_exclusion_population(), out / "p4_outcome_exclusion.json")

    # a binary-coded copy of the census file, for exercising --binary-coding
    rows = []
    header = "z1,z2,d1,d2,y"
    z = assignment_rows(data)
    for i in range(data.n):
        cells = [(z[i, k] + 1) // 2 for k in range(2)]
        cells += [(data.uptake[i, k] + 1) // 2 for k in range(2)]
        rows.append(",".join(str(int(c)) for c in cells) + "," + repr(float(data.outcome[i])))
    (out / "p4_census_binary.csv").write_text(header + "\n" + "\n".join(rows) + "\n")

    print(f"wrote fixtures to {out}")


if __name__ == "__main__":
    main()
