"""Seeded inputs for the benchmark workloads, and the set-up that writes them.

Every input is a pure function of the workload seed and its size
parameters, made by this file's own numpy code, so a change to the
program's generators does not change what the benchmark feeds it.

Run as a script, the file performs one set-up from a cold interpreter:
import the program, generate and write the input, run the first
operation; then it times the host-speed calibration (hostspeed.py). It
prints the timings as one JSON line. run.py starts it several times per
run; the median of the scaled wall times is ``setup_s``. A separate
process also keeps set-up out of the measuring process's peak memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

# Single-threaded BLAS, set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Substream tags, so the inputs of one workload never share draws with another.
_ANALYZE_STREAM = 101
_WIDE_STREAM = 102


def analyze_rows(seed: int, n: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observed rows of a 2^K experiment with one-sided noncompliance.

    Arms are a balanced random partition. Factor 1's compliance depends on
    factor 2: a unit that does not comply with factor 1 when factor 2 is at
    -1 complies when it is at +1 with probability 1/2. Returns the arm
    index, the (n, K) uptake levels and the outcome in [0, 1].
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _ANALYZE_STREAM]))
    J = 1 << K
    arm = rng.permutation(np.arange(n) % J)
    z = (((arm[:, None] >> np.arange(K)) & 1) * 2 - 1).astype(np.int8)
    share = rng.uniform(0.55, 0.9, K)
    comply = rng.random((n, K)) < share
    comply[:, 0] |= (rng.random(n) < 0.5) & (z[:, 1] == 1)
    d = np.where(comply & (z == 1), 1, -1).astype(np.int8)
    alpha = rng.uniform(0.05, 0.2, n)
    beta = rng.uniform(0.05, 0.12, (n, K))
    y = alpha + (beta * (d == 1)).sum(axis=1) + rng.normal(0.0, 0.05, n)
    return arm, d, np.clip(y, 0.0, 1.0)


def wide_scenario(seed: int, K: int, N: int) -> dict:
    """A fresh-population scenario with K factors whose numbers come from the seed.

    The structure is fixed so that its cost does not depend on the seed:
    factor 1 depends on factor K-1, factor 3 on factor 4, and no factor
    depends on factors 1 or 2, so every assumption the targets need holds
    by construction and generation never retries.
    """
    if K < 5:
        raise ValueError("the wide scenario needs K >= 5")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _WIDE_STREAM]))
    factors = []
    for k in range(1, K + 1):
        depends = {1: [K - 1], 3: [4]}.get(k, [])
        factors.append(
            {
                "complier": round(float(rng.uniform(0.6, 0.85)), 6),
                "always": 0.0,
                "upgrade": round(float(rng.uniform(0.3, 0.6)), 6) if depends else 0.0,
                "depends_on": depends,
                "worst": [-1] * len(depends) if depends else None,
            }
        )
    beta = [sorted(round(float(v), 6) for v in rng.uniform(0.05, 0.2, 2)) for _ in range(K)]
    return {
        "K": K,
        "N": N,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": factors,
        "outcome": {"model": "m1", "alpha": [0.05, 0.15], "beta": beta, "eta": [0.0, 0.05]},
        "population_mode": "fresh",
        "require": [
            "monotone:1",
            "monotone:2",
            "profile:1",
            "exclusion:1",
            "exclusion:2",
            "cross_exclusion:1,2",
            "joint_profile:1,2",
            "first_stage:1",
            "joint_first_stage:1,2",
        ],
        "seed": seed,
        "targets": [
            {"factor": 1, "method": m, "profile": "min", "alpha": 0.05}
            for m in ("exclusion", "adjusted", "interaction:1+2", "joint:2")
        ],
        "violate": [],
    }


def clone_scenario(base_path: Path, clone_factor: int) -> dict:
    """The shipped clone-scaling scenario with a larger clone factor."""
    scenario = json.loads(base_path.read_text(encoding="utf-8"))
    scenario["clone_factor"] = clone_factor
    return scenario


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def set_up(spec: dict) -> dict:
    """Generate and write one workload's input, then run its first operation.

    ``spec`` holds the workload's sizes, its ``seed``, the ``out`` path of
    the input and the ``argv`` of the operation.
    """
    t0 = time.perf_counter()
    from factorbounds import cli, data, design

    t1 = time.perf_counter()
    out = Path(spec["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    kind = spec["kind"]
    if kind == "analyze":
        arm, uptake, outcome = analyze_rows(spec["seed"], spec["n"], spec["K"])
        dataset = data.ObservedDataset(
            design=design.enumerate_assignments(spec["K"]), arm=arm, uptake=uptake, outcome=outcome
        )
        t2 = time.perf_counter()
        data.save_csv(dataset, out)
    elif kind == "wide":
        scenario = wide_scenario(spec["seed"], spec["K"], spec["N"])
        t2 = time.perf_counter()
        _write_json(scenario, out)
    elif kind == "clone":
        scenario = clone_scenario(ROOT / spec["base"], spec["clone_factor"])
        t2 = time.perf_counter()
        _write_json(scenario, out)
    elif kind == "shipped":  # the scenario ships with the repo: set-up only reads it
        json.loads(out.read_text(encoding="utf-8"))
        t2 = time.perf_counter()
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    t3 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(spec["argv"])
    t4 = time.perf_counter()
    import hostspeed  # timed after the set-up, and taken off its wall time by run.py

    return {
        "calibration_s": hostspeed.calibrate(),
        "import_s": t1 - t0,
        "generate_s": t2 - t1,
        "write_s": t3 - t2,
        "first_op_s": t4 - t3,
        "exit_code": code,
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps(set_up(json.loads(sys.argv[1]))))
