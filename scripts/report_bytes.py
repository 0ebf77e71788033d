"""Compare the command-line output of two source trees byte for byte.

Usage:

    python3 scripts/report_bytes.py --parent <tree> [--change <tree>]

Each tree is a checkout of this repository; ``--change`` defaults to the
checkout holding this script. The generated inputs are written once into a
temporary directory, by the generators of this checkout's
``benchmark/inputs.py``: the 50k-row K=5 analyze CSV, the K=6 ``mc_wide``
scenarios for seeds 1-3, an ``m2`` (binary outcome) variant of the seed-1
one and ``clone_scaling`` at clone factor 1000. Scenarios in the shipped
files' form are written here: a K=3 one adds a ``violate`` token, another
K=3 one the ``cross_exclusion`` token no other input carries, a
small-N K=2 one has generation retries, replications whose estimate fails
and skipped oracle references, and a small-N K=9 one with negative pair
terms takes generation through the uint16 uptake pattern. A small-N K=3
one puts 85 replications in a chunk, so the oracle answers many blocks at
once for interaction, joint and declared-profile targets: about half of
the blocks lose their reference to a chance failure of weak or cross
exclusion, and a fourth target loses all of them to its ``violate`` token.
The shipped ``clone_scaling`` runs 820 replications, two chunks of clone
allocations counted as they are drawn (819 fit in one). One K=4
population with always-takers, never-takers and conditional compliers is
generated and saved by this checkout's ``save_population(generate_population(...))``
and read by ``oracle`` with every method; its scenario, with adjusted,
exclusion and joint:2 targets, is also simulated in fixed mode. A K=3
population drawn to violate the least-compliant profile of factor 1 and
of the pair (1, 2) is saved the same way and read by ``oracle``, so both
"no uniformly least compliant" errors are compared, and so is a K=3
population whose factor 1 breaks weak exclusion and whose pair (3, 2)
breaks cross exclusion, so ``exclusion,joint:2`` reaches both messages.
The committed ``data/p4_outcome_exclusion.json`` is copied there too, so
both trees read the same file, though only this one may ship it; ``oracle``
reads it with the methods that need outcome exclusion and two that do not. A
seeded K=3, N=12 population with uniformly random uptake and outcomes is
saved and read by ``oracle`` with every method: it has defiers at several
units and contexts of every factor, so the unit-major order of the defier
lists is compared. ``oracle`` reads ``data/p4_population.json`` and
``analyze`` reads ``data/p4_census.csv`` at declared profiles too: at
``declared:1``, no least-compliant context of factor 1, the oracle's
formulas refuse it (exit 3); at ``declared:-1`` every command answers. Every
command of ``commands()`` then runs in both trees, as a subprocess with
``PYTHONPATH=<tree>/src`` and the tree as working directory (so the shipped
scenarios and ``data/`` files are each tree's own), BLAS on one thread and
``FB_SEED`` unset. A single-threaded process forks workers for simulate's
replication ranges and analyze's byte ranges, so each command also runs a
second time in the change's tree with its CPU affinity set to one CPU, which
keeps it serial; that run is compared with the change's first run as the
trees are compared with each other.

For every command the exit code, stderr and stdout must be identical. When
stdout differs and both sides are JSON, one line gives how many fields
differ and the largest absolute difference over all of them, and the first
20 differing fields follow with their paths and the absolute difference of
numbers; otherwise the first differing lines are shown. When any command
differs, a closing table lists every JSON field that differs in any
command, its list indices collapsed to ``[*]``, with its largest absolute
difference across all commands (``-`` where no two numbers differed
there). The exit status is 0 when every output is identical and 1
otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MISSING = "<missing>"
SHOWN = 20  # differences printed per command
ANALYZE_METHODS = "adjusted,simple,exclusion,interaction:1+2,joint:2"
# the methods resting on outcome exclusion are refused where it breaks; adjusted and simple still answer
OUTCOME_EXCLUSION = "adjusted,simple,exclusion,conservative:0.5,interaction:1+2,joint:2"
# read at a declared profile: p4's (1,) is no least-compliant context of factor 1, (-1,) is
DECLARED = "adjusted,simple,exclusion,interaction:1+2,conservative:0.25"


def _load_inputs():
    """benchmark/inputs.py of this checkout, imported without changing it."""
    spec = importlib.util.spec_from_file_location("benchmark_inputs", ROOT / "benchmark" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenarios() -> dict[str, dict]:
    """The generated scenarios by file name."""
    inputs = _load_inputs()
    found = {f"wide_seed{s}.json": inputs.wide_scenario(s, 6, 8000) for s in (1, 2, 3)}
    wide = found["wide_seed1.json"]
    found["wide_m2.json"] = {**wide, "outcome": {**wide["outcome"], "model": "m2"}}
    found["clone1000.json"] = inputs.clone_scenario(ROOT / "scenarios" / "clone_scaling.json", 1000)
    found["k3_violate_exclusion.json"] = violating_scenario()
    found["k3_violate_cross_exclusion.json"] = cross_exclusion_scenario()
    found["k2_retry_weak.json"] = retry_scenario()
    found["k9_negative_eta.json"] = k9_scenario()
    found["k3_stacked_chunks.json"] = stacked_scenario()
    targets = [{"alpha": 0.05, "factor": 1, "method": m, "profile": "min"} for m in ("adjusted", "exclusion", "joint:2")]
    found["k4_fixed.json"] = {**population_scenario(), "targets": targets}
    return found


def violating_scenario() -> dict:
    """A K=3 fresh scenario whose factor 1 breaks weak treatment exclusion:
    its exclusion target has no oracle reference, the adjusted one does."""
    factor = {"always": 0.0, "complier": 0.8, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 3,
        "N": 1600,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            {"always": 0.1, "complier": 0.55, "depends_on": [2], "upgrade": 0.4, "worst": [-1]},
            factor,
            {**factor, "complier": 0.7},
        ],
        "outcome": {"alpha": [0.05, 0.15], "beta": [[0.2, 0.3]] * 3, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fresh",
        "require": ["monotone:1", "profile:1", "first_stage:1"],
        "seed": 20261018,
        "targets": [
            {"alpha": 0.05, "factor": 1, "method": m, "profile": "min"} for m in ("exclusion", "adjusted")
        ],
        "violate": ["exclusion:1"],
    }


def cross_exclusion_scenario() -> dict:
    """A K=3 fresh scenario whose violate token makes unit 0's uptake of
    factor 2 follow z1, so cross exclusion of the pair (1, 2) breaks in
    every replication: the joint:2 target of factor 1 has no oracle
    reference. Weak exclusion of factor 1 breaks too where unit 0 is a
    factor-1 noncomplier, so its exclusion target loses the reference in
    about one replication in seven and keeps it in the others."""
    factor = {"always": 0.1, "complier": 0.7, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 3,
        "N": 400,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [{**factor, "always": 0.05, "complier": 0.85}, factor, {**factor, "complier": 0.8}],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.1, 0.3]] * 3, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fresh",
        "require": ["monotone:2", "exclusion:2"],
        "seed": 20261020,
        "targets": [
            {"alpha": 0.05, "factor": 1, "method": "exclusion", "profile": "min"},
            {"alpha": 0.05, "factor": 1, "method": "joint:2", "profile": "min"},
            {"alpha": 0.05, "factor": 2, "method": "adjusted", "profile": "min"},
        ],
        "violate": ["cross_exclusion:2,1"],
    }


def retry_scenario() -> dict:
    """A K=2 fresh scenario at N=24 whose rare constant compliers of factor 1
    make some replications redraw their population, whose weak first stage
    fails about half the estimates (WeakFirstStageError), and whose factor 2
    responds to z1, so most exclusion targets have no oracle reference."""
    return {
        "K": 2,
        "N": 24,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            {"always": 0.0, "complier": 0.1, "depends_on": [2], "upgrade": 0.5, "worst": [-1]},
            {"always": 0.1, "complier": 0.6, "depends_on": [1], "upgrade": 0.5, "worst": [-1]},
        ],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.2, 0.4], [0.1, 0.2]], "eta": [0.0, 0.0], "model": "m2"},
        "population_mode": "fresh",
        "require": ["monotone:1", "profile:1", "first_stage:1"],
        "seed": 1,
        "targets": [{"alpha": 0.05, "factor": 1, "method": m, "profile": "min"} for m in ("exclusion", "adjusted")],
        "violate": [],
    }


def k9_scenario() -> dict:
    """A K=9 fresh scenario at N=1100, about two units per arm: its uptake
    pattern is uint16, its 36 pair terms reach bit 8 and can be negative.
    Factor 2 complies fully, so its estimates survive the thin arms."""
    factor = {"always": 0.05, "complier": 0.6, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 9,
        "N": 1100,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            {**factor, "depends_on": [9], "upgrade": 0.5},
            {**factor, "always": 0.0, "complier": 1.0},
            *({**factor, "complier": 0.55 + 0.05 * k} for k in range(6)),
            {**factor, "always": 0.0, "depends_on": [1, 8], "upgrade": 0.4, "worst": [1, -1]},
        ],
        "outcome": {"alpha": [0.2, 0.4], "beta": [[0.0, 0.1]] * 9, "eta": [-0.06, 0.04], "model": "m1"},
        "population_mode": "fresh",
        "require": [],
        "seed": 20261018,
        "targets": [{"alpha": 0.05, "factor": 2, "method": m, "profile": "min"} for m in ("exclusion", "adjusted")],
        "violate": [],
    }


def stacked_scenario() -> dict:
    """A K=3 fresh scenario at N=48: 384 (unit, arm) cells per replication,
    so 170 replications per chunk of simulate._CHUNK_CELLS = 1 << 16, and
    -R 200 runs a full chunk and a partial one. Factors 1 and 2 each
    upgrade a few noncompliers where the other is at +1, so about half of
    the replications break weak exclusion of factor 1 or cross exclusion of
    the pair, and their interaction:1+2, joint:2 and declared exclusion
    targets lose the oracle reference; the defier the violate token puts on
    factor 3 takes every reference of the factor-3 target. (A conservative
    target cannot be estimated, so none is listed.)"""
    factor = {"always": 0.1, "complier": 0.7, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 3,
        "N": 48,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            {"always": 0.1, "complier": 0.6, "depends_on": [2], "upgrade": 0.02, "worst": [-1]},
            {**factor, "complier": 0.75, "depends_on": [1], "upgrade": 0.02, "worst": [-1]},
            factor,
        ],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.1, 0.3]] * 3, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fresh",
        "require": ["monotone:1", "first_stage:1", "joint_first_stage:1,2"],
        "seed": 20261019,
        "targets": [
            {"alpha": 0.05, "factor": 1, "method": "interaction:1+2", "profile": "min"},
            {"alpha": 0.05, "factor": 1, "method": "joint:2", "profile": "min"},
            {"alpha": 0.05, "factor": 1, "method": "exclusion", "profile": "declared:-1,-1"},
            {"alpha": 0.05, "factor": 3, "method": "adjusted", "profile": "min"},
        ],
        "violate": ["monotone:3"],
    }


def population_scenario() -> dict:
    """A K=4 scenario whose population has always-takers, never-takers and
    conditional compliers of factors 1 and 2. Factors 1 and 2 depend only on
    factors 3 and 4, so the checks behind exclusion, interaction:1+2 and
    joint:2 pass for factor 1 and the oracle reports every interval."""
    factor = {"always": 0.1, "complier": 0.7, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 4,
        "N": 400,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            {"always": 0.15, "complier": 0.5, "depends_on": [3], "upgrade": 0.5, "worst": [-1]},
            {"always": 0.1, "complier": 0.55, "depends_on": [4], "upgrade": 0.4, "worst": [1]},
            factor,
            {**factor, "complier": 0.8},
        ],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.1, 0.2]] * 4, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fixed",
        "require": ["monotone:1", "profile:1", "first_stage:1"],
        "seed": 20261018,
        "targets": [],
        "violate": [],
    }


def no_profile_scenario() -> dict:
    """A K=3 scenario whose population has no least-compliant context for
    factor 1 and none for the pair (1, 2)."""
    factor = {"always": 0.1, "complier": 0.7, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 3,
        "N": 60,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [factor] * 3,
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.1, 0.2]] * 3, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fixed",
        "require": ["monotone:1", "monotone:2"],
        "seed": 5,
        "targets": [],
        "violate": ["profile:1", "joint_profile:1,2"],
    }


def exclusion_messages_scenario() -> dict:
    """A K=3 scenario whose population breaks weak exclusion for factor 1
    (its violate token) and cross exclusion for the pair (3, 2): factor 2's
    uptake depends on z3, and everyone complies with factor 3, so weak
    exclusion holds for both factors of the pair."""
    factor = {"always": 0.1, "complier": 0.7, "depends_on": [], "upgrade": 0.0, "worst": None}
    return {
        "K": 3,
        "N": 60,
        "arm_sizes": None,
        "clone_factor": 1,
        "factors": [
            factor,
            {**factor, "complier": 0.6, "depends_on": [3], "upgrade": 0.5, "worst": [-1]},
            {**factor, "always": 0.0, "complier": 1.0},
        ],
        "outcome": {"alpha": [0.1, 0.3], "beta": [[0.1, 0.2]] * 3, "eta": [-0.05, 0.05], "model": "m1"},
        "population_mode": "fixed",
        "require": ["monotone:2", "monotone:3", "exclusion:2", "exclusion:3", "joint_profile:3,2"],
        "seed": 5,
        "targets": [],
        "violate": ["exclusion:1"],
    }


def write_inputs(out: Path) -> dict[str, Path]:
    """Write the generated inputs into out; returns their paths by name."""
    inputs = _load_inputs()
    paths = {}
    K = 5
    arm, uptake, outcome = inputs.analyze_rows(1, 50_000, K)
    header = [f"z{k}" for k in range(1, K + 1)] + [f"d{k}" for k in range(1, K + 1)] + ["y"]
    z = ((arm[:, None] >> np.arange(K)) & 1) * 2 - 1  # the design's levels of each arm
    lines = [",".join(header)]
    for zs, ds, y in zip(z.tolist(), uptake.tolist(), outcome.tolist()):
        lines.append(",".join(map(str, zs + ds)) + f",{y!r}")
    paths["k5.csv"] = out / "k5.csv"
    paths["k5.csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, scenario in scenarios().items():
        paths[name] = out / name
        paths[name].write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    # this checkout's package: benchmark/inputs.py put its src/ on the path
    from factorbounds import design, population, simulate

    paths["k4_population.json"] = out / "k4_population.json"
    config = simulate.ScenarioConfig.from_dict(population_scenario())
    population.save_population(simulate.generate_population(config), paths["k4_population.json"])
    paths["k3_no_profile.json"] = out / "k3_no_profile.json"
    config = simulate.ScenarioConfig.from_dict(no_profile_scenario())
    population.save_population(simulate.generate_population(config), paths["k3_no_profile.json"])
    paths["k3_exclusion_messages.json"] = out / "k3_exclusion_messages.json"
    config = simulate.ScenarioConfig.from_dict(exclusion_messages_scenario())
    population.save_population(simulate.generate_population(config), paths["k3_exclusion_messages.json"])
    paths["p4_outcome_exclusion.json"] = out / "p4_outcome_exclusion.json"
    shutil.copyfile(ROOT / "data" / "p4_outcome_exclusion.json", paths["p4_outcome_exclusion.json"])
    paths["k3_random_uptake.json"] = out / "k3_random_uptake.json"
    rng = np.random.default_rng(7)
    uptake, outcome = rng.choice(np.array([-1, 1]), size=(12, 8, 3)), rng.random((12, 8))
    pop = population.Population(design.enumerate_assignments(3), uptake, outcome)
    population.save_population(pop, paths["k3_random_uptake.json"])
    return paths


def commands(paths: dict[str, Path]) -> list[list[str]]:
    """The CLI argument lists compared; shipped files are relative to the tree."""
    shipped = ("appc_like", "clone_scaling", "full_compliance", "well_separated")
    return [
        *(["simulate", f"scenarios/{name}.json", "-R", "30"] for name in shipped),
        *(["simulate", str(paths[f"wide_seed{s}.json"]), "-R", "2"] for s in (1, 2, 3)),
        ["simulate", str(paths["wide_m2.json"]), "-R", "2"],
        ["simulate", str(paths["k3_violate_exclusion.json"]), "-R", "30"],
        ["simulate", str(paths["k3_violate_cross_exclusion.json"]), "-R", "30"],
        ["simulate", str(paths["k2_retry_weak.json"]), "-R", "40"],
        ["simulate", str(paths["k9_negative_eta.json"]), "-R", "2"],
        ["simulate", str(paths["k3_stacked_chunks.json"]), "-R", "200"],
        ["simulate", str(paths["clone1000.json"]), "-R", "3"],
        ["simulate", "scenarios/clone_scaling.json", "-R", "820"],  # two chunks of clones
        ["simulate", str(paths["k4_fixed.json"]), "-R", "20"],
        ["oracle", "data/p4_population.json"],
        ["oracle", "data/p4_population.json", "--method", ANALYZE_METHODS + ",conservative:0.25"],
        ["oracle", "data/p4_defier.json"],
        ["oracle", str(paths["k4_population.json"]), "--method", ANALYZE_METHODS + ",conservative:0.05"],
        ["oracle", str(paths["k3_no_profile.json"]), "--method", "adjusted,exclusion,joint:2", "--factor", "1"],
        ["oracle", str(paths["k3_exclusion_messages.json"]), "--method", "exclusion,joint:2"],
        ["oracle", str(paths["p4_outcome_exclusion.json"]), "--factor", "1", "--method", OUTCOME_EXCLUSION],
        ["oracle", str(paths["k3_random_uptake.json"]), "--method", ANALYZE_METHODS + ",conservative:0.05"],
        ["oracle", "data/p4_population.json", "--profile", "declared:1", "--method", DECLARED],
        ["oracle", "data/p4_population.json", "--profile", "declared:-1", "--method", DECLARED],
        ["analyze", "data/p4_census.csv"],
        ["analyze", "data/p4_census.csv", "--profile", "declared:-1"],
        ["analyze", "data/p4_census_binary.csv", "--binary-coding"],
        ["analyze", "data/p4_census_binary.csv"],  # -1/+1 expected: the error path
        ["analyze", "data/p4_defier_census.csv"],
        ["analyze", str(paths["k5.csv"])],
        ["analyze", str(paths["k5.csv"]), "--factor", "1", "--method", ANALYZE_METHODS],
    ]


def one_cpu() -> None:
    """Restrict the calling process, a child about to run a command, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(tree: Path, argv: list[str], pin=None) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the CLI on argv in tree; pin, if
    given, runs in the child before the command (see one_cpu)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("FB_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "factorbounds.cli", *argv],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=pin,
    )
    return done.returncode, done.stdout, done.stderr


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_diff(parent, change, path: str = "$") -> list[tuple[str, object, object, float | None]]:
    """Every field where two JSON documents differ, as (path, parent value,
    change value, absolute difference of two numbers or None). Values differ
    when their types or reprs do, so -0.0 against 0.0 and 1 against 1.0 count."""
    if isinstance(parent, dict) and isinstance(change, dict):
        found = []
        for key in sorted(parent.keys() | change.keys()):
            sub = f"{path}.{key}"
            if key not in change:
                found.append((sub, parent[key], MISSING, None))
            elif key not in parent:
                found.append((sub, MISSING, change[key], None))
            else:
                found += json_diff(parent[key], change[key], sub)
        return found
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        return [d for i, pair in enumerate(zip(parent, change)) for d in json_diff(*pair, f"{path}[{i}]")]
    if type(parent) is type(change) and repr(parent) == repr(change):
        return []
    gap = abs(parent - change) if _number(parent) and _number(change) else None
    return [(path, parent, change, gap)]


def summary(found: list) -> str:
    """How many fields of json_diff's list differ, and the largest |diff| over
    all of them (those that are not two numbers are counted apart)."""
    gaps = [gap for *_, gap in found if gap is not None]
    line = f"{len(found)} JSON field(s) differ"
    if gaps:
        line += f", largest |diff| {max(gaps):.3g}"
    if len(gaps) < len(found):
        line += f", {len(found) - len(gaps)} not two numbers"
    return line


def fold_fields(found: list, fields: dict) -> None:
    """Fold json_diff's list into fields: each path, its list indices
    collapsed to [*], maps to the largest |diff| seen there, or None while
    no two numbers have differed there."""
    for path, *_, gap in found:
        key = re.sub(r"\[\d+\]", "[*]", path)
        seen = fields.get(key)
        fields[key] = gap if seen is None else seen if gap is None else max(seen, gap)


def field_table(fields: dict) -> list[str]:
    """fold_fields' table as lines, one per field in path order."""
    if not fields:
        return ["no JSON field differs"]
    width = max(map(len, fields))
    head = [f"{len(fields)} differing JSON field(s), largest |diff| over every command:"]
    return head + [f"  {key:<{width}}  " + ("-" if gap is None else f"{gap:.3g}") for key, gap in sorted(fields.items())]


def describe(name: str, parent: str, change: str, fields: dict, sides=("parent", "change")) -> list[str]:
    """Lines that show how one output stream differs between the two sides
    named; a JSON one's fields are also folded into fields."""
    try:
        found = json_diff(json.loads(parent), json.loads(change))
    except ValueError:  # not JSON on both sides: show the text
        lines = list(difflib.unified_diff(parent.splitlines(), change.splitlines(), *sides, lineterm=""))
        return [f"  {name}:"] + [f"    {line}" for line in lines[:SHOWN]]
    fold_fields(found, fields)
    out = [f"  {name}: {summary(found)}"]
    for path, p, c, gap in found[:SHOWN]:
        out.append(f"    {path}: {sides[0]} {p!r} {sides[1]} {c!r}" + ("" if gap is None else f" |diff| {gap:.3g}"))
    if len(found) > SHOWN:
        out.append(f"    ... {len(found) - SHOWN} more")
    return out


def compare(a: tuple[int, str, str], b: tuple[int, str, str], fields: dict, sides=("parent", "change")) -> list[str]:
    """Lines that show how two runs' (exit code, stdout, stderr) differ, empty if they do not."""
    (a_code, a_out, a_err), (b_code, b_out, b_err) = a, b
    lines = []
    if a_code != b_code:
        lines.append(f"  exit code: {sides[0]} {a_code} {sides[1]} {b_code}")
    if a_err != b_err:
        lines += describe("stderr", a_err, b_err, fields, sides)
    if a_out != b_out:
        lines += describe("stdout", a_out, b_out, fields, sides)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's source tree (default this one)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differing, fields = 0, {}
    with tempfile.TemporaryDirectory(prefix="report_bytes-") as tmp:
        for cmd in commands(write_inputs(Path(tmp))):
            label = " ".join(Path(a).name if a.startswith(tmp) else a for a in cmd)
            changed = run(change, cmd)
            lines = compare(run(parent, cmd), changed, fields)
            lines += compare(changed, run(change, cmd, one_cpu), fields, ("change", "change at one CPU"))
            print(("DIFF  " if lines else "same  ") + f"{label}  (exit {changed[0]})")
            for line in lines:
                print(line)
            differing += bool(lines)
    if not differing:
        print("every output is identical")
        return 0
    print(f"{differing} command(s) differ")
    print("\n".join(field_table(fields)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
