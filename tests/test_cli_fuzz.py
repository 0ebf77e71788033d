"""Seeded fuzz of every input the command line reads.

Each case mutates one of the CLI's inputs: one or two JSON leaves of a small
scenario (run by ``simulate -R``), of a small population file (``oracle``)
or of an analysis report (``plotdata``) are replaced by a hostile value or
deleted, one CSV cell of the census that ``analyze`` reads is replaced, and
the options ``--alpha``, ``--rescale``, ``--profile``, ``--method``,
``--factor``, ``-R`` and ``--seed`` are drawn from fixed lists. Every case
runs through ``cli.main`` in-process and must exit 0, 2 or 3, print no
``internal error`` and emit no warning.

The hostile values are a fixed list (wrong types, signs, 0, 1e-17, 1e308,
10**400, empty containers), and ``-R`` never draws a large valid count, so
no case asks for a large run. ``case(rng)`` and ``run_case`` are plain
functions, so a longer run can draw many more cases from other seeds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from factorbounds import cli

ROOT = Path(__file__).resolve().parents[1]
SEED = 20261020
N_CASES = 120

HOSTILE = [None, True, False, 0, 1, -1, 2, 0.5, -0.5, 1e-17, -1e-17, 1e308, -1e308, 10**400, -(10**400),
           "", "x", "1", "min", [], {}, [None], [1, 2], {"": 0}]
OPTIONS = {
    "--alpha": ["0.05", "0.5", "0", "1", "-0.1", "1e-17", "1e-320", "1e308", "nan", "inf", "x", ""],
    "--rescale": ["0,1", "-1,2", "0,1e-320", "1,0", "0,0", "-1e308,1e308", "nan,1", "0,inf", "x", "0", "0,1,2", ""],
    "--profile": ["min", "declared:-1", "declared:1", "declared:", "declared:1,1", "declared:x", "max", ""],
    "--method": ["adjusted", "simple", "exclusion", "interaction:1+2", "joint:2", "joint:1", "conservative:0.3",
                 "conservative:0", "conservative:1e308", "interaction:1", "adjusted,x", "x", ""],
    "--factor": ["1", "2", "0", "-1", "3", "1e308", str(10**400), "x", ""],
    "-R": ["3", "2", "1", "0", "-1", "1e-17", "1e308", "x", ""],  # no large valid count
    "--seed": ["1", "0", "-1", str(10**400), "1e308", "x", ""],
}
COMMAND_OPTIONS = {
    "analyze": ("--alpha", "--rescale", "--profile", "--method", "--factor"),
    "oracle": ("--profile", "--method", "--factor"),
    "simulate": ("-R", "--seed"),
    "plotdata": (),
}
CSV_TOKENS = ["", "x", "0", "2", "-2", "1e308", "-1e308", "1e-17", "nan", "inf", str(10**400), '"1"', "1,1"]


def _scenario(name: str, **over) -> dict:
    scenario = json.loads((ROOT / "scenarios" / name).read_text())
    scenario.update(over)
    return scenario


def _report() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", str(ROOT / "data" / "p4_census.csv"), "--method", "adjusted,simple"]) == 0
    return json.loads(out.getvalue())


# the fuzzer's own small inputs, not gates: a fresh and a clone scenario, the
# four-unit population, and an analysis report of its census
BASES = {
    "simulate": [_scenario("well_separated.json", N=24), _scenario("clone_scaling.json", clone_factor=2)],
    "oracle": [json.loads((ROOT / "data" / "p4_population.json").read_text())],
    "plotdata": [_report()],
}
CENSUS = (ROOT / "data" / "p4_census.csv").read_text().splitlines()


def _leaves(node, path=()):
    """Paths to every non-container value and every empty container of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if not items:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, (*path, key))


_DELETE = object()


def _mutate(doc, path: tuple, value) -> None:
    """Replace the leaf at path by value, or delete it when value is _DELETE."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def case(rng: np.random.Generator) -> dict:
    """One fuzz case: a command, its input's mutations and its options, all drawn from rng."""
    command = str(rng.choice(list(COMMAND_OPTIONS)))
    chosen = {}
    for option in COMMAND_OPTIONS[command]:
        if rng.random() < 0.4:
            chosen[option] = str(rng.choice(OPTIONS[option]))
    if command == "simulate":
        chosen.setdefault("-R", "3")
    if command == "analyze":
        row, col = int(rng.integers(1, len(CENSUS))), int(rng.integers(5))
        cell = (row, col, str(rng.choice(CSV_TOKENS))) if rng.random() < 0.3 else None
        return {"command": command, "cell": cell, "options": chosen}
    base = int(rng.integers(len(BASES[command])))
    leaves = list(_leaves(BASES[command][base]))
    mutations = []
    for _ in range(int(rng.integers(1, 3))):
        path = leaves[int(rng.integers(len(leaves)))]
        mutations.append((path, _DELETE if rng.random() < 0.2 else HOSTILE[int(rng.integers(len(HOSTILE)))]))
    return {"command": command, "base": base, "mutations": mutations, "options": chosen}


def run_case(spec: dict, tmp: Path) -> tuple[int, str, list[str]]:
    """Write the case's input under tmp and run it: (exit code, stderr, warnings emitted)."""
    command = spec["command"]
    if command == "analyze":
        lines = list(CENSUS)
        if spec["cell"] is not None:
            row, col, token = spec["cell"]
            fields = lines[row].split(",")
            fields[col] = token
            lines[row] = ",".join(fields)
        text = "\n".join(lines) + "\n"
    else:
        doc = copy.deepcopy(BASES[command][spec["base"]])
        for path, value in spec["mutations"]:
            try:
                _mutate(doc, path, value)
            except (KeyError, IndexError, TypeError):  # an earlier mutation removed or replaced the path
                pass
        text = json.dumps(doc)
    path = tmp / f"{command}-input"
    path.write_text(text)
    argv = [command, str(path)] + [a for option, value in spec["options"].items() for a in (option, value)]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing an option
                code = exc.code
    return code, err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


_RNG = np.random.default_rng(SEED)
CASES = [case(_RNG) for _ in range(N_CASES)]


@pytest.mark.parametrize("spec", CASES, ids=[f"{i}-{c['command']}" for i, c in enumerate(CASES)])
def test_cli_exits_0_2_or_3_on_fuzzed_input(tmp_path, spec):
    code, err, caught = run_case(spec, tmp_path)
    assert code in (0, 2, 3), (spec, code, err)
    assert "internal error" not in err, (spec, err)
    assert caught == [], (spec, caught)
