import csv
import decimal
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from factorbounds.cli import main
from factorbounds.data import save_csv
from factorbounds.oracle import adjusted_bounds, exclusion_bounds
from factorbounds.errors import InvalidInputError
from factorbounds.population import Population, save_population
from factorbounds.simulate import (
    FactorSpec,
    OutcomeSpec,
    ScenarioConfig,
    TargetSpec,
    load_scenario,
)

from conftest import fixture_p4, save_scenario

TOL = 1e-12
DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture
def census_csv(p4_census, tmp_path):
    path = tmp_path / "census.csv"
    save_csv(p4_census, path)
    return path


@pytest.fixture
def p4_json(p4, tmp_path):
    path = tmp_path / "p4.json"
    save_population(p4, path)
    return path


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ----------------------------------------------------------------- analyze


def test_analyze_stdout_json(capsys, census_csv, p4):
    rc, out, err = run(capsys, ["analyze", str(census_csv), "--factor", "1"])
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == "factorbounds-analysis-v1"
    assert report["K"] == 2 and report["n_rows"] == 16
    assert report["arm_counts"] == [4, 4, 4, 4]
    assert [e["method"] for e in report["estimates"]] == ["adjusted", "simple", "exclusion"]
    ref = adjusted_bounds(p4, 1, (-1,))
    e = report["estimates"][0]
    assert abs(e["center"] - ref.center) < TOL
    assert abs(e["clipped_lower"] - ref.lower) < TOL
    assert abs(e["clipped_upper"] - ref.upper) < TOL
    assert e["ci_level"] == 0.95
    assert e["ci_lower"] <= e["clipped_lower"]
    assert report["wald"][0]["factor"] == 1
    assert abs(report["wald"][0]["point"] - 1.0) < TOL
    # human-readable table goes to stderr when JSON goes to stdout
    assert "wald (reference)" in err
    assert "factor" in err


def test_analyze_out_file_routes_table_to_stdout(capsys, census_csv, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, err = run(
        capsys,
        ["analyze", str(census_csv), "--factor", "1", "--method", "exclusion", "--out", str(out_path)],
    )
    assert rc == 0
    assert "wald (reference)" in out
    assert err == ""
    report = json.loads(out_path.read_text())
    assert [e["method"] for e in report["estimates"]] == ["exclusion"]


def test_analyze_methods_split_and_validate(capsys, census_csv):
    rc, out, _ = run(
        capsys,
        ["analyze", str(census_csv), "--factor", "1",
         "--method", "simple,exclusion", "--method", "interaction:1+2"],
    )
    assert rc == 0
    report = json.loads(out)
    assert [e["method"] for e in report["estimates"]] == ["simple", "exclusion", "interaction:1+2"]
    rc, _, err = run(capsys, ["analyze", str(census_csv), "--method", "prop2"])
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, ["analyze", str(census_csv), "--method", "conservative:0.4"])
    assert rc == 2 and "oracle" in err
    rc, out, err = run(capsys, ["analyze", str(census_csv), "--method", "joint:2", "--factor", "2"])
    assert (rc, out, err) == (2, "", "error: joint contexts need two distinct factors, got 2 twice\n")


def test_analyze_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"z1,d1,y\n-1,-1,0.25\n1,1,0.\xff5\n")
    rc, out, err = run(capsys, ["analyze", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("field", ['"' + "5" * 140_000 + '"', "0.5" + " " * 140_000])
def test_analyze_oversized_field_exits_2(capsys, tmp_path, field):
    path = tmp_path / "huge.csv"
    path.write_text("z1,d1,y\n-1,-1,0.25\n1,1," + field + "\n")
    rc, out, err = run(capsys, ["analyze", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{path}: line 3: field larger than field limit" in err


def test_analyze_binary_and_rescale(capsys, tmp_path):
    path = tmp_path / "binary.csv"
    rows = ["z1,d1,y"]
    rng = np.random.default_rng(8)
    for _ in range(12):
        z = rng.integers(0, 2)
        d = z if rng.random() < 0.8 else 0
        y = 10.0 * d + rng.integers(0, 5)
        rows.append(f"{z},{d},{y}")
    path.write_text("\n".join(rows) + "\n")
    rc, out, _ = run(
        capsys,
        ["analyze", str(path), "--binary-coding", "--rescale", "0,14", "--factor", "1"],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["rescale"] == [0.0, 14.0]
    rc, _, err = run(capsys, ["analyze", str(path), "--binary-coding"])
    assert rc == 2  # outcomes leave [0,1] without the rescale


def test_analyze_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["analyze", str(tmp_path / "nope.csv")])
    assert rc == 2 and "error" in err


def test_analyze_weak_first_stage_exit_code(capsys, tmp_path):
    from factorbounds.design import enumerate_assignments
    from factorbounds.data import ObservedDataset

    design = enumerate_assignments(1)
    data = ObservedDataset(
        design=design,
        arm=np.array([0, 0, 1, 1], dtype=np.intp),
        uptake=np.array([[-1], [-1], [-1], [-1]], dtype=np.int8),
        outcome=np.array([0.1, 0.2, 0.3, 0.4]),
    )
    path = tmp_path / "weak.csv"
    save_csv(data, path)
    rc, _, err = run(capsys, ["analyze", str(path)])
    assert rc == 3 and "WeakFirstStageError" in err


@pytest.mark.parametrize(
    "options, header_only, message",
    [
        (["--profile", "declared:x"], False, "bad declared profile 'declared:x'"),
        (["--rescale", "a,b"], False, "--rescale wants numeric 'min,max', got 'a,b'"),
        ([], True, "{path}: no data rows"),
    ],
    ids=["declared-x", "rescale-a-b", "header-only"],
)
def test_analyze_input_errors_exit_2_with_their_message(capsys, tmp_path, options, header_only, message):
    path = DATA / "p4_census.csv"
    if header_only:
        path = tmp_path / "header.csv"
        path.write_text("z1,z2,d1,d2,y\n")
    rc, out, err = run(capsys, ["analyze", str(path), *options])
    assert (rc, out, err) == (2, "", f"error: {message.format(path=path)}\n")


def test_analyze_reports_an_undefined_wald_reference_as_null(capsys, tmp_path):
    # two rows per arm; d1 is -1, +1, +1, -1 over arms (-,-), (+,-), (-,+), (+,+), so factor 1's marginal
    # uptake ITT is zero while its first stage at the declared profile (-1,) is 1; d2 follows z2
    path = tmp_path / "wald_zero.csv"
    rows = [(z1, z2, d1, z2, y) for (z1, z2, d1), ys in zip(
        [(-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1)], [(0.2, 0.4), (0.5, 0.9), (0.3, 0.6), (0.1, 0.7)]
    ) for y in ys]
    path.write_text("z1,z2,d1,d2,y\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    report_path = tmp_path / "report.json"
    argv = ["analyze", str(path), "--profile", "declared:-1", "--method", "simple", "--out", str(report_path)]
    rc, table, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    report = json.loads(report_path.read_text())
    assert [e["factor"] for e in report["estimates"]] == [1, 2]
    assert report["wald"][0] == {
        "factor": 1, "label": "requires strong treatment exclusion", "point": None, "se": None
    }
    assert report["wald"][1]["point"] is not None and report["wald"][1]["se"] is not None
    wald_1 = [line for line in table.splitlines() if "wald (reference)" in line][0]
    assert wald_1.split() == ["1", "wald", "(reference)", "-", "(requires", "strong", "treatment", "exclusion)", "-"]
    rc, out, _ = run(capsys, ["plotdata", str(report_path)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows[1:]] == ["report/factor1:simple", "report/factor2:simple"]
    assert rows[1][-1] == "" and rows[2][-1] != ""  # no reference point for factor 1


# ------------------------------------------------------------------ oracle


def test_oracle_report(capsys, p4_json, p4):
    rc, out, _ = run(
        capsys,
        ["oracle", str(p4_json), "--factor", "1",
         "--method", "adjusted,simple,exclusion,interaction:1+2,conservative:0.25"],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == "factorbounds-oracle-v1"
    assert report["K"] == 2 and report["N"] == 4
    block = report["factors"][0]
    assert block["checks"]["monotone"]["passes"] is True
    assert block["checks"]["profile"]["valid_contexts"] == [[-1]]
    assert block["checks"]["exclusion"]["passes"] is True
    assert block["itt"]["gamma"] == [0.5, 0.75]
    assert block["shares"]["rho_constant"] == 0.5
    methods = block["methods"]
    ref = exclusion_bounds(p4, 1, (-1,))
    assert abs(methods["exclusion"]["center"] - ref.center) < TOL
    assert methods["exclusion"]["true_delta"] == 1.0
    assert methods["exclusion"]["profile_context"] == [-1]
    assert methods["conservative:0.25"]["t"] == 0.25
    assert abs(methods["conservative:0.25"]["center"] - 2.5) < TOL
    assert methods["adjusted"]["upper_clipped"] is True


def test_oracle_joint_method(capsys, tmp_path, k3_joint_pop):
    path = tmp_path / "k3.json"
    save_population(k3_joint_pop, path)
    rc, out, _ = run(capsys, ["oracle", str(path), "--factor", "1", "--method", "joint:2"])
    assert rc == 0
    report = json.loads(out)
    joint = report["factors"][0]["methods"]["joint:2"]
    assert abs(joint["center"] - 0.1875) < TOL
    assert joint["profile_context"] == [-1]
    assert abs(joint["true_delta"] - 0.125) < TOL


def test_oracle_refuses_exclusion_where_the_outcome_moves_at_unchanged_uptake(capsys):
    # units 2 and 3 never take factor 1, yet their outcome follows z1: the
    # exclusion interval alone would be [1, 1] against a true effect of 0,
    # and so would conservative:0.5; every method resting on outcome
    # exclusion is refused with the check's message
    path = DATA / "p4_outcome_exclusion.json"
    methods = "adjusted,simple,exclusion,conservative:0.5,interaction:1+2,joint:2"
    rc, out, _ = run(capsys, ["oracle", str(path), "--factor", "1", "--method", methods])
    assert rc == 3
    block = json.loads(out)["factors"][0]
    found = [[2, [-1]], [3, [-1]], [2, [1]], [3, [1]]]
    assert block["checks"]["outcome_exclusion"] == {"passes": False, "violations": found}
    assert block["checks"]["exclusion"]["passes"] is True
    methods = block["methods"]
    for method in ("exclusion", "conservative:0.5", "interaction:1+2", "joint:2"):
        assert methods[method]["error"] == (
            "AssumptionViolationError: factor 1: outcome shifts with assignment at unchanged uptake"
            " for (unit, context) [(2, (-1,)), (3, (-1,)), (2, (1,)), (3, (1,))]"
        )
    for method in ("adjusted", "simple"):
        assert (methods[method]["lower"], methods[method]["upper"], methods[method]["true_delta"]) == (0.0, 1.0, 0.0)


def test_oracle_defier_population_exits_3(capsys, tmp_path, p4):
    uptake = p4.uptake.copy()
    uptake[0, 0, 0] = 1
    uptake[0, 1, 0] = -1
    bad = Population(design=p4.design, uptake=uptake, outcome=p4.outcome)
    path = tmp_path / "defier.json"
    save_population(bad, path)
    rc, out, _ = run(capsys, ["oracle", str(path), "--factor", "1"])
    assert rc == 3
    report = json.loads(out)
    block = report["factors"][0]
    assert block["checks"]["monotone"]["passes"] is False
    assert block["checks"]["monotone"]["violations"] == [[0, [-1]]]
    assert all("error" in m for m in block["methods"].values())
    assert "itt" not in block


def test_oracle_declared_profile_not_least_compliant(capsys, p4_json):
    rc, out, _ = run(
        capsys, ["oracle", str(p4_json), "--factor", "1", "--profile", "declared:1"]
    )
    assert rc == 3
    report = json.loads(out)
    methods = report["factors"][0]["methods"]
    assert all("AssumptionViolationError" in m["error"] for m in methods.values())


def test_oracle_bad_conservative_share(capsys, p4_json):
    rc, out, _ = run(
        capsys, ["oracle", str(p4_json), "--factor", "1", "--method", "conservative:0.9"]
    )
    assert rc == 3
    report = json.loads(out)
    err = report["factors"][0]["methods"]["conservative:0.9"]["error"]
    assert "InvalidShareError" in err


@pytest.mark.parametrize(
    "option",
    [
        ["--profile", "smallest"],
        ["--method", "conservative:abc"],
        ["--method", "conservative:0"],
        ["--method", "conservative:-1"],
        ["--method", "conservative:nan"],
        ["--method", "joint:9"],
        ["--method", "interaction:1+9"],
    ],
)
def test_oracle_option_errors_exit_2(capsys, p4_json, option):
    # option syntax fails the whole command, as in analyze; only failures
    # that depend on the population stay per method with exit 3
    rc, out, err = run(capsys, ["oracle", str(p4_json), "--factor", "1", *option])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("change", [{"N": "4"}, {"N": 4.0}, {"N": True}, {"K": 2.0}])
def test_oracle_malformed_population_exits_2(capsys, tmp_path, p4_json, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(json.loads(p4_json.read_text()), **change)))
    rc, out, err = run(capsys, ["oracle", str(path)])
    assert rc == 2
    assert out == ""
    name, value = next(iter(change.items()))
    assert err.startswith(f"error: {name} must be an integer, got {value!r}")


P4_PAYLOAD = json.loads((DATA / "p4_population.json").read_text())
MALFORMED_POPULATIONS = {  # a payload and the message loading it must give
    "not-an-object": ([1, 2], "population payload must be a JSON object"),
    "missing-field": (
        {k: v for k, v in P4_PAYLOAD.items() if k != "outcome"}, "population payload missing field 'outcome'"
    ),
    "2d-uptake": ({**P4_PAYLOAD, "uptake": [[1, 1]] * 4}, "uptake must be N x J x K, got shape (4, 2)"),
    "N-unequal": ({**P4_PAYLOAD, "N": 5}, "declared N=5 but uptake has 4 units"),
    "inner-shape": ({**P4_PAYLOAD, "uptake": [[[1, 1, 1]] * 4] * 4}, "uptake shape (4, 4, 3) does not match (N, 4, 2)"),
}


@pytest.mark.parametrize("name", MALFORMED_POPULATIONS)
def test_oracle_population_file_errors_exit_2_with_their_message(capsys, tmp_path, name):
    payload, message = MALFORMED_POPULATIONS[name]
    path = tmp_path / "population.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, ["oracle", str(path)]) == (2, "", f"error: {message}\n")


def test_oracle_missing_population_file_exits_2(capsys, tmp_path):
    path = tmp_path / "missing.json"
    message = f"cannot read population file {path}: [Errno 2] No such file or directory: {str(path)!r}"
    assert run(capsys, ["oracle", str(path)]) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------- simulate


def scenario_file(tmp_path, **over):
    kw = dict(
        K=2,
        N=48,
        factors=(
            FactorSpec(complier=0.6, upgrade=0.3, depends_on=(2,), worst=(-1,)),
            FactorSpec(complier=0.9),
        ),
        outcome=OutcomeSpec(),
        seed=4242,
        require=("monotone:1", "profile:1", "first_stage:1"),
        targets=(TargetSpec(factor=1, method="exclusion"),),
    )
    kw.update(over)
    config = ScenarioConfig(**kw)
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    return path


def test_simulate_deterministic_bytes(capsys, tmp_path):
    path = scenario_file(tmp_path)
    rc1, out1, err1 = run(capsys, ["simulate", str(path), "-R", "6"])
    rc2, out2, err2 = run(capsys, ["simulate", str(path), "-R", "6"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "factor1:exclusion[min]" in err1
    report = json.loads(out1)
    assert report["schema"] == "factorbounds-coverage-v1"
    assert report["replications"] == 6


def test_simulate_out_file(capsys, tmp_path):
    path = scenario_file(tmp_path)
    out_path = tmp_path / "mc.json"
    rc, out, err = run(capsys, ["simulate", str(path), "-R", "4", "--out", str(out_path)])
    assert rc == 0
    assert "factor1:exclusion[min]" in out  # summary moves to stdout
    assert json.loads(out_path.read_text())["replications"] == 4


def test_simulate_seed_precedence(capsys, tmp_path, monkeypatch):
    path = scenario_file(tmp_path)
    monkeypatch.setenv("FB_SEED", "1111")
    rc, out, _ = run(capsys, ["simulate", str(path), "-R", "3"])
    assert rc == 0
    assert json.loads(out)["config"]["seed"] == 1111
    rc, out, _ = run(capsys, ["simulate", str(path), "-R", "3", "--seed", "2222"])
    assert json.loads(out)["config"]["seed"] == 2222
    monkeypatch.setenv("FB_SEED", "junk")
    rc, _, err = run(capsys, ["simulate", str(path), "-R", "3"])
    assert rc == 2 and "FB_SEED" in err


def test_simulate_bad_scenario_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, ["simulate", str(path), "-R", "2"])
    assert rc == 2


def test_simulate_population_over_the_memory_budget_exits_2(capsys, tmp_path):
    # K=10, N=200k would need a multi-GiB population: refused at load with
    # the estimate, not a numpy MemoryError (exit 4)
    path = tmp_path / "k10.json"
    scenario = {"K": 10, "N": 200_000, "seed": 1, "factors": [{"complier": 0.5}] * 10}
    path.write_text(json.dumps({**scenario, "targets": [{"factor": 1}]}))
    rc, _, err = run(capsys, ["simulate", str(path), "-R", "1"])
    assert rc == 2
    assert "N=200000 units over 2^10 arms needs about 4.6 GiB, over the 4 GiB budget" in err


def _gib(need: int) -> str:
    """need bytes in GiB to one decimal, rounded half to even, by exact decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 500
        return str((decimal.Decimal(need) / (1 << 30)).quantize(decimal.Decimal("0.1"), decimal.ROUND_HALF_EVEN))


@pytest.mark.parametrize(
    "command, base, N",
    [("simulate", "scenarios/well_separated.json", 1e308), ("simulate", "scenarios/well_separated.json", 10**400),
     ("oracle", "data/p4_population.json", 10**400)],
    ids=["simulate-1e308", "simulate-10**400", "oracle-10**400"],
)
def test_huge_N_exits_2_with_the_memory_estimate(capsys, tmp_path, command, base, N):
    # the charge is integer arithmetic, so an N past the float range is refused
    # by the budget, not by an OverflowError (exit 4)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**json.loads((DATA.parent / base).read_text()), "N": N}))
    need = int(N) * 4 * (8 + 1 + 9) + int(N) * 2 * 2  # K=2: 4 cells a unit, and K/2 bytes of type codes a cell
    want = f"error: a population of N={int(N)} units over 2^2 arms needs about {_gib(need)} GiB,"
    want += " over the 4 GiB budget\n"
    assert run(capsys, [command, str(path)] + (["-R", "3"] if command == "simulate" else [])) == (2, "", want)


TINY_ALPHA = "must be in (0, 1) with 1 - alpha/2 rounding below 1, got 1e-17\n"


def test_analyze_tiny_alpha_exits_2_before_any_estimate(capsys, monkeypatch):
    # 1 - 1e-17/2 rounds to 1.0, where the normal quantile is infinite
    monkeypatch.setattr("factorbounds.cli.estimate_bounds", lambda *a, **kw: pytest.fail("estimated"))
    rc, out, err = run(capsys, ["analyze", str(DATA / "p4_census.csv"), "--alpha", "1e-17"])
    assert (rc, out, err) == (2, "", "error: --alpha " + TINY_ALPHA)


def test_simulate_tiny_target_alpha_exits_2(capsys, tmp_path):
    scenario = json.loads((SCENARIOS / "well_separated.json").read_text())
    scenario["targets"][0]["alpha"] = 1e-17
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(scenario))
    assert run(capsys, ["simulate", str(path), "-R", "3"]) == (2, "", "error: targets[0].alpha " + TINY_ALPHA)


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would end in exit 4
def test_analyze_rescale_overflow_exits_2_without_a_warning(capsys):
    # the array parse's division overflows under errstate, declines, and the row parser words the error
    rc, out, err = run(capsys, ["analyze", str(DATA / "p4_census.csv"), "--rescale", "0,1e-320"])
    assert (rc, out, err) == (2, "", "error: line 6, column y: value inf outside [0, 1] after rescale\n")


def test_plotdata_integer_past_the_float_range_exits_2(capsys, census_csv, tmp_path):
    path = tmp_path / "report.json"
    assert run(capsys, ["analyze", str(census_csv), "--method", "simple", "--out", str(path)])[0] == 0
    report = json.loads(path.read_text())
    report["estimates"][0]["ci_lower"] = 10**400
    path.write_text(json.dumps(report))
    rc, out, err = run(capsys, ["plotdata", str(path)])
    assert (rc, out, err) == (2, "", f"error: {path}: malformed analysis report (int too large to convert to float)\n")


def test_oracle_share_floors_whose_bounds_overflow(capsys):
    # a floor below the least normal float would make the bounds infinite: refused;
    # a floor above every share fails per method, and its failed block computes nothing that warns
    population = str(DATA / "p4_population.json")
    rc, out, err = run(capsys, ["oracle", population, "--method", "conservative:1e-320"])
    assert (rc, out) == (2, "")
    floor = "must be finite and at least 2.2250738585072014e-308"
    assert err == f"error: complier-share floor {floor}, got 'conservative:1e-320'\n"
    rc, out, _ = run(capsys, ["oracle", population, "--factor", "1", "--method", "conservative:1e308"])
    assert rc == 3
    assert "InvalidShareError" in json.loads(out)["factors"][0]["methods"]["conservative:1e308"]["error"]


# bytes that are not UTF-8, and an integer past Python's int-string digit limit (4300 digits by
# default): json.load raises ValueError for each, not JSONDecodeError
UNREADABLE_JSON = {"latin1": b'{"K": 2, "N": \xff}', "5001-digits": b'{"K": 2, "N": 1' + b"0" * 5000 + b"}"}


@pytest.mark.parametrize("name", UNREADABLE_JSON)
@pytest.mark.parametrize("command", ["oracle", "simulate", "plotdata"])
def test_json_inputs_that_python_cannot_read_exit_2(capsys, tmp_path, command, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE_JSON[name])
    rc, out, err = run(capsys, [command, str(path)] + (["-R", "2"] if command == "simulate" else []))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err, err


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
WELL_SEPARATED = json.loads((SCENARIOS / "well_separated.json").read_text())


F0, F1 = WELL_SEPARATED["factors"]
T0 = WELL_SEPARATED["targets"][0]
# (change to well_separated.json, the field path its error message starts with)
MALFORMED_SCENARIOS = [
    ({"factors": 3}, "factors"),
    ({"K": "two"}, "K"),
    ({"seed": "x"}, "seed"),
    ({"outcome": {"alpha": [0.1]}}, "outcome.alpha"),
    ({"N": 100.5}, "N"),
    ({"seed": True}, "seed"),
    ({"clone_factor": 2.5}, "clone_factor"),
    ({"arm_sizes": [500.5, 500, 500, 500]}, "arm_sizes[0]"),
    ({"factors": [dict(F0, complier=True), F1]}, "factors[0].complier"),
    ({"factors": [dict(F0, complier="0.5"), F1]}, "factors[0].complier"),
    ({"factors": [F0, dict(F1, upgrade=float("nan"))]}, "factors[1].upgrade"),
    ({"outcome": {"alpha": [False, True]}}, "outcome.alpha[0]"),
    ({"outcome": dict(WELL_SEPARATED["outcome"], beta=[["0.2", 0.4], [0.2, 0.35]])}, "outcome.beta[0][0]"),
    ({"targets": [dict(T0, alpha=True)]}, "targets[0].alpha"),
    ({"K": "2"}, "K"),
    ({"seed": "7"}, "seed"),
    ({"targets": [dict(T0, factor="1")]}, "targets[0].factor"),
    ({"factors": [dict(F0, worst=["-1"]), F1]}, "factors[0].worst[0]"),
    ({"factors": [dict(F0, depends_on="2"), F1]}, "factors[0].depends_on"),
    ({"targets": [dict(T0, method=5)]}, "targets[0].method"),
    ({"require": [1]}, "require[0]"),
    ({"require": "monotone:1"}, "require"),
    ({"factors": {"complier": 0.5}}, "factors"),
    ({"outcome": None}, "outcome"),
    ({"factors": [F0, {k: v for k, v in F1.items() if k != "complier"}]}, "factors[1].complier"),
    ({"clone_factor": 3}, "clone_factor"),  # fresh mode draws no clones
    ({"clone_factor": 3, "population_mode": "fixed"}, "clone_factor"),
]


@pytest.mark.parametrize(
    "change, path", MALFORMED_SCENARIOS, ids=[f"change{i}" for i in range(len(MALFORMED_SCENARIOS))]
)
def test_simulate_malformed_scenario_exits_2(capsys, tmp_path, change, path):
    scenario = json.loads((SCENARIOS / "well_separated.json").read_text())
    scenario.update(change)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    rc, _, err = run(capsys, ["simulate", str(scenario_path), "-R", "2"])
    assert rc == 2
    assert err.startswith("error: ")
    assert err.startswith(f"error: {path} "), err


NUMERIC_FIELDS = [
    ("K",), ("N",), ("seed",), ("clone_factor",), ("arm_sizes", 0),
    ("factors", 0, "complier"), ("factors", 0, "always"), ("factors", 0, "upgrade"),
    ("factors", 0, "depends_on", 0), ("factors", 0, "worst", 0),
    ("outcome", "alpha", 0), ("outcome", "beta", 1, 0), ("outcome", "eta", 1),
    ("targets", 0, "factor"), ("targets", 0, "alpha"),
]


@pytest.mark.parametrize("value", [True, "0.5", float("nan")], ids=["bool", "string", "nan"])
@pytest.mark.parametrize("field", NUMERIC_FIELDS, ids=lambda keys: "-".join(map(str, keys)))
def test_simulate_numeric_fields_refuse_bool_string_nan(capsys, tmp_path, field, value):
    scenario = json.loads((SCENARIOS / "appc_like.json").read_text())  # the one with arm_sizes
    node = scenario
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc, out, err = run(capsys, ["simulate", str(path), "-R", "2"])
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in field)[1:]
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {where} must be "), err


@pytest.mark.parametrize(
    "target",
    [
        {"profile": "smallest"},
        {"factor": 9},
        {"factor": 1, "method": "interaction:2+3"},
        {"factor": 1, "method": "joint:1"},
        {"profile": "declared:1,1"},  # K=2 contexts have one level
    ],
)
def test_simulate_rejects_bad_target_at_load(capsys, tmp_path, monkeypatch, target):
    scenario = json.loads((SCENARIOS / "well_separated.json").read_text())
    scenario["targets"][0].update(target)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(InvalidInputError):
        load_scenario(path)

    def no_generation(*args, **kwargs):
        raise AssertionError("population generated for an invalid scenario")

    monkeypatch.setattr("factorbounds.simulate.generate_population", no_generation)
    rc, out, err = run(capsys, ["simulate", str(path), "-R", "3"])
    assert rc == 2
    assert out == "" and err.startswith("error: ")


K1 = {**WELL_SEPARATED, "K": 1, "factors": [F1], "require": ["monotone:1"]}
K1["outcome"] = {**WELL_SEPARATED["outcome"], "beta": [[0.2, 0.4]]}
# (scenario, FB_SEED, exit code, the error line)
SIMULATE_ERRORS = {
    "FB_SEED-negative": (WELL_SEPARATED, "-1", 2, "FB_SEED must be nonnegative"),
    "depends_on-unsorted": (
        {**WELL_SEPARATED, "factors": [dict(F0, depends_on=[2, 1], worst=[-1, -1]), F1]}, None, 2,
        "factors[0]: depends_on must be sorted and duplicate-free",
    ),
    "worst-length": (
        {**WELL_SEPARATED, "factors": [dict(F0, worst=[-1, 1]), F1]}, None, 2,
        "factors[0]: worst pattern must give one -1/+1 level per depends_on factor",
    ),
    "depends_on-itself": (
        {**WELL_SEPARATED, "factors": [dict(F0, depends_on=[1]), F1]}, None, 2,
        "factor 1: depends_on entry 1 must name a different factor in 1..2",
    ),
    "beta-length": (
        {**WELL_SEPARATED, "outcome": {**WELL_SEPARATED["outcome"], "beta": [[0.2, 0.4]]}}, None, 2,
        "outcome beta needs one range per factor",
    ),
    "arm_sizes-length": ({**WELL_SEPARATED, "arm_sizes": [500, 500, 1000]}, None, 2, "3 arm sizes for J=4"),
    "token-monotone-x": (
        {**WELL_SEPARATED, "require": ["monotone:x"]}, None, 2, "bad factor list in token 'monotone:x'"
    ),
    "violate-exclusion-K1": (
        {**K1, "violate": ["exclusion:1"]}, None, 3, "GenerationError: exclusion:1: needs a second factor"
    ),
    "violate-profile-K1": (
        {**K1, "violate": ["profile:1"]}, None, 3,
        "GenerationError: profile:1: needs K >= 2 and N >= 2 (no second context or unit)",
    ),
    "violate-joint_profile-K2": (
        {**WELL_SEPARATED, "violate": ["joint_profile:1,2"]}, None, 3,
        "GenerationError: joint_profile:1,2: needs a third factor to vary the joint profile",
    ),
}


@pytest.mark.parametrize("name", SIMULATE_ERRORS)
def test_simulate_errors_exit_with_their_code_and_message(capsys, tmp_path, monkeypatch, name):
    scenario, seed, code, message = SIMULATE_ERRORS[name]
    if seed is not None:
        monkeypatch.setenv("FB_SEED", seed)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run(capsys, ["simulate", str(path), "-R", "2"]) == (code, "", f"error: {message}\n")


def test_simulate_summary_counts_the_failed_replications(capsys, tmp_path):
    # factor 1's rare constant compliers leave most small-N estimates without a positive first stage
    scenario = {
        "K": 2,
        "N": 24,
        "seed": 1,
        "factors": [
            {"always": 0.0, "complier": 0.1, "depends_on": [2], "upgrade": 0.5, "worst": [-1]},
            {"always": 0.1, "complier": 0.6},
        ],
        "require": ["monotone:1", "profile:1", "first_stage:1"],
        "targets": [{"factor": 1, "method": "simple"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    rc, out, err = run(capsys, ["simulate", str(path), "-R", "8"])
    target = json.loads(out)["targets"][0]
    assert rc == 0 and target["failures"] == {"WeakFirstStageError": 6}
    assert err.splitlines()[1:] == ["factor1:simple[min]: 6 replication(s) failed with WeakFirstStageError"]


# ---------------------------------------------------------------- plotdata


def test_plotdata_roundtrip(capsys, census_csv, tmp_path):
    report_path = tmp_path / "report.json"
    rc, _, _ = run(
        capsys,
        ["analyze", str(census_csv), "--factor", "1", "--method", "exclusion,adjusted",
         "--out", str(report_path)],
    )
    assert rc == 0
    csv_path = tmp_path / "points.csv"
    rc, _, _ = run(capsys, ["plotdata", str(report_path), "--out", str(csv_path)])
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == [
        "report/factor1:exclusion",
        "report/factor1:adjusted",
    ]
    report = json.loads(report_path.read_text())
    for row, e in zip(rows, report["estimates"]):
        assert float(row["lower"]) == e["clipped_lower"]
        assert float(row["upper"]) == e["clipped_upper"]
        assert float(row["ci_lower"]) == e["ci_lower"]
        assert float(row["ci_upper"]) == e["ci_upper"]
        assert float(row["point"]) == report["wald"][0]["point"]


def test_plotdata_stdout_and_multiple_reports(capsys, census_csv, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run(
            capsys,
            ["analyze", str(census_csv), "--factor", "1", "--method", "simple", "--out", str(path)],
        )
        assert rc == 0
    rc, out, _ = run(capsys, ["plotdata", str(a), str(b)])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["label"] for r in rows] == ["a/factor1:simple", "b/factor1:simple"]


def test_plotdata_rejects_wrong_schema(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "factorbounds-coverage-v1"}))
    rc, _, err = run(capsys, ["plotdata", str(path)])
    assert rc == 2 and "not an analysis report" in err


@pytest.mark.parametrize(
    "breakage",
    [
        lambda rep: rep.pop("K"),
        lambda rep: rep["estimates"][0].pop("method"),
        lambda rep: rep.update(K=[2]),
        lambda rep: rep.update(estimates={}),
        lambda rep: rep.update(estimates=""),
        lambda rep: rep.update(wald={}),
        lambda rep: rep.update(wald=""),
    ],
    ids=["no_K", "estimate_without_method", "K_list", "estimates_dict", "estimates_str", "wald_dict", "wald_str"],
)
def test_plotdata_malformed_report_exits_2(capsys, census_csv, tmp_path, breakage):
    path = tmp_path / "report.json"
    rc, _, _ = run(capsys, ["analyze", str(census_csv), "--method", "simple", "--out", str(path)])
    assert rc == 0
    report = json.loads(path.read_text())
    breakage(report)
    path.write_text(json.dumps(report))
    rc, out, err = run(capsys, ["plotdata", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {path}: "), err


def test_plotdata_rejects_mixed_k(capsys, tmp_path, census_csv):
    from factorbounds.design import enumerate_assignments
    from factorbounds.data import ObservedDataset

    rng = np.random.default_rng(3)
    design = enumerate_assignments(1)
    data = ObservedDataset(
        design=design,
        arm=np.repeat(np.arange(2, dtype=np.intp), 6),
        uptake=np.where(np.repeat([[-1], [1]], 6, axis=0) == 1, 1, -1).astype(np.int8),
        outcome=rng.random(12),
    )
    k1_csv = tmp_path / "k1.csv"
    save_csv(data, k1_csv)
    a = tmp_path / "k1.json"
    b = tmp_path / "k2.json"
    rc, _, _ = run(capsys, ["analyze", str(k1_csv), "--method", "simple", "--out", str(a)])
    assert rc == 0
    rc, _, _ = run(capsys, ["analyze", str(census_csv), "--method", "simple", "--out", str(b)])
    assert rc == 0
    rc, _, err = run(capsys, ["plotdata", str(a), str(b)])
    assert rc == 2 and "mix designs" in err


# -------------------------------------------------------------------- misc


# -------------------------------------------------------------------- --out -


@pytest.mark.parametrize("command", ["analyze", "oracle", "simulate", "plotdata"])
def test_out_dash_is_stdout_for_every_subcommand(capsys, tmp_path, monkeypatch, command):
    # --out - sends the report to stdout as no --out does, the human summary
    # goes to stderr, and no file named - appears
    report = tmp_path / "report.json"
    assert run(capsys, ["analyze", str(DATA / "p4_census.csv"), "--out", str(report)])[0] == 0
    argv = {
        "analyze": ["analyze", str(DATA / "p4_census.csv")],
        "oracle": ["oracle", str(DATA / "p4_population.json")],
        "simulate": ["simulate", str(scenario_file(tmp_path)), "-R", "3"],
        "plotdata": ["plotdata", str(report)],
    }[command]
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, [*argv, "--out", "-"])
    assert rc == 0 and not (tmp_path / "-").exists()
    assert (rc, out, err) == run(capsys, argv)
    if command == "plotdata":
        assert list(csv.DictReader(io.StringIO(out)))[0]["label"] == "report/factor1:adjusted"
    else:
        assert json.loads(out)["schema"].startswith("factorbounds-")
    assert ("factor" in err) == (command in ("analyze", "simulate"))  # the table, the coverage lines


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing input
    assert exc.value.code == 2


LAUNCHER = "import sys; from factorbounds.cli import main; sys.exit(main())"


def test_console_script_installed(tmp_path):
    """`factorbounds` is a working console script, installed or not.

    Checks the declared entry point, resolves it as an installer would, and
    runs the body of a pip-generated launcher against this package. The PATH
    lookup only applies when the distribution is installed.
    """
    import importlib.metadata
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import factorbounds

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"factorbounds": "factorbounds.cli:main"}

    (name, value), = scripts.items()
    entry = importlib.metadata.EntryPoint(name, value, group="console_scripts")
    assert entry.load() is main

    env = dict(os.environ, PYTHONPATH=str(Path(factorbounds.__file__).resolve().parents[1]))

    def launch(*argv):
        return subprocess.run(
            [sys.executable, "-c", LAUNCHER, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )

    proc = launch("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: factorbounds" in proc.stdout
    proc = launch("analyze", str(tmp_path / "missing.csv"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    try:
        dist = importlib.metadata.distribution("factorbounds")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert installed == scripts
    assert shutil.which("factorbounds") is not None


def test_readme_library_example_runs_as_commented(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(root)  # the example reads data/ relative to the repository root
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    pop, want = scope["pop"], exclusion_bounds(scope["pop"], 1, (-1,))
    assert scope["oracle"].method_interval(pop, 1, "exclusion") == (want, (-1,))
    assert scope["oracle"].exclusion_bounds(pop, 1, "declared:-1") == want
    assert scope["est"].center == want.center
