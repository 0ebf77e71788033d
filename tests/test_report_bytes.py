import importlib.util
from pathlib import Path

import pytest

from factorbounds.errors import AssumptionViolationError

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("report_bytes", ROOT / "scripts" / "report_bytes.py")
report_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_bytes)

DOC = {"method": "exclusion", "bounds": {"lower": -0.25, "upper": [0.5, 0.75]}, "n": 3, "ok": True}


def test_equal_documents_have_no_difference():
    assert report_bytes.json_diff(DOC, {**DOC, "bounds": {"upper": [0.5, 0.75], "lower": -0.25}}) == []


def test_a_moved_nested_float_reports_its_path_and_distance():
    moved = {**DOC, "bounds": {"lower": -0.25, "upper": [0.5, 0.75 + 2**-40]}}
    assert report_bytes.json_diff(DOC, moved) == [("$.bounds.upper[1]", 0.75, 0.75 + 2**-40, 2**-40)]


def test_a_missing_key_is_reported_on_its_side():
    missing = {k: v for k, v in DOC.items() if k != "n"}
    assert report_bytes.json_diff(DOC, missing) == [("$.n", 3, report_bytes.MISSING, None)]
    assert report_bytes.json_diff(missing, DOC) == [("$.n", report_bytes.MISSING, 3, None)]


def test_type_and_sign_of_zero_count_as_differences():
    found = report_bytes.json_diff([0.0, 1, True], [-0.0, 1.0, 1])
    assert found == [("$[0]", 0.0, -0.0, 0.0), ("$[1]", 1, 1.0, 0.0), ("$[2]", True, 1, None)]


def test_compared_scenarios_reach_the_binary_outcome_and_a_violation():
    from factorbounds import simulate
    from factorbounds.simulate import ScenarioConfig

    written = report_bytes.scenarios()
    wide = ScenarioConfig.from_dict(written["wide_m2.json"])
    assert (wide.K, wide.outcome.model) == (6, "m2")
    violating = ScenarioConfig.from_dict(written["k3_violate_exclusion.json"])
    assert (violating.K, violating.violate) == (3, ("exclusion:1",))
    k9 = ScenarioConfig.from_dict(written["k9_negative_eta.json"])
    assert (k9.K, k9.population_mode) == (9, "fresh") and k9.outcome.eta[0] < 0
    stacked = ScenarioConfig.from_dict(written["k3_stacked_chunks.json"])
    assert (stacked.K, stacked.population_mode, stacked.violate) == (3, "fresh", ("monotone:3",))
    assert [(t.method, t.profile) for t in stacked.targets] == [
        ("interaction:1+2", "min"), ("joint:2", "min"), ("exclusion", "declared:-1,-1"), ("adjusted", "min")
    ]
    per_chunk = simulate._CHUNK_CELLS // (stacked.N << stacked.K)
    assert 2 <= per_chunk <= 200 - 2  # -R 200 spans two chunks or more, each of several replications
    fixed = ScenarioConfig.from_dict(written["k4_fixed.json"])
    assert fixed.population_mode == "fixed"
    assert [t.method for t in fixed.targets] == ["adjusted", "exclusion", "joint:2"]
    generated = ["k5.csv", "k4_population.json", "k3_no_profile.json", "k3_exclusion_messages.json"]
    paths = {name: Path(name) for name in [*written, *generated, "p4_outcome_exclusion.json"]}
    simulated = {Path(cmd[1]).name for cmd in report_bytes.commands(paths) if cmd[0] == "simulate"}
    assert {"wide_m2.json", "k3_violate_exclusion.json", "k9_negative_eta.json", "k4_fixed.json"} <= simulated
    assert ["simulate", "k3_stacked_chunks.json", "-R", "200"] in report_bytes.commands(paths)
    methods = "adjusted,simple,exclusion,interaction:1+2,joint:2,conservative:0.05"
    assert ["oracle", "k4_population.json", "--method", methods] in report_bytes.commands(paths)
    no_profile = ["oracle", "k3_no_profile.json", "--method", "adjusted,exclusion,joint:2", "--factor", "1"]
    assert no_profile in report_bytes.commands(paths)
    assert ["oracle", "k3_exclusion_messages.json", "--method", "exclusion,joint:2"] in report_bytes.commands(paths)
    outcome = ["oracle", "p4_outcome_exclusion.json", "--factor", "1", "--method", "adjusted,simple,exclusion"]
    assert outcome in report_bytes.commands(paths)


def test_compared_population_has_every_compliance_group(tmp_path):
    # the generated K=4 population the oracle reads holds always-takers,
    # never-takers and conditional compliers, and every method's interval
    from factorbounds import oracle, population

    paths = report_bytes.write_inputs(tmp_path)
    pop = population.load_population(paths["k4_population.json"])
    for k in (1, 2):
        labels = pop.compliance(k).labels
        assert (labels == population.ALWAYS_TAKER).any() and (labels == population.NEVER_TAKER).any()
        complies = labels == population.COMPLIER
        assert (complies.any(axis=1) & ~complies.all(axis=1)).any()  # conditional compliers
    for method in ("adjusted", "simple", "exclusion", "interaction:1+2", "joint:2", "conservative:0.05"):
        oracle.method_report(pop, 1, method, "min")  # raises where an assumption fails
    # the K=3 population reaches both "no uniformly least compliant" errors
    pop = population.load_population(paths["k3_no_profile.json"])
    for method, message in (("adjusted", "factor 1: no"), ("joint:2", r"factors \(1, 2\): no .* joint context")):
        with pytest.raises(AssumptionViolationError, match=message):
            oracle.method_report(pop, 1, method, "min")
    # the K=3 population reaches the weak and the cross exclusion messages
    pop = population.load_population(paths["k3_exclusion_messages.json"])
    for k, method, message in (
        (1, "exclusion", "factor 1: uptake of other factors shifts"),
        (1, "joint:2", "factor 1: uptake of other factors shifts"),
        (3, "joint:2", r"factors \(3, 2\): uptake cross-dependence"),
    ):
        with pytest.raises(AssumptionViolationError, match=message):
            oracle.method_report(pop, k, method, "min")
    # the copied outcome-exclusion population is the committed one
    assert paths["p4_outcome_exclusion.json"].read_bytes() == (ROOT / "data" / "p4_outcome_exclusion.json").read_bytes()
    with pytest.raises(AssumptionViolationError, match="factor 1: outcome shifts"):
        oracle.method_report(population.load_population(paths["p4_outcome_exclusion.json"]), 1, "exclusion", "min")
