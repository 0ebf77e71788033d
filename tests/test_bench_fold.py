import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_fold", ROOT / "scripts" / "bench_fold.py")
bench_fold = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_fold)

DECLARED = {
    "end_to_end": [
        {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    ]
}
ENV = {"python": "3", "numpy": "2", "platform": "x", "nproc": 2, "threads": {}}


def run(commit, seed, trace=0, **metrics):
    return {
        "workload": "mc_fresh",
        "seed": seed,
        "trace": trace,
        "shape": {"R": 50},
        "env": dict(ENV, seed=seed, git_commit=commit, source_sha256=commit * 2),
        "reference_calibration_s": 0.05,
        "op_calibration_s": [0.05],
        "failed": 0,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }


def test_fold_pairs_runs_by_seed_and_counts_wins():
    runs = [run("aaaa", s, op_s=1.0 + s / 100, peak_rss_mib=50.0) for s in range(10)]
    runs += [run("bbbb", s, op_s=0.7 + s / 100, peak_rss_mib=52.0) for s in range(10)]
    runs[-1]["metrics"]["op_s"]["value"] = 5.0  # one lost pair
    runs += [run("aaaa", 1, trace=1, **{"population.classify.calls_per_rep": 12.0})]
    runs += [run("bbbb", 1, trace=1, **{"population.classify.calls_per_rep": 2.0})]
    out = bench_fold.fold(runs, "aaa", 1, DECLARED)
    assert out["commits"]["parent"] == "aaaa" and out["commits"]["change"] == "bbbb"
    w = out["workloads"]["mc_fresh"]
    op = w["end_to_end"]["op_s"]
    assert (op["pairs"], op["pairs_won"], op["ties"]) == (10, 9, 0)
    assert op["gain_rule_met"] and op["within_bound"]
    rss = w["end_to_end"]["peak_rss_mib"]
    assert rss["pairs_won"] == 0 and rss["within_bound"] and not rss["gain_rule_met"]
    assert w["per_layer"]["change"] == {"population.classify.calls_per_rep": 2.0}
    assert w["failed_ops"] == {"parent": 0, "change": 0}


def test_fold_refuses_ambiguous_sides():
    runs = [run("aaaa", 1, op_s=1.0, peak_rss_mib=1.0), run("bbbb", 1, op_s=1.0, peak_rss_mib=1.0)]
    with pytest.raises(SystemExit):
        bench_fold.fold(runs + [run("cccc", 1, op_s=1.0, peak_rss_mib=1.0)], "aaaa", 1, DECLARED)
    with pytest.raises(SystemExit):
        bench_fold.fold(runs + [run("bbbb", 1, op_s=2.0, peak_rss_mib=1.0)], "aaaa", 1, DECLARED)
    runs[1]["env"]["nproc"] = 4
    with pytest.raises(SystemExit):
        bench_fold.fold(runs, "aaaa", 1, DECLARED)
