"""Fast self-test of the benchmark harness (about half a minute).

    python3 benchmark/selftest.py

Runs every workload at a tiny input size, untraced and traced, and checks
that the result line names exactly the metrics BENCHMARK.json declares
(and metrics.json documents);
checks that a corrupted report is counted as a failed operation, that
the reference comparison ignores fields the reference lacks, and that a
directory without the program makes the benchmark exit nonzero without a
result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "analyze_k5": {"n": 3_200},
    "mc_fresh": {"R": 3},
    "mc_clone": {"clone_factor": 3, "R": 3},
    "mc_wide": {"N": 1_280, "R": 1},
}
SEED = 7  # not the default seed, so no reference applies at the tiny sizes


def result_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"run.main({argv}) exited {code}"
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, sorted(line)
    return line


def check_metrics_emitted(declared: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, names in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
            line = result_line(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace)])
            assert line["correct"] and line["failed"] == 0, (workload, trace, line)
            assert set(line["metrics"]) == set(names), (workload, trace, set(line["metrics"]) ^ set(names))
            for name, metric in line["metrics"].items():
                assert metric["unit"] == names[name], (workload, name, metric)
                assert math.isfinite(metric["value"]), (workload, name, metric)
            print(f"ok   {workload} trace={trace}: {len(names)} metrics")


def _corrupt(report: bytes) -> bytes:
    doc = json.loads(report)
    if "estimates" in doc:  # a CI that no longer contains its interval
        doc["estimates"][0]["ci_lower"] = doc["estimates"][0]["clipped_lower"] + 0.01
    else:  # a replication that went missing
        doc["targets"][0]["n_ok"] -= 1
    return json.dumps(doc).encode()


def check_corruption_fails() -> None:
    real_run_op = run.run_op

    def corrupted_run_op(*args, **kwargs):
        wall, code, output, report = real_run_op(*args, **kwargs)
        return wall, code, output, _corrupt(report)

    run.run_op = corrupted_run_op
    try:
        for workload, symptom in (("analyze_k5", "CI does not contain"), ("mc_fresh", "n_ok")):
            line = result_line(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", "0"])
            # the set-up operations run in their own processes, uncorrupted
            assert not line["correct"] and line["failed"] == line["attempted"] - run.SETUPS, (workload, line)
            result = run.workload_paths(workload)["dir"] / f"result-seed{SEED}-trace0.json"
            failures = json.loads(result.read_text(encoding="utf-8"))["failures"]
            assert all(symptom in f for f in failures), failures[:1]
            print(f"ok   {workload}: all {line['failed']} corrupted reports counted as failed operations")
    finally:
        run.run_op = real_run_op


def check_reference_diff() -> None:
    ref = {"a": 1.0, "b": [0.5, {"c": "x"}]}
    assert run.reference_diff(ref, {"a": 1.0 + 1e-12, "b": [0.5, {"c": "x", "new": 1}], "extra": 2}) == []
    assert run.reference_diff(ref, {"a": 1.0 + 1e-6, "b": [0.5, {"c": "x"}]})
    assert run.reference_diff(ref, {"a": 1.0, "b": [0.5]})
    assert run.reference_diff(ref, {"b": [0.5, {"c": "x"}]})
    print("ok   reference comparison")


def check_bare_directory_fails() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        spec = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )  # fmt: skip
            assert proc.returncode != 0 and not proc.stdout.strip(), (workload, proc.returncode, proc.stdout)
        print("ok   a directory without the program exits nonzero with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads"
    documented = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    assert set(documented["per_layer"]) == set(declared["per_layer"]), "metrics.json per_layer names"
    assert set(documented["end_to_end"]) == set(declared["end_to_end"]), "metrics.json end_to_end names"
    assert set(documented["workloads"]) == set(run.WORKLOADS), "metrics.json workloads"
    for workload, sizes in TINY.items():
        run.WORKLOADS[workload] = dict(run.WORKLOADS[workload], **sizes)
    run.SETUPS = 2
    check_reference_diff()
    check_metrics_emitted(declared)
    check_corruption_fails()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
