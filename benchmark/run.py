"""The factorbounds benchmark: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload analyze_k5 --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one process runs one operation at a time
through ``factorbounds.cli.main``, in-process, with BLAS pinned to one
thread. A run sets the workload up from the seed several times, each
in a fresh interpreter that also runs the first operation (see
inputs.py), then repeats the operation until ``--seconds`` have passed.
Every report is checked outside the timed region; an operation fails on a
nonzero exit code, an exception, or a failed check.

Times are scaled to a reference host speed: right before every set-up
and every operation the run times a fixed calibration computation
(hostspeed.py), and the wall time is multiplied by
``hostspeed.REFERENCE_S / calibration time``. ``setup_s`` and ``op_s`` are
medians of these scaled times; the raw wall and calibration times are in
the result record.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and it carries the per-layer breakdown from spans.py instead.
The line before it records the environment and the input shape, and the
full record (and in traced runs every span) goes to ``.bench_out/``.

Exit code 2 means the benchmark could not run at all (no program to
measure, or a set-up that failed); operations that fail are reported in
the result and still exit 0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import SRC, THREAD_VARS  # noqa: E402  (pins BLAS threads before numpy loads)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
from spans import GROUPS, SPAN_LAYERS, Tracer  # noqa: E402

OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 1
SETUPS = 3  # set-ups per run; setup_s uses their median
MIN_OPS = 3  # measured operations per run, even past --seconds
SETUP_TIMEOUT_S = 120
REFERENCE_TOL = 1e-9
MAIN_METHODS = ("adjusted", "simple", "exclusion")

# Input sizes. analyze_k5 analyses n rows of a K-factor CSV; the mc_*
# workloads run R replications of a scenario per operation.
WORKLOADS = {
    "analyze_k5": {"kind": "analyze", "K": 5, "n": 50_000},
    "mc_fresh": {"kind": "shipped", "base": "scenarios/well_separated.json", "R": 50},
    "mc_clone": {"kind": "clone", "base": "scenarios/clone_scaling.json", "clone_factor": 1000, "R": 15},
    "mc_wide": {"kind": "wide", "K": 6, "N": 8000, "R": 1},
}


class SetupError(RuntimeError):
    """The workload's input could not be made; nothing was measured."""


# --- inputs and operations ---------------------------------------------------


def workload_paths(workload: str) -> dict:
    spec = WORKLOADS[workload]
    work = OUT / workload
    if spec["kind"] == "analyze":
        input_path = work / "input.csv"
    elif spec["kind"] == "shipped":
        input_path = ROOT / spec["base"]
    else:
        input_path = work / "scenario.json"
    return {"dir": work, "input": input_path, "report": work / "report.json"}


def set_up_once(workload: str, seed: int) -> tuple[float, dict]:
    """One set-up in a fresh interpreter; returns its wall time and timings."""
    paths = workload_paths(workload)
    paths["dir"].mkdir(parents=True, exist_ok=True)
    spec = dict(WORKLOADS[workload], seed=seed, out=str(paths["input"]), argv=op_argv(workload, seed))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up of {workload} failed:\n{proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def input_shape(workload: str) -> dict:
    spec = WORKLOADS[workload]
    if spec["kind"] == "analyze":
        return {"K": spec["K"], "n": spec["n"], "R": 1, "clone_factor": 1}
    scenario = json.loads(workload_paths(workload)["input"].read_text(encoding="utf-8"))
    return {
        "K": scenario["K"],
        "N": scenario["N"],
        "R": spec["R"],
        "clone_factor": scenario["clone_factor"],
        "population_mode": scenario["population_mode"],
        "targets": len(scenario["targets"]),
    }


def op_argv(workload: str, seed: int) -> list[str]:
    paths = workload_paths(workload)
    if WORKLOADS[workload]["kind"] == "analyze":
        return ["analyze", str(paths["input"]), "--profile", "min", "--out", str(paths["report"])]
    return [
        "simulate", str(paths["input"]), "-R", str(WORKLOADS[workload]["R"]),
        "--seed", str(seed), "--out", str(paths["report"]),
    ]  # fmt: skip


def run_op(cli, argv: list[str], report_path: Path) -> tuple[float, int | None, str, bytes | None]:
    """One operation; returns (wall seconds, exit code or None, captured output, report bytes)."""
    report_path.unlink(missing_ok=True)
    captured = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an operation that raises is a failed operation, not a crash
        code = None
        captured.write(f"{type(e).__name__}: {e}")
    wall = perf_counter() - start
    report = report_path.read_bytes() if report_path.exists() else None
    return wall, code, captured.getvalue(), report


# --- output checks -------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def analyze_problems(report: dict, K: int) -> list[str]:
    problems = []
    estimates = report.get("estimates", [])
    want = {(k, m) for k in range(1, K + 1) for m in MAIN_METHODS}
    if len(estimates) != len(want) or {(e.get("factor"), e.get("method")) for e in estimates} != want:
        problems.append(f"estimates do not cover factors 1..{K} x {MAIN_METHODS}")
    for e in estimates:
        tag = f"factor {e.get('factor')} {e.get('method')}"
        fields = ("center", "raw_lower", "raw_upper", "clipped_lower", "clipped_upper",
                  "se_lower", "se_upper", "ci_lower", "ci_upper")  # fmt: skip
        bad = [f for f in fields if not _finite(e.get(f))]
        if bad:
            problems.append(f"{tag}: missing or nonfinite {bad}")
            continue
        if not -1.0 <= e["clipped_lower"] <= e["clipped_upper"] <= 1.0:
            problems.append(f"{tag}: clipped interval outside [-1, 1] or inverted")
        if not (e["ci_lower"] <= e["clipped_lower"] and e["ci_upper"] >= e["clipped_upper"]):
            problems.append(f"{tag}: CI does not contain the clipped interval")
    wald = report.get("wald", [])
    if sorted(w.get("factor") for w in wald) != list(range(1, K + 1)):
        problems.append(f"wald references do not cover factors 1..{K}")
    for w in wald:
        if not (_finite(w.get("point")) and _finite(w.get("se"))):
            problems.append(f"wald factor {w.get('factor')}: missing or nonfinite point/se")
    return problems


def simulate_problems(report: dict, R: int, n_targets: int) -> list[str]:
    problems = []
    if report.get("replications") != R:
        problems.append(f"replications {report.get('replications')!r} != {R}")
    targets = report.get("targets", [])
    if len(targets) != n_targets:
        problems.append(f"{len(targets)} target reports, expected {n_targets}")
    for t in targets:
        failures = t.get("failures", {})
        if t.get("n_ok", -1) + sum(failures.values()) != R:
            problems.append(f"{t.get('label')}: n_ok {t.get('n_ok')} + failures {failures} != R={R}")
    return problems


def reference_diff(ref, got, path: str = "report") -> list[str]:
    """Differences from a stored reference, visiting only the fields it has."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(reference_diff(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(reference_diff(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, float) or (isinstance(ref, int) and not isinstance(ref, bool)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: expected a number, got {got!r}"]
        if math.isnan(ref) and math.isnan(got):
            return []
        return [] if abs(got - ref) <= REFERENCE_TOL else [f"{path}: {got!r} differs from {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


class ReportChecker:
    """Checks each operation's report; the first report of a run is the one
    every later report must equal byte for byte."""

    def __init__(self, workload: str, seed: int, shape: dict) -> None:
        self.workload, self.seed, self.shape = workload, seed, shape
        self.first: bytes | None = None
        self._verdicts: dict[bytes, list[str]] = {}

    def problems(self, code: int | None, report: bytes | None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if report is None:
            return ["no report written"]
        if self.first is None:
            self.first = report
        digest = hashlib.sha256(report).digest()
        if digest not in self._verdicts:
            self._verdicts[digest] = self._content_problems(report)
        found = list(self._verdicts[digest])
        if report != self.first:
            found.append("report differs from the run's first report")
        return found

    def _content_problems(self, raw: bytes) -> list[str]:
        try:
            report = json.loads(raw)
        except ValueError as e:
            return [f"report is not JSON: {e}"]
        try:
            if WORKLOADS[self.workload]["kind"] == "analyze":
                found = analyze_problems(report, self.shape["K"])
            else:
                found = simulate_problems(report, self.shape["R"], self.shape["targets"])
        except (AttributeError, KeyError, TypeError) as e:
            return [f"report has an unexpected structure ({type(e).__name__}: {e})"]
        if self.seed == DEFAULT_SEED:
            path = reference_path(self.workload)
            if not path.exists():
                found.append(f"no reference report at {path.relative_to(ROOT)}")
            else:
                ref = json.loads(path.read_text(encoding="utf-8"))
                if ref["shape"] != self.shape:
                    found.append(f"reference shape {ref['shape']} != run shape {self.shape}")
                else:
                    found.extend(reference_diff(ref["report"], report))
        return found


# --- environment -----------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git work tree (source_digest still identifies the code)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    return ref.read_text(encoding="utf-8").strip() if ref.is_file() else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factorbounds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- metrics ---------------------------------------------------------------------


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def scaled(walls: list[float], calibrations: list[float]) -> list[float]:
    """Wall times at the reference host speed (see hostspeed.py)."""
    return [w * hostspeed.REFERENCE_S / c for w, c in zip(walls, calibrations)]


def end_to_end_metrics(setup_s, op_s, shape, attempted, failed) -> dict:
    rows_per_op = shape["n"] if "n" in shape else shape["N"] * shape["clone_factor"] * shape["R"]
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "rows_per_s": (rows_per_op / op_s, "1/s"),
        "reps_per_s": (shape["R"] / op_s, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }


def per_layer_metrics(tracer, walls, calibrations, overhead, setup_info, shape, workload) -> dict:
    """Means per traced operation; times are scaled like op_s, by the host
    speed measured before each operation. See spans.py for the buckets."""
    T = len(walls)
    factor = {op: hostspeed.REFERENCE_S / c for op, c in enumerate(calibrations, start=1)}
    per_op = tracer.self_times()
    self_s = Counter()
    for op, buckets in per_op.items():
        for bucket, seconds in buckets.items():
            self_s[bucket] += seconds * factor[op] / T
    for op, wall in enumerate(walls, start=1):
        unattributed = wall - sum(per_op.get(op, Counter()).values())
        if unattributed < -1e-6:
            raise RuntimeError(f"span self times of operation {op} exceed its wall time")
        self_s["trace.unattributed"] += unattributed * factor[op] / T
    calls_of = tracer.calls_in
    load_calls = calls_of("data.load_csv")
    is_analyze = WORKLOADS[workload]["kind"] == "analyze"
    m = {
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "data.load_csv.s": (self_s["data.load_csv"], "s"),
        "data.load_csv.rows_per_s": (
            shape.get("n", 0) * load_calls / T / self_s["data.load_csv"] if load_calls else 0.0, "1/s"),
        "data.save_csv.s": (
            statistics.median(scaled([s["write_s"] for s in setup_info], [s["calibration_s"] for s in setup_info]))
            if is_analyze else 0.0, "s"),
        "estimate.estimate_bounds.calls": (calls_of("estimate.estimate_bounds") / T, "count"),
    }  # fmt: skip
    for bucket in ("estimate.estimate_bounds", "estimate.imbens_manski_ci", "estimate.wald_reference",
                   "simulate.generate_population", "simulate.complete_randomization", "simulate.observe",
                   "oracle.truth", "oracle.interval", "population.classify", "population.checks"):  # fmt: skip
        m[f"{bucket}.s"] = (self_s[bucket], "s")
    for bucket in ("simulate.generate_population", "oracle.truth", "oracle.interval", "population.classify"):
        m[f"{bucket}.calls"] = (calls_of(bucket) / T, "count")
    m["simulate.monte_carlo.self_s"] = (self_s["simulate.monte_carlo"], "s")
    m["population.classify.calls_per_rep"] = (calls_of("population.classify") / (T * shape["R"]), "count")
    m["design.calls"] = (calls_of("design") / T, "count")
    for layer in SPAN_LAYERS[1:]:  # all of cli is cli.main
        m[f"{layer}.self_s"] = (sum(v for b, v in self_s.items() if b.startswith(layer + ".")), "s")
    m["trace.unattributed_s"] = (self_s["trace.unattributed"], "s")
    m["trace.op_s"] = (statistics.fmean(scaled(walls, calibrations)), "s")
    if abs(sum(self_s.values()) - m["trace.op_s"][0]) > 1e-6:
        raise RuntimeError("span self times do not add up to the traced operation time")
    m["trace.overhead"] = (overhead, "ratio")
    return m


# --- the run -------------------------------------------------------------------------


def missing_prerequisites(workload: str) -> list[str]:
    needed = [SRC / "factorbounds" / "cli.py"]
    if "base" in WORKLOADS[workload]:
        needed.append(ROOT / WORKLOADS[workload]["base"])
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from factorbounds import cli  # importable: inputs put src/ on the path

    paths = workload_paths(workload)
    failures: list[str] = []
    attempted = 0
    checker = None

    def record(code: int | None, report: bytes | None, output: str) -> None:
        nonlocal attempted
        attempted += 1
        problems = checker.problems(code, report)
        if problems:
            detail = "; ".join(problems[:5]) + (f"\n{output[-2000:]}" if code else "")
            failures.append(f"operation {attempted}: {detail}")

    setups = []
    for _ in range(SETUPS):
        wall, info = set_up_once(workload, seed)
        setups.append(dict(info, wall_s=wall - info["calibration_s"]))
        if checker is None:
            shape = input_shape(workload)
            checker = ReportChecker(workload, seed, shape)
        report = paths["report"].read_bytes() if paths["report"].exists() else None
        record(info["exit_code"], report, "")
    if len({info["sha256"] for info in setups}) != 1:
        raise SetupError(f"set-ups of {workload} with seed {seed} wrote different inputs")

    argv = op_argv(workload, seed)
    tracer = Tracer() if trace else None
    ops = {False: ([], []), True: ([], [])}  # traced? -> (wall times, calibration times)
    start = perf_counter()
    while (
        perf_counter() - start < seconds
        or len(ops[False][0]) < MIN_OPS
        or (trace and len(ops[True][0]) < MIN_OPS)
    ):
        traced_now = trace and len(ops[True][0]) < len(ops[False][0])
        calibration = hostspeed.calibrate()
        if traced_now:
            tracer.op += 1
            tracer.install()
        try:
            wall, code, output, report = run_op(cli, argv, paths["report"])
        finally:
            if traced_now:
                tracer.uninstall()
        ops[traced_now][0].append(wall)
        ops[traced_now][1].append(calibration)
        record(code, report, output)

    untraced = scaled(*ops[False])
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "shape": shape,
        "env": environment(seed),
        "reference_calibration_s": hostspeed.REFERENCE_S,
        "setups": setups,
        "op_wall_s": ops[False][0],
        "op_calibration_s": ops[False][1],
        "op_scaled_s": untraced,
        "op_scaled_quartiles_s": _quartiles(untraced),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        traced = scaled(*ops[True])
        result["traced_op_wall_s"], result["traced_op_calibration_s"] = ops[True]
        result["missing_buckets"] = sorted(set(GROUPS) - tracer.buckets_present())
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics = per_layer_metrics(tracer, *ops[True], overhead, setups, shape, workload)
        with open(paths["dir"] / f"spans-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        setup_s = statistics.median(scaled([s["wall_s"] for s in setups], [s["calibration_s"] for s in setups]))
        metrics = end_to_end_metrics(setup_s, statistics.median(untraced), shape, attempted, len(failures))
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def write_reference(workload: str) -> Path:
    """Store the default seed's report, against which later runs are compared."""
    _, info = set_up_once(workload, DEFAULT_SEED)
    report = workload_paths(workload)["report"]
    if info["exit_code"] != 0 or not report.exists():
        raise SetupError(f"reference operation failed with exit code {info['exit_code']}")
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    payload = {
        "seed": DEFAULT_SEED,
        "shape": input_shape(workload),
        "report": json.loads(report.read_bytes()),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the seed-{DEFAULT_SEED} report as the workload's reference and exit")  # fmt: skip
    args = parser.parse_args(argv)
    missing = missing_prerequisites(args.workload)
    if missing:
        print(f"error: cannot find {', '.join(missing)}; run from a factorbounds checkout", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            print(f"wrote {write_reference(args.workload).relative_to(ROOT)}")
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = workload_paths(args.workload)["dir"] / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    context = {k: result[k] for k in ("workload", "seed", "shape", "env", "op_scaled_quartiles_s")}
    context["ops"] = len(result["op_wall_s"])
    context["first_failures"] = result["failures"][:3]
    print(json.dumps(context))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
