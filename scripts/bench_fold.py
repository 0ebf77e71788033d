"""Fold benchmark result files of a parent and a change into one BENCH file.

Usage:

    python3 scripts/bench_fold.py --pr <number> --parent <commit> RESULTS... [--out BENCH_<number>.json]

RESULTS are ``result-seed<n>-trace<t>.json`` files written by
``benchmark/run.py``, or directories searched for them. Runs are grouped by
``env.git_commit`` (``env.source_sha256`` for a run outside a git work
tree), workload and trace. ``--parent`` names the parent's commit (a prefix
is enough); the one other commit found is the change.

For every workload, the untraced runs give each end-to-end metric's median
and quartiles per side, and the pairs won: runs of the two sides with the
same seed form a pair, and the change wins one when its value is better in
the metric's direction (ties count for neither). The metric also records
whether the change's median stays within the regression bound
``BENCHMARK.json`` fixes, and whether a gain would pass the claim rule
(at least nine tenths of the pairs won, and the medians apart by more than
the parent's quartile distance). Traced runs give the per-layer metrics,
the median over runs when a side has several. Machine and environment
fields are copied from the runs and must agree between the sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_FIELDS = ("python", "numpy", "platform", "nproc", "threads")


def result_files(paths: list[str]) -> list[Path]:
    found = []
    for p in map(Path, paths):
        if not p.exists():
            raise SystemExit(f"error: {p} does not exist")
        found.extend(sorted(p.rglob("result-seed*-trace*.json")) if p.is_dir() else [p])
    return found


def side_key(run: dict) -> str:
    return run["env"].get("git_commit") or run["env"]["source_sha256"]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def end_to_end(parent: dict, change: dict, declared: list[dict]) -> dict:
    """Per-metric comparison of untraced runs; parent/change map seed -> run."""
    out = {}
    seeds = sorted(set(parent) & set(change))
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        p = {s: r["metrics"][name]["value"] for s, r in parent.items()}
        c = {s: r["metrics"][name]["value"] for s, r in change.items()}
        ps, cs = summary(list(p.values())), summary(list(c.values()))
        won = sum((c[s] < p[s]) if lower else (c[s] > p[s]) for s in seeds)
        ties = sum(c[s] == p[s] for s in seeds)
        worse = (cs["median"] - ps["median"]) if lower else (ps["median"] - cs["median"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "relative_change": cs["median"] / ps["median"] - 1.0 if ps["median"] else None,
            "pairs": len(seeds),
            "pairs_won": won,
            "ties": ties,
            "within_bound": worse <= spec["bound"] * abs(ps["median"]),
            "gain_rule_met": bool(seeds) and won >= 0.9 * len(seeds) and -worse > ps["q3"] - ps["q1"],
            "values": {"seeds": seeds, "parent": [p[s] for s in seeds], "change": [c[s] for s in seeds]},
        }
    return out


def per_layer(runs: list[dict]) -> dict:
    names = sorted({n for r in runs for n in r["metrics"]})
    return {
        n: statistics.median(r["metrics"][n]["value"] for r in runs if n in r["metrics"]) for n in names
    }


def fold(runs: list[dict], parent_commit: str, pr: int, declared: dict) -> dict:
    sides = {side_key(r) for r in runs}
    parents = [s for s in sides if s.startswith(parent_commit)]
    if len(parents) != 1 or len(sides) != 2:
        raise SystemExit(f"need runs of exactly two commits, one matching {parent_commit!r}; found {sorted(sides)}")
    (parent,) = parents
    (change,) = sides - {parent}
    envs = {json.dumps({f: r["env"][f] for f in ENV_FIELDS}, sort_keys=True) for r in runs}
    if len(envs) != 1:
        raise SystemExit(f"the runs come from different environments: {sorted(envs)}")
    groups: dict = {}
    for r in runs:
        group = groups.setdefault((r["workload"], r["trace"], side_key(r)), {})
        if r["seed"] in group:
            raise SystemExit(f"two {r['workload']} runs of one commit with seed {r['seed']}, trace {r['trace']}")
        group[r["seed"]] = r
    workloads = {}
    for w in sorted({r["workload"] for r in runs}):
        entry = {}
        p0, c0 = groups.get((w, 0, parent), {}), groups.get((w, 0, change), {})
        if p0 and c0:
            entry["end_to_end"] = end_to_end(p0, c0, declared["end_to_end"])
            entry["failed_ops"] = {
                "parent": sum(r["failed"] for r in p0.values()),
                "change": sum(r["failed"] for r in c0.values()),
            }
            entry["shape"] = next(iter(c0.values()))["shape"]
        p1, c1 = groups.get((w, 1, parent), {}), groups.get((w, 1, change), {})
        if p1 and c1:
            entry["per_layer"] = {
                "seeds": {"parent": sorted(p1), "change": sorted(c1)},
                "parent": per_layer(list(p1.values())),
                "change": per_layer(list(c1.values())),
            }
        workloads[w] = entry
    calibration = [c for r in runs for c in r["op_calibration_s"]]
    return {
        "pr": pr,
        "commits": {
            "parent": parent,
            "change": change,
            "source_sha256": {
                side: sorted({r["env"]["source_sha256"] for r in runs if side_key(r) == side})
                for side in (parent, change)
            },
        },
        "env": dict(
            json.loads(envs.pop()),
            reference_calibration_s=runs[0]["reference_calibration_s"],
            calibration_s=summary(calibration),
        ),
        "runs": len(runs),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="result files or directories holding them")
    parser.add_argument("--pr", type=int, required=True, help="number for the BENCH_<pr>.json name")
    parser.add_argument("--parent", required=True, help="the parent's git commit (or a prefix)")
    parser.add_argument("--out", help="output path (default BENCH_<pr>.json at the repository root)")
    args = parser.parse_args(argv)
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in result_files(args.results)]
    if not runs:
        print("error: no result files found", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    folded = fold(runs, args.parent, args.pr, declared)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(folded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out} from {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
