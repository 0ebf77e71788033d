"""Command-line surface.

Subcommands: analyze (observed CSV -> bound estimates + CIs), oracle
(population JSON -> exact effects, checks, intervals), simulate (scenario
JSON -> Monte Carlo coverage report), plotdata (analysis reports -> plot
ready CSV).

Exit codes: 0 success, 2 input error, 3 assumption or estimation error,
4 internal error. Seeds resolve flag > FB_SEED env > scenario file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

from . import oracle
from . import population as popmod
from .data import load_csv
from .errors import FactorBoundsError, InvalidInputError
from .estimate import (
    MAIN_METHODS,
    check_alpha,
    estimate_bounds,
    imbens_manski_ci,
    parse_request,
    parse_target,
    wald_reference,
)
from .simulate import load_scenario, monte_carlo


def _split_methods(raw: list[str] | None) -> list[str]:
    if not raw:
        return list(MAIN_METHODS)
    methods: list[str] = []
    for chunk in raw:
        methods.extend(m.strip() for m in chunk.split(",") if m.strip())
    if not methods:
        raise InvalidInputError("empty method list")
    return methods


def _parse_rescale(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"--rescale wants 'min,max', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidInputError(f"--rescale wants numeric 'min,max', got {text!r}") from None


def _report_to_stdout(out_path: str | None) -> bool:
    """No --out, or --out -, sends the report to stdout and the human summary
    to stderr; a report written to a file leaves stdout to the summary."""
    return out_path in (None, "-")


def _emit(text: str, out_path: str | None) -> None:
    if _report_to_stdout(out_path):
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="")


def _dump_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _fmt(x) -> str:
    return "-" if x is None else f"{x:+.4f}"


# --- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    check_alpha(args.alpha, "--alpha")
    rescale = _parse_rescale(args.rescale)
    data = load_csv(args.input, binary_coding=args.binary_coding, rescale=rescale)
    K = data.design.K
    factors = args.factor or list(range(1, K + 1))
    methods = _split_methods(args.method)
    for k in factors:
        for method in methods:
            parse_target(data.design, k, method, args.profile)
    estimates = []
    for k in factors:
        for method in methods:
            est = estimate_bounds(data, k, method, profile=args.profile)
            ci = imbens_manski_ci(est, alpha=args.alpha)
            estimates.append(est.with_ci(ci))
    wald = [wald_reference(data, k) for k in factors]
    report = {
        "schema": "factorbounds-analysis-v1",
        "K": K,
        "n_rows": data.n,
        "arm_counts": [int(v) for v in data.arm_counts()],
        "alpha": args.alpha,
        "rescale": list(data.rescale) if data.rescale is not None else None,
        "profile": args.profile,
        "estimates": [e.to_dict() for e in estimates],
        "wald": [w.to_dict() for w in wald],
    }
    table = sys.stderr if _report_to_stdout(args.out) else sys.stdout
    print(f"{'factor':>6} {'method':<18} {'interval':<22} {'ci':<22} {'se_l':>8} {'se_u':>8}", file=table)
    for e in estimates:
        iv = f"[{e.clipped_lower:+.4f}, {e.clipped_upper:+.4f}]"
        ci_s = f"[{e.ci_lower:+.4f}, {e.ci_upper:+.4f}]"
        print(
            f"{e.factor:>6} {e.method:<18} {iv:<22} {ci_s:<22} {e.se_lower:>8.4f} {e.se_upper:>8.4f}",
            file=table,
        )
    for w in wald:
        print(
            f"{w.factor:>6} {'wald (reference)':<18} {_fmt(w.point):<22} "
            f"{'(' + w.label + ')':<22} {'-' if w.se is None else f'{w.se:.4f}':>8}",
            file=table,
        )
    _dump_json(report, args.out)
    return 0


# --- oracle --------------------------------------------------------------------


def _oracle_factor_block(pop, k: int, methods: list[str], profile: str) -> tuple[dict, bool]:
    design = pop.design
    mono = popmod.check_conditional_monotonicity(pop, k)
    valid = popmod.check_least_compliant_profile(pop, k) if not mono else ()
    excl = popmod.check_weak_treatment_exclusion(pop, k) if not mono else []
    outcome_excl = popmod.check_outcome_exclusion(pop, k)
    block: dict = {
        "factor": k,
        "checks": {
            "monotone": {"passes": not mono, "violations": [list(v) for v in mono[:10]]},
            "profile": {"passes": bool(valid), "valid_contexts": [list(c) for c in valid]},
            "exclusion": {"passes": not mono and not excl, "violations": [list(v) for v in excl[:10]]},
            "outcome_exclusion": {"passes": not outcome_excl, "violations": [list(v) for v in outcome_excl[:10]]},
        },
    }
    if not mono:
        itt = oracle.itt_report(pop, k)
        block["itt"] = {
            "contexts": [list(c) for c in itt.contexts],
            "gamma": [itt.gamma[c] for c in itt.contexts],
            "components": [list(itt.components[c]) for c in itt.contexts],
            "nu": [itt.nu[c] for c in itt.contexts],
            "nu_plus": [itt.nu_plus[c] for c in itt.contexts],
            "nu_minus": [itt.nu_minus[c] for c in itt.contexts],
        }
    if valid:
        shares = popmod.group_shares(pop, k, valid[0])
        block["shares"] = {
            "tilde": list(shares.tilde),
            "rho_constant": shares.rho_constant,
            "rho_conditional_complier": {
                ",".join(map(str, c)): v for c, v in sorted(shares.rho_conditional_complier.items())
            },
            "rho_always": {",".join(map(str, c)): v for c, v in sorted(shares.rho_always.items())},
            "rho_never": {",".join(map(str, c)): v for c, v in sorted(shares.rho_never.items())},
        }
    methods_out: dict = {}
    for method in methods:
        try:
            methods_out[method] = oracle.method_report(pop, k, method, profile)
        except FactorBoundsError as e:
            methods_out[method] = {"error": f"{type(e).__name__}: {e}"}
    block["methods"] = methods_out
    return block, any("error" in entry for entry in methods_out.values())


def cmd_oracle(args) -> int:
    pop = popmod.load_population(args.input)
    K = pop.design.K
    factors = args.factor or list(range(1, K + 1))
    methods = _split_methods(args.method)
    for method in methods:
        parse_request(K, method, args.profile)
    blocks, failed = zip(*(_oracle_factor_block(pop, k, methods, args.profile) for k in factors))
    report = {
        "schema": "factorbounds-oracle-v1",
        "K": K,
        "N": pop.N,
        "profile": args.profile,
        "factors": list(blocks),
    }
    _dump_json(report, args.out)
    return 3 if any(failed) else 0


# --- simulate --------------------------------------------------------------------


def _resolve_seed(args, config_seed: int) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InvalidInputError(f"FB_SEED must be an integer, got {env!r}") from None
        if seed < 0:
            raise InvalidInputError("FB_SEED must be nonnegative")
        return seed
    return config_seed


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    seed = _resolve_seed(args, config.seed)
    if seed != config.seed:
        config = dataclasses.replace(config, seed=seed)
    report = monte_carlo(config, args.replications)
    summary = sys.stderr if _report_to_stdout(args.out) else sys.stdout
    for tr in report.targets:
        cov_b = "-" if tr.coverage_bounds is None else f"{tr.coverage_bounds:.3f} (mcse {tr.coverage_bounds_mcse:.3f})"
        cov_ci = "-" if tr.coverage_ci is None else f"{tr.coverage_ci:.3f} (mcse {tr.coverage_ci_mcse:.3f})"
        width = "-" if tr.mean_width is None else f"{tr.mean_width:.4f}"
        print(
            f"{tr.label}: ok {tr.n_ok}/{tr.n_reps}  bounds coverage {cov_b}  ci coverage {cov_ci}  mean width {width}",
            file=summary,
        )
        for err, count in sorted(tr.failures.items()):
            print(f"{tr.label}: {count} replication(s) failed with {err}", file=summary)
    _emit(report.to_json(), args.out)
    return 0


# --- plotdata ---------------------------------------------------------------------


def _plot_rows(path: str) -> tuple[int, list[list[str]]]:
    """K and the CSV rows of one analysis report; every field is read before
    anything is written."""
    try:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
    except ValueError as e:  # not JSON, not UTF-8, or an integer past the int-string digit limit
        raise InvalidInputError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(rep, dict) or rep.get("schema") != "factorbounds-analysis-v1":
        raise InvalidInputError(f"{path}: not an analysis report")
    stem = Path(path).stem
    try:
        K, estimates, wald = rep["K"], rep["estimates"], rep.get("wald", [])
        for name, field in (("estimates", estimates), ("wald", wald)):
            if not isinstance(field, list):  # iterating a dict or string would read no rows, or its keys
                raise InvalidInputError(f"{path}: {name} must be a list, got {field!r}")
        wald_by_factor = {w["factor"]: w["point"] for w in wald}
        rows = []
        for e in estimates:
            point = wald_by_factor.get(e["factor"])
            values = (e["clipped_lower"], e["clipped_upper"], e["ci_lower"], e["ci_upper"], point)
            label = f"{stem}/factor{e['factor']}:{e['method']}"
            rows.append([label] + ["" if v is None else repr(float(v)) for v in values])
    except KeyError as e:
        raise InvalidInputError(f"{path}: analysis report has no field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an integer too large for a float
        raise InvalidInputError(f"{path}: malformed analysis report ({e})") from None
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidInputError(f"{path}: K must be an integer, got {K!r}")
    return K, rows


def cmd_plotdata(args) -> int:
    reports = [_plot_rows(path) for path in args.reports]
    ks = {K for K, _ in reports}
    if len(ks) > 1:
        raise InvalidInputError(f"reports mix designs with K in {sorted(ks)}; cannot combine")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["label", "lower", "upper", "ci_lower", "ci_upper", "point"])
    for _, rows in reports:
        writer.writerows(rows)
    _emit(out.getvalue(), args.out)
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorbounds",
        description="Bounds on complier factorial effects under noncompliance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate bounds and CIs from an observed-data CSV")
    p.add_argument("input", help="CSV with header z1..zK,d1..dK,y")
    p.add_argument("--factor", action="append", type=int, help="factor to analyze (repeatable; default all)")
    p.add_argument(
        "--method",
        action="append",
        help="comma list of adjusted|simple|exclusion|interaction:<f+f>|joint:<f> (default the main trio)",
    )
    p.add_argument("--profile", default="min", help="min or declared:<comma list of -1/+1> (default min)")
    p.add_argument("--alpha", type=float, default=0.05, help="CI significance level (default 0.05)")
    p.add_argument("--binary-coding", action="store_true", help="read z/d as 0/1 with 0 -> -1")
    p.add_argument("--rescale", help="min,max of the raw outcome; maps it into [0,1]")
    p.add_argument("--out", help="write the JSON report here (default or -: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="exact effects, checks, and intervals for a population file")
    p.add_argument("input", help="population JSON ({K, N, uptake, outcome})")
    p.add_argument("--factor", action="append", type=int, help="factor (repeatable; default all)")
    p.add_argument(
        "--method",
        action="append",
        help="comma list; additionally supports conservative:<share> (default the main trio)",
    )
    p.add_argument("--profile", default="min", help="min or declared:<levels> (default min)")
    p.add_argument("--out", help="write the JSON report here (default or -: stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="run a Monte Carlo coverage study from a scenario file")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("-R", "--replications", type=int, default=100, help="replications (default 100)")
    p.add_argument("--seed", type=int, help="override the scenario seed (precedence: flag > FB_SEED > file)")
    p.add_argument("--out", help="write the JSON report here (default or -: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plotdata", help="flatten analysis reports into a plot-ready CSV")
    p.add_argument("reports", nargs="+", help="one or more analyze JSON reports")
    p.add_argument("--out", help="write the CSV here (default or -: stdout)")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FactorBoundsError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
