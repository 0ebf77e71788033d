"""Exact population-level effects and bound intervals.

Everything here is computed from the full potential-outcome tables, so
these are the ground-truth quantities that estimators chase and that
coverage tests compare against.

Notation used throughout (for one factor k and its 2^{K-1} contexts):

    m           number of contexts, 2^{K-1}
    nu_plus(c)  (D-bar_k(c, +) + 1) / 2, uptake share under z_k = +1
    nu_minus(c) same under z_k = -1
    nu(c)       nu_plus(c) - nu_minus(c), the first-stage at context c
    tilde       a validated least-compliant context, nu(tilde) = rho_constant
    Gamma       g^T Ybar for the relevant contrast g, a (J,) array of -1/+1

The main-effect interval families:

    adjusted    center uses the observable noncomplier outcome means
                (never-takers under z_k=+1, always-takers under z_k=-1)
                and carries asymmetric half-widths
    simple      same denominator, half-width (1 - nu(tilde)) / nu(tilde);
                always contains the adjusted interval
    exclusion   requires that untouched uptake means untouched outcomes;
                symmetric half-width (sum of nu(c) - nu(tilde)) / (m nu(tilde))

Interaction variants reuse the exclusion machinery with an interaction
contrast (exclusion_bounds is interaction_bounds at the set (k,)); the
joint variant bounds the two-factor effect among units complying with
both factors everywhere. Every true effect is interaction_effect(pop,
factors, *ks), the contrast of factors among the units complying with
every factor of ks everywhere. The conservative variant replaces
nu(tilde) with a declared floor t and widens monotonically as t shrinks.

Each formula is written for a stack of R populations: it runs its checks
and reads its arrays once for the stack, then takes its float steps on
(R,) arrays, each step the one a single population's floats take, so a
block's answer is its plain call's bit for bit, by the rules of estimate's
module docstring; formula(pop, ..., R=R) answers per block with the value
or the error, and the plain call is the one-block case. A profile tilde
is "min" (each block's first least-compliant context), "declared:<levels>"
or a context, refused as estimate_bounds refuses it (design.parse_profile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as dsg
from . import population as popmod
from .design import Context, FactorialDesign, _blockwise, _memoized, _merge, parse_profile
from .estimate import _stacked_dot, check_share_floor, parse_method, parse_request, record_to_dict
from .errors import (
    InvalidFactorError,
    InvalidShareError,
    NoCompliersError,
)
from .population import Population


@dataclass(frozen=True)
class Interval:
    """A bound interval with raw endpoints kept alongside the clipped ones."""

    center: float
    half_width_lower: float
    half_width_upper: float
    raw_lower: float
    raw_upper: float
    lower: float
    upper: float
    lower_clipped: bool
    upper_clipped: bool


def _clip(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _intervals(center: np.ndarray, half_lower: np.ndarray, half_upper: np.ndarray) -> list[Interval]:
    """One interval per block from (R,) centers and half-widths."""
    return list(map(_make_interval, center.tolist(), half_lower.tolist(), half_upper.tolist()))


def _row_sums(a: np.ndarray) -> np.ndarray:
    """(R,) sums of an (R, C) table's rows, by estimate's row-sum rule."""
    return np.ascontiguousarray(a).sum(axis=1)


def _make_interval(center: float, half_lower: float, half_upper: float) -> Interval:
    raw_lower = center - half_lower
    raw_upper = center + half_upper
    lower = _clip(raw_lower)
    upper = _clip(raw_upper)
    return Interval(
        center=center,
        half_width_lower=half_lower,
        half_width_upper=half_upper,
        raw_lower=raw_lower,
        raw_upper=raw_upper,
        lower=lower,
        upper=upper,
        lower_clipped=lower != raw_lower,
        upper_clipped=upper != raw_upper,
    )


@dataclass(frozen=True)
class ITTReport:
    """Per-context ITT on the outcome and its compliance-group split."""

    factor: int
    contexts: tuple[Context, ...]
    gamma: dict[Context, float]
    components: dict[Context, tuple[float, float, float]]
    nu_plus: dict[Context, float]
    nu_minus: dict[Context, float]
    nu: dict[Context, float]


@_memoized
def _nu_arrays(pop: Population, k: int, R: int = 1) -> tuple[tuple[Context, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The contexts of factor k and the (R, C) nu_plus, nu_minus and nu of pop's R equal unit blocks."""
    contexts = tuple(dsg.contexts_for(pop.design, k))
    dbar = popmod.arm_means(pop, R, k)
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    nu_plus = (dbar[:, j_plus] + 1.0) / 2.0
    nu_minus = (dbar[:, j_minus] + 1.0) / 2.0
    return contexts, nu_plus, nu_minus, nu_plus - nu_minus


def itt_report(pop: Population, k: int) -> ITTReport:
    """ITT per context split into constant / conditional-complier /
    conditional-noncomplier contributions (group totals over N, so the
    three parts sum to gamma exactly)."""
    popmod.require(pop, "monotone", k)
    contexts, (nu_plus,), (nu_minus,), (nu,) = _nu_arrays(pop, k, 1)  # the formulas' key: built once
    complier, constant = popmod.classify(pop, k) == popmod.COMPLIER, popmod.constant_compliers(pop, k)
    N = pop.N
    y = pop.outcome.T.reshape(-1, 2, 1 << (k - 1), N)  # views, as in classify: arm j has bits (hi, z_k, lo)
    diff = (y[:, 1] - y[:, 0]).reshape(-1, N)  # (C, N): each context's outcome contrast, contexts in order
    gamma: dict[Context, float] = {}
    components: dict[Context, tuple[float, float, float]] = {}
    for ctx, d, complies in zip(contexts, diff, complier):  # constant, conditional-complier, -noncomplier parts
        gamma[ctx] = float(d.sum()) / N
        components[ctx] = tuple(float(d[mask].sum()) / N for mask in (constant, complies & ~constant, ~complies))
    return ITTReport(
        factor=k,
        contexts=contexts,
        gamma=gamma,
        components=components,
        nu_plus={ctx: float(nu_plus[i]) for i, ctx in enumerate(contexts)},
        nu_minus={ctx: float(nu_minus[i]) for i, ctx in enumerate(contexts)},
        nu={ctx: float(nu[i]) for i, ctx in enumerate(contexts)},
    )


@_memoized
def _masked_arm_means(pop: Population, R: int, *ks: int) -> np.ndarray:
    """(R, J) arm means of each of pop's R equal unit blocks over its units complying with every factor
    of ks at every context, NaN for a block without one; each arm's mean sums its compressed row as
    arm_means does, so where every unit of a block complies its row is arm_means' bit for bit."""
    n = pop.N // R
    y = pop.outcome.T.reshape(-1, R, n)
    mask = popmod.constant_compliers(pop, *ks).reshape(R, n)
    means = np.full((R, pop.design.J), np.nan)
    for r in np.flatnonzero(mask.any(axis=1)).tolist():
        means[r] = y[:, r].compress(mask[r], axis=1).mean(axis=1)
    return means


@_blockwise
def interaction_effect(pop: Population, factors, *ks: int, R: int, failed: list):
    """Per block g^T Ybar of the contrast of factors over the units complying with every factor of ks (one
    of the set, or a pair) at every context, per context (over 2^{K-1}); NaN for a block without such units."""
    fs = tuple(factors)
    if len(ks) == 1:
        fs = tuple(sorted(dsg.validate_factors(pop.design, fs)))
        if ks[0] not in fs:
            raise InvalidFactorError(f"anchor factor {ks[0]} must belong to the interaction set {fs!r}")
    else:  # a pair's contrast, keyed in the caller's order; the pair check refuses a repeated pair
        for f in fs:
            dsg.validate_factor(pop.design, f)
    _merge(failed, popmod.require(pop, "first_stage" if len(ks) == 1 else "joint_first_stage", *ks, R=R))
    g, means = dsg.interaction_contrast(pop.design, fs), _masked_arm_means(pop, R, *ks)
    return (_stacked_dot(g, means) / (1 << (pop.design.K - 1))).tolist()


def main_effect(pop: Population, k: int, *, R: int | None = None):
    """Average over contexts of the constant-complier outcome contrast: the one-factor interaction effect."""
    return interaction_effect(pop, (k,), k, R=R)


def joint_interaction_effect(pop: Population, k: int, k2: int, *, R: int | None = None):
    """Two-factor interaction among units complying with both everywhere."""
    return interaction_effect(pop, (k, k2), k, k2, R=R)


def _resolve_tilde(pop: Population, R: int, failed: list, tilde, checks, *ks: int):
    """(R,) first stage of each block at its profile of ks, one factor or a
    pair: tilde (read by design.parse_profile), or for "min" the block's
    first least-compliant context (that check run first). The checks,
    (token, *factors) tuples, run before a declared profile's own check, in
    order; a block whose first stage at its profile is not positive fails.
    A failed block reads NaN, so the formulas' array steps divide by no zero."""
    _, declared = parse_profile(tilde, pop.design.K - len(ks))
    tildes = [declared] * R
    if declared is None:  # "min"
        token = "joint_profile" if len(ks) == 2 else "profile"
        tildes = [valid[0] if valid else None for valid in _merge(failed, popmod.require(pop, token, *ks, R=R))]
    for token, *factors in checks:
        _merge(failed, popmod.require(pop, token, *factors, R=R))
    if declared is not None:  # an open block's min profile is in its own least-compliant set
        _merge(failed, popmod.require_least_compliant(pop, tildes[0], *ks, R=R))
    contexts = dsg.contexts_for(pop.design, *ks)
    if len(ks) == 1:
        nu = _nu_arrays(pop, ks[0], R)[3]
    else:  # the four-arm contrast of the uptake product, pp - mp - pm + mm, over 4
        nu = (dsg.context_contrast(popmod.arm_means(pop, R, *ks).T[dsg.context_arms(pop.design, *ks)]) / 4.0).T
    nu_tilde = np.full(R, np.nan)
    for r, tilde in enumerate(tildes):
        if failed[r] is None:
            value = float(nu[r, contexts.index(tilde)])
            if value <= 0.0 and len(ks) == 1:
                failed[r] = NoCompliersError(f"factor {ks[0]}: first stage at {tilde!r} is {value}, bounds undefined")
            elif value <= 0.0:
                failed[r] = NoCompliersError(f"factors {ks}: joint first stage at {tilde!r} is {value}")
            else:
                nu_tilde[r] = value
    return nu_tilde


@_memoized
def _taker_terms(pop: Population, k: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of pop's R unit blocks' never-taker outcome term under z_k=+1 and
    always-taker term under z_k=-1 (each weighted by its exact share): per
    context a mean over the block's units, then summed context by context
    in order."""
    bit = 1 << (k - 1)
    pat, y = (a.T.reshape(-1, 2, bit, pop.N) for a in (pop.pattern, pop.outcome))  # views: arm j has bits (hi, z_k, lo)
    never = (y[:, 1] * ((pat[:, 1] & bit) == 0)).reshape(-1, R, pop.N // R).mean(axis=2)  # (C, R) at z_k = +1
    always = (y[:, 0] * ((pat[:, 0] & bit) != 0)).reshape(-1, R, pop.N // R).mean(axis=2)  # at z_k = -1
    return np.add.accumulate(never)[-1], np.add.accumulate(always)[-1]


@_blockwise
def adjusted_bounds(pop: Population, k: int, tilde: Context | str, *, R: int, failed: list):
    """Main-effect bounds using observable noncomplier outcome means.

    The center subtracts the never-taker mean under z_k=+1 and adds the
    always-taker mean under z_k=-1 (each weighted by its exact share, so
    empty groups contribute zero without evaluating a mean). Half-widths
    are asymmetric: conditional-complier mass plus the always-taker share
    downward, plus the never-taker share upward.
    """
    nu_t = _resolve_tilde(pop, R, failed, tilde, [("monotone", k)], k)
    contexts, nu_plus, nu_minus, nu = _nu_arrays(pop, k, R)
    m, ybar, (never, always) = len(contexts), popmod.arm_means(pop, R), _taker_terms(pop, k, R)
    g = dsg.main_effect_contrast(pop.design, k)
    S, A, B = _row_sums(nu), _row_sums(nu_minus), _row_sums(1.0 - nu_plus)
    denom = m * nu_t
    center = (_stacked_dot(g, ybar) - never + always) / denom
    return _intervals(center, (S + A - m * nu_t) / denom, (S + B - m * nu_t) / denom)


def _symmetric(pop: Population, R: int, g: np.ndarray, t: np.ndarray, half: np.ndarray) -> list[Interval]:
    """Per block the interval g^T Ybar / (m t) -+ half at its entry of the (R,) t and half, m = 2^{K-1}."""
    m, ybar = 1 << (pop.design.K - 1), popmod.arm_means(pop, R)
    return _intervals(_stacked_dot(g, ybar) / (m * t), half, half)


@_blockwise
def simple_bounds(pop: Population, k: int, tilde: Context | str, *, R: int, failed: list):
    """Wald-style center with the coarse half-width (1 - nu(tilde)) / nu(tilde)."""
    t = _resolve_tilde(pop, R, failed, tilde, [("monotone", k)], k)
    return _symmetric(pop, R, dsg.main_effect_contrast(pop.design, k), t, (1.0 - t) / t)


def _exclusion_interval(pop: Population, R: int, k: int, g: np.ndarray, t: np.ndarray) -> list[Interval]:
    """Per block the interval g^T Ybar / (m t) -+ (sum of nu(c) - m t) / (m t) at its entry of the (R,) t."""
    S, m = _row_sums(_nu_arrays(pop, k, R)[3]), 1 << (pop.design.K - 1)
    return _symmetric(pop, R, g, t, (S - m * t) / (m * t))


@_blockwise
def interaction_bounds(pop: Population, factors, k: int, tilde: Context | str, *, R: int, failed: list):
    """Bounds for the contrast of a factor set among factor-k constant compliers.

    Same assumptions and half-width as the factor-k exclusion bounds, which
    are these bounds at the set (k,); only the numerator contrast changes.
    """
    fs = tuple(sorted(dsg.validate_factors(pop.design, factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    checks = [("exclusion", k), ("outcome_exclusion", k), ("monotone", k)]
    nu_tilde = _resolve_tilde(pop, R, failed, tilde, checks, k)
    return _exclusion_interval(pop, R, k, dsg.interaction_contrast(pop.design, fs), nu_tilde)


def exclusion_bounds(pop: Population, k: int, tilde: Context | str, *, R: int | None = None):
    """Symmetric main-effect bounds under uptake-exclusion for noncompliers: the one-factor interaction bounds."""
    return interaction_bounds(pop, (k,), k, tilde, R=R)


@_blockwise
def joint_bounds(pop: Population, k: int, k2: int, tilde_joint: Context | str, *, R: int, failed: list):
    """Bounds for the two-factor interaction among joint constant compliers.

    Needs monotonicity, weak and outcome exclusion on both factors, a
    joint least-compliant profile, and uptake of each factor unmoved by the
    other's assignment. The first stage is the four-arm contrast of the
    uptake product; at the joint profile it equals the joint share.
    """
    checks = [("monotone", k), ("monotone", k2), ("exclusion", k), ("outcome_exclusion", k)]
    checks += [("exclusion", k2), ("outcome_exclusion", k2), ("cross_exclusion", k, k2)]
    t = _resolve_tilde(pop, R, failed, tilde_joint, checks, k, k2)
    g, pbar = dsg.interaction_contrast(pop.design, (k, k2)), popmod.arm_means(pop, R, k, k2)
    m = 1 << (pop.design.K - 1)
    return _symmetric(pop, R, g, t, (_stacked_dot(g, pbar) / (2 * m) - t) / t)


@_blockwise
def conservative_bounds(pop: Population, k: int, t: float, *, R: int, failed: list):
    """Exclusion-style bounds anchored at a declared complier-share floor t.

    Valid for any 0 < t <= the constant-complier share, under the exclusion
    bounds' assumptions; the interval widens monotonically as t decreases
    and contains the exclusion interval.
    """
    check_share_floor(t, t)
    for token in ("monotone", "profile", "exclusion", "outcome_exclusion"):
        _merge(failed, popmod.require(pop, token, k, R=R))
    counts, n = _merge(failed, popmod.constant_complier_count(pop, k, R=R)), pop.N // R
    for r, count in enumerate(counts):
        if failed[r] is None and t > count / n:
            failed[r] = InvalidShareError(f"floor t={t} exceeds the constant-complier share {count / n}")
    t_open = np.array([np.nan if error else t for error in failed])  # a failed block reads NaN, as in _resolve_tilde
    return _exclusion_interval(pop, R, k, dsg.main_effect_contrast(pop.design, k), t_open)


# --- method table ---------------------------------------------------------------


def method_truth(pop: Population, k: int, method: str, *, R: int | None = None):
    """The true effect a method's interval bounds: one interaction_effect call, its factor set among its compliers."""
    kind, args = parse_method(method)
    ks = (k, *args) if kind == "joint" else (k,)
    # the effect is looked up per call, so a wrapper installed on a module attribute sees the call
    return interaction_effect(pop, args if kind == "interaction" else ks, *ks, R=R)


@_blockwise
def method_interval(pop: Population, k: int, method: str, profile="min", *, R: int, failed: list) -> list:
    """Exact interval for a method and the profile it was taken at.

    Under the min policy the profile is the first valid least-compliant
    context (joint context for the joint method). The conservative method
    takes no profile and returns None for it.
    """
    kind, args, policy, ctx = parse_request(pop.design.K, method, profile)
    tilde = "min" if policy == "min" else ctx
    # the formulas are looked up per call, so a wrapper installed on a module attribute sees the call
    if kind == "conservative":
        ivs, policy, ctx = conservative_bounds(pop, k, *args, R=R), None, None
    elif kind == "joint":
        ivs = joint_bounds(pop, k, *args, tilde, R=R)
    elif kind in ("interaction", "exclusion"):  # exclusion bounds are the one-factor interaction bounds
        ivs = interaction_bounds(pop, args if kind == "interaction" else (k,), k, tilde, R=R)
    else:
        ivs = (adjusted_bounds if kind == "adjusted" else simple_bounds)(pop, k, tilde, R=R)
    ivs, ctxs = _merge(failed, ivs), [ctx] * R
    if policy == "min":  # each open block's first least-compliant context, which its formula checked
        ks = (k, *args) if kind == "joint" else (k,)
        ctxs = [v[0] if v else None for v in _merge(failed, popmod.check_least_compliant_profile(pop, *ks, R=R))]
    return list(zip(ivs, ctxs))


def method_report(pop: Population, k: int, method: str, profile="min") -> dict:
    """JSON entry for one method: the interval, its profile and the true
    effect; a conservative entry also echoes its share floor t."""
    iv, ctx = method_interval(pop, k, method, profile)
    kind, args = parse_method(method)
    return {
        **record_to_dict(iv),
        "profile_context": list(ctx) if ctx is not None else None,
        "true_delta": method_truth(pop, k, method),
        **({"t": args[0]} if kind == "conservative" else {}),
    }
