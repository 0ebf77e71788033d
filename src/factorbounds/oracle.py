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
    Gamma       g^T Ybar for the relevant contrast vector g

The main-effect interval families:

    adjusted    center uses the observable noncomplier outcome means
                (never-takers under z_k=+1, always-takers under z_k=-1)
                and carries asymmetric half-widths
    simple      same denominator, half-width (1 - nu(tilde)) / nu(tilde);
                always contains the adjusted interval
    exclusion   requires that untouched uptake means untouched outcomes;
                symmetric half-width (sum of nu(c) - nu(tilde)) / (m nu(tilde))

Interaction variants reuse the exclusion machinery with an interaction
contrast; the joint variant bounds the two-factor effect among units
complying with both factors everywhere. The conservative variant replaces
nu(tilde) with a declared floor t and widens monotonically as t shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as dsg
from . import population as popmod
from .design import Context, FactorialDesign
from .estimate import parse_method, parse_request, record_to_dict
from .errors import (
    InvalidFactorError,
    InvalidShareError,
    NoCompliersError,
)
from .population import Population, _memoized


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
def _nu_arrays(pop: Population, k: int) -> tuple[tuple[Context, ...], np.ndarray, np.ndarray, np.ndarray]:
    contexts = tuple(dsg.contexts_for(pop.design, k))
    dbar = pop.arm_uptake_means(k)
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    nu_plus = (dbar[j_plus] + 1.0) / 2.0
    nu_minus = (dbar[j_minus] + 1.0) / 2.0
    return contexts, nu_plus, nu_minus, nu_plus - nu_minus


def itt_report(pop: Population, k: int) -> ITTReport:
    """ITT per context split into constant / conditional-complier /
    conditional-noncomplier contributions (group totals over N, so the
    three parts sum to gamma exactly)."""
    popmod.require(pop, "monotone", k)
    contexts, nu_plus, nu_minus, nu = _nu_arrays(pop, k)
    prof = pop.compliance(k)
    complier = prof.complier_mask()
    constant = prof.constant_complier_mask()
    N = pop.N
    gamma: dict[Context, float] = {}
    components: dict[Context, tuple[float, float, float]] = {}
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    for c_index, ctx in enumerate(contexts):
        diff = pop.outcome[:, j_plus[c_index]] - pop.outcome[:, j_minus[c_index]]
        cc_mask = complier[:, c_index] & ~constant
        cn_mask = ~complier[:, c_index]
        part_constant = float(diff[constant].sum()) / N
        part_cc = float(diff[cc_mask].sum()) / N
        part_cn = float(diff[cn_mask].sum()) / N
        gamma[ctx] = float(diff.sum()) / N
        components[ctx] = (part_constant, part_cc, part_cn)
    return ITTReport(
        factor=k,
        contexts=contexts,
        gamma=gamma,
        components=components,
        nu_plus={ctx: float(nu_plus[i]) for i, ctx in enumerate(contexts)},
        nu_minus={ctx: float(nu_minus[i]) for i, ctx in enumerate(contexts)},
        nu={ctx: float(nu[i]) for i, ctx in enumerate(contexts)},
    )


def _contrast_among(pop: Population, mask: np.ndarray, contrast) -> float:
    """g^T Ybar over the units in mask, per context (divided by 2^{K-1})."""
    g = contrast.signs.astype(np.float64)
    return float(g @ pop.outcome[mask].mean(axis=0)) / (1 << (pop.design.K - 1))


def main_effect(pop: Population, k: int) -> float:
    """Average over contexts of the constant-complier outcome contrast."""
    popmod.require(pop, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, constant, dsg.main_effect_contrast(pop.design, k))


def interaction_effect(pop: Population, factors, k: int) -> float:
    """Interaction contrast among constant compliers of factor k."""
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    popmod.require(pop, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, constant, dsg.interaction_contrast(pop.design, fs))


def joint_interaction_effect(pop: Population, k: int, k2: int) -> float:
    """Two-factor interaction among units complying with both everywhere."""
    if k == k2:
        raise InvalidFactorError("joint interaction needs two distinct factors")
    popmod.require(pop, "joint_first_stage", k, k2)
    mask = pop.compliance(k).constant_complier_mask() & pop.compliance(k2).constant_complier_mask()
    return _contrast_among(pop, mask, dsg.interaction_contrast(pop.design, (k, k2)))


def _resolve_tilde(pop: Population, k: int, tilde: Context) -> float:
    """Validate the profile and return nu(tilde) > 0."""
    tilde = tuple(tilde)
    popmod.require(pop, "monotone", k)
    popmod.require_least_compliant(pop, tilde, k)
    contexts, _, _, nu = _nu_arrays(pop, k)
    nu_tilde = float(nu[contexts.index(tilde)])
    if nu_tilde <= 0.0:
        raise NoCompliersError(f"factor {k}: first stage at {tilde!r} is {nu_tilde}, bounds undefined")
    return nu_tilde


def adjusted_bounds(pop: Population, k: int, tilde: Context) -> Interval:
    """Main-effect bounds using observable noncomplier outcome means.

    The center subtracts the never-taker mean under z_k=+1 and adds the
    always-taker mean under z_k=-1 (each weighted by its exact share, so
    empty groups contribute zero without evaluating a mean). Half-widths
    are asymmetric: conditional-complier mass plus the always-taker share
    downward, plus the never-taker share upward.
    """
    nu_tilde = _resolve_tilde(pop, k, tilde)
    contexts, nu_plus, nu_minus, nu = _nu_arrays(pop, k)
    m = len(contexts)
    ybar = pop.arm_outcome_means()
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)
    gamma_sum = float(g @ ybar)
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    pat, y, bit = pop.pattern.T, pop.outcome.T, 1 << (k - 1)
    # per context a mean over the units, then summed context by context in order
    never_term = float(np.add.accumulate((y[j_plus] * ((pat[j_plus] & bit) == 0)).mean(axis=1))[-1])
    always_term = float(np.add.accumulate((y[j_minus] * ((pat[j_minus] & bit) != 0)).mean(axis=1))[-1])
    S = float(nu.sum())
    A = float(nu_minus.sum())
    B = float(np.sum(1.0 - nu_plus))
    denom = m * nu_tilde
    center = (gamma_sum - never_term + always_term) / denom
    half_lower = (S + A - m * nu_tilde) / denom
    half_upper = (S + B - m * nu_tilde) / denom
    return _make_interval(center, half_lower, half_upper)


def simple_bounds(pop: Population, k: int, tilde: Context) -> Interval:
    """Wald-style center with the coarse half-width (1 - nu(tilde)) / nu(tilde)."""
    nu_tilde = _resolve_tilde(pop, k, tilde)
    m = 1 << (pop.design.K - 1)
    ybar = pop.arm_outcome_means()
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)
    center = float(g @ ybar) / (m * nu_tilde)
    half = (1.0 - nu_tilde) / nu_tilde
    return _make_interval(center, half, half)


def _exclusion_interval(pop: Population, k: int, contrast, t: float) -> Interval:
    """Symmetric interval for g^T Ybar / (m t), half-width (sum of nu(c) - m t) / (m t)."""
    _, _, _, nu = _nu_arrays(pop, k)
    m = len(nu)
    g = contrast.signs.astype(np.float64)
    denom = m * t
    half = (float(nu.sum()) - m * t) / denom
    return _make_interval(float(g @ pop.arm_outcome_means()) / denom, half, half)


def exclusion_bounds(pop: Population, k: int, tilde: Context) -> Interval:
    """Symmetric main-effect bounds under uptake-exclusion for noncompliers."""
    popmod.require(pop, "exclusion", k)
    popmod.require(pop, "outcome_exclusion", k)
    nu_tilde = _resolve_tilde(pop, k, tilde)
    return _exclusion_interval(pop, k, dsg.main_effect_contrast(pop.design, k), nu_tilde)


def interaction_bounds(pop: Population, factors, k: int, tilde: Context) -> Interval:
    """Bounds for an interaction contrast among factor-k constant compliers.

    Same half-width as the factor-k exclusion bounds; only the numerator
    contrast changes.
    """
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    popmod.require(pop, "exclusion", k)
    nu_tilde = _resolve_tilde(pop, k, tilde)
    return _exclusion_interval(pop, k, dsg.interaction_contrast(pop.design, fs), nu_tilde)


def joint_bounds(pop: Population, k: int, k2: int, tilde_joint: Context) -> Interval:
    """Bounds for the two-factor interaction among joint constant compliers.

    Needs monotonicity and weak exclusion on both factors, a joint
    least-compliant profile, and uptake of each factor unmoved by the
    other's assignment. The first stage is the four-arm contrast of the
    uptake product; at the joint profile it equals the joint share.
    """
    if k == k2:
        raise InvalidFactorError("joint bounds need two distinct factors")
    tilde_joint = tuple(tilde_joint)
    popmod.require(pop, "monotone", k)
    popmod.require(pop, "monotone", k2)
    popmod.require(pop, "exclusion", k)
    popmod.require(pop, "exclusion", k2)
    popmod.require(pop, "cross_exclusion", k, k2)
    popmod.require_least_compliant(pop, tilde_joint, k, k2)
    pbar = pop.arm_uptake_means(k, k2)  # the first stage is its four-arm contrast
    p_mm, p_pm, p_mp, p_pp = pbar[dsg.context_arms(pop.design, k, k2)]
    nu_joint = (p_pp - p_mp - p_pm + p_mm) / 4.0
    nu_tilde = float(nu_joint[dsg.contexts_for(pop.design, k, k2).index(tilde_joint)])
    if nu_tilde <= 0.0:
        raise NoCompliersError(
            f"factors ({k}, {k2}): joint first stage at {tilde_joint!r} is {nu_tilde}"
        )
    m = 1 << (pop.design.K - 1)
    g = dsg.interaction_contrast(pop.design, (k, k2)).signs.astype(np.float64)
    ybar = pop.arm_outcome_means()
    center = float(g @ ybar) / (m * nu_tilde)
    half = (float(g @ pbar) / (2 * m) - nu_tilde) / nu_tilde
    return _make_interval(center, half, half)


def constant_complier_share(pop: Population, k: int) -> float:
    return popmod.constant_complier_count(pop, k) / pop.N


def conservative_bounds(pop: Population, k: int, t: float) -> Interval:
    """Exclusion-style bounds anchored at a declared complier-share floor t.

    Valid for any 0 < t <= the constant-complier share; the interval widens
    monotonically as t decreases and contains the exclusion interval.
    """
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidShareError(f"complier-share floor must be positive, got {t!r}")
    popmod.require(pop, "monotone", k)
    popmod.require(pop, "profile", k)
    popmod.require(pop, "exclusion", k)
    rho = constant_complier_share(pop, k)
    if t > rho:
        raise InvalidShareError(
            f"floor t={t} exceeds the constant-complier share {rho}"
        )
    return _exclusion_interval(pop, k, dsg.main_effect_contrast(pop.design, k), t)


def wald_ratio(pop: Population, k: int) -> float:
    """Population ratio of the marginal outcome ITT to the marginal uptake ITT."""
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)
    m = 1 << (pop.design.K - 1)
    itt_y = float(g @ pop.arm_outcome_means()) / m
    itt_d = float(g @ pop.arm_uptake_means(k)) / (2 * m)
    if itt_d == 0.0:
        raise NoCompliersError(f"factor {k}: marginal uptake ITT is zero")
    return itt_y / itt_d


# --- method table ---------------------------------------------------------------


def method_truth(pop: Population, k: int, method: str) -> float:
    """The true effect a method's interval bounds, computed once per
    population, factor and contrast: the main methods share one."""
    kind, args = parse_method(method)
    return _truth(pop, k, *((kind, args) if kind in ("interaction", "joint") else ("main", ())))


@_memoized
def _truth(pop: Population, k: int, kind: str, args: tuple) -> float:
    if kind == "interaction":
        return interaction_effect(pop, args, k)
    if kind == "joint":
        return joint_interaction_effect(pop, k, args[0])
    return main_effect(pop, k)


@_memoized
def method_interval(
    pop: Population, k: int, method: str, profile="min"
) -> tuple[Interval, Context | None]:
    """Exact interval for a method and the profile it was taken at.

    Under the min policy the profile is the first valid least-compliant
    context (joint context for the joint method). The conservative method
    takes no profile and returns None for it.
    """
    kind, args, policy, ctx = parse_request(pop.design.K, method, profile)
    if kind == "conservative":
        return conservative_bounds(pop, k, args[0]), None
    ks = (k, *args) if kind == "joint" else (k,)
    if policy == "min":
        ctx = popmod.require(pop, "joint_profile" if kind == "joint" else "profile", *ks)[0]
    if kind == "joint":
        return joint_bounds(pop, k, args[0], ctx), ctx
    if kind == "interaction":
        return interaction_bounds(pop, args, k, ctx), ctx
    # looked up per call, so a wrapper installed on the module attribute sees it
    bounds = {"adjusted": adjusted_bounds, "simple": simple_bounds, "exclusion": exclusion_bounds}[kind]
    return bounds(pop, k, ctx), ctx


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
