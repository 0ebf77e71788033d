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

Each formula is written for a stack of R populations: it runs its checks
and reads its arrays once for the stack, then takes its float steps block
by block; formula(pop, ..., R=R) answers per block with the value or the
error, and the plain call is the one-block case. A profile tilde is a
context or "min", each block's first least-compliant context. truth_stack
and interval_stack answer a Monte Carlo chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as dsg
from . import population as popmod
from .design import Context, FactorialDesign
from .estimate import parse_method, parse_request, record_to_dict
from .errors import (
    FactorBoundsError,
    InvalidFactorError,
    InvalidShareError,
    NoCompliersError,
)
from .population import Population, _memoized, _one_block


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


def _blockwise(stacked):
    """A formula of one population written for a stack of R populations:
    stacked(pop, R, failed, *args) runs each check once for pop's R equal
    unit blocks, in the scalar order, puts each block's first error in
    failed[r], reads the stack's arrays and returns block(r), the float
    steps of open block r; an error it raises is that of every block still
    open. formula(pop, *args) is the one-block call, returning the value or
    raising the error; formula(pop, *args, R=R) answers per block with the
    value or the error."""

    def formula(pop: Population, *args, R: int | None = None):
        failed = [None] * (R or 1)
        try:
            block = stacked(pop, R or 1, failed, *args)
        except FactorBoundsError as error:  # kept without the frames that hold the stack
            failed = [f or error.with_traceback(None) for f in failed]
        answers = [f or block(r) for r, f in enumerate(failed)]
        return answers if R is not None else _one_block(answers)

    formula.__name__ = formula.__qualname__ = stacked.__name__
    formula.__doc__ = stacked.__doc__
    return formula


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


def _contrast_among(pop: Population, R: int, mask: np.ndarray, contrast):
    """block(r): g^T Ybar over block r's units in mask, per context (divided by 2^{K-1})."""
    g, n, m = contrast.signs.astype(np.float64), pop.N // R, 1 << (pop.design.K - 1)
    y, mask = pop.outcome.reshape(R, n, -1), mask.reshape(R, n)
    return lambda r: float(g @ y[r][mask[r]].mean(axis=0)) / m


@_blockwise
def main_effect(pop: Population, R: int, failed: list, k: int):
    """Average over contexts of the constant-complier outcome contrast."""
    popmod.require_blocks(pop, R, failed, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, R, constant, dsg.main_effect_contrast(pop.design, k))


@_blockwise
def interaction_effect(pop: Population, R: int, failed: list, factors, k: int):
    """Interaction contrast among constant compliers of factor k."""
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    popmod.require_blocks(pop, R, failed, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, R, constant, dsg.interaction_contrast(pop.design, fs))


@_blockwise
def joint_interaction_effect(pop: Population, R: int, failed: list, k: int, k2: int):
    """Two-factor interaction among units complying with both everywhere."""
    popmod.require_blocks(pop, R, failed, "joint_first_stage", k, k2)
    mask = pop.compliance(k).constant_complier_mask() & pop.compliance(k2).constant_complier_mask()
    return _contrast_among(pop, R, mask, dsg.interaction_contrast(pop.design, (k, k2)))


def _resolve_tilde(pop: Population, R: int, failed: list, tilde, checks, *ks: int):
    """Per block the first stage at its profile of ks, one factor or a pair:
    tilde, or for "min" the block's first least-compliant context (that
    check run first). The checks, (token, *factors) tuples, run before the
    profile's own check, in order; a block whose first stage at its
    profile is not positive fails."""
    if isinstance(tilde, str) and tilde == "min":
        token = "joint_profile" if len(ks) == 2 else "profile"
        tildes = [valid[0] if valid else None for valid in popmod.require_blocks(pop, R, failed, token, *ks)]
    else:
        tildes = [tuple(tilde)] * R
    for token, *factors in checks:
        popmod.require_blocks(pop, R, failed, token, *factors)
    popmod.require_least_compliant_blocks(pop, R, failed, tildes, *ks)
    contexts = dsg.contexts_for(pop.design, *ks)
    if len(ks) == 1:
        nu = _nu_arrays(pop, ks[0], R)[3]
    else:  # the four-arm contrast of the uptake product, pp - mp - pm + mm, over 4
        nu = (dsg.context_contrast(popmod.arm_means(pop, R, *ks).T[dsg.context_arms(pop.design, *ks)]) / 4.0).T
    nu_tilde = [None] * R
    for r, tilde in enumerate(tildes):
        if failed[r] is None:
            nu_tilde[r] = value = float(nu[r, contexts.index(tilde)])
            if value <= 0.0 and len(ks) == 1:
                failed[r] = NoCompliersError(f"factor {ks[0]}: first stage at {tilde!r} is {value}, bounds undefined")
            elif value <= 0.0:
                failed[r] = NoCompliersError(f"factors {ks}: joint first stage at {tilde!r} is {value}")
    return nu_tilde


@_memoized
def _taker_terms(pop: Population, k: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of pop's R unit blocks' never-taker outcome term under z_k=+1 and
    always-taker term under z_k=-1 (each weighted by its exact share): per
    context a mean over the block's units, then summed context by context
    in order."""
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    pat, y, bit = pop.pattern.T, pop.outcome.T, 1 << (k - 1)
    never = (y[j_plus] * ((pat[j_plus] & bit) == 0)).reshape(len(j_plus), R, -1).mean(axis=2)
    always = (y[j_minus] * ((pat[j_minus] & bit) != 0)).reshape(len(j_minus), R, -1).mean(axis=2)
    return np.add.accumulate(never)[-1], np.add.accumulate(always)[-1]


@_blockwise
def adjusted_bounds(pop: Population, R: int, failed: list, k: int, tilde: Context | str):
    """Main-effect bounds using observable noncomplier outcome means.

    The center subtracts the never-taker mean under z_k=+1 and adds the
    always-taker mean under z_k=-1 (each weighted by its exact share, so
    empty groups contribute zero without evaluating a mean). Half-widths
    are asymmetric: conditional-complier mass plus the always-taker share
    downward, plus the never-taker share upward.
    """
    nu_tilde = _resolve_tilde(pop, R, failed, tilde, [("monotone", k)], k)
    contexts, nu_plus, nu_minus, nu = _nu_arrays(pop, k, R)
    m, ybar, (never, always) = len(contexts), popmod.arm_means(pop, R), _taker_terms(pop, k, R)
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)

    def block(r: int) -> Interval:
        nu_t = nu_tilde[r]
        gamma_sum = float(g @ ybar[r])
        never_term, always_term = float(never[r]), float(always[r])
        S = float(nu[r].sum())
        A = float(nu_minus[r].sum())
        B = float(np.sum(1.0 - nu_plus[r]))
        denom = m * nu_t
        center = (gamma_sum - never_term + always_term) / denom
        half_lower = (S + A - m * nu_t) / denom
        half_upper = (S + B - m * nu_t) / denom
        return _make_interval(center, half_lower, half_upper)

    return block


def _symmetric(pop: Population, R: int, contrast, ts: list, half):
    """block(r): the interval g^T Ybar / (m t) -+ half(r, t) at t = ts[r], g the contrast's signs, m = 2^{K-1}."""
    g, m, ybar = contrast.signs.astype(np.float64), 1 << (pop.design.K - 1), popmod.arm_means(pop, R)

    def block(r: int) -> Interval:
        h = half(r, ts[r])
        return _make_interval(float(g @ ybar[r]) / (m * ts[r]), h, h)

    return block


@_blockwise
def simple_bounds(pop: Population, R: int, failed: list, k: int, tilde: Context | str):
    """Wald-style center with the coarse half-width (1 - nu(tilde)) / nu(tilde)."""
    nu_tilde = _resolve_tilde(pop, R, failed, tilde, [("monotone", k)], k)
    return _symmetric(pop, R, dsg.main_effect_contrast(pop.design, k), nu_tilde, lambda r, t: (1.0 - t) / t)


def _exclusion_interval(pop: Population, R: int, k: int, contrast, ts: list):
    """block(r): the interval g^T Ybar / (m t) -+ (sum of nu(c) - m t) / (m t) at t = ts[r]."""
    nu, m = _nu_arrays(pop, k, R)[3], 1 << (pop.design.K - 1)
    return _symmetric(pop, R, contrast, ts, lambda r, t: (float(nu[r].sum()) - m * t) / (m * t))


@_blockwise
def exclusion_bounds(pop: Population, R: int, failed: list, k: int, tilde: Context | str):
    """Symmetric main-effect bounds under uptake-exclusion for noncompliers."""
    checks = [("exclusion", k), ("outcome_exclusion", k), ("monotone", k)]
    nu_tilde = _resolve_tilde(pop, R, failed, tilde, checks, k)
    return _exclusion_interval(pop, R, k, dsg.main_effect_contrast(pop.design, k), nu_tilde)


@_blockwise
def interaction_bounds(pop: Population, R: int, failed: list, factors, k: int, tilde: Context | str):
    """Bounds for an interaction contrast among factor-k constant compliers.

    Same half-width as the factor-k exclusion bounds; only the numerator
    contrast changes.
    """
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    nu_tilde = _resolve_tilde(pop, R, failed, tilde, [("exclusion", k), ("monotone", k)], k)
    return _exclusion_interval(pop, R, k, dsg.interaction_contrast(pop.design, fs), nu_tilde)


@_blockwise
def joint_bounds(pop: Population, R: int, failed: list, k: int, k2: int, tilde_joint: Context | str):
    """Bounds for the two-factor interaction among joint constant compliers.

    Needs monotonicity and weak exclusion on both factors, a joint
    least-compliant profile, and uptake of each factor unmoved by the
    other's assignment. The first stage is the four-arm contrast of the
    uptake product; at the joint profile it equals the joint share.
    """
    checks = [("monotone", k), ("monotone", k2), ("exclusion", k), ("exclusion", k2), ("cross_exclusion", k, k2)]
    nu_tilde = _resolve_tilde(pop, R, failed, tilde_joint, checks, k, k2)
    contrast, pbar = dsg.interaction_contrast(pop.design, (k, k2)), popmod.arm_means(pop, R, k, k2)
    g, m = contrast.signs.astype(np.float64), 1 << (pop.design.K - 1)
    return _symmetric(pop, R, contrast, nu_tilde, lambda r, t: (float(g @ pbar[r]) / (2 * m) - t) / t)


def constant_complier_share(pop: Population, k: int) -> float:
    return popmod.constant_complier_count(pop, k) / pop.N


@_blockwise
def conservative_bounds(pop: Population, R: int, failed: list, k: int, t: float):
    """Exclusion-style bounds anchored at a declared complier-share floor t.

    Valid for any 0 < t <= the constant-complier share; the interval widens
    monotonically as t decreases and contains the exclusion interval.
    """
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidShareError(f"complier-share floor must be positive, got {t!r}")
    for token in ("monotone", "profile", "exclusion"):
        popmod.require_blocks(pop, R, failed, token, k)
    counts, n = popmod.constant_complier_count.stacked(pop, R, k), pop.N // R
    for r, count in enumerate(counts):
        if failed[r] is None and t > count / n:
            failed[r] = InvalidShareError(f"floor t={t} exceeds the constant-complier share {count / n}")
    return _exclusion_interval(pop, R, k, dsg.main_effect_contrast(pop.design, k), [t] * R)


# --- method table ---------------------------------------------------------------


def method_truth(pop: Population, k: int, method: str) -> float:
    """The true effect a method's interval bounds: truth_stack's one block."""
    return _one_block(truth_stack(pop, 1, k, method))


def truth_stack(pop: Population, R: int, k: int, method: str) -> list:
    """method_truth for pop's R equal unit blocks (R populations stacked):
    per block the true effect, or the FactorBoundsError it raises there;
    computed once per population, factor and contrast, so the main methods
    share one."""
    kind, args = parse_method(method)
    return list(_truth(pop, k, *((kind, args) if kind in ("interaction", "joint") else ("main", ())), R))


@_memoized
def _truth(pop: Population, k: int, kind: str, args: tuple, R: int = 1) -> tuple:
    # looked up per call, so a wrapper installed on the module attribute sees it
    formula = {"main": main_effect, "interaction": interaction_effect, "joint": joint_interaction_effect}[kind]
    lead = {"main": (k,), "interaction": (args, k), "joint": (k, *args)}[kind]
    return tuple(formula(pop, *lead, R=R))


@_memoized
def method_interval(pop: Population, k: int, method: str, profile="min") -> tuple[Interval, Context | None]:
    """Exact interval for a method and the profile it was taken at.

    Under the min policy the profile is the first valid least-compliant
    context (joint context for the joint method). The conservative method
    takes no profile and returns None for it.
    """
    return _one_block(interval_stack(pop, 1, k, method, profile))


@_memoized
def interval_stack(pop: Population, R: int, k: int, method: str, profile="min") -> list:
    """method_interval for pop's R equal unit blocks (R populations stacked):
    per block the (interval, profile) pair, or the FactorBoundsError it
    raises there."""
    kind, args, policy, ctx = parse_request(pop.design.K, method, profile)
    tilde = "min" if policy == "min" else ctx
    # the formulas are looked up per call, so a wrapper installed on a module attribute sees the call
    if kind == "conservative":
        ivs, policy, ctx = conservative_bounds(pop, k, *args, R=R), None, None
    elif kind == "joint":
        ivs = joint_bounds(pop, k, *args, tilde, R=R)
    elif kind == "interaction":
        ivs = interaction_bounds(pop, args, k, tilde, R=R)
    else:
        main = {"adjusted": adjusted_bounds, "simple": simple_bounds, "exclusion": exclusion_bounds}[kind]
        ivs = main(pop, k, tilde, R=R)
    ctxs = [ctx] * R
    if policy == "min" and not all(isinstance(iv, FactorBoundsError) for iv in ivs):  # else the check may not have run
        ks = (k, *args) if kind == "joint" else (k,)
        ctxs = [valid[0] if valid else None for valid in popmod.check_least_compliant_profile.stacked(pop, R, *ks)]
    return [iv if isinstance(iv, FactorBoundsError) else (iv, c) for iv, c in zip(ivs, ctxs)]


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
