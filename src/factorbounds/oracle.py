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

Each formula is written for one block of a stack of R populations
(formula.block(pop, R, r, ...), reading arrays computed once for the
stack) and is its call on the one block of a population; truth_stack and
interval_stack answer a Monte Carlo chunk, per block the value or error.
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


def _blockwise(block):
    """A formula of one population written for one block of a stack:
    block(pop, R, r, *args) is the formula on block r of pop's R equal unit
    blocks (R populations stacked), reading the stack's memoized arrays at
    row r and raising the block's error, its checks run in the scalar
    order. The formula is its call on the one block of pop; formula.block
    is the block form, which truth_stack and interval_stack call."""

    def formula(pop: Population, *args):
        return block(pop, 1, 0, *args)

    formula.__name__ = formula.__qualname__ = block.__name__
    formula.__doc__, formula.block = block.__doc__, block
    return formula


def _each_block(R: int, value) -> list:
    """value(r) for each of R unit blocks, or the FactorBoundsError it raises there."""
    out = []
    for r in range(R):
        try:
            out.append(value(r))
        except FactorBoundsError as error:
            out.append(error.with_traceback(None))  # kept without the frames that hold the stack
    return out


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


def _contrast_among(pop: Population, R: int, r: int, mask: np.ndarray, contrast) -> float:
    """g^T Ybar over block r's units in mask, per context (divided by 2^{K-1})."""
    g, n = contrast.signs.astype(np.float64), pop.N // R
    units = slice(r * n, r * n + n)
    return float(g @ pop.outcome[units][mask[units]].mean(axis=0)) / (1 << (pop.design.K - 1))


@_blockwise
def main_effect(pop: Population, R: int, r: int, k: int) -> float:
    """Average over contexts of the constant-complier outcome contrast."""
    popmod.require_block(pop, R, r, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, R, r, constant, dsg.main_effect_contrast(pop.design, k))


@_blockwise
def interaction_effect(pop: Population, R: int, r: int, factors, k: int) -> float:
    """Interaction contrast among constant compliers of factor k."""
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    popmod.require_block(pop, R, r, "first_stage", k)
    constant = pop.compliance(k).constant_complier_mask()
    return _contrast_among(pop, R, r, constant, dsg.interaction_contrast(pop.design, fs))


@_blockwise
def joint_interaction_effect(pop: Population, R: int, r: int, k: int, k2: int) -> float:
    """Two-factor interaction among units complying with both everywhere."""
    popmod.require_block(pop, R, r, "joint_first_stage", k, k2)
    mask = pop.compliance(k).constant_complier_mask() & pop.compliance(k2).constant_complier_mask()
    return _contrast_among(pop, R, r, mask, dsg.interaction_contrast(pop.design, (k, k2)))


def _resolve_tilde(pop: Population, R: int, r: int, k: int, tilde: Context) -> float:
    """Validate the profile and return nu(tilde) > 0 of block r."""
    tilde = tuple(tilde)
    popmod.require_block(pop, R, r, "monotone", k)
    popmod.require_least_compliant_block(pop, R, r, tilde, k)
    contexts, _, _, nu = _nu_arrays(pop, k, R)
    nu_tilde = float(nu[r, contexts.index(tilde)])
    if nu_tilde <= 0.0:
        raise NoCompliersError(f"factor {k}: first stage at {tilde!r} is {nu_tilde}, bounds undefined")
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
def adjusted_bounds(pop: Population, R: int, r: int, k: int, tilde: Context) -> Interval:
    """Main-effect bounds using observable noncomplier outcome means.

    The center subtracts the never-taker mean under z_k=+1 and adds the
    always-taker mean under z_k=-1 (each weighted by its exact share, so
    empty groups contribute zero without evaluating a mean). Half-widths
    are asymmetric: conditional-complier mass plus the always-taker share
    downward, plus the never-taker share upward.
    """
    nu_tilde = _resolve_tilde(pop, R, r, k, tilde)
    contexts, nu_plus, nu_minus, nu = _nu_arrays(pop, k, R)
    m = len(contexts)
    ybar = popmod.arm_means(pop, R)[r]
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)
    gamma_sum = float(g @ ybar)
    never_term, always_term = (float(term[r]) for term in _taker_terms(pop, k, R))
    S = float(nu[r].sum())
    A = float(nu_minus[r].sum())
    B = float(np.sum(1.0 - nu_plus[r]))
    denom = m * nu_tilde
    center = (gamma_sum - never_term + always_term) / denom
    half_lower = (S + A - m * nu_tilde) / denom
    half_upper = (S + B - m * nu_tilde) / denom
    return _make_interval(center, half_lower, half_upper)


@_blockwise
def simple_bounds(pop: Population, R: int, r: int, k: int, tilde: Context) -> Interval:
    """Wald-style center with the coarse half-width (1 - nu(tilde)) / nu(tilde)."""
    nu_tilde = _resolve_tilde(pop, R, r, k, tilde)
    m = 1 << (pop.design.K - 1)
    ybar = popmod.arm_means(pop, R)[r]
    g = dsg.main_effect_contrast(pop.design, k).signs.astype(np.float64)
    center = float(g @ ybar) / (m * nu_tilde)
    half = (1.0 - nu_tilde) / nu_tilde
    return _make_interval(center, half, half)


def _exclusion_interval(pop: Population, R: int, r: int, k: int, contrast, t: float) -> Interval:
    """Symmetric interval for g^T Ybar / (m t), half-width (sum of nu(c) - m t) / (m t), of block r."""
    _, _, _, nu = _nu_arrays(pop, k, R)
    m = nu.shape[1]
    g = contrast.signs.astype(np.float64)
    denom = m * t
    half = (float(nu[r].sum()) - m * t) / denom
    return _make_interval(float(g @ popmod.arm_means(pop, R)[r]) / denom, half, half)


@_blockwise
def exclusion_bounds(pop: Population, R: int, r: int, k: int, tilde: Context) -> Interval:
    """Symmetric main-effect bounds under uptake-exclusion for noncompliers."""
    popmod.require_block(pop, R, r, "exclusion", k)
    popmod.require_block(pop, R, r, "outcome_exclusion", k)
    nu_tilde = _resolve_tilde(pop, R, r, k, tilde)
    return _exclusion_interval(pop, R, r, k, dsg.main_effect_contrast(pop.design, k), nu_tilde)


@_blockwise
def interaction_bounds(pop: Population, R: int, r: int, factors, k: int, tilde: Context) -> Interval:
    """Bounds for an interaction contrast among factor-k constant compliers.

    Same half-width as the factor-k exclusion bounds; only the numerator
    contrast changes.
    """
    fs = tuple(sorted(set(factors)))
    if k not in fs:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {fs!r}")
    popmod.require_block(pop, R, r, "exclusion", k)
    nu_tilde = _resolve_tilde(pop, R, r, k, tilde)
    return _exclusion_interval(pop, R, r, k, dsg.interaction_contrast(pop.design, fs), nu_tilde)


@_blockwise
def joint_bounds(pop: Population, R: int, r: int, k: int, k2: int, tilde_joint: Context) -> Interval:
    """Bounds for the two-factor interaction among joint constant compliers.

    Needs monotonicity and weak exclusion on both factors, a joint
    least-compliant profile, and uptake of each factor unmoved by the
    other's assignment. The first stage is the four-arm contrast of the
    uptake product; at the joint profile it equals the joint share.
    """
    tilde_joint = tuple(tilde_joint)
    popmod.require_block(pop, R, r, "monotone", k)
    popmod.require_block(pop, R, r, "monotone", k2)
    popmod.require_block(pop, R, r, "exclusion", k)
    popmod.require_block(pop, R, r, "exclusion", k2)
    popmod.require_block(pop, R, r, "cross_exclusion", k, k2)
    popmod.require_least_compliant_block(pop, R, r, tilde_joint, k, k2)
    pbar = popmod.arm_means(pop, R, k, k2)[r]  # the first stage is its four-arm contrast
    p_mm, p_pm, p_mp, p_pp = pbar[dsg.context_arms(pop.design, k, k2)]
    nu_joint = (p_pp - p_mp - p_pm + p_mm) / 4.0
    nu_tilde = float(nu_joint[dsg.contexts_for(pop.design, k, k2).index(tilde_joint)])
    if nu_tilde <= 0.0:
        raise NoCompliersError(
            f"factors ({k}, {k2}): joint first stage at {tilde_joint!r} is {nu_tilde}"
        )
    m = 1 << (pop.design.K - 1)
    g = dsg.interaction_contrast(pop.design, (k, k2)).signs.astype(np.float64)
    center = float(g @ popmod.arm_means(pop, R)[r]) / (m * nu_tilde)
    half = (float(g @ pbar) / (2 * m) - nu_tilde) / nu_tilde
    return _make_interval(center, half, half)


def constant_complier_share(pop: Population, k: int) -> float:
    return popmod.constant_complier_count(pop, k) / pop.N


@_blockwise
def conservative_bounds(pop: Population, R: int, r: int, k: int, t: float) -> Interval:
    """Exclusion-style bounds anchored at a declared complier-share floor t.

    Valid for any 0 < t <= the constant-complier share; the interval widens
    monotonically as t decreases and contains the exclusion interval.
    """
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidShareError(f"complier-share floor must be positive, got {t!r}")
    popmod.require_block(pop, R, r, "monotone", k)
    popmod.require_block(pop, R, r, "profile", k)
    popmod.require_block(pop, R, r, "exclusion", k)
    rho = popmod.constant_complier_count.stacked(pop, R, k)[r] / (pop.N // R)
    if t > rho:
        raise InvalidShareError(
            f"floor t={t} exceeds the constant-complier share {rho}"
        )
    return _exclusion_interval(pop, R, r, k, dsg.main_effect_contrast(pop.design, k), t)


# --- method table ---------------------------------------------------------------


def method_truth(pop: Population, k: int, method: str) -> float:
    """The true effect a method's interval bounds: truth_stack's one block."""
    (truth,) = truth_stack(pop, 1, k, method)
    if isinstance(truth, FactorBoundsError):
        raise truth.with_traceback(None)  # a stored error, raised afresh each time
    return truth


def truth_stack(pop: Population, R: int, k: int, method: str) -> list:
    """method_truth for pop's R equal unit blocks (R populations stacked):
    per block the true effect, or the FactorBoundsError it raises there;
    computed once per population, factor and contrast, so the main methods
    share one."""
    kind, args = parse_method(method)
    return list(_truth(pop, k, *((kind, args) if kind in ("interaction", "joint") else ("main", ())), R))


@_memoized
def _truth(pop: Population, k: int, kind: str, args: tuple, R: int = 1) -> tuple:
    formula = {"main": main_effect, "interaction": interaction_effect, "joint": joint_interaction_effect}[kind]
    lead = {"main": (k,), "interaction": (args, k), "joint": (k, *args)}[kind]
    return tuple(_each_block(R, lambda r: formula.block(pop, R, r, *lead)))


@_memoized
def method_interval(pop: Population, k: int, method: str, profile="min") -> tuple[Interval, Context | None]:
    """Exact interval for a method and the profile it was taken at.

    Under the min policy the profile is the first valid least-compliant
    context (joint context for the joint method). The conservative method
    takes no profile and returns None for it.
    """
    return _interval(pop, 1, 0, k, method, profile)


@_memoized
def interval_stack(pop: Population, R: int, k: int, method: str, profile="min") -> list:
    """method_interval for pop's R equal unit blocks (R populations stacked):
    per block the (interval, profile) pair, or the FactorBoundsError it
    raises there."""
    return _each_block(R, lambda r: _interval(pop, R, r, k, method, profile))


def _interval(pop: Population, R: int, r: int, k: int, method: str, profile) -> tuple[Interval, Context | None]:
    kind, args, policy, ctx = parse_request(pop.design.K, method, profile)
    if kind == "conservative":
        return conservative_bounds.block(pop, R, r, k, args[0]), None
    ks = (k, *args) if kind == "joint" else (k,)
    if policy == "min":
        ctx = popmod.require_block(pop, R, r, "joint_profile" if kind == "joint" else "profile", *ks)[0]
    if kind == "joint":
        return joint_bounds.block(pop, R, r, k, args[0], ctx), ctx
    if kind == "interaction":
        return interaction_bounds.block(pop, R, r, args, k, ctx), ctx
    # looked up per call, so a wrapper installed on the module attribute sees it
    bounds = {"adjusted": adjusted_bounds, "simple": simple_bounds, "exclusion": exclusion_bounds}[kind]
    return bounds.block(pop, R, r, k, ctx), ctx


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
