"""Plug-in bound estimation from observed data.

Every interval endpoint shipped here is a linear-fractional function of the
stacked vector of per-arm sample means (outcome mean, uptake mean, and for
the adjusted method an extra noncomplier-outcome mean; for the joint method
the mean of the uptake product), and every method builds it by one rule:
an outcome contrast plus or minus a half-width, over m times the first
stage at the profile (endpoint_functions). That gives one code path for
values and one for analytic delta-method gradients; arms are independent,
so the moment covariance is block diagonal with each block a 1/n-normalized
central second-moment matrix divided by the arm size. One pass of per-arm
sums over a dataset's rows gives every mean and block of a factor, for
every layout at once, kept on the dataset's memo.

A stack of R datasets is evaluated as arrays, and every value equals its
one-dataset call bit for bit. That rests on four rules, which the oracle's
stacked formulas keep too. A dot product is a stacked (1, n) @ (n, 1)
matmul (_stacked_dot), which numpy sends to the vector dot of a 1-D a @ m;
a 2-D M @ a, M @ A.T or an einsum dot adds in another order and differs in
the last bit for many rows. A square is np.float_power(d, 2.0), the C pow
of Python's d ** 2; numpy's d ** 2 is d * d, an ulp away for some d. A row
sum reads a C-ordered copy, whose rows numpy sums pairwise as one row, not
sequentially as an F-ordered stack's. And the SEs' einsum over a stack
sums each row as the one-row einsum does.

Confidence intervals for the partially identified effect use a critical
value between the one-sided and two-sided normal quantiles, solving

    Phi(C + (U - L) / max(se_L, se_U)) - Phi(-C) = 1 - alpha

by bisection; at width 0 this is the usual two-sided value, and for wide
intervals it tends to the one-sided value.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import design as dsg
from .data import ObservedDataset
from .design import Context, FactorialDesign, _blockwise, _memoized, parse_profile
from .errors import (
    InsufficientDataError,
    InvalidFactorError,
    InvalidInputError,
    InvalidShareError,
    WeakFirstStageError,
)
from .population import frozen

_SQRT2 = math.sqrt(2.0)
_NORMAL = NormalDist()


def _first_stage_table(
    design: FactorialDesign, ks: tuple[int, ...], dbar: np.ndarray
) -> tuple[tuple[Context, ...], np.ndarray]:
    """First stage per context of the factor set ks, canonical order, from
    per-arm means.

    dbar holds the mean of the uptake product over ks per arm (last axis;
    leading axes stack datasets): of d_k for one factor, of d_k*d_k2 for a
    pair. The first stage is its context_contrast over each context's arms
    (d_plus - d_minus, p_pp - p_mp - p_pm + p_mm) divided by 2^len(ks).
    """
    nu = dsg.context_contrast(dbar.T[dsg.context_arms(design, *ks)]).T
    return tuple(dsg.contexts_for(design, *ks)), nu / 2.0 ** len(ks)


# --- method / profile grammar ------------------------------------------------

MAIN_METHODS = ("adjusted", "simple", "exclusion")
SHARE_FLOOR_MIN = float(np.finfo(np.float64).tiny)  # the least normal float: from it up, 1/t and every bound are finite


def check_share_floor(t, shown) -> float:
    """t if a real number (not a boolean) in [SHARE_FLOOR_MIN, inf), compared exactly; else the error, quoting shown."""
    if isinstance(t, bool) or not isinstance(t, numbers.Real) or not SHARE_FLOOR_MIN <= t < math.inf:
        raise InvalidShareError(f"complier-share floor must be finite and at least {SHARE_FLOOR_MIN!r}, got {shown!r}")
    return t


def parse_method(method: str) -> tuple[str, tuple]:
    """'adjusted' | 'simple' | 'exclusion' | 'interaction:1+2' | 'joint:2' |
    'conservative:0.3' -> (kind, arguments); the arguments are the
    interaction factors, the joint partner, or the complier-share floor."""
    s = method.strip()
    if s in MAIN_METHODS:
        return s, ()
    if ":" in s:
        head, tail = s.split(":", 1)
        head = head.strip()
        if head == "interaction":
            try:
                fs = tuple(sorted({int(t) for t in tail.split("+") if t.strip()}))
            except ValueError:
                raise InvalidInputError(f"bad interaction factor list in {method!r}") from None
            if len(fs) < 2:
                raise InvalidInputError(f"interaction needs at least two factors: {method!r}")
            return "interaction", fs
        if head == "joint":
            try:
                k2 = int(tail)
            except ValueError:
                raise InvalidInputError(f"bad joint partner in {method!r}") from None
            return "joint", (k2,)
        if head == "conservative":
            try:
                t = float(tail)
            except ValueError:
                raise InvalidInputError(
                    f"conservative method wants conservative:<share>, got {method!r}"
                ) from None
            return "conservative", (check_share_floor(t, method),)
    raise InvalidInputError(
        f"unknown method {method!r}; expected adjusted|simple|exclusion|interaction:<f+f..>"
        "|joint:<factor>|conservative:<share>"
    )


def parse_request(K: int, method: str, profile) -> tuple[str, tuple, str, Context | None]:
    """Method and profile grammar for a K-factor design, with the factors
    a method names checked to lie in 1..K.

    profile is 'min', 'declared:<levels>', or a context tuple. Returns
    (kind, arguments, policy, context); joint contexts leave out both
    factors of the pair, so a declared joint profile lists K-2 levels.
    """
    kind, args = parse_method(method)
    for f in args if kind in ("interaction", "joint") else ():
        dsg.validate_factor(dsg.enumerate_assignments(K), f)
    return (kind, args, *parse_profile(profile, K - (2 if kind == "joint" else 1)))


def parse_target(
    design: FactorialDesign, k: int, method: str, profile
) -> tuple[str, tuple, str, Context | None]:
    """Every check estimate_bounds makes before it reads data: the grammar,
    the factors the method names, and that data can estimate the method."""
    kind, args, policy, ctx = parse_request(design.K, method, profile)
    if kind == "conservative":
        raise InvalidInputError(
            "conservative bounds need the true complier share; only the oracle computes them"
        )
    dsg.validate_factor(design, k)
    if kind == "interaction" and k not in args:
        raise InvalidFactorError(f"anchor factor {k} must belong to the interaction set {args!r}")
    if kind == "joint":
        dsg.validate_factor_set(design, (k, *args))
    return kind, args, policy, ctx


# --- linear-fractional endpoint machinery -------------------------------------


def _stacked_dot(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a . m over the last axis, the leading axes of a and m broadcast, by the module
    docstring's dot rule; one (n,) row against one (n,) row gives a 0-d value."""
    return (m[..., None, :] @ a[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class LinearFractional:
    """f(m) = (a.m + a0) / (b.m + b0) over the stacked arm-moment vector;
    m is one (n,) vector or an (R, n) stack of them, one value per row.
    The coefficients may stack maps too, their leading axes broadcast."""

    a: np.ndarray
    a0: np.ndarray | float
    b: np.ndarray
    b0: float

    def denominator(self, m: np.ndarray) -> np.ndarray:
        return _stacked_dot(self.b, m) + self.b0

    def numerator(self, m: np.ndarray) -> np.ndarray:
        return _stacked_dot(self.a, m) + self.a0

    def value(self, m: np.ndarray) -> np.ndarray:
        return self.numerator(m) / self.denominator(m)

    def gradient(self, m: np.ndarray) -> np.ndarray:
        return self.gradient_from(self.numerator(m), self.denominator(m))

    def gradient_from(self, num, den) -> np.ndarray:
        """The gradient at points where the numerator is num and the
        denominator den, one row per point, broadcast against a stack of
        coefficients: (R,) arrays give (R, n). den^2 is the C pow that
        Python's den ** 2 takes."""
        num, den = np.asarray(num)[..., None], np.asarray(den)[..., None]
        return self.a / den - num / np.float_power(den, 2.0) * self.b


@_memoized
def _arm_moments(data: ObservedDataset, k: int, k2: int | None, R: int) -> tuple:
    """Read-only (means, covariance blocks) of factor k's row columns per
    arm, shapes (R, J, p) and (R, J, p, p), for the R datasets whose rows
    are data's R equal blocks, built once per dataset and factor (and joint
    partner); every arm of every dataset needs at least two rows, and
    callers validate k and k2 first.

    Without a partner the columns are [y, d_k, t]: t = y*1(d_k = -z_k) is
    the observable noncomplier outcome, nonzero where uptake disagrees with
    the arm's level z_k (the adjusted center uses it). The 'ydt' layout
    reads all three columns, the 'yd' layout the first two. With a joint
    partner k2 the columns are [y, d_k*d_k2], the 'yp' layout. Column 1
    gives the first stage.

    Every sum is one bincount over the rows in their original order, binned
    by rep*J + arm, so a mean is the sequential sum a masked per-arm mean of
    one dataset takes, bit for bit; with a frequency weight, each term is
    its row's value times its weight (for clones, over the base cells).
    """
    J, w = data.design.J, data.weight
    group = data.arm if R == 1 else np.repeat(np.arange(0, R * J, J), data.n // R) + data.arm  # rep*J + arm
    counts = np.bincount(group, weights=w, minlength=R * J)
    short = np.flatnonzero(counts < 2)
    if short.size:
        j = int(short[0])
        raise InsufficientDataError(
            f"arm {data.design.assignment(j % J)!r} has {int(counts[j])} row(s); need at least 2"
        )
    arm, y, dk = data.arm, data.outcome, data.uptake[:, k - 1]
    if k2 is None:
        cols = [y.copy(), dk.astype(np.float64), y * (dk == -data.design.levels[arm, k - 1])]
    else:
        cols = [y.copy(), (dk * data.uptake[:, k2 - 1]).astype(np.float64)]

    def arm_sums(v: np.ndarray) -> np.ndarray:
        return np.bincount(group, weights=v if w is None else v * w, minlength=R * J)

    means = np.column_stack([arm_sums(c) for c in cols]) / counts[:, None]
    for c, mu in zip(cols, means.T):
        c -= mu[group]  # centered in place, so a build holds p row columns at a time
    cov = np.empty(means.shape + means.shape[1:])
    for a, ca in enumerate(cols):
        for b in range(a + 1):
            cov[:, a, b] = cov[:, b, a] = arm_sums(ca * cols[b]) / counts / counts
    p = len(cols)
    return means.reshape(R, J, p), cov.reshape(R, J, p, p)


def _se_from_gradient(grad: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Delta-method SE of the stacked arm moments, sqrt(sum_j g_j' C_j g_j),
    per row: (..., n) gradients against (..., J, p, p) blocks, the leading
    axes broadcast, so one (n,) gradient against (J, p, p) gives one SE."""
    G = grad.reshape(grad.shape[:-1] + cov.shape[-3:-1])
    return np.sqrt(np.maximum(np.einsum("...jp,...jpq,...jq->...", G, cov, G), 0.0))


@_memoized
def endpoint_functions(
    design: FactorialDesign,
    k: int,
    method: str,
    *,
    profile_index: int | None = None,
    t_value: float | None = None,
) -> LinearFractional:
    """A method's center, lower and upper endpoint maps, by one rule: the
    numerator rows of one map over their shared denominator.

    The center is C/D, an outcome contrast C over D = m*nu, m = J/2 times
    the first stage at the profile. A half-width triple (h_lo, h_up, h0)
    on the first-stage column gives H = h.m + h0 - D, and the ends are
    (C - H_lo)/D and (C + H_up)/D. With g factor k's main-effect contrast
    (the pair's interaction contrast for joint) and s the interaction's:

        simple       C = g.y          (0, 0, m)
        adjusted     C = g.y - g.t    (g/2 + 1(g<0)/2, g/2 - 1(g>0)/2, m/2)
        exclusion    C = g.y          (g/2, g/2, 0)
        interaction  C = s.y          (g/2, g/2, 0)
        joint        C = g.y          (g/2, g/2, 0)

    D reads the profile's two arms (a joint profile's four), each signed
    by g; t_value replaces D by the constant m*t (the conservative variant).
    Exactly one of profile_index and t_value must be given. Coefficients
    are (J, p) tables like the moment table, raveled at the end; the map
    is read-only and kept on the design's memo, once per factor, method
    and profile. At a profile, b0 is 0 and a0 is (0, -h0, h0), so every
    profile's map of a method has the same a0 and b0.
    """
    kind, extra = parse_method(method)
    dsg.validate_factor(design, k)
    if (profile_index is None) == (t_value is None):
        raise InvalidInputError("endpoint maps need exactly one of profile_index and t_value")
    J, m = design.J, design.J // 2
    p = 3 if kind == "adjusted" else 2
    ks = (k, *extra) if kind == "joint" else (k,)
    g = dsg.interaction_contrast(design, ks)

    num, den, b0 = np.zeros((J, p)), np.zeros((J, p)), 0.0
    num[:, 0] = dsg.interaction_contrast(design, extra) if kind == "interaction" else g
    if kind == "adjusted":
        num[:, 2] = -g
    if t_value is not None:
        b0 = m * t_value
    else:
        arms = dsg.context_arms(design, *ks)[:, profile_index]
        den[arms, 1] = g[arms] * (m / len(arms))
    a, b = num.ravel(), den.ravel()

    def half(h):  # H = h.m + h0 - D without its constant h0 - b0
        H = np.zeros((J, p))
        H[:, 1] = h
        H -= den
        return H.ravel()

    if kind == "simple":
        H_lo = H_up = -b  # h = 0
        h0 = float(m)
    elif kind == "adjusted":  # g = +-1, so the h pair is (1(g>0)/2, -1(g<0)/2)
        H_lo, H_up = half((g > 0) / 2.0), half((g < 0) / -2.0)
        h0 = m / 2.0
    else:
        H_lo = H_up = half(g / 2.0)
        h0 = -0.0  # so the constant h0 - b0 is -b0, sign of zero included
    c0 = h0 - b0
    coefs = frozen(np.stack([a, a - H_lo, a + H_up]), np.array([0.0, -c0, c0]), b)  # the memo skips a record's arrays
    return LinearFractional(*coefs, b0)


# --- estimates ----------------------------------------------------------------


def record_to_dict(record) -> dict:
    """A dataclass record as JSON-ready data: nested records become dicts and
    tuples become lists. Every report and scenario record serializes this way."""
    return {f.name: _plain(getattr(record, f.name)) for f in fields(record)}


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return record_to_dict(value) if is_dataclass(value) else value


@dataclass(frozen=True)
class BoundsEstimate:
    method: str
    factor: int
    contexts: tuple[Context, ...]
    nu_hat: tuple[float, ...]
    center: float
    half_width_lower: float
    half_width_upper: float
    raw_lower: float
    raw_upper: float
    clipped_lower: float
    clipped_upper: float
    se_lower: float
    se_upper: float
    profile_policy: str
    profile_context: Context
    ci_level: float | None = None
    ci_lower: float | None = None
    ci_upper: float | None = None

    def with_ci(self, ci: "ConfidenceInterval") -> "BoundsEstimate":
        return replace(self, ci_level=ci.level, ci_lower=ci.lower, ci_upper=ci.upper)

    to_dict = record_to_dict


@_blockwise
def estimate_bounds(
    data: ObservedDataset, k: int, method: str, *, profile="min", R: int, failed: list
) -> list[BoundsEstimate | WeakFirstStageError]:
    """Plug-in interval for one factor and method.

    profile is 'min', 'declared:<levels>', or a context tuple. The clipped
    interval is ordered then intersected with [-1, 1]; raw endpoints are the
    faithful plug-ins (a declared non-minimal profile can invert them).
    The values and SEs are those of endpoint_functions' map at the chosen
    profile. With R, data's R equal row blocks are R datasets: one moment
    pass serves them all, and their values and SEs are taken as arrays,
    each its one-dataset call's bit for bit by the module docstring's rules.
    """
    kind, args, policy, ctx = parse_target(data.design, k, method, profile)
    k2 = args[0] if kind == "joint" else None
    means, cov = _arm_moments(data, k, k2, R)
    contexts, nu = _first_stage_table(data.design, (k,) if k2 is None else (k, k2), means[:, :, 1])
    if policy == "min":
        indexes = nu.argmin(axis=1).tolist()
    else:  # parse_target checked ctx to be a context of the design
        indexes = [contexts.index(ctx)] * R
    # one memo lookup per profile the blocks chose; a0 and b0 are the method's, the same at every profile
    maps = {c: endpoint_functions(data.design, k, method, profile_index=c) for c in set(indexes)}
    one = maps[indexes[0]]
    p = one.b.size // data.design.J
    a, b = np.array([maps[c].a for c in indexes]), np.array([maps[c].b for c in indexes])[:, None]
    ends = LinearFractional(a, one.a0, b, one.b0)  # each block's map at its profile
    mvec = means[:, :, :p].reshape(R, 1, -1)
    # per block the center, lower and upper numerators and their shared denominator
    nums, dens = ends.numerator(mvec), ends.denominator(mvec)
    with np.errstate(divide="ignore", invalid="ignore"):  # at a block that fails below, den may be 0 or less
        values = nums / dens  # one den serves all three
        ses = _se_from_gradient(ends.gradient_from(nums, dens)[:, 1:], cov[:, None, :, :p, :p])  # lower, upper
    out: list[BoundsEstimate | WeakFirstStageError] = []
    for c_index, nu_r, den, (center, raw_lower, raw_upper), (se_lower, se_upper) in zip(
        indexes, nu.tolist(), dens[:, 0].tolist(), values.tolist(), ses.tolist()
    ):
        ctx_r = contexts[c_index] if policy == "min" else ctx
        if nu_r[c_index] <= 0.0 or den <= 0.0:  # nu summed in another order: den is 0.0 where rounding left nu > 0
            why = f"{nu_r[c_index]}" + ("" if nu_r[c_index] <= 0.0 else f" (endpoint denominator {den})")
            out.append(WeakFirstStageError(
                f"factor {k}: estimated first stage at {ctx_r!r} is {why}; table {dict(zip(contexts, nu_r))!r}"
            ))
            continue
        lo, hi = (raw_lower, raw_upper) if raw_lower <= raw_upper else (raw_upper, raw_lower)
        out.append(BoundsEstimate(
            method=method,
            factor=k,
            contexts=contexts,
            nu_hat=tuple(nu_r),
            center=center,
            half_width_lower=center - raw_lower,
            half_width_upper=raw_upper - center,
            raw_lower=raw_lower,
            raw_upper=raw_upper,
            clipped_lower=min(1.0, max(-1.0, lo)),
            clipped_upper=min(1.0, max(-1.0, hi)),
            se_lower=se_lower,
            se_upper=se_upper,
            profile_policy=policy,
            profile_context=ctx_r,
        ))
    return out


# --- Imbens-Manski confidence intervals ---------------------------------------


@dataclass(frozen=True)
class ConfidenceInterval:
    level: float
    lower: float
    upper: float
    critical_value: float


@lru_cache(maxsize=64)
def _im_bracket(alpha: float) -> tuple[float, float]:
    """The bisection's padded bracket: the one- and two-sided normal quantiles at alpha."""
    return _NORMAL.inv_cdf(1.0 - alpha) - 0.1, _NORMAL.inv_cdf(1.0 - alpha / 2.0) + 0.1


def check_alpha(alpha: float, name: str = "alpha") -> float:
    """alpha, refused unless a real 0 < alpha < 1 whose 1 - alpha/2 rounds below 1: the CI's quantiles are finite."""
    if not (isinstance(alpha, numbers.Real) and alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):  # the last needs alpha > 0
        raise InvalidInputError(f"{name} must be in (0, 1) with 1 - alpha/2 rounding below 1, got {alpha!r}")
    return alpha


def im_critical_value(width_over_se: float, alpha: float) -> float:
    """Solve Phi(C + w) - Phi(-C) = 1 - alpha for C, w = (U-L)/max SE >= 0.

    The root lies between the one-sided and two-sided quantiles; bisection
    runs on a slightly padded bracket to tolerance 1e-10.
    """
    check_alpha(alpha)
    if not (isinstance(width_over_se, numbers.Real) and 0.0 <= width_over_se <= sys.float_info.max):  # exact for an int
        raise InvalidInputError(f"width/SE ratio must be finite and >= 0, got {width_over_se!r}")
    lo, hi = _im_bracket(alpha)
    target, w, erf = 1.0 - alpha, width_over_se, math.erf
    while hi - lo > 1e-10:  # Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), written out: this loop is the CI's cost
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + erf((mid + w) / _SQRT2)) - 0.5 * (1.0 + erf(-mid / _SQRT2)) - target < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def imbens_manski_ci(est: BoundsEstimate, alpha: float = 0.05) -> ConfidenceInterval:
    """CI on the raw endpoints, then intersected with [-1, 1]."""
    L, U, se_lower, se_upper = est.raw_lower, est.raw_upper, est.se_lower, est.se_upper
    for v in (L, U, se_lower, se_upper):
        if not math.isfinite(v):
            raise InvalidInputError(f"nonfinite input to the confidence interval: {v!r}")
    if se_lower < 0.0 or se_upper < 0.0:
        raise InvalidInputError("standard errors must be nonnegative")
    check_alpha(alpha)
    max_se = max(se_lower, se_upper)
    if max_se == 0.0:
        C = _NORMAL.inv_cdf(1.0 - alpha) if U > L else _NORMAL.inv_cdf(1.0 - alpha / 2.0)
        lo, hi = (L, U) if L <= U else (U, L)
    else:
        width = max(0.0, U - L)
        C = im_critical_value(width / max_se, alpha)
        lo = L - C * se_lower
        hi = U + C * se_upper
    lo = min(1.0, max(-1.0, lo))
    hi = min(1.0, max(-1.0, hi))
    if lo > hi:  # only possible from inverted raw endpoints with zero SEs
        lo, hi = hi, lo
    return ConfidenceInterval(level=1.0 - alpha, lower=lo, upper=hi, critical_value=C)


# --- Wald reference ------------------------------------------------------------


@dataclass(frozen=True)
class WaldEstimate:
    factor: int
    point: float | None
    se: float | None
    label: str = "requires strong treatment exclusion"

    to_dict = record_to_dict


def wald_reference(data: ObservedDataset, k: int) -> WaldEstimate:
    """Ratio of the marginal outcome ITT to the marginal uptake ITT, a reference only: where the
    uptake ITT is zero the ratio is undefined, and point and se are None rather than an error."""
    dsg.validate_factor(data.design, k)
    g = dsg.main_effect_contrast(data.design, k)
    num, den = np.zeros((data.design.J, 2)), np.zeros((data.design.J, 2))
    num[:, 0], den[:, 1] = 2.0 * g, g
    func = LinearFractional(num.ravel(), 0.0, den.ravel(), 0.0)
    means, cov = _arm_moments(data, k, None, 1)
    mvec = means[0, :, :2].ravel()
    num, den = float(func.numerator(mvec)), float(func.denominator(mvec))
    if den == 0.0:
        return WaldEstimate(factor=k, point=None, se=None)
    se = float(_se_from_gradient(func.gradient_from(num, den), cov[0, :, :2, :2]))
    return WaldEstimate(factor=k, point=num / den, se=se)
