"""Finite populations of potential uptake and potential outcomes.

A population stores, for each of N units, the uptake vector D_i(z) in
{-1, +1}^K and the outcome Y_i(z) in [0, 1] for every assignment z of a
2^K design. Outcomes are indexed by assignment alone, so exclusion of
assignment-side effects is built into the representation.

For one factor k, a unit's behaviour at a context z_{-k} (the levels of
the other factors) is classified by comparing its uptake of k under
z_k = +1 and z_k = -1:

    complier      D = +1 under +, D = -1 under -
    always_taker  D = +1 under both
    never_taker   D = -1 under both
    defier        D = -1 under +, D = +1 under -

Constant compliers comply at every context. Conditional compliers comply
at some context but not all; conditional noncompliers at a context are
the units not complying there (always- plus never-takers when there are
no defiers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import design as dsg
from .design import Context, FactorialDesign
from .errors import (
    AssumptionViolationError,
    EmptyGroupError,
    InvalidFactorError,
    InvalidInputError,
    NoCompliersError,
)

COMPLIER = 0
ALWAYS_TAKER = 1
NEVER_TAKER = 2
DEFIER = 3

@dataclass(frozen=True)
class Population:
    """Potential uptake and outcomes for N units over a 2^K design."""

    design: FactorialDesign
    uptake: np.ndarray   # (N, J, K) int8 in {-1, +1}
    outcome: np.ndarray  # (N, J) float64 in [0, 1]

    def __post_init__(self) -> None:
        J, K = self.design.J, self.design.K
        if self.uptake.ndim != 3 or self.uptake.shape[1:] != (J, K):
            raise InvalidInputError(
                f"uptake shape {self.uptake.shape} does not match (N, {J}, {K})"
            )
        if self.outcome.shape != self.uptake.shape[:2]:
            raise InvalidInputError(
                f"outcome shape {self.outcome.shape} does not match uptake {self.uptake.shape[:2]}"
            )
        if self.uptake.shape[0] < 1:
            raise InvalidInputError("population needs at least one unit")
        if not np.isin(self.uptake, (-1, 1)).all():
            raise InvalidInputError("uptake entries must be -1 or +1")
        if not np.isfinite(self.outcome).all():
            raise InvalidInputError("outcomes must be finite")
        if self.outcome.min() < 0.0 or self.outcome.max() > 1.0:
            raise InvalidInputError("outcomes must lie in [0, 1]")
        self.uptake.setflags(write=False)
        self.outcome.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.uptake.shape[0])

    def arm_outcome_means(self) -> np.ndarray:
        """Population mean outcome per arm, length J."""
        return self.outcome.mean(axis=0)

    def arm_uptake_means(self, k: int) -> np.ndarray:
        """Population mean uptake of factor k per arm, length J."""
        dsg.validate_factor(self.design, k)
        return self.uptake[:, :, k - 1].mean(axis=0, dtype=np.float64)

    def clone(self, factor: int) -> "Population":
        """Stack `factor` copies of every unit; all population means persist."""
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise InvalidInputError(f"clone factor must be a positive integer, got {factor!r}")
        up = np.tile(self.uptake, (factor, 1, 1)).astype(np.int8)
        out = np.tile(self.outcome, (factor, 1))
        return Population(design=self.design, uptake=up, outcome=out)


@dataclass(frozen=True)
class ComplianceProfile:
    """Per-unit, per-context compliance labels for one factor."""

    factor: int
    contexts: tuple[Context, ...]
    labels: np.ndarray  # (N, n_contexts) int8 with the codes above

    def __post_init__(self) -> None:
        self.labels.setflags(write=False)

    def complier_mask(self) -> np.ndarray:
        """(N, C) boolean: complies with the factor at each context."""
        return self.labels == COMPLIER

    def constant_complier_mask(self) -> np.ndarray:
        """(N,) boolean: complies at every context."""
        return (self.labels == COMPLIER).all(axis=1)


def classify(pop: Population, k: int) -> ComplianceProfile:
    """Compliance type of every unit at every context of factor k."""
    dsg.validate_factor(pop.design, k)
    contexts = tuple(dsg.contexts_for(pop.design, k))
    labels = np.empty((pop.N, len(contexts)), dtype=np.int8)
    for c_index in range(len(contexts)):
        j_minus, j_plus = dsg.context_arms(pop.design, k, c_index)
        d_plus = pop.uptake[:, j_plus, k - 1]
        d_minus = pop.uptake[:, j_minus, k - 1]
        lab = np.full(pop.N, DEFIER, dtype=np.int8)
        lab[(d_plus == 1) & (d_minus == -1)] = COMPLIER
        lab[(d_plus == 1) & (d_minus == 1)] = ALWAYS_TAKER
        lab[(d_plus == -1) & (d_minus == -1)] = NEVER_TAKER
        labels[:, c_index] = lab
    return ComplianceProfile(factor=k, contexts=contexts, labels=labels)


def check_conditional_monotonicity(pop: Population, k: int) -> list[tuple[int, Context]]:
    """Defier instances for factor k; empty list means the check passes."""
    prof = classify(pop, k)
    out: list[tuple[int, Context]] = []
    units, ctxs = np.nonzero(prof.labels == DEFIER)
    for i, c in zip(units.tolist(), ctxs.tolist()):
        out.append((i, prof.contexts[c]))
    return out


def _uptake_shift(pop: Population, k: int) -> np.ndarray:
    """(N, C) uptake response D(c,+) - D(c,-) of factor k, values in {-2, 0, 2}."""
    contexts = dsg.contexts_for(pop.design, k)
    shift = np.empty((pop.N, len(contexts)), dtype=np.int8)
    for c_index in range(len(contexts)):
        j_minus, j_plus = dsg.context_arms(pop.design, k, c_index)
        shift[:, c_index] = pop.uptake[:, j_plus, k - 1] - pop.uptake[:, j_minus, k - 1]
    return shift


def check_least_compliant_profile(pop: Population, k: int) -> tuple[Context, ...]:
    """Contexts at which every unit's uptake response is weakly smallest.

    Returns the (possibly empty) tuple of valid least-compliant contexts in
    canonical order. A context is valid when no unit responds less anywhere
    else, i.e. its column attains the row minimum for every unit.
    """
    contexts = dsg.contexts_for(pop.design, k)
    shift = _uptake_shift(pop, k)
    row_min = shift.min(axis=1, keepdims=True)
    valid = (shift == row_min).all(axis=0)
    return tuple(ctx for ctx, ok in zip(contexts, valid.tolist()) if ok)


def check_weak_treatment_exclusion(pop: Population, k: int) -> list[tuple[int, Context]]:
    """Units whose untouched factor-k uptake hides a shift elsewhere.

    For each context, looks at units whose uptake of k is the same under
    z_k = +1 and z_k = -1 and reports those whose full uptake vector still
    differs between the two arms. Empty list means the check passes.
    """
    contexts = dsg.contexts_for(pop.design, k)
    out: list[tuple[int, Context]] = []
    for c_index, ctx in enumerate(contexts):
        j_minus, j_plus = dsg.context_arms(pop.design, k, c_index)
        unchanged_k = pop.uptake[:, j_plus, k - 1] == pop.uptake[:, j_minus, k - 1]
        same_all = (pop.uptake[:, j_plus, :] == pop.uptake[:, j_minus, :]).all(axis=1)
        for i in np.nonzero(unchanged_k & ~same_all)[0].tolist():
            out.append((i, ctx))
    return out


def _joint_uptake_shift(pop: Population, k: int, k2: int) -> np.ndarray:
    """(N, C) four-arm contrast of D_k * D_k2 over (z_k, z_k2), values in [-4, 4]."""
    contexts = dsg.joint_contexts_for(pop.design, k, k2)
    prod = (pop.uptake[:, :, k - 1].astype(np.int16) * pop.uptake[:, :, k2 - 1])
    shift = np.empty((pop.N, len(contexts)), dtype=np.int16)
    for c_index in range(len(contexts)):
        j_mm, j_pm, j_mp, j_pp = dsg.joint_context_arms(pop.design, k, k2, c_index)
        shift[:, c_index] = prod[:, j_pp] - prod[:, j_mp] - prod[:, j_pm] + prod[:, j_mm]
    return shift


def check_joint_least_compliant(pop: Population, k: int, k2: int) -> tuple[Context, ...]:
    """Joint contexts where every unit's two-factor uptake response is smallest."""
    contexts = dsg.joint_contexts_for(pop.design, k, k2)
    shift = _joint_uptake_shift(pop, k, k2)
    row_min = shift.min(axis=1, keepdims=True)
    valid = (shift == row_min).all(axis=0)
    return tuple(ctx for ctx, ok in zip(contexts, valid.tolist()) if ok)


def check_conditional_treatment_exclusion(pop: Population, k: int, k2: int) -> list[tuple[int, int, Context]]:
    """Cross-dependence of uptake between two factors.

    Reports (unit, factor, joint context) triples where the unit's uptake of
    one factor changes when the other factor's assignment flips, holding
    everything else fixed. Empty list means the check passes.
    """
    dsg.validate_factor(pop.design, k)
    dsg.validate_factor(pop.design, k2)
    if k == k2:
        raise InvalidFactorError("conditional exclusion needs two distinct factors")
    contexts = dsg.joint_contexts_for(pop.design, k, k2)
    out: list[tuple[int, int, Context]] = []
    for c_index, ctx in enumerate(contexts):
        j_mm, j_pm, j_mp, j_pp = dsg.joint_context_arms(pop.design, k, k2, c_index)
        # factor k's uptake must not depend on z_k2 (compare arms differing only in k2)
        for j_lo, j_hi in ((j_mm, j_mp), (j_pm, j_pp)):
            moved = pop.uptake[:, j_lo, k - 1] != pop.uptake[:, j_hi, k - 1]
            for i in np.nonzero(moved)[0].tolist():
                out.append((i, k, ctx))
        # and symmetrically for k2's uptake against z_k
        for j_lo, j_hi in ((j_mm, j_pm), (j_mp, j_pp)):
            moved = pop.uptake[:, j_lo, k2 - 1] != pop.uptake[:, j_hi, k2 - 1]
            for i in np.nonzero(moved)[0].tolist():
                out.append((i, k2, ctx))
    return out


@dataclass(frozen=True)
class GroupShares:
    """Population shares of the compliance groups for one factor.

    rho_constant is the share complying at every context. The per-context
    maps cover conditional compliers (comply here, not everywhere),
    conditional noncompliers (do not comply here), always-takers and
    never-takers. For every context,
    nu(context) = rho_constant + rho_conditional_complier(context).
    """

    factor: int
    tilde: Context
    rho_constant: float
    rho_conditional_complier: dict[Context, float]
    rho_conditional_noncomplier: dict[Context, float]
    rho_always: dict[Context, float]
    rho_never: dict[Context, float]


def require_monotonicity(pop: Population, k: int) -> None:
    violations = check_conditional_monotonicity(pop, k)
    if violations:
        raise AssumptionViolationError(
            f"factor {k}: defiers present at (unit, context) {violations[:5]}"
            + ("..." if len(violations) > 5 else "")
        )


def require_least_compliant(pop: Population, k: int, tilde: Context) -> None:
    valid = check_least_compliant_profile(pop, k)
    if tilde not in valid:
        raise AssumptionViolationError(
            f"factor {k}: context {tilde!r} is not a least-compliant profile; valid set {valid!r}"
        )


def group_shares(pop: Population, k: int, tilde: Context) -> GroupShares:
    """Exact compliance-group shares, anchored at a validated profile."""
    require_monotonicity(pop, k)
    require_least_compliant(pop, k, tilde)
    prof = classify(pop, k)
    complier = prof.complier_mask()
    constant = prof.constant_complier_mask()
    N = pop.N
    rho_cc: dict[Context, float] = {}
    rho_cn: dict[Context, float] = {}
    rho_a: dict[Context, float] = {}
    rho_n: dict[Context, float] = {}
    for c_index, ctx in enumerate(prof.contexts):
        comp_here = complier[:, c_index]
        rho_cc[ctx] = float(np.sum(comp_here & ~constant)) / N
        rho_cn[ctx] = float(np.sum(~comp_here)) / N
        rho_a[ctx] = float(np.sum(prof.labels[:, c_index] == ALWAYS_TAKER)) / N
        rho_n[ctx] = float(np.sum(prof.labels[:, c_index] == NEVER_TAKER)) / N
    return GroupShares(
        factor=k,
        tilde=tilde,
        rho_constant=float(np.sum(constant)) / N,
        rho_conditional_complier=rho_cc,
        rho_conditional_noncomplier=rho_cn,
        rho_always=rho_a,
        rho_never=rho_n,
    )


def _group_mask(pop: Population, k: int, group: str, context: Context | None) -> np.ndarray:
    prof = classify(pop, k)
    if group == "constant":
        return prof.constant_complier_mask()
    if context is None:
        raise InvalidInputError(f"group {group!r} needs a context")
    c_index = dsg.context_index(pop.design, k, context)
    if group == "conditional_complier":
        return prof.complier_mask()[:, c_index] & ~prof.constant_complier_mask()
    if group == "conditional_noncomplier":
        return ~prof.complier_mask()[:, c_index]
    if group == "always_taker":
        return prof.labels[:, c_index] == ALWAYS_TAKER
    if group == "never_taker":
        return prof.labels[:, c_index] == NEVER_TAKER
    raise InvalidInputError(f"unknown group {group!r}")


def subgroup_mean(pop: Population, k: int, group: str, z: tuple[int, ...],
                  context: Context | None = None) -> float:
    """Mean potential outcome of a compliance group under assignment z.

    group is one of "constant", "conditional_complier",
    "conditional_noncomplier", "always_taker", "never_taker"; all but
    "constant" are relative to a context of factor k.
    """
    mask = _group_mask(pop, k, group, context)
    if not mask.any():
        where = "" if context is None else f" at context {context!r}"
        raise EmptyGroupError(f"factor {k}: group {group!r}{where} is empty")
    j = pop.design.index(tuple(z))
    return float(pop.outcome[mask, j].mean())


def constant_complier_count(pop: Population, k: int) -> int:
    return int(np.sum(classify(pop, k).constant_complier_mask()))


def require_constant_compliers(pop: Population, k: int) -> None:
    if constant_complier_count(pop, k) == 0:
        raise NoCompliersError(f"factor {k}: no constant compliers")


def fixture_p4() -> Population:
    """Four-unit K=2 population used throughout the tests.

    Factor 2 is taken by everyone exactly when assigned. Factor 1 has two
    constant compliers, one unit complying only when factor 2 is at +1,
    and one unit never taking. The outcome equals the factor-1 uptake
    indicator, so every effect is hand-checkable.
    """
    design = dsg.enumerate_assignments(2)
    # canonical arms: (-1,-1), (+1,-1), (-1,+1), (+1,+1)
    d1 = np.array(
        [
            [-1, 1, -1, 1],
            [-1, 1, -1, 1],
            [-1, -1, -1, 1],
            [-1, -1, -1, -1],
        ],
        dtype=np.int8,
    )
    d2 = np.tile(np.array([-1, -1, 1, 1], dtype=np.int8), (4, 1))
    uptake = np.stack([d1, d2], axis=2)
    outcome = (d1.astype(np.float64) + 1.0) / 2.0
    return Population(design=design, uptake=uptake, outcome=outcome)


def to_dict(pop: Population) -> dict:
    return {
        "K": pop.design.K,
        "N": pop.N,
        "uptake": pop.uptake.tolist(),
        "outcome": pop.outcome.tolist(),
    }


def from_dict(payload: dict) -> Population:
    if not isinstance(payload, dict):
        raise InvalidInputError("population payload must be a JSON object")
    for key in ("K", "N", "uptake", "outcome"):
        if key not in payload:
            raise InvalidInputError(f"population payload missing field {key!r}")
    K = payload["K"]
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidInputError(f"K must be an integer, got {K!r}")
    design = dsg.enumerate_assignments(K)
    try:
        uptake = np.asarray(payload["uptake"], dtype=np.int8)
        outcome = np.asarray(payload["outcome"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"population arrays malformed: {exc}") from exc
    if uptake.ndim != 3:
        raise InvalidInputError(f"uptake must be N x J x K, got shape {uptake.shape}")
    if uptake.shape[0] != payload["N"]:
        raise InvalidInputError(
            f"declared N={payload['N']} but uptake has {uptake.shape[0]} units"
        )
    return Population(design=design, uptake=uptake, outcome=outcome)


def load_population(path: str) -> Population:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read population file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"population file {path} is not valid JSON: {exc}") from exc
    return from_dict(payload)


def save_population(pop: Population, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(pop), fh, sort_keys=True)
        fh.write("\n")
