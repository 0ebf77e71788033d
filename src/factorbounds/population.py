"""Finite populations of potential uptake and potential outcomes.

A population stores, for each of N units, the uptake vector D_i(z) in
{-1, +1}^K and the outcome Y_i(z) in [0, 1] for every assignment z of a
2^K design. Uptake is stored as one (N, J) bit pattern (pack_uptake),
which every check reads and simulate writes straight from its draws; the
(N, J, K) array is unpacked only on request.
Pattern and outcome are both stored arm-major (F-contiguous), so the rows
of .T, one per arm, run contiguously over the units, and every per-arm
read or reduction walks one such row.
Outcomes are indexed by assignment, so Y may depend on z other than
through D (equal uptake vectors, different outcomes in two arms);
check_outcome_exclusion finds that between the two arms of a context.
simulate draws Y as a function of uptake, so its populations pass it.

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

import functools
import itertools
import json
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import design as dsg
from .design import Context, FactorialDesign, _blockwise, _memoized, _MemoOwner, _merge
from .errors import (
    AssumptionViolationError,
    InvalidInputError,
    NoCompliersError,
)

# a compliance type is the code 2*D_k(-) + D_k(+), uptake under z_k = -1 and +1 mapped to 0/1
NEVER_TAKER, COMPLIER, DEFIER, ALWAYS_TAKER = range(4)


def read_only(value, dtype, order: str = "C") -> np.ndarray:
    """value as a read-only dtype array, C- or F-contiguous by order, that no
    caller can write through: one that is read-only down to the array owning
    its memory is kept, anything else (a writable array, or a view of one)
    copied."""
    arr = base = np.asarray(value)
    while isinstance(base, np.ndarray) and not base.flags.writeable and base.base is not None:
        base = base.base
    shared = not isinstance(base, np.ndarray) or base.flags.writeable
    arr = np.array(arr, dtype=dtype, order=order, copy=True if shared else None)
    arr.setflags(write=False)
    return arr


def frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fresh arrays set read-only, so the constructor they go to need not copy them."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def pattern_dtype(K: int) -> type:
    """The unsigned integer type of a packed uptake pattern of K factors."""
    return np.uint8 if K <= 8 else np.uint16


def pack_uptake(uptake: np.ndarray) -> np.ndarray:
    """(N, J) bits of (N, J, K) uptake, bit k-1 set where D_k = +1, ORed in
    plane by plane. Stored arm-major: the rows of .T, one per arm, are
    contiguous over the units for the checks."""
    K = uptake.shape[2]
    pattern = (uptake[:, :, 0] > 0).astype(pattern_dtype(K))
    for k in range(1, K):
        pattern |= np.left_shift(uptake[:, :, k] > 0, k, dtype=pattern.dtype)
    return np.ascontiguousarray(pattern.T).T


MEMORY_BUDGET = 4 << 30  # bytes a population may take by require_memory's estimate


def require_memory(N: int, K: int, clones: int = 0) -> None:
    """Refuse a population of N units over 2^K arms whose estimated size
    exceeds MEMORY_BUDGET, before any array of it is built. Each (unit,
    arm) cell costs its float64 outcome, its uint8/uint16 pattern entry,
    K/2 bytes of the (2^(K-1), N) int8 type codes classify keeps for each
    of the K factors and the m2 model's thresholded copy (a bool and a
    float64). Each of a clone run's clones units, whose population is never
    built, costs five intp arrays as it is drawn and counted: the
    allocation, its permutation, the arm runs it permutes, the unit's base
    unit and the bincount index."""
    need = (N << K) * (8 + np.dtype(pattern_dtype(K)).itemsize + 9) + (N << K >> 1) * K  # all integers: no overflow
    need += clones * 5 * np.dtype(np.intp).itemsize
    if need > MEMORY_BUDGET:
        with_clones = f" with {clones} clone units" if clones else ""
        tenths, rest = divmod(need * 10, 1 << 30)  # need in GiB to one decimal, rounded half to even as :.1f rounds
        tenths += rest > 1 << 29 or (rest == 1 << 29 and tenths % 2)
        raise InvalidInputError(
            f"a population of N={N} units over 2^{K} arms{with_clones} needs about {tenths // 10}.{tenths % 10} GiB,"
            f" over the {MEMORY_BUDGET / 2**30:.0f} GiB budget"
        )


@dataclass(frozen=True, init=False, eq=False)
class Population(_MemoOwner):
    """Potential uptake and outcomes for N units over a 2^K design, stored read-only as the
    packed uptake pattern and the outcomes, finite and in [0, 1], both arm-major. The
    constructor checks and packs (N, J, K) uptake of -1/+1; from_pattern takes the pattern itself."""

    design: FactorialDesign
    pattern: np.ndarray  # (N, J) pack_uptake bits, rows of .T contiguous
    outcome: np.ndarray  # (N, J) float64 in [0, 1], F-contiguous: rows of .T contiguous

    def __init__(self, design: FactorialDesign, uptake: np.ndarray, outcome: np.ndarray) -> None:
        if uptake.ndim != 3 or uptake.shape[1:] != (design.J, design.K):
            raise InvalidInputError(f"uptake shape {uptake.shape} does not match (N, {design.J}, {design.K})")
        if uptake.dtype.kind not in "iu":
            raise InvalidInputError(f"uptake entries must be integers, got dtype {uptake.dtype}")
        if not ((uptake == 1) | (uptake == -1)).all():  # before the int8 cast, which would wrap 255 to -1
            raise InvalidInputError("uptake entries must be -1 or +1")
        uptake = read_only(uptake, np.int8)
        self._store(design, frozen(pack_uptake(uptake))[0], outcome)
        self.__dict__["uptake"] = uptake  # the caller's uptake is its own unpacking

    @classmethod
    def from_pattern(cls, design: FactorialDesign, pattern: np.ndarray, outcome: np.ndarray) -> "Population":
        """A population from its (N, J) packed uptake pattern, whose entries must lie below 2^K."""
        shape_ok = pattern.ndim == 2 and pattern.shape[1] == design.J and pattern.dtype.kind == "u"
        if not shape_ok or pattern.max(initial=0) >> design.K:
            raise InvalidInputError(f"pattern must be (N, {design.J}) unsigned integers below 2^{design.K}")
        pop = object.__new__(cls)
        pop._store(design, read_only(pattern, pattern_dtype(design.K), order="F"), outcome)
        return pop

    def _store(self, design: FactorialDesign, pattern: np.ndarray, outcome: np.ndarray) -> None:
        if outcome.shape != pattern.shape:
            raise InvalidInputError(f"outcome shape {outcome.shape} does not match uptake {pattern.shape}")
        if pattern.shape[0] < 1:
            raise InvalidInputError("population needs at least one unit")
        if outcome.dtype.kind not in "iuf":
            raise InvalidInputError(f"outcome entries must be numbers, got dtype {outcome.dtype}")
        outcome = read_only(outcome, np.float64, order="F")
        if not (outcome.min() >= 0.0 and outcome.max() <= 1.0):  # NaN and infinities fail it too
            finite = np.isfinite(outcome).all()  # only to name the error
            raise InvalidInputError("outcomes must lie in [0, 1]" if finite else "outcomes must be finite")
        self.__dict__.update(design=design, pattern=pattern, outcome=outcome)

    @cached_property
    def uptake(self) -> np.ndarray:
        """(N, J, K) int8 uptake in {-1, +1}, unpacked from the pattern on first use."""
        return frozen(self.design.levels.take(self.pattern, axis=0))[0]

    @property
    def N(self) -> int:
        return int(self.pattern.shape[0])


@_memoized
def arm_means(pop: Population, R: int, *ks: int) -> np.ndarray:
    """(R, J) arm means of each of pop's R equal unit blocks: of the outcome
    without ks, of the uptake product over factors ks with them."""
    n = pop.N // R
    if not ks:  # pairwise sums along each arm's units; C order, so g @ row rounds as on interaction_effect's means
        return np.ascontiguousarray(pop.outcome.T.reshape(-1, R, n).mean(axis=2).T)
    for k in ks:
        dsg.validate_factor(pop.design, k)
    pat = pop.pattern.T  # below, per arm and block: the units taking an odd count of ks
    odd = functools.reduce(operator.xor, (pat >> (k - 1) for k in ks)) & 1
    odd = np.ascontiguousarray(np.count_nonzero(odd.reshape(-1, R, n), axis=2).T)
    minus = odd if len(ks) % 2 == 0 else n - odd  # the units with an odd count of ks at -1, product -1
    return (n - 2 * minus) / n


@_memoized
def classify(pop: Population, k: int) -> np.ndarray:
    """(C, N) int8 compliance type of every unit at every context of factor
    k, contexts in canonical order, stored context-major so per-unit
    reductions run along N. Read off the packed pattern: arm j has the bits
    (hi, z_k, lo) and its context the bits (hi, lo)."""
    dsg.validate_factor(pop.design, k)
    on = pop.pattern.T >> (k - 1)
    on &= 1
    on = on.reshape(-1, 2, 1 << (k - 1), pop.N)
    return ((on[:, 0] << 1) | on[:, 1]).astype(np.int8).reshape(-1, pop.N)


@_memoized
def constant_compliers(pop: Population, *ks: int) -> np.ndarray:
    """(N,) mask of the units complying with every factor of ks (one factor or a pair) at every context."""
    dsg.validate_factor_set(pop.design, ks)
    return np.logical_and.reduce([(classify(pop, k) == COMPLIER).all(axis=0) for k in ks])


def _per_block(mask: np.ndarray, R: int, found) -> list:
    """found(block) for each of the R equal unit blocks of a unit-last mask that has an entry set, [] for the others."""
    n = mask.shape[-1] // R
    hits = mask.reshape(-1, R, n).any(axis=2).any(axis=0).tolist()
    return [found(mask[..., r * n : r * n + n]) if hit else [] for r, hit in enumerate(hits)]


def _valid_contexts(contexts, shift: np.ndarray, R: int) -> list[tuple[Context, ...]]:
    """Per block: the contexts whose (C, N) shift row attains every unit's minimum over contexts."""
    valid = (shift == shift.min(axis=0)).reshape(shift.shape[0], R, -1).all(axis=2).T
    return [tuple(ctx for ctx, ok in zip(contexts, row) if ok) for row in valid.tolist()]


@_blockwise
def check_conditional_monotonicity(pop: Population, k: int, *, R: int, failed: list) -> list[list[tuple[int, Context]]]:
    """Defier instances for factor k; empty list means the check passes."""
    contexts = dsg.contexts_for(pop.design, k)
    found = lambda b: [(i, contexts[c]) for i, c in zip(*(a.tolist() for a in np.nonzero(b.T)))]  # unit-major
    return _per_block(classify(pop, k) == DEFIER, R, found)


@_blockwise
def check_least_compliant_profile(pop: Population, *ks: int, R: int, failed: list) -> list[tuple[Context, ...]]:
    """Contexts at which every unit's uptake response over ks is weakly smallest.

    ks is one factor or a pair; the response at a context is the contrast
    of the -1/+1 uptake product over ks across the context's arms
    (D_k(+) - D_k(-) for one factor, the four-arm contrast for a pair).
    Returns the (possibly empty) tuple of valid least-compliant contexts in
    canonical order. A context is valid when no unit responds less anywhere
    else, i.e. its column attains the row minimum for every unit.
    """
    contexts = dsg.contexts_for(pop.design, *ks)
    pat = pop.pattern.T  # below, per arm and unit: 1 where an odd count of ks is at -1, as in arm_means
    minus = (functools.reduce(operator.xor, (pat >> (k - 1) for k in ks)) ^ len(ks)) & 1
    prod = 1 - 2 * minus.astype(np.int8)  # (J, N) uptake product over ks
    return _valid_contexts(contexts, dsg.context_contrast(prod[dsg.context_arms(pop.design, *ks)]), R)


@_blockwise
def check_weak_treatment_exclusion(pop: Population, k: int, *, R: int, failed: list) -> list[list[tuple[int, Context]]]:
    """Units whose untouched factor-k uptake hides a shift elsewhere.

    For each context, looks at units whose uptake of k is the same under
    z_k = +1 and z_k = -1 and reports those whose full uptake vector still
    differs between the two arms. Empty list means the check passes.
    """
    contexts = dsg.contexts_for(pop.design, k)
    j_minus, j_plus = dsg.context_arms(pop.design, k)
    pat = pop.pattern.T
    moved = pat[j_plus] ^ pat[j_minus]  # (C, N): the factors whose uptake differs
    hidden = ((moved & (1 << (k - 1))) == 0) & (moved != 0)
    found = lambda b: [(i, contexts[c]) for c, i in zip(*(a.tolist() for a in np.nonzero(b)))]  # context-major
    return _per_block(hidden, R, found)


@_blockwise
def check_conditional_treatment_exclusion(
    pop: Population, k: int, k2: int, *, R: int, failed: list
) -> list[list[tuple[int, int, Context]]]:
    """Cross-dependence of uptake between two factors.

    Reports (unit, factor, joint context) triples where the unit's uptake of
    one factor changes when the other factor's assignment flips, holding
    everything else fixed. Empty list means the check passes.
    """
    contexts = dsg.contexts_for(pop.design, k, k2)
    j_mm, j_pm, j_mp, j_pp = dsg.context_arms(pop.design, k, k2)
    pat = pop.pattern.T
    # factor k's uptake must not depend on z_k2 (arms differing only in k2),
    # and symmetrically for k2's uptake against z_k
    pairs = ((k, j_mm, j_mp), (k, j_pm, j_pp), (k2, j_mm, j_pm), (k2, j_mp, j_pp))
    moved = np.stack([(pat[lo] ^ pat[hi]) & (1 << (f - 1)) != 0 for f, lo, hi in pairs], axis=1)  # (C, 4, N)
    found = lambda b: [  # context, pair, unit
        (i, pairs[p][0], contexts[c]) for c, p, i in zip(*(a.tolist() for a in np.nonzero(b)))
    ]
    return _per_block(moved, R, found)


@_blockwise
def check_outcome_exclusion(pop: Population, k: int, *, R: int, failed: list) -> list[list[tuple[int, Context]]]:
    """Units whose outcome moves with z_k while their uptake does not: per
    context, those whose full uptake vector is the same under z_k = +1 and
    -1 but whose outcome differs. Empty list means the check passes."""
    contexts, lo = dsg.contexts_for(pop.design, k), 1 << (k - 1)
    pat = pop.pattern.T.reshape(-1, 2, lo, pop.N)  # views, as in classify: arm j has bits (hi, z_k, lo)
    y = pop.outcome.T.reshape(-1, 2, lo, pop.N)
    hidden = ((pat[:, 0] == pat[:, 1]) & (y[:, 0] != y[:, 1])).reshape(-1, pop.N)  # (hi, lo, N) at z_k = -1
    found = lambda b: [(i, contexts[c]) for c, i in zip(*(a.tolist() for a in np.nonzero(b)))]  # context-major
    return _per_block(hidden, R, found)


@_blockwise
def constant_complier_count(pop: Population, *ks: int, R: int, failed: list) -> list[int]:
    """Units complying with every factor of ks (one factor or a pair) at every context."""
    return constant_compliers(pop, *ks).reshape(R, -1).sum(axis=1).tolist()


# Every assumption a bound rests on, by token: the factor count and memoized check that test it, the rule a check
# value must pass, and the error a miss raises, its text after _who's prefix ({} shows up to five findings).
Assumption = namedtuple("Assumption", "factors check passes error text")
ASSUMPTIONS = {
    "monotone": Assumption(1, check_conditional_monotonicity, operator.not_, AssumptionViolationError,
                           "defiers present at (unit, context) {}"),
    "profile": Assumption(1, check_least_compliant_profile, bool, AssumptionViolationError,
                          "no uniformly least compliant context exists"),
    "exclusion": Assumption(1, check_weak_treatment_exclusion, operator.not_, AssumptionViolationError,
                            "uptake of other factors shifts for noncompliers at {}"),
    "cross_exclusion": Assumption(2, check_conditional_treatment_exclusion, operator.not_, AssumptionViolationError,
                                  "uptake cross-dependence at {}"),
    "joint_profile": Assumption(2, check_least_compliant_profile, bool, AssumptionViolationError,
                                "no uniformly least compliant joint context exists"),
    "first_stage": Assumption(1, constant_complier_count, bool, NoCompliersError, "no constant compliers"),
    "joint_first_stage": Assumption(2, constant_complier_count, bool, NoCompliersError, "no joint constant compliers"),
    "outcome_exclusion": Assumption(1, check_outcome_exclusion, operator.not_, AssumptionViolationError,
                                    "outcome shifts with assignment at unchanged uptake for (unit, context) {}"),
}


def _who(ks: tuple[int, ...]) -> str:
    """The prefix of an assumption error: one factor, or a pair."""
    return f"factor {ks[0]}" if len(ks) == 1 else f"factors {ks}"


@_blockwise
def require(pop: Population, token: str, *ks: int, R: int, failed: list) -> list:
    """The value of the token's check on pop at factors ks; raises the
    token's error, naming the factors, when that value does not pass."""
    _, check, passes, error, text = ASSUMPTIONS[token]
    values = _merge(failed, check(pop, *ks, R=R))
    for r, value in enumerate(values):
        if failed[r] is None and not passes(value):
            shown = f"{value[:5]}" + ("..." if len(value) > 5 else "") if isinstance(value, list) else ""
            failed[r] = error(f"{_who(ks)}: {text.format(shown)}")
    return values


@_blockwise
def require_least_compliant(pop: Population, tilde: Context, *ks: int, R: int, failed: list) -> list:
    """Refuse a declared profile tilde, read by design.parse_profile, that is not a least-compliant
    context of ks, one factor or a pair."""
    _, tilde = dsg.parse_profile(tilde, pop.design.K - len(ks))
    joint = "joint " if len(ks) == 2 else ""
    for r, valid in enumerate(_merge(failed, check_least_compliant_profile(pop, *ks, R=R))):
        if failed[r] is None and tilde not in valid:
            failed[r] = AssumptionViolationError(
                f"{_who(ks)}: context {tilde!r} is not a {joint}least-compliant profile; valid set {valid!r}"
            )
    return [None] * R


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


def group_shares(pop: Population, k: int, tilde: Context | str) -> GroupShares:
    """Exact compliance-group shares, anchored at a validated profile read as the formulas read it, "min" too."""
    _, tilde = dsg.parse_profile(tilde, pop.design.K - 1)  # a malformed profile is refused before any check
    require(pop, "monotone", k)
    tilde = require(pop, "profile", k)[0] if tilde is None else tilde
    require_least_compliant(pop, tilde, k)
    types, constant = classify(pop, k), constant_compliers(pop, k)
    complier = types == COMPLIER

    def per_context(mask: np.ndarray) -> dict[Context, float]:
        return dict(zip(dsg.contexts_for(pop.design, k), (mask.sum(axis=1) / pop.N).tolist()))

    return GroupShares(
        factor=k,
        tilde=tilde,
        rho_constant=float(np.sum(constant)) / pop.N,
        rho_conditional_complier=per_context(complier & ~constant),
        rho_conditional_noncomplier=per_context(~complier),
        rho_always=per_context(types == ALWAYS_TAKER),
        rho_never=per_context(types == NEVER_TAKER),
    )


def to_dict(pop: Population) -> dict:
    return {
        "K": pop.design.K,
        "N": pop.N,
        "uptake": pop.uptake.tolist(),
        "outcome": pop.outcome.tolist(),
    }


def _payload_array(values, name: str, kinds: str, what: str) -> np.ndarray:
    """A nested JSON list as an array, checked before any cast: numpy's
    inferred dtype kind must be in kinds, and no entry may be a boolean,
    which numpy would read as 0 or 1 among numbers. An accepted kind shows
    the lists regular, arr.ndim deep, so their entries flatten by chaining."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise InvalidInputError(f"population arrays malformed: {exc}") from exc
    entries = [values]
    for _ in range(arr.ndim):
        entries = itertools.chain.from_iterable(entries)
    if arr.dtype.kind not in kinds or bool in set(map(type, entries)):
        raise InvalidInputError(f"{name} entries must be {what}, not booleans, strings or nulls")
    return arr


def from_dict(payload: dict) -> Population:
    if not isinstance(payload, dict):
        raise InvalidInputError("population payload must be a JSON object")
    for key in ("K", "N", "uptake", "outcome"):
        if key not in payload:
            raise InvalidInputError(f"population payload missing field {key!r}")
    K, N = payload["K"], payload["N"]
    for name, value in (("K", K), ("N", N)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    design = dsg.enumerate_assignments(K)
    require_memory(N, K)
    uptake = _payload_array(payload["uptake"], "uptake", "iu", "integers")
    outcome = _payload_array(payload["outcome"], "outcome", "iuf", "numbers")
    if uptake.ndim != 3:
        raise InvalidInputError(f"uptake must be N x J x K, got shape {uptake.shape}")
    if uptake.shape[0] != N:
        raise InvalidInputError(f"declared N={N} but uptake has {uptake.shape[0]} units")
    return Population(design=design, uptake=uptake, outcome=outcome)


def load_population(path: str) -> Population:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read population file {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the int-string digit limit
        raise InvalidInputError(f"population file {path} is not valid JSON: {exc}") from exc
    return from_dict(payload)


def save_population(pop: Population, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(pop), fh, sort_keys=True)
        fh.write("\n")
