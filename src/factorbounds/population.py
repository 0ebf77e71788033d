"""Finite populations of potential uptake and potential outcomes.

A population stores, for each of N units, the uptake vector D_i(z) in
{-1, +1}^K and the outcome Y_i(z) in [0, 1] for every assignment z of a
2^K design. Uptake is stored as one (N, J) bit pattern (pack_uptake),
which every check reads; the (N, J, K) array is unpacked only on request.
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
from .design import Context, FactorialDesign
from .errors import (
    AssumptionViolationError,
    FactorBoundsError,
    InvalidInputError,
    NoCompliersError,
)

COMPLIER = 0
ALWAYS_TAKER = 1
NEVER_TAKER = 2
DEFIER = 3

# compliance label by (uptake under z_k=-1, uptake under z_k=+1), levels mapped to 0/1
_LABEL_TABLE = np.array([[NEVER_TAKER, COMPLIER], [DEFIER, ALWAYS_TAKER]], dtype=np.int8)


def read_only(value, dtype) -> np.ndarray:
    """value as a read-only C-contiguous dtype array no caller can write
    through: one that is read-only down to the array owning its memory is
    kept, anything else (a writable array, or a view of one) copied."""
    arr = base = np.asarray(value)
    while isinstance(base, np.ndarray) and not base.flags.writeable and base.base is not None:
        base = base.base
    shared = not isinstance(base, np.ndarray) or base.flags.writeable
    arr = np.array(arr, dtype=dtype, order="C", copy=True if shared else None)
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


def require_memory(N: int, K: int) -> None:
    """Refuse a population of N units over 2^K arms whose estimated size
    exceeds MEMORY_BUDGET, before any array of it is built. Each (unit,
    arm) cell costs its float64 outcome, its uint8/uint16 pattern entry,
    K/2 bytes of generation's (K, 2^(K-1), N) int8 types and the m2
    model's thresholded copy (a bool and a float64)."""
    need = (N << K) * (8 + np.dtype(pattern_dtype(K)).itemsize + K / 2 + 9)
    if need > MEMORY_BUDGET:
        raise InvalidInputError(
            f"a population of N={N} units over 2^{K} arms needs about {need / 2**30:.1f} GiB,"
            f" over the {MEMORY_BUDGET / 2**30:.0f} GiB budget"
        )


def _typed(value):
    """value with every entry's type beside it, so True never matches 1 in a memo key."""
    return (tuple, tuple(map(_typed, value))) if type(value) is tuple else (type(value), value)


def _memo_key(fn, args: tuple, kwargs: dict) -> tuple:
    """fn with its typed arguments; flat positional arguments, the common
    case, carry their types in one tuple beside them."""
    if kwargs or tuple in map(type, args):
        return (fn, _typed((args, tuple(sorted(kwargs.items())))))
    return (fn, args, tuple(map(type, args)))


def _memoized(fn):
    """fn(owner, ...) computed once per owner and typed arguments, kept in
    owner._memo; the owner is a Population or an ObservedDataset, whose
    arrays never change. A call that raises stores nothing and an unhashable
    argument is computed uncached; arrays come back read-only and lists as
    fresh copies (a None result counts as a miss)."""

    @functools.wraps(fn)
    def wrapper(owner, *args, **kwargs):
        compute = wrapper.__wrapped__  # read per call, like a module attribute
        key = _memo_key(wrapper, args, kwargs)
        try:
            value = owner._memo.get(key)
        except TypeError:  # an unhashable argument, such as a list profile
            return compute(owner, *args, **kwargs)
        if value is None:
            value = owner._memo[key] = compute(owner, *args, **kwargs)
            for arr in value if type(value) is tuple else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        return list(value) if type(value) is list else value

    return wrapper


@dataclass(frozen=True, init=False)
class Population:
    """Potential uptake and outcomes for N units over a 2^K design, stored read-only as the
    packed uptake pattern and the outcomes, finite and in [0, 1]. The constructor checks and
    packs (N, J, K) uptake of -1/+1; from_pattern takes the pattern itself."""

    design: FactorialDesign
    pattern: np.ndarray  # (N, J) pack_uptake bits, rows of .T contiguous
    outcome: np.ndarray  # (N, J) float64 in [0, 1]

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
        pop._store(design, read_only(pattern.T, pattern_dtype(design.K)).T, outcome)
        return pop

    def _store(self, design: FactorialDesign, pattern: np.ndarray, outcome: np.ndarray) -> None:
        if outcome.shape != pattern.shape:
            raise InvalidInputError(f"outcome shape {outcome.shape} does not match uptake {pattern.shape}")
        if pattern.shape[0] < 1:
            raise InvalidInputError("population needs at least one unit")
        if outcome.dtype.kind not in "iuf":
            raise InvalidInputError(f"outcome entries must be numbers, got dtype {outcome.dtype}")
        outcome = read_only(outcome, np.float64)
        if not np.isfinite(outcome).all():
            raise InvalidInputError("outcomes must be finite")
        if outcome.min() < 0.0 or outcome.max() > 1.0:
            raise InvalidInputError("outcomes must lie in [0, 1]")
        self.__dict__.update(design=design, pattern=pattern, outcome=outcome)

    @cached_property
    def uptake(self) -> np.ndarray:
        """(N, J, K) int8 uptake in {-1, +1}, unpacked from the pattern on first use."""
        return frozen(self.design.levels.take(self.pattern, axis=0))[0]

    @cached_property
    def _memo(self) -> dict:
        """Results of the _memoized functions of this population, filled on first use."""
        return {}

    @_memoized
    def compliance(self, k: int) -> "ComplianceProfile":
        """classify(self, k), computed once per population and factor."""
        dsg.validate_factor(self.design, k)
        return classify(self, k)

    @property
    def N(self) -> int:
        return int(self.pattern.shape[0])

    @_memoized
    def arm_outcome_means(self) -> np.ndarray:
        """Population mean outcome per arm, length J: arm_means' one block."""
        return arm_means(self, 1)[0]

    @_memoized
    def arm_uptake_means(self, *ks: int) -> np.ndarray:
        """Population mean of the uptake product over factors ks per arm,
        length J: of D_k for one factor, of D_k * D_k2 for a pair."""
        return arm_means(self, 1, *ks)[0]

    def clone(self, factor: int) -> "Population":
        """Stack `factor` copies of every unit; all population means persist."""
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise InvalidInputError(f"clone factor must be a positive integer, got {factor!r}")
        pattern, out = frozen(np.tile(self.pattern.T, factor), np.concatenate([self.outcome] * factor))
        return Population.from_pattern(self.design, pattern.T, out)


@_memoized
def arm_means(pop: Population, R: int, *ks: int) -> np.ndarray:
    """(R, J) arm means of each of pop's R equal unit blocks: of the outcome
    without ks, of the uptake product over factors ks with them."""
    n = pop.N // R
    if not ks:
        return pop.outcome.reshape(R, n, -1).mean(axis=1)
    for k in ks:
        dsg.validate_factor(pop.design, k)
    pat = pop.pattern.T  # below, per arm and block: the units taking an odd count of ks
    odd = functools.reduce(operator.xor, (pat >> (k - 1) for k in ks)) & 1
    odd = np.ascontiguousarray(np.count_nonzero(odd.reshape(-1, R, n), axis=2).T)
    minus = odd if len(ks) % 2 == 0 else n - odd  # the units with an odd count of ks at -1, product -1
    return (n - 2 * minus) / n


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
        """(N,) boolean, read-only: complies at every context."""
        return self._constant_compliers

    @cached_property
    def _constant_compliers(self) -> np.ndarray:  # computed once per profile
        return frozen((self.labels == COMPLIER).all(axis=1))[0]


def _factor_bits(pop: Population, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, N) 0/1 uptake of factor k under z_k = -1 and under z_k = +1, one
    row per context in canonical order, read off the packed pattern: arm
    j has the bits (hi, z_k, lo) and its context the bits (hi, lo)."""
    on = pop.pattern.T >> (k - 1)
    on &= 1
    on = on.reshape(-1, 2, 1 << (k - 1), pop.N)
    return on[:, 0].reshape(-1, pop.N), on[:, 1].reshape(-1, pop.N)


def classify(pop: Population, k: int) -> ComplianceProfile:
    """Compliance type of every unit at every context of factor k; the
    labels are stored context-major, so per-unit reductions run along N."""
    contexts = tuple(dsg.contexts_for(pop.design, k))
    minus, plus = _factor_bits(pop, k)
    return ComplianceProfile(factor=k, contexts=contexts, labels=_LABEL_TABLE.take((minus << 1) | plus).T)


def _stacked_check(stacked):
    """The memoized check of one population, written in its stacked form:
    stacked(pop, R, *args) answers for a population of R equal blocks of
    units (R populations stacked) with one value per block, and the check
    is its R=1 call. check.stacked is memoized as well, so the values that
    simulate's generation takes on a chunk serve the oracle on that chunk.
    Masks are unit-last, (..., N), so every reduction runs along N."""
    stacked = _memoized(stacked)

    def check(pop: Population, *args):
        return stacked(pop, 1, *args)[0]

    check.__name__ = check.__qualname__ = stacked.__name__
    check.__doc__, check.stacked = stacked.__doc__, stacked
    return _memoized(check)


def _per_block(mask: np.ndarray, R: int, found) -> list:
    """found(block) for each of the R equal unit blocks of a unit-last mask that has an entry set, [] for the others."""
    n = mask.shape[-1] // R
    hits = mask.reshape(-1, R, n).any(axis=2).any(axis=0).tolist()
    return [found(mask[..., r * n : r * n + n]) if hit else [] for r, hit in enumerate(hits)]


def _valid_contexts(contexts, shift: np.ndarray, R: int) -> list[tuple[Context, ...]]:
    """Per block: the contexts whose (C, N) shift row attains every unit's minimum over contexts."""
    valid = (shift == shift.min(axis=0)).reshape(shift.shape[0], R, -1).all(axis=2).T
    return [tuple(ctx for ctx, ok in zip(contexts, row) if ok) for row in valid.tolist()]


@_stacked_check
def check_conditional_monotonicity(pop: Population, R: int, k: int) -> list[list[tuple[int, Context]]]:
    """Defier instances for factor k; empty list means the check passes."""
    prof = pop.compliance(k)
    found = lambda b: [(i, prof.contexts[c]) for i, c in zip(*(a.tolist() for a in np.nonzero(b.T)))]
    return _per_block(prof.labels.T == DEFIER, R, found)


@_stacked_check
def check_least_compliant_profile(pop: Population, R: int, *ks: int) -> list[tuple[Context, ...]]:
    """Contexts at which every unit's uptake response over ks is weakly smallest.

    ks is one factor or a pair; the response at a context is the contrast
    of the -1/+1 uptake product over ks across the context's arms
    (D_k(+) - D_k(-) for one factor, the four-arm contrast for a pair).
    Returns the (possibly empty) tuple of valid least-compliant contexts in
    canonical order. A context is valid when no unit responds less anywhere
    else, i.e. its column attains the row minimum for every unit.
    """
    contexts = dsg.contexts_for(pop.design, *ks)
    pat = pop.pattern.T  # below, per arm and unit: 1 where an odd count of ks is at -1, as in arm_uptake_means
    minus = (functools.reduce(operator.xor, (pat >> (k - 1) for k in ks)) ^ len(ks)) & 1
    prod = 1 - 2 * minus.astype(np.int8)  # (J, N) uptake product over ks
    return _valid_contexts(contexts, dsg.context_contrast(prod[dsg.context_arms(pop.design, *ks)]), R)


@_stacked_check
def check_weak_treatment_exclusion(pop: Population, R: int, k: int) -> list[list[tuple[int, Context]]]:
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


@_stacked_check
def check_conditional_treatment_exclusion(
    pop: Population, R: int, k: int, k2: int
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


@_stacked_check
def check_outcome_exclusion(pop: Population, R: int, k: int) -> list[list[tuple[int, Context]]]:
    """Units whose outcome moves with z_k while their uptake does not: per
    context, those whose full uptake vector is the same under z_k = +1 and
    -1 but whose outcome differs. Empty list means the check passes."""
    contexts = dsg.contexts_for(pop.design, k)
    pat = pop.pattern.T.reshape(-1, 2, 1 << (k - 1), pop.N)  # views, as in _factor_bits: arm j has bits (hi, z_k, lo)
    y = pop.outcome.reshape(pop.N, -1, 2, 1 << (k - 1))
    hidden = (pat[:, 0] == pat[:, 1]).reshape(-1, pop.N) & (y[:, :, 0] != y[:, :, 1]).reshape(pop.N, -1).T
    found = lambda b: [(i, contexts[c]) for c, i in zip(*(a.tolist() for a in np.nonzero(b)))]  # context-major
    return _per_block(hidden, R, found)


@_stacked_check
def constant_complier_count(pop: Population, R: int, *ks: int) -> list[int]:
    """Units complying with every factor of ks (one factor or a pair) at every context."""
    dsg.validate_factor_set(pop.design, ks)
    mask = np.logical_and.reduce([pop.compliance(k).constant_complier_mask() for k in ks])
    return mask.reshape(R, -1).sum(axis=1).tolist()


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


def _one_block(answers: list):
    """The answer of a one-block stack, an error raised afresh (kept without the frames that raised it)."""
    (answer,) = answers
    if isinstance(answer, FactorBoundsError):
        raise answer.with_traceback(None)
    return answer


def require(pop: Population, token: str, *ks: int):
    """The value of the token's check on pop at factors ks; raises the
    token's error, naming the factors, when that value does not pass."""
    failed = [None]
    (value,) = require_blocks(pop, 1, failed, token, *ks)
    _one_block(failed)  # raises the error, if any
    return list(value) if type(value) is list else value  # a fresh copy, as the memo hands out


def require_blocks(pop: Population, R: int, failed: list, token: str, *ks: int) -> list:
    """require on pop's R equal unit blocks, the check run once, stacked,
    for all of them: returns its R values and puts require's error in
    failed[r] for each block r still open (failed[r] None) that misses."""
    _, check, passes, error, text = ASSUMPTIONS[token]
    values = check.stacked(pop, R, *ks)
    for r, value in enumerate(values):
        if failed[r] is None and not passes(value):
            shown = f"{value[:5]}" + ("..." if len(value) > 5 else "") if isinstance(value, list) else ""
            failed[r] = error(f"{_who(ks)}: {text.format(shown)}")
    return values


def require_least_compliant(pop: Population, tilde: Context, *ks: int) -> None:
    """Refuse a declared profile tilde that is not a least-compliant context of ks, one factor or a pair."""
    failed = [None]
    require_least_compliant_blocks(pop, 1, failed, [tilde], *ks)
    _one_block(failed)  # raises the error, if any


def require_least_compliant_blocks(pop: Population, R: int, failed: list, tildes: list, *ks: int) -> None:
    """require_least_compliant on each open block r of pop's R equal unit blocks, with its profile tildes[r]."""
    joint = "joint " if len(ks) == 2 else ""
    for r, valid in enumerate(check_least_compliant_profile.stacked(pop, R, *ks)):
        if failed[r] is None and tildes[r] not in valid:
            failed[r] = AssumptionViolationError(
                f"{_who(ks)}: context {tildes[r]!r} is not a {joint}least-compliant profile; valid set {valid!r}"
            )


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


def group_shares(pop: Population, k: int, tilde: Context) -> GroupShares:
    """Exact compliance-group shares, anchored at a validated profile."""
    require(pop, "monotone", k)
    require_least_compliant(pop, tilde, k)
    prof = pop.compliance(k)
    complier = prof.complier_mask()
    constant = prof.constant_complier_mask()

    def per_context(mask: np.ndarray) -> dict[Context, float]:
        return dict(zip(prof.contexts, (mask.sum(axis=0) / pop.N).tolist()))

    return GroupShares(
        factor=k,
        tilde=tilde,
        rho_constant=float(np.sum(constant)) / pop.N,
        rho_conditional_complier=per_context(complier & ~constant[:, None]),
        rho_conditional_noncomplier=per_context(~complier),
        rho_always=per_context(prof.labels == ALWAYS_TAKER),
        rho_never=per_context(prof.labels == NEVER_TAKER),
    )


def fixture_p4() -> Population:
    """Four-unit K=2 population used throughout the tests.

    Factor 2 is taken by everyone exactly when assigned. Factor 1 has two
    constant compliers, one unit complying only when factor 2 is at +1,
    and one unit never taking. The outcome equals the factor-1 uptake
    indicator, so every effect is hand-checkable.
    """
    design = dsg.enumerate_assignments(2)
    # canonical arms (-1,-1), (+1,-1), (-1,+1), (+1,+1); bit 0 is D1 = +1, bit 1 is D2 = +1
    pattern = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [0, 0, 2, 3], [0, 0, 2, 2]], dtype=np.uint8)
    return Population.from_pattern(design, pattern, (pattern & 1).astype(np.float64))


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
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"population file {path} is not valid JSON: {exc}") from exc
    return from_dict(payload)


def save_population(pop: Population, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(pop), fh, sort_keys=True)
        fh.write("\n")
