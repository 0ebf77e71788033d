"""Two-level factorial designs and their contrast vectors.

Assignments live on the grid {-1, +1}^K. The canonical enumeration puts
factor 1 on the fastest-varying bit: assignment j (0-based) has factor k
at +1 exactly when bit k-1 of j is set. For K=2 the order is
(-1,-1), (+1,-1), (-1,+1), (+1,+1).

Contrast vectors are (J,) float64 arrays of -1 and +1. The main-effect
contrast for factor k carries the level of factor k in each assignment; an
interaction contrast is the entrywise product of the main-effect contrasts
of its factor set. Any two distinct contrasts are orthogonal, and every
contrast has exactly J/2 entries of each sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from numbers import Integral

import numpy as np

from .errors import FactorBoundsError, InvalidDesignError, InvalidFactorError, InvalidInputError

MAX_FACTORS = 16
_KEYABLE = frozenset((type(None), bool, int, float, str))  # with tuples of these, what a memo key is built from

Assignment = tuple[int, ...]
Context = tuple[int, ...]


def _typed(value):
    """value with every entry's type beside it, so True never matches 1 in a memo key; TypeError off _KEYABLE."""
    if type(value) is tuple:
        return (tuple, tuple(map(_typed, value)))
    if type(value) not in _KEYABLE:
        raise TypeError(f"{type(value).__name__} is not a memo key")
    return (type(value), value)


def _cached(owner, fn, args: tuple, kwargs: dict, compute):
    """owner's memo entry for fn and its typed arguments, computed by compute() on a miss, its
    arrays set read-only; the owner is a FactorialDesign, a Population or an ObservedDataset,
    whose arrays never change. A compute that raises stores nothing, a None result is a miss, and
    an argument not built from _KEYABLE (a list, an iterator) is uncached, so it leaves no key."""
    types = tuple(map(type, args))
    if not kwargs and _KEYABLE.issuperset(types):  # flat positional arguments, the common case
        key = (fn, args, types)
    else:
        try:
            key = (fn, _typed((args, tuple(sorted(kwargs.items())))))
        except TypeError:
            return compute()
    value = owner._memo.get(key)
    if value is None:
        value = owner._memo[key] = compute()
        for arr in value if type(value) is tuple else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    return value


def _memoized(fn):
    """fn(owner, ...) computed once per owner and typed arguments, kept in owner._memo."""

    @wraps(fn)
    def wrapper(owner, *args, **kwargs):
        compute = wrapper.__wrapped__  # read per call, like a module attribute
        return _cached(owner, wrapper, args, kwargs, lambda: compute(owner, *args, **kwargs))

    return wrapper


def _blockwise(compute):
    """One function for a question asked of an owner or of R stacked ones, its R equal blocks of
    units or rows. compute(owner, *args, R=R, failed=failed) runs each check once for the R blocks,
    in the plain call's order, puts each block's first error in failed[r] and returns the list of R
    answers, read at the open blocks only; an error it raises is every open block's.
    f(owner, *args) returns the one answer or raises its error; f(owner, *args, R=R) returns R
    answers, each a value or a FactorBoundsError. The answers are kept on the owner by R and typed
    arguments, looked up before R is checked, so a plain and an R=1 call share one entry and a hit
    costs one lookup; a refused R is never stored, and a list answer comes back as a fresh copy."""

    @wraps(compute)
    def f(owner, *args, R=None, **kwargs):
        def answers() -> list:  # on a miss only
            n = 1
            if R is not None:  # a positive integer dividing the owner's units (a dataset's rows); an int first
                size = len(owner.outcome)  # outcome's axis 0 runs over a population's units, a dataset's rows
                if type(R) is not int and (isinstance(R, bool) or not isinstance(R, Integral)) or R < 1 or size % R:
                    raise InvalidInputError(f"R must be a positive integer dividing {size}, got {R!r}")
                n = int(R)
            failed = [None] * n
            try:
                values = f.__wrapped__(owner, *args, R=n, failed=failed, **kwargs)  # read per call, as _memoized's
            except FactorBoundsError as error:  # kept without the frames that hold the stack
                failed, values = [e or error.with_traceback(None) for e in failed], None
            got = [e or values[r] for r, e in enumerate(failed)]
            if R is None and isinstance(got[0], FactorBoundsError):
                raise got[0]  # a plain call that raises stores nothing
            return got

        got = _cached(owner, f, (1 if R is None else R, *args), kwargs, answers)
        if R is not None:
            return list(got)
        if isinstance(got[0], FactorBoundsError):  # kept by an R=1 call
            raise got[0].with_traceback(None)
        return list(got[0]) if type(got[0]) is list else got[0]

    return f


def _merge(failed: list, answers: list) -> list:
    """A nested question's R answers by the one rule: an error goes to failed[r] unless one is there, and reads None."""
    for r, answer in enumerate(answers):
        if isinstance(answer, FactorBoundsError):
            failed[r] = failed[r] or answer
    return [None if isinstance(answer, FactorBoundsError) else answer for answer in answers]


class _MemoOwner:
    """An owner of memoized answers: a design, a population or a dataset, whose arrays never change."""

    @cached_property
    def _memo(self) -> dict:
        """Results of the _memoized and _blockwise functions of this owner, filled on first use."""
        return {}


@dataclass(frozen=True, eq=False)
class FactorialDesign(_MemoOwner):
    """Complete enumeration of a 2^K design in canonical order, one per K
    (enumerate_assignments), compared by identity. Its tables (contrasts,
    context arms, endpoint maps) are kept on its _memo, as a population's
    and a dataset's derived arrays are on theirs."""

    K: int
    levels: np.ndarray  # (J, K) int8, row j = assignment j

    def __post_init__(self) -> None:
        self.levels.setflags(write=False)

    @property
    def J(self) -> int:
        return 1 << self.K

    def assignment(self, j: int) -> Assignment:
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.J:
            raise InvalidDesignError(f"assignment index must be an integer in 0..{self.J - 1}, got {j!r}")
        return tuple(int(v) for v in self.levels[j])

    def index(self, z: Assignment) -> int:
        """Canonical index of an assignment tuple."""
        if len(z) != self.K:
            raise InvalidDesignError(f"assignment {z!r} has length {len(z)}, design has K={self.K}")
        j = 0
        for k, level in enumerate(z):
            if not isinstance(level, int) or isinstance(level, bool) or level not in (-1, 1):
                raise InvalidDesignError(f"assignment levels must be -1 or +1, got {z!r}")
            j |= (level == 1) << k
        return j


_DESIGNS: dict[int, FactorialDesign] = {}  # one design per K, so its memo serves every caller


def enumerate_assignments(K: int) -> FactorialDesign:
    """The canonical 2^K design, built once per K.

    K must be between 1 and MAX_FACTORS; beyond that the dense enumeration
    is no longer a sensible representation. The design tables are kept on
    the design's memo.
    """
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidDesignError(f"K must be an integer, got {K!r}")
    if not 1 <= K <= MAX_FACTORS:
        raise InvalidDesignError(f"K must be in 1..{MAX_FACTORS}, got {K}")
    design = _DESIGNS.get(K)
    if design is None:
        bits = (np.arange(1 << K, dtype=np.int64)[:, None] >> np.arange(K)) & 1
        levels = np.where(bits == 1, 1, -1).astype(np.int8)
        design = _DESIGNS[K] = FactorialDesign(K=K, levels=levels)
    return design


def validate_factor(design: FactorialDesign, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= design.K:
        raise InvalidFactorError(f"factor {k!r} outside 1..{design.K}")


def main_effect_contrast(design: FactorialDesign, k: int) -> np.ndarray:
    return interaction_contrast(design, (k,))


@_memoized
def interaction_contrast(design: FactorialDesign, factors) -> np.ndarray:
    """The read-only (J,) float64 contrast of a factor set, its main-effect contrasts' product, on the design's memo."""
    fs = tuple(factors)
    if len(fs) == 0:
        raise InvalidFactorError("interaction needs at least one factor")
    for k in fs:  # before the duplicate check, which would hash a list
        validate_factor(design, k)
    if len(set(fs)) != len(fs):
        raise InvalidFactorError(f"duplicate factors in {fs!r}")
    g = np.ones(design.J)
    for k in sorted(fs):
        g *= design.levels[:, k - 1]
    g.setflags(write=False)  # also when a list or an iterator leaves it uncached
    return g


@lru_cache(maxsize=None)
def _level_tuples(n: int) -> tuple[Context, ...]:
    """All -1/+1 tuples of length n; tuple c has +1 in place m when bit m of c is set."""
    return tuple(tuple(1 if (c >> m) & 1 else -1 for m in range(n)) for c in range(1 << n))


def validate_factor_set(design: FactorialDesign, ks: tuple[int, ...]) -> None:
    """ks must be one factor of the design or two distinct ones."""
    if not 1 <= len(ks) <= 2:
        raise InvalidFactorError(f"contexts need one factor or two distinct ones, got {ks!r}")
    for k in ks:
        validate_factor(design, k)
    if len(ks) == 2 and ks[0] == ks[1]:
        raise InvalidFactorError(f"joint contexts need two distinct factors, got {ks[0]} twice")


def contexts_for(design: FactorialDesign, *ks: int) -> list[Context]:
    """All contexts over the factors outside ks (one factor or a pair), in
    canonical order.

    Context index c sets the m-th remaining factor (ascending) to +1 when
    bit m-1 of c is set, mirroring the assignment enumeration.
    """
    validate_factor_set(design, ks)
    return list(_level_tuples(design.K - len(ks)))


def parse_profile(profile, context_len: int) -> tuple[str, Context | None]:
    """'min', 'declared:<comma-separated +-1 levels>' or a sequence of levels
    -> (policy, context). Declared levels are context_len integers, each -1
    or +1; a boolean is no level."""
    if isinstance(profile, str):
        s = profile.strip()
        if s == "min":
            return "min", None
        if not (s.startswith("declared:") or s == "declared"):
            raise InvalidInputError(f"unknown profile policy {profile!r}; expected min or declared:<levels>")
        try:
            levels = [int(t) for t in s[len("declared:"):].split(",") if t.strip()]
        except ValueError:
            raise InvalidInputError(f"bad declared profile {profile!r}") from None
    else:
        try:
            levels = list(profile)
        except TypeError:
            levels = [None]  # refused below
    integers = all(isinstance(v, Integral) and not isinstance(v, bool) for v in levels)
    if not integers or len(levels) != context_len or any(v not in (-1, 1) for v in levels):
        raise InvalidInputError(f"declared profile {profile!r} must list {context_len} levels in -1/+1")
    return "declared", tuple(map(int, levels))


@_memoized
def context_arms(design: FactorialDesign, *ks: int) -> np.ndarray:
    """(2^len(ks), 2^(K-len(ks))) read-only intp arm indices: row r sets
    factor ks[i] to +1 when bit i of r is set, the others of ks to -1, so
    rows z_k = -1, +1 for one factor, (z_k, z_k2) = (-,-), (+,-), (-,+),
    (+,+) for a pair; column c is context index c."""
    validate_factor_set(design, ks)
    base = np.arange(1 << (design.K - len(ks)), dtype=np.intp)
    for pos in sorted(k - 1 for k in ks):  # insert a 0 bit at each position, ascending
        base = ((base >> pos) << (pos + 1)) | (base & ((1 << pos) - 1))
    rows = range(1 << len(ks))
    return np.stack([base | sum(1 << (k - 1) for i, k in enumerate(ks) if r >> i & 1) for r in rows])


def context_contrast(rows: np.ndarray) -> np.ndarray:
    """The contrast over a factor set of a table whose leading axis runs
    over the rows of context_arms: a factor of the set at -1 flips a row's
    sign, and the rows are summed from the all-plus row down, so one factor
    gives plus - minus and a pair pp - mp - pm + mm, in that order."""
    n = len(rows).bit_length() - 1  # factors in the set
    total = rows[-1]
    for r in range(len(rows) - 2, -1, -1):  # row r has factor i of the set at +1 where bit i of r is set
        total = total - rows[r] if (n - r.bit_count()) % 2 else total + rows[r]
    return total
