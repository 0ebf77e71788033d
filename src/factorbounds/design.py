"""Two-level factorial designs and their contrast vectors.

Assignments live on the grid {-1, +1}^K. The canonical enumeration puts
factor 1 on the fastest-varying bit: assignment j (0-based) has factor k
at +1 exactly when bit k-1 of j is set. For K=2 the order is
(-1,-1), (+1,-1), (-1,+1), (+1,+1).

Contrast vectors are length-J sign vectors. The main-effect contrast for
factor k carries the level of factor k in each assignment; an interaction
contrast is the entrywise product of the main-effect contrasts of its
factor set. Any two distinct contrasts are orthogonal, and every contrast
has exactly J/2 entries of each sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidDesignError, InvalidFactorError

MAX_FACTORS = 16

Assignment = tuple[int, ...]
Context = tuple[int, ...]


@dataclass(frozen=True)
class FactorialDesign:
    """Complete enumeration of a 2^K design in canonical order."""

    K: int
    levels: np.ndarray  # (J, K) int8, row j = assignment j

    def __post_init__(self) -> None:
        self.levels.setflags(write=False)

    @property
    def J(self) -> int:
        return 1 << self.K

    def assignment(self, j: int) -> Assignment:
        if not 0 <= j < self.J:
            raise InvalidDesignError(f"assignment index {j} outside 0..{self.J - 1}")
        return tuple(int(v) for v in self.levels[j])

    def assignments(self) -> list[Assignment]:
        return [self.assignment(j) for j in range(self.J)]

    def index(self, z: Assignment) -> int:
        """Canonical index of an assignment tuple."""
        if len(z) != self.K:
            raise InvalidDesignError(f"assignment {z!r} has length {len(z)}, design has K={self.K}")
        j = 0
        for k, level in enumerate(z):
            if level == 1:
                j |= 1 << k
            elif level != -1:
                raise InvalidDesignError(f"assignment levels must be -1 or +1, got {z!r}")
        return j


@dataclass(frozen=True)
class ContrastVector:
    """Signs over the J arms for one factorial effect."""

    factors: tuple[int, ...]
    signs: np.ndarray  # (J,) int8

    def __post_init__(self) -> None:
        self.signs.setflags(write=False)
        total = int(self.signs.size)
        plus = int(np.sum(self.signs == 1))
        minus = int(np.sum(self.signs == -1))
        if plus != minus or plus + minus != total:
            raise InvalidDesignError(
                f"contrast for factors {self.factors} is unbalanced: {plus} plus, {minus} minus of {total}"
            )


def enumerate_assignments(K: int) -> FactorialDesign:
    """The canonical 2^K design, built once per K.

    K must be between 1 and MAX_FACTORS; beyond that the dense enumeration
    is no longer a sensible representation. K, like every factor number,
    is checked before a cache is reached: lru_cache takes True == 1 == 1.0.
    """
    if not isinstance(K, int) or isinstance(K, bool):
        raise InvalidDesignError(f"K must be an integer, got {K!r}")
    if not 1 <= K <= MAX_FACTORS:
        raise InvalidDesignError(f"K must be in 1..{MAX_FACTORS}, got {K}")
    return _design(K)


@lru_cache(maxsize=None)
def _design(K: int) -> FactorialDesign:
    bits = (np.arange(1 << K, dtype=np.int64)[:, None] >> np.arange(K)) & 1
    levels = np.where(bits == 1, 1, -1).astype(np.int8)
    return FactorialDesign(K=K, levels=levels)


def validate_factor(design: FactorialDesign, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= design.K:
        raise InvalidFactorError(f"factor {k!r} outside 1..{design.K}")


def main_effect_contrast(design: FactorialDesign, k: int) -> ContrastVector:
    validate_factor(design, k)
    return _main_effect_contrast(design.K, k)


@lru_cache(maxsize=None)
def _main_effect_contrast(K: int, k: int) -> ContrastVector:
    return ContrastVector(factors=(k,), signs=_design(K).levels[:, k - 1].copy())


def interaction_contrast(design: FactorialDesign, factors) -> ContrastVector:
    """Entrywise product of main-effect contrasts over a factor set."""
    fs = tuple(factors)
    if len(fs) == 0:
        raise InvalidFactorError("interaction needs at least one factor")
    if len(set(fs)) != len(fs):
        raise InvalidFactorError(f"duplicate factors in {fs!r}")
    for k in fs:
        validate_factor(design, k)
    fs = tuple(sorted(fs))
    signs = np.ones(design.J, dtype=np.int8)
    for k in fs:
        signs = (signs * design.levels[:, k - 1]).astype(np.int8)
    return ContrastVector(factors=fs, signs=signs)


@lru_cache(maxsize=None)
def _level_tuples(n: int) -> tuple[Context, ...]:
    """All -1/+1 tuples of length n; tuple c has +1 in place m when bit m of c is set."""
    return tuple(tuple(1 if (c >> m) & 1 else -1 for m in range(n)) for c in range(1 << n))


def _tuple_index(context: Context, length: int, what: str) -> int:
    """Inverse of _level_tuples for one tuple of the given length."""
    if len(context) != length:
        raise InvalidFactorError(f"{what} {context!r} has length {len(context)}, expected {length}")
    c = 0
    for m, level in enumerate(context):
        if level == 1:
            c |= 1 << m
        elif level != -1:
            raise InvalidDesignError(f"context levels must be -1 or +1, got {context!r}")
    return c


def contexts_for(design: FactorialDesign, k: int) -> list[Context]:
    """All contexts over the factors other than k, in canonical order.

    Context index c sets the m-th remaining factor (ascending) to +1 when
    bit m-1 of c is set, mirroring the assignment enumeration.
    """
    validate_factor(design, k)
    return list(_level_tuples(design.K - 1))


def context_arms(design: FactorialDesign, k: int) -> np.ndarray:
    """(2, 2^(K-1)) intp arm indices: row 0 has z_k=-1, row 1 z_k=+1, and
    column c is context index c."""
    validate_factor(design, k)
    return _context_arm_table(design.K, (k,))


@lru_cache(maxsize=None)
def _context_arm_table(K: int, ks: tuple[int, ...]) -> np.ndarray:
    """Read-only arm indices: row r sets factor ks[i] to +1 when bit i of r
    is set, the others of ks to -1; column c is context index c."""
    base = np.arange(1 << (K - len(ks)), dtype=np.intp)
    for pos in sorted(k - 1 for k in ks):  # insert a 0 bit at each position, ascending
        base = ((base >> pos) << (pos + 1)) | (base & ((1 << pos) - 1))
    rows = range(1 << len(ks))
    arms = np.stack([base | sum(1 << (k - 1) for i, k in enumerate(ks) if r >> i & 1) for r in rows])
    arms.setflags(write=False)
    return arms


def context_index(design: FactorialDesign, k: int, context: Context) -> int:
    """Canonical index of a context tuple over the factors other than k."""
    validate_factor(design, k)
    return _tuple_index(context, design.K - 1, "context")


def _validate_pair(design: FactorialDesign, k: int, k2: int) -> None:
    validate_factor(design, k)
    validate_factor(design, k2)
    if k == k2:
        raise InvalidFactorError(f"joint contexts need two distinct factors, got {k} twice")


def joint_contexts_for(design: FactorialDesign, k: int, k2: int) -> list[Context]:
    """Contexts over the factors other than k and k2, canonical order."""
    _validate_pair(design, k, k2)
    return list(_level_tuples(design.K - 2))


def joint_context_arms(design: FactorialDesign, k: int, k2: int) -> np.ndarray:
    """(4, 2^(K-2)) intp arm indices with rows (z_k, z_k2) = (-,-), (+,-),
    (-,+), (+,+); column c is joint context index c."""
    _validate_pair(design, k, k2)
    return _context_arm_table(design.K, (k, k2))


def joint_context_index(design: FactorialDesign, k: int, k2: int, context: Context) -> int:
    if design.K < 2:
        raise InvalidDesignError("joint contexts need K >= 2")
    return _tuple_index(context, design.K - 2, "joint context")
