"""Population generation, randomization, and Monte Carlo coverage studies.

Compliance generation is worst-context-first: each unit draws its type at a
declared least compliant pattern of the factors its compliance may depend
on, and noncompliers there can only upgrade to compliers elsewhere. That
construction gives monotonicity (no defiers drawn) and a uniform least
compliant profile for free; weak exclusion for factor k holds whenever no
other factor lists k in depends_on. Assumption violations are deterministic
surgeries on the uptake bits, and every generated population is re-verified
against the config's require/violate tokens before it is returned, with a
bounded retry for the stochastic requirements (e.g. a positive share of
constant compliers at small N).

All randomness flows from the config seed through named substreams
([seed, purpose, replication, attempt]) so reports are bit-reproducible
and replications are independent.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import sys
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from . import _workers
from . import design as dsg
from . import estimate as est
from . import oracle
from . import population as popmod
from ._workers import _split
from .data import ObservedDataset
from .design import FactorialDesign, _memoized, enumerate_assignments
from .errors import (
    FactorBoundsError,
    GenerationError,
    InvalidDesignError,
    InvalidInputError,
)
from .population import (
    COMPLIER,
    DEFIER,
    NEVER_TAKER,
    Population,
)

_REQUIRE_TOKENS = tuple(popmod.ASSUMPTIONS)
_VIOLATE_TOKENS = ("monotone", "profile", "exclusion", "cross_exclusion", "joint_profile")


# --- scenario records -----------------------------------------------------------


def _whole(value) -> bool:
    """An integer or an integral float: booleans, strings and fractions are not."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    return whole and not isinstance(value, bool)


def _integer(value, path: str) -> int:
    """Booleans, strings and fractions are refused, not truncated."""
    if not _whole(value):
        raise InvalidInputError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _number(value, path: str) -> float:
    """Booleans, strings and non-finite values are refused."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # an exact test: no float() overflow
        raise InvalidInputError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"{path} must be a string, got {value!r}")
    return value


def _list(item):
    """A JSON list, stored as a tuple; entry i is converted by item at path[i]."""

    def convert(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidInputError(f"{path} must be a list, got {value!r}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return convert


def _optional(convert):
    return lambda value, path: None if value is None else convert(value, path)


def _record(cls):
    return lambda value, path: value if isinstance(value, cls) else cls.from_dict(value, path)


def _within(convert, ok, bound: str):
    """convert, then refuse a converted value v unless ok(v); bound says which values pass."""

    def checked(value, path: str):
        v = convert(value, path)
        if not ok(v):
            raise InvalidInputError(f"{path} must be {bound}, got {v!r}")
        return v

    return checked


_probability = _within(_number, lambda p: 0.0 <= p <= 1.0, "in [0, 1]")
_level = _within(_integer, lambda v: v in (-1, 1), "-1 or +1")
_seed = _within(_integer, lambda n: n >= 0, ">= 0")
_range = _within(
    _list(_number), lambda r: len(r) == 2 and r[0] <= r[1], "a [lo, hi] range with hi >= lo"
)


def _field(convert, default=MISSING):
    """A record field whose JSON value convert checks; default is its JSON default."""
    return field(default=default, metadata={"convert": convert})


class _Record:
    """A scenario record: a frozen dataclass whose fields each carry a converter
    (declared with _field) and whose defaults are the JSON defaults.

    A converter takes (value, path), returns the value in its stored form,
    and names the path (factors[0].complier, outcome.beta[1][0]) when it
    refuses the value. from_dict and __post_init__ run the same converters, so
    a file and a record built in Python are checked alike; subclasses add only
    cross-field checks.
    """

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, f.metadata["convert"](getattr(self, f.name), f.name))

    to_dict = est.record_to_dict

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """Build the record from parsed JSON found at path ("" for a whole file)."""
        if not isinstance(d, dict):
            raise InvalidInputError(f"{path or 'scenario'} must be a JSON object, got {d!r}")
        declared = fields(cls)
        unknown = sorted(set(d) - {f.name for f in declared})
        if unknown:
            raise InvalidInputError(f"{path or 'scenario'} has unknown keys {unknown!r}")
        values = {}
        for f in declared:
            where = f"{path}.{f.name}" if path else f.name
            if f.name in d:
                values[f.name] = f.metadata["convert"](d[f.name], where)
            elif f.default is MISSING:
                raise InvalidInputError(f"{where} is required")
        try:
            return cls(**values)
        except InvalidInputError as e:  # a cross-field check: say which record failed it
            if not path:
                raise
            raise type(e)(f"{path}: {e}") from None


@dataclass(frozen=True)
class FactorSpec(_Record):
    """Compliance distribution for one factor.

    complier/always/never probabilities apply at the worst pattern of the
    depends_on factors (never = 1 - complier - always; always = 0 gives
    one-sided noncompliance). At every other pattern, a worst-pattern
    noncomplier independently upgrades to complier with probability
    ``upgrade``; worst-pattern compliers comply everywhere.
    """

    complier: float = _field(_probability)
    always: float = _field(_probability, 0.0)
    upgrade: float = _field(_probability, 0.0)
    depends_on: tuple[int, ...] = _field(_list(_integer), ())
    worst: tuple[int, ...] | None = _field(_optional(_list(_level)), None)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.complier + self.always > 1.0 + 1e-12:
            raise InvalidInputError("complier + always-taker probability exceeds 1")
        dep = self.depends_on
        if len(set(dep)) != len(dep) or dep != tuple(sorted(dep)):
            raise InvalidInputError("depends_on must be sorted and duplicate-free")
        if self.worst is not None and len(self.worst) != len(dep):
            raise InvalidInputError("worst pattern must give one -1/+1 level per depends_on factor")

    def worst_pattern(self) -> tuple[int, ...]:
        return self.worst if self.worst is not None else tuple(-1 for _ in self.depends_on)


@dataclass(frozen=True)
class OutcomeSpec(_Record):
    """Outcome model. m1: per-unit clamped linear index in the 0/1 uptake
    indicators (plus optional pairwise products); m2 thresholds the m1 value
    against a per-unit uniform cut for binary outcomes."""

    model: str = _field(_within(_string, lambda m: m in ("m1", "m2"), "m1 or m2"), "m1")
    alpha: tuple[float, float] = _field(_range, (0.2, 0.4))
    beta: tuple[tuple[float, float], ...] = _field(_list(_range), ())
    eta: tuple[float, float] = _field(_range, (0.0, 0.0))


@dataclass(frozen=True)
class TargetSpec(_Record):
    """One (factor, method, profile policy) combination to track in a study;
    ScenarioConfig and monte_carlo check it with estimate.parse_target."""

    factor: int = _field(_integer)
    method: str = _field(_string, "exclusion")
    profile: str = _field(_string, "min")
    alpha: float = _field(lambda value, path: est.check_alpha(_number(value, path), path), 0.05)

    @property
    def label(self) -> str:
        return f"factor{self.factor}:{self.method}[{self.profile}]"


def _parse_token(token: str, K: int, allowed: tuple[str, ...]) -> tuple[str, tuple[int, ...]]:
    name, _, args = token.partition(":")
    if name not in allowed:
        raise InvalidInputError(f"unknown assumption token {token!r}; allowed {allowed!r}")
    try:
        ks = tuple(int(v) for v in args.split(",")) if args else ()
    except ValueError:
        raise InvalidInputError(f"bad factor list in token {token!r}") from None
    want = popmod.ASSUMPTIONS[name].factors
    if len(ks) != want or any(not 1 <= k <= K for k in ks) or len(set(ks)) != len(ks):
        raise InvalidInputError(f"token {token!r} needs {want} distinct factor(s) in 1..{K}")
    return name, ks


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(_Record):
    K: int = _field(_integer)
    N: int = _field(_within(_integer, lambda n: n >= 1, ">= 1"))
    factors: tuple[FactorSpec, ...] = _field(_list(_record(FactorSpec)))
    outcome: OutcomeSpec = _field(_record(OutcomeSpec), OutcomeSpec())
    seed: int = _field(_seed)
    arm_sizes: tuple[int, ...] | None = _field(_optional(_list(_integer)), None)
    require: tuple[str, ...] = _field(_list(_string), ())
    violate: tuple[str, ...] = _field(_list(_string), ())
    population_mode: str = _field(
        _within(_string, lambda m: m in ("fresh", "fixed", "clone"), "fresh, fixed or clone"), "fresh"
    )
    clone_factor: int = _field(_within(_integer, lambda n: n >= 1, ">= 1"), 1)
    targets: tuple[TargetSpec, ...] = _field(_list(_record(TargetSpec)), ())

    def __post_init__(self) -> None:
        super().__post_init__()
        design = enumerate_assignments(self.K)  # validates K
        if self.clone_factor != 1 and self.population_mode != "clone":  # else it would be echoed, never drawn
            raise InvalidInputError(
                f"clone_factor must be 1 outside clone mode, got {self.clone_factor} in {self.population_mode} mode"
            )
        popmod.require_memory(self.N, self.K, self.N * self.clone_factor if self.population_mode == "clone" else 0)
        if len(self.factors) != self.K:
            raise InvalidInputError(f"{len(self.factors)} factor specs for K={self.K}")
        for k, spec in enumerate(self.factors, start=1):
            for f in spec.depends_on:
                if not 1 <= f <= self.K or f == k:
                    raise InvalidInputError(
                        f"factor {k}: depends_on entry {f} must name a different factor in 1..{self.K}"
                    )
        if self.outcome.beta and len(self.outcome.beta) != self.K:
            raise InvalidInputError("outcome beta needs one range per factor")
        if self.arm_sizes is not None:
            if len(self.arm_sizes) != design.J:
                raise InvalidDesignError(f"{len(self.arm_sizes)} arm sizes for J={design.J}")
            _check_arm_sizes(self.arm_sizes, self.N)
        self.toggles  # parsed now, so a bad token is refused with the config
        for t in self.targets:
            est.parse_target(design, t.factor, t.method, t.profile)

    @cached_property
    def toggles(self) -> tuple[tuple[str, bool, str, tuple[int, ...]], ...]:
        """(token, want, name, factors) of each require token (want True: its check
        must pass) and then each violate token (want False), parsed once."""
        wants = [(t, True, _REQUIRE_TOKENS) for t in self.require] + [(t, False, _VIOLATE_TOKENS) for t in self.violate]
        return tuple((token, want, *_parse_token(token, self.K, allowed)) for token, want, allowed in wants)

    def resolved_arm_sizes(self) -> tuple[int, ...]:
        J = 1 << self.K
        if self.arm_sizes is not None:
            return self.arm_sizes
        base, rem = divmod(self.N, J)
        sizes = tuple(base + 1 if j < rem else base for j in range(J))
        if min(sizes) < 2:
            raise InvalidDesignError(f"N={self.N} cannot give every one of {J} arms 2 units")
        return sizes


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as e:  # not JSON, not UTF-8, or an integer past the int-string digit limit
            raise InvalidInputError(f"{path}: invalid JSON ({e})") from None
    return ScenarioConfig.from_dict(d)


def config_hash(config: ScenarioConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# --- population generation -----------------------------------------------------


@_memoized
def _pattern_columns(design: FactorialDesign, k: int, dep: tuple[int, ...]) -> tuple:
    """Factor-k context indices grouped by the levels of the dep factors, kept
    on the design's memo once per factor and dep: (pattern, column indices)
    pairs in lexicographic pattern order."""
    levels = design.levels[dsg.context_arms(design, k)[0]][:, [f - 1 for f in dep]]  # (C, len(dep))
    patterns, group = np.unique(levels, axis=0, return_inverse=True)
    columns = popmod.frozen(*(np.flatnonzero(group.ravel() == i) for i in range(len(patterns))))
    return tuple(zip(map(tuple, patterns.tolist()), columns))


def _draws(rngs: list[np.random.Generator], draw) -> np.ndarray:
    """draw(rng) from each replication's generator, stacked replication by replication."""
    return np.concatenate([draw(rng) for rng in rngs])


def _draw_pattern(config: ScenarioConfig, design: FactorialDesign, rngs: list) -> np.ndarray:
    """The read-only (R*N, J) uptake pattern of R replications, laid out as
    pack_uptake's, each drawn from its own generator factor by factor. Arm j
    has the bits (hi, z_k, lo) and factor k's context the bits (hi, lo), so
    a unit's type, the code 2*D_k(-) + D_k(+), sets bit k-1 of its arms at
    z_k = -1 to D_k(-) and at z_k = +1 to D_k(+). A draw u < complier is a
    complier, u < complier + always an always-taker, any other a never-taker;
    at each non-worst pattern of its depends_on factors a noncomplier may
    upgrade to complier. The violate tokens' surgeries then run."""
    N, K = config.N, config.K
    pattern = np.zeros((design.J, len(rngs) * N), dtype=popmod.pattern_dtype(K))  # arm-major
    for k in range(1, K + 1):
        spec, lo = config.factors[k - 1], 1 << (k - 1)
        u = _draws(rngs, lambda rng: rng.random(N))
        plus = u < spec.complier + spec.always
        minus = plus & (u >= spec.complier)
        arms = pattern.reshape(-1, 2, lo, pattern.shape[1])  # a view: (hi, z_k, lo, unit)
        arms[:, 0] |= np.left_shift(minus, k - 1, dtype=pattern.dtype)
        arms[:, 1] |= np.left_shift(plus, k - 1, dtype=pattern.dtype)
        if spec.depends_on:
            worst, noncomplier = spec.worst_pattern(), minus | ~plus
            j_minus, j_plus = dsg.context_arms(design, k)
            for pat, cols in _pattern_columns(design, k, spec.depends_on):
                if pat == worst:
                    continue
                up = (_draws(rngs, lambda rng: rng.random(N)) < spec.upgrade) & noncomplier
                if up.any():
                    bits = np.left_shift(up, k - 1, dtype=pattern.dtype)
                    pattern[j_minus[cols]] &= ~bits
                    pattern[j_plus[cols]] |= bits
    _apply_violations(config, design, pattern)
    pattern.setflags(write=False)
    return pattern.T


def _apply_violations(config: ScenarioConfig, design: FactorialDesign, pattern: np.ndarray) -> None:
    """The violate tokens' surgeries on units 0 and 1 of every replication
    in the (J, R*N) arm-major pattern, in place: each writes type codes."""
    K, N = config.K, config.N
    C = design.J // 2
    units = pattern.reshape(design.J, -1, N)  # a view: (arm, replication, unit)

    def put(k: int, unit: int, codes, contexts=slice(None)) -> None:  # factor k's type codes, one per context
        codes, keep = np.asarray(codes, dtype=pattern.dtype).reshape(-1, 1), ~pattern.dtype.type(1 << (k - 1))
        for arms, on in zip(dsg.context_arms(design, k), (codes >> 1, codes & 1)):  # D_k(-), then D_k(+)
            arms = arms[contexts]
            units[arms, :, unit] = units[arms, :, unit] & keep | on << (k - 1)

    def gated(kk: int, by: int, want: int) -> np.ndarray:  # per factor-kk context: complier where z_by == want
        return np.where(design.levels[dsg.context_arms(design, kk)[0], by - 1] == want, COMPLIER, NEVER_TAKER)

    for token, want, name, ks in config.toggles:
        if want:  # a require token
            continue
        if name == "monotone":
            put(ks[0], 0, DEFIER, [0])
        elif name == "profile":
            (k,) = ks
            if C < 2 or N < 2:
                raise GenerationError(f"{token}: needs K >= 2 and N >= 2 (no second context or unit)")
            put(k, 0, [COMPLIER] + [NEVER_TAKER] * (C - 1))
            put(k, 1, [NEVER_TAKER] + [COMPLIER] * (C - 1))
        elif name == "exclusion":
            (k,) = ks
            if K < 2:
                raise GenerationError(f"{token}: needs a second factor")
            k2 = 1 if k != 1 else 2
            put(k, 0, [NEVER_TAKER] * C)
            put(k2, 0, gated(k2, k, 1))
        elif name == "cross_exclusion":
            k, k2 = ks
            put(k, 0, gated(k, k2, 1))
        elif name == "joint_profile":
            k, k2 = ks
            if K < 3:
                raise GenerationError(f"{token}: needs a third factor to vary the joint profile")
            if N < 2:
                raise GenerationError(f"{token}: needs at least 2 units")
            k3 = min(f for f in range(1, K + 1) if f not in (k, k2))
            for unit, want in ((0, -1), (1, 1)):
                for kk in (k, k2):
                    put(kk, unit, gated(kk, k3, want))


def _subset_sums(terms, out: np.ndarray) -> np.ndarray:
    """Fill and return out, whose row p is the sum of terms[h] over the set
    bits h of p, added lowest bit first from 0.0: row 2^h + q is row q plus
    terms[h], a row or a (2^h, n) table, for q < 2^h."""
    out[0] = 0.0
    for h, term in enumerate(terms):
        np.add(out[: 1 << h], term, out=out[1 << h : 2 << h])
    return out


def _draw_outcomes(config: ScenarioConfig, design: FactorialDesign, pattern: np.ndarray, rngs: list) -> np.ndarray:
    """(R*N, J) arm-major outcomes of the R replications stacked in the packed
    uptake pattern, each drawn from its own generator. An outcome depends on the arm
    only through the pattern p, so blocks of up to 2^15 (pattern, unit) cells
    tabulate each unit's outcome over the J patterns and gather it through
    the pattern. Cell p sums, each sum from 0.0 in increasing factor order:
    ((beta_k over the bits k of p) + alpha) + (over the bits h of p, eta(a, h)
    over the bits a < h of p), then clips to [0, 1]."""
    spec = config.outcome
    n, K, J = config.N, config.K, design.J
    N = pattern.shape[0]
    alpha = _draws(rngs, lambda rng: rng.uniform(spec.alpha[0], spec.alpha[1], n))
    beta_ranges = spec.beta if spec.beta else tuple((0.2, 0.4) for _ in range(K))
    beta = np.stack([_draws(rngs, lambda rng: rng.uniform(lo, hi, n)) for lo, hi in beta_ranges])  # (K, N)
    if K > 1:  # eta(a, h), drawn pair by pair, held grouped by the higher factor h: row h(h-1)/2 + a
        drawn = {pair: _draws(rngs, lambda rng: rng.uniform(*spec.eta, n)) for pair in combinations(range(K), 2)}
        eta = np.stack([drawn[a, h] for h in range(K) for a in range(h)])
    lin = np.empty((N, J), order="F")  # arm-major, as the population stores it: written through lin.T
    rows = max(1, min(1 << 15, N * J // 4) // J)  # a block's tables, index and gather stay under lin's size
    for start in range(0, N, rows):
        units = slice(start, start + rows)
        n_units = min(rows, N - start)  # table[p, i] sits at p * n_units + i
        table = _subset_sums(beta[:, units], np.empty((J, n_units)))
        table += alpha[units]
        if K > 1:  # the pair table, from each h's table of eta(a, h) over its lower bits a
            groups = (eta[h * (h - 1) // 2 : h * (h + 1) // 2, units] for h in range(K))
            lower = [_subset_sums(terms, np.empty((1 << h, n_units))) for h, terms in enumerate(groups)]
            table += _subset_sums(lower, np.empty((J, n_units)))
        lin.T[:, units] = table.ravel().take(pattern.T[:, units].astype(np.intp) * n_units + np.arange(n_units))
    y = np.clip(lin, 0.0, 1.0, out=lin)
    if spec.model == "m2":
        tau = _draws(rngs, lambda rng: rng.uniform(0.0, 1.0, n))
        y = (y >= tau[:, None]).astype(np.float64, order="F")
    return y


_RETRY_CAP = 100
# observed (unit, arm) cells per chunk of replications, the base population's
# in clone mode: a float64 array over them is 512 KiB
_CHUNK_CELLS = 1 << 16


def _generate(config: ScenarioConfig, reps) -> Population:
    """The populations of replications reps, stacked as one population of
    len(reps) equal unit blocks. Replication rep draws attempt a from its
    own substream [seed, 0, rep, attempt]; population.require answers the
    require/violate tokens on each attempt's chunk, its memo keeping them
    for the oracle, and only the replications that missed draw again, up to
    100 attempts. A chunk that needed a retry is stacked anew from its blocks."""
    design = enumerate_assignments(config.K)
    found, todo, n = {}, list(reps), config.N
    for attempt in range(_RETRY_CAP):
        rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, 0, rep, attempt])) for rep in todo]
        pattern = _draw_pattern(config, design, rngs)
        (outcome,) = popmod.frozen(_draw_outcomes(config, design, pattern, rngs))
        stack = Population.from_pattern(design, pattern, outcome)
        misses = [[] for _ in todo]
        for token, want, name, ks in config.toggles:  # a violate token wants its check refused
            for answer, missed in zip(popmod.require(stack, name, *ks, R=len(todo)), misses):
                if isinstance(answer, FactorBoundsError) == want:
                    missed.append(f"require {token}" if want else f"violate {token} (check still passes)")
        if attempt == 0 and not any(misses):
            return stack
        blocks = ((stack.pattern[i : i + n], stack.outcome[i : i + n]) for i in range(0, stack.N, n))
        found.update((rep, block) for rep, block, missed in zip(todo, blocks, misses) if not missed)
        todo, last_miss = [rep for rep, missed in zip(todo, misses) if missed], [m for m in misses if m]
        if not todo:
            pattern, outcome = (np.concatenate(arrays) for arrays in zip(*(found[rep] for rep in reps)))
            return Population.from_pattern(design, pattern, outcome)
    raise GenerationError(
        f"no draw satisfied the toggles after {_RETRY_CAP} attempts; last miss: {'; '.join(last_miss[0])}"
    )


def generate_population(config: ScenarioConfig, rep: int = 0) -> Population:
    """Draw a population honoring the config's require/violate toggles,
    deterministic given (config.seed, rep): the one-replication call of the
    generation monte_carlo runs in chunks. Toggles that can never hold fail loudly."""
    return _generate(config, [rep])


def _check_arm_sizes(sizes: tuple[int, ...], N: int) -> None:
    """Arm sizes must sum to N and give every arm at least 2 units."""
    if sum(sizes) != N:
        raise InvalidDesignError(f"arm sizes sum to {sum(sizes)}, not N={N}")
    if min(sizes) < 2:
        raise InvalidDesignError("every arm needs at least 2 units")


def _allocations(N: int, arm_sizes, seeds):
    """complete_randomization's partition for each of seeds, in order, drawn
    as the caller iterates: the sizes are checked, and the arm runs built,
    once, before any draw; each seed draws its own generator and permutation."""
    sizes = tuple(arm_sizes)
    if not sizes or not all(map(_whole, sizes)):  # refused, not truncated, as _integer refuses
        raise InvalidDesignError(f"arm sizes must be a nonempty list of integers, got {arm_sizes!r}")
    sizes = tuple(map(int, sizes))
    _check_arm_sizes(sizes, N)
    runs = np.repeat(np.arange(len(sizes)), sizes)

    def draw(seed) -> np.ndarray:
        arm = np.empty(N, dtype=np.intp)
        arm[np.random.default_rng(seed).permutation(N)] = runs  # the units at positions of arm j's run get j
        return arm

    return map(draw, seeds)


def complete_randomization(N: int, arm_sizes, seed) -> np.ndarray:
    """Uniformly random partition of N units into arms with fixed sizes.

    Returns the arm index per unit. seed may be an int >= 0, SeedSequence, or
    Generator (a Generator is drawn from as it is).
    """
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        seed = _seed(seed, "seed")
    (arm,) = _allocations(N, arm_sizes, [seed])
    return arm


def observe(pop: Population, allocation) -> ObservedDataset:
    """Read off each unit's realized row under its assigned arm. An (R, N)
    allocation holds R allocations of the same units and gives R*N rows,
    allocation by allocation."""
    alloc = np.asarray(allocation)
    if alloc.ndim not in (1, 2) or alloc.shape[-1] != pop.N:
        raise InvalidInputError(f"allocation shape {alloc.shape} does not cover N={pop.N} units")
    # checked before the cast and the gather, as ObservedDataset checks its arms: 1.7 is no arm 1, J no row
    if alloc.dtype.kind not in "iu" or alloc.min(initial=0) < 0 or alloc.max(initial=0) >= pop.design.J:
        raise InvalidInputError(f"allocation entries must be arm indices in 0..{pop.design.J - 1}")
    alloc = alloc.astype(np.intp, copy=False)
    cells = (alloc * pop.N + np.arange(pop.N)).reshape(-1)  # arm-major: unit i's cell in arm a is a*N + i
    taken = pop.pattern.T.reshape(-1)[cells]  # each observed unit's pattern under its arm
    uptake, outcome = popmod.frozen(pop.design.levels.take(taken, axis=0), pop.outcome.T.reshape(-1)[cells])
    return ObservedDataset(design=pop.design, arm=alloc.reshape(-1), uptake=uptake, outcome=outcome)


def _observe_clones(pop: Population, allocations) -> ObservedDataset:
    """observe of c clones of pop's N units under each allocation of their
    c*N units that allocations yields, unit i a copy of unit i % N as
    tests/conftest.clone tiles them: every base unit in every arm, rep by rep,
    weighted by its copies the allocation puts there. Each allocation is
    counted as it comes and dropped, so a generator of them keeps one alive."""
    (N, J), counts, base_of = pop.pattern.shape, [], None
    for alloc in allocations:
        if base_of is None:  # unit i's base unit, built once
            base_of = np.arange(alloc.size) % N
        counts.append(np.bincount(alloc * N + base_of, minlength=J * N))  # arm*N + base
        del alloc  # before the next draw
    rows = observe(pop, np.tile(np.arange(J).repeat(N), len(counts)).reshape(-1, N))
    return replace(rows, weight=np.concatenate(counts))


def census_dataset(pop: Population) -> ObservedDataset:
    """Every unit observed in every arm, arm by arm: the observation of the
    J allocations that put all units in arm j. Sample moments equal
    population moments exactly."""
    J, N = pop.design.J, pop.N
    (alloc,) = popmod.frozen(np.repeat(np.arange(J, dtype=np.intp), N).reshape(J, N))
    return observe(pop, alloc)


# --- Monte Carlo ----------------------------------------------------------------


@dataclass(frozen=True)
class TargetReport:
    label: str
    target: TargetSpec
    n_reps: int
    n_ok: int
    n_oracle: int
    failures: dict
    truth_mean: float | None
    coverage_bounds: float | None
    coverage_bounds_mcse: float | None
    coverage_ci: float | None
    coverage_ci_mcse: float | None
    mean_width: float | None
    mean_raw_width: float | None
    mean_lower: float | None
    mean_upper: float | None
    bias_lower: float | None
    bias_upper: float | None
    sd_lower: float | None
    sd_upper: float | None
    mean_se_lower: float | None
    mean_se_upper: float | None
    endpoint_err_mean: float | None
    endpoint_err_p95: float | None

    to_dict = est.record_to_dict


@dataclass(frozen=True)
class CoverageReport:
    config: ScenarioConfig
    replications: int
    targets: tuple[TargetReport, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "factorbounds-coverage-v1",
            "config_hash": config_hash(self.config),
            **est.record_to_dict(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _prop_mcse(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n)) if n > 0 else float("nan")


def _mean_or_none(xs: np.ndarray) -> float | None:
    return float(np.mean(xs)) if xs.size else None


def _target_report(t: TargetSpec, R: int, rows: list) -> TargetReport:
    """One target's report from its replications' tallies, each an error
    name or the row of floats _run_chunk records."""
    ok = [row for row in rows if not isinstance(row, str)]
    n_ok = len(ok)
    truth, lo_c, hi_c, lo, hi, se_lo, se_hi, ci_lo, ci_hi, ref_lo, ref_hi = np.array(ok).reshape(n_ok, 11).T.copy()
    has_ref = ~np.isnan(ref_lo)
    d_lo, d_hi = (lo - ref_lo)[has_ref], (hi - ref_hi)[has_ref]
    err = np.maximum(np.abs(d_lo), np.abs(d_hi))
    cov_b = int(np.sum((lo_c <= truth) & (truth <= hi_c))) / n_ok if n_ok else None
    cov_ci = int(np.sum((ci_lo <= truth) & (truth <= ci_hi))) / n_ok if n_ok else None
    return TargetReport(
        label=t.label,
        target=t,
        n_reps=R,
        n_ok=n_ok,
        n_oracle=int(np.sum(has_ref)),
        failures=dict(Counter(row for row in rows if isinstance(row, str))),
        truth_mean=_mean_or_none(truth),
        coverage_bounds=cov_b,
        coverage_bounds_mcse=_prop_mcse(cov_b, n_ok) if n_ok else None,
        coverage_ci=cov_ci,
        coverage_ci_mcse=_prop_mcse(cov_ci, n_ok) if n_ok else None,
        mean_width=_mean_or_none(hi_c - lo_c),
        mean_raw_width=_mean_or_none(hi - lo),
        mean_lower=_mean_or_none(lo),
        mean_upper=_mean_or_none(hi),
        bias_lower=_mean_or_none(d_lo),
        bias_upper=_mean_or_none(d_hi),
        sd_lower=float(np.std(lo, ddof=1)) if n_ok >= 2 else None,
        sd_upper=float(np.std(hi, ddof=1)) if n_ok >= 2 else None,
        mean_se_lower=_mean_or_none(se_lo),
        mean_se_upper=_mean_or_none(se_hi),
        endpoint_err_mean=_mean_or_none(err),
        endpoint_err_p95=float(np.percentile(err, 95)) if err.size else None,
    )


def _run_chunk(config: ScenarioConfig, reps: range, base: Population | None, sizes, tlist: tuple, acc: list) -> None:
    """Replications reps of monte_carlo: one generation, observation,
    estimation and oracle pass for the chunk (the oracle's on the base
    population in fixed and clone modes, where its memo makes it once per
    monte_carlo), then per replication, in order, the CI; target i's
    tallies go onto acc[i]. Arm sizes summing past the base
    population's N allocate its clones, each allocation counted as drawn."""
    R, units = len(reps), sum(sizes)
    pop, blocks, spread = (_generate(config, reps), R, 1) if base is None else (base, 1, R)
    draws = _allocations(units, sizes, (np.random.SeedSequence([config.seed, 1, rep]) for rep in reps))
    if units == pop.N // blocks:
        (alloc,) = popmod.frozen(np.stack(list(draws)))
        data = observe(pop, alloc.reshape(-1, pop.N))
    else:
        data = _observe_clones(pop, draws)
    for t, tallies in zip(tlist, acc):
        estimates = est.estimate_bounds(data, t.factor, t.method, profile=t.profile, R=R)
        truths = oracle.method_truth(pop, t.factor, t.method, R=blocks) * spread
        refs = oracle.method_interval(pop, t.factor, t.method, t.profile, R=blocks) * spread
        for truth, e, ref in zip(truths, estimates, refs):
            error = next((v for v in (truth, e) if isinstance(v, FactorBoundsError)), None)
            try:  # the first error of truth, estimate and CI is the replication's tally
                ci = None if error else est.imbens_manski_ci(e, alpha=t.alpha)
            except FactorBoundsError as ci_error:
                error = ci_error
            if error:
                tallies.append(type(error).__name__)
                continue
            # the oracle reference exists only where the method's assumptions hold; NaN where skipped
            ref_ends = (np.nan, np.nan) if isinstance(ref, FactorBoundsError) else (ref[0].raw_lower, ref[0].raw_upper)
            ends = (e.clipped_lower, e.clipped_upper, e.raw_lower, e.raw_upper, e.se_lower, e.se_upper)
            tallies.append((truth, *ends, ci.lower, ci.upper, *ref_ends))


def monte_carlo(config: ScenarioConfig, R: int) -> CoverageReport:
    """Replicate generate/randomize/observe/estimate and tally coverage.

    population_mode 'fresh' regenerates the population each replication
    (the superpopulation sampling model the SEs assume); 'fixed' draws one
    population and varies only the allocation; 'clone' additionally stacks
    clone_factor copies of it, observed as the base units with their copies
    per arm, and the oracle reads the base population, whose means they share.

    Ranges of replications run in forked workers (see _workers) and merge in
    replication order; a range whose worker failed runs here, as serially.
    """
    R = _within(_integer, lambda n: n >= 1, ">= 1")(R, "R")
    tlist = config.targets
    if not tlist:
        raise InvalidInputError("no targets: set them in the scenario")
    base = None
    if config.population_mode in ("fixed", "clone"):
        base = generate_population(config, rep=0)
        for t in tlist:  # answered before any fork, so every worker inherits the memo
            oracle.method_truth(base, t.factor, t.method, R=1)
            oracle.method_interval(base, t.factor, t.method, t.profile, R=1)
    sizes = tuple(s * config.clone_factor for s in config.resolved_arm_sizes())  # clone_factor is 1 outside clone mode

    # replications run in equal chunks of at most _CHUNK_CELLS observed (unit,
    # arm) cells, one chunk alive at a time; clone mode observes the base units
    chunk = max(1, _CHUNK_CELLS // (config.N << config.K))

    def run(reps: range) -> list:
        acc = [[] for _ in tlist]  # by position: equal targets keep their own tallies
        for piece in _split(reps, -(-len(reps) // chunk)):
            _run_chunk(config, piece, base, sizes, tlist, acc)
        return acc

    parts = _workers.run_all(run, _split(range(R), _workers.count(R // chunk)))  # each part's tallies by target
    reports = tuple(_target_report(t, R, list(chain(*rows))) for t, rows in zip(tlist, zip(*parts)))
    return CoverageReport(config=config, replications=R, targets=reports)
