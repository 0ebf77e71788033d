"""Observed-data container and CSV input/output.

CSV schema: header ``z1,...,zK,d1,...,dK,y``; assignment and uptake entries
are -1/+1 (or 0/1 with binary coding, 0 mapped to -1); y is numeric in
[0, 1] after optional affine rescaling. Parse errors carry the 1-based line
number (header is line 1) and the column name.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import _workers
from .design import MAX_FACTORS, FactorialDesign, _MemoOwner, enumerate_assignments
from .errors import InvalidInputError
from .population import frozen, read_only


@dataclass(frozen=True, eq=False)
class ObservedDataset(_MemoOwner):
    """One row per unit: realized arm, uptake vector, outcome.

    Arms index the rows of design.levels. Outcomes are on the analysis
    scale: when a load rescaled them into [0, 1], the affine map is kept in
    ``rescale`` so reports can echo it. A frequency ``weight`` per row
    counts it that many times in the arm moments; n and arm_counts count rows.
    """

    design: FactorialDesign
    arm: np.ndarray
    uptake: np.ndarray
    outcome: np.ndarray
    rescale: tuple[float, float] | None = None
    weight: np.ndarray | None = None

    def __post_init__(self) -> None:
        # values are checked before the casts, which would turn uptake 255 into -1, arm 0.7 into 0,
        # outcome '0.5' into 0.5 and a boolean True into 1
        arm, uptake, outcome = map(np.asarray, (self.arm, self.uptake, self.outcome))
        if arm.ndim != 1 or arm.shape[0] == 0:
            raise InvalidInputError("dataset needs a nonempty 1-d arm index array")
        n = arm.shape[0]
        if uptake.shape != (n, self.design.K):
            raise InvalidInputError(
                f"uptake shape {uptake.shape} does not match (n={n}, K={self.design.K})"
            )
        if outcome.shape != (n,):
            raise InvalidInputError(f"outcome shape {outcome.shape} does not match (n={n},)")
        if arm.dtype.kind not in "iu":
            raise InvalidInputError(f"arm indices must be integers, got dtype {arm.dtype}")
        if arm.min() < 0 or arm.max() >= self.design.J:
            raise InvalidInputError("arm indices out of range for the design")
        if uptake.dtype.kind == "b" or not ((uptake == 1) | (uptake == -1)).all():
            raise InvalidInputError("uptake entries must be -1 or +1")
        if outcome.dtype.kind not in "iuf":
            raise InvalidInputError(f"outcome entries must be numbers, got dtype {outcome.dtype}")
        arm, uptake, outcome = read_only(arm, np.intp), read_only(uptake, np.int8), read_only(outcome, np.float64)
        if not np.isfinite(outcome).all() or outcome.min() < 0.0 or outcome.max() > 1.0:
            raise InvalidInputError("outcomes must lie in [0, 1]")
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "uptake", uptake)
        object.__setattr__(self, "outcome", outcome)
        if self.weight is not None:
            weight = np.asarray(self.weight)
            if weight.shape != (n,) or weight.dtype.kind not in "iuf" or not np.all((0 <= weight) & (weight < np.inf)):
                raise InvalidInputError(f"weight must be {n} finite numbers >= 0, not {weight.dtype} {weight.shape}")
            object.__setattr__(self, "weight", read_only(weight, np.float64))

    @property
    def n(self) -> int:
        return self.arm.shape[0]

    def arm_counts(self) -> np.ndarray:
        return np.bincount(self.arm, minlength=self.design.J)


def expected_header(K: int) -> list[str]:
    return [f"z{k}" for k in range(1, K + 1)] + [f"d{k}" for k in range(1, K + 1)] + ["y"]


def _infer_k(header: list[str]) -> int:
    names = [h.strip() for h in header]
    if len(names) < 3 or len(names) % 2 == 0:
        raise InvalidInputError(
            f"line 1: header has {len(names)} columns; expected z1..zK,d1..dK,y"
        )
    K = (len(names) - 1) // 2
    want = expected_header(K)
    if names != want:
        raise InvalidInputError(f"line 1: header {names!r} does not match {want!r}")
    return K


def _parse_level(token: str, line: int, col: str, binary_coding: bool) -> int:
    try:
        v = int(token.strip())
    except ValueError:
        raise InvalidInputError(f"line {line}, column {col}: {token!r} is not an integer") from None
    if binary_coding:
        if v in (0, 1):
            return -1 if v == 0 else 1
        raise InvalidInputError(f"line {line}, column {col}: {v} is not 0/1 (binary coding)")
    if v in (-1, 1):
        return v
    raise InvalidInputError(f"line {line}, column {col}: {v} is not -1/+1")


def _prefix_code(design: FactorialDesign, text: str, names: tuple[str, str]) -> int | None:
    """Row code of a 'z1,...,zK,d1,...,dK' prefix: bit i is set when field
    i+1 reads names[1], so the code is arm + J * uptake pattern. None unless
    every field is exactly names[0] or names[1]."""
    tokens = text.split(",")
    if len(tokens) != 2 * design.K or not set(tokens) <= set(names):
        return None
    return sum(1 << i for i, tok in enumerate(tokens) if tok == names[1])


# the least bytes of lines a range holds: forking a worker for fewer costs more than it saves
_MIN_RANGE = 1 << 20


def _ranges(path, start: int, size: int) -> list[tuple[int, int]]:
    """Bytes start..size of path as (begin, end) ranges, one per worker of
    _workers.count, each cut right after a newline byte: always a line
    boundary under newline="" and a UTF-8 character boundary."""
    cuts = {size}
    for piece in _workers._split(range(start, size), _workers.count((size - start) // _MIN_RANGE))[1:]:
        with open(path, "rb") as fh:
            fh.seek(piece.start)
            cuts.add(piece.start + len(fh.readline()))  # past the next newline, or at the end
    ends = sorted(cuts)
    return list(zip([start, *ends], ends))


def _parse_range(path, design: FactorialDesign, names: tuple[str, str], span: tuple[int, int]):
    """(codes, outcomes) of the lines in byte range span of path; None on any
    line _load_canonical does not accept."""
    start, stop = span
    table: dict[str, int] = {}
    codes, outcomes = [], []
    with open(path, "rb") as raw:
        raw.seek(start)
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        try:
            while start < stop and (lines := fh.readlines(min(stop - start, 1 << 18))):
                start += len("".join(lines).encode())
                while start > stop:  # lines past stop, where readlines' hint reaches, are the next range's
                    start -= len(lines.pop().encode())
                if max(map(len, lines)) > csv.field_size_limit():
                    return None
                parts = list(map(str.rpartition, lines, repeat(",")))
                prefixes = list(map(itemgetter(0), parts))
                for text in set(prefixes).difference(table):
                    code = _prefix_code(design, text, names)
                    if code is None:
                        return None
                    table[text] = code
                codes.append(np.fromiter(map(table.__getitem__, prefixes), np.int64, len(lines)))
                ys = map(float, map(itemgetter(2), parts))
                outcomes.append(np.fromiter(ys, np.float64, len(lines)))
                del lines, parts, prefixes, ys  # free this block's strings before the next read
        except ValueError:  # a y that float() refuses, or bytes that are not UTF-8
            return None
    return np.concatenate(codes), np.concatenate(outcomes)


def _load_canonical(
    path, binary_coding: bool, rescale: tuple[float, float] | None
) -> ObservedDataset | None:
    """Array parse of a file in the form save_csv writes (any line ends; 0/1
    levels under binary coding); None on anything else.

    The lines after the header are cut into byte ranges (_ranges), parsed
    at once by _workers.run_all and joined in file order. A range is read in
    blocks of about 256 KiB of lines: each line is split once at its last
    comma, each distinct z/d prefix decoded once and y converted with
    float(), so every row it accepts reads exactly as the row parser reads
    it. It never raises on file content: whatever a range does not accept (a
    header other than the exact one, any other level token or field count,
    quotes, blank lines, a line over the csv field limit, a y outside [0, 1],
    bytes that are not UTF-8) leaves the file to the row parser, which alone
    words the errors.
    """
    found = os.stat(path)
    if not stat.S_ISREG(found.st_mode):  # a pipe can be read only once: the row parser reads it
        return None
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:  # a byte that is not UTF-8 fits no header
        line = fh.readline()
    size = found.st_size
    header = line.rstrip("\r\n").split(",")
    K = len(header) // 2
    if not 1 <= K <= MAX_FACTORS or header != expected_header(K) or len(line) == size:  # the header is ASCII
        return None
    design = enumerate_assignments(K)
    names = ("0", "1") if binary_coding else ("-1", "1")
    parts = _workers.run_all(lambda span: _parse_range(path, design, names, span), _ranges(path, len(line), size))
    if any(part is None for part in parts):
        return None
    code, y = map(np.concatenate, zip(*parts))
    if rescale is not None:
        lo, hi = rescale
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, for the row parser to word
            y = (y - lo) / (hi - lo)
    if not np.isfinite(y).all() or y.min() < 0.0 or y.max() > 1.0:
        return None
    arm, uptake, y = frozen(code & (design.J - 1), design.levels[code >> design.K], y)
    return ObservedDataset(design=design, arm=arm, uptake=uptake, outcome=y, rescale=rescale)


def _load_rows(path, binary_coding: bool, rescale: tuple[float, float] | None) -> ObservedDataset:
    """The csv-module row parser: the reference for every input and the
    only source of load errors, with their line and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _parse_rows(path, reader, binary_coding, rescale)
        except UnicodeDecodeError as e:
            raise InvalidInputError(
                f"{path}: not UTF-8 text ({e.object[e.start:e.end]!r}: {e.reason})"
            ) from None
        except csv.Error as e:
            raise InvalidInputError(f"{path}: line {reader.line_num}: {e}") from None


def _parse_rows(
    path, reader, binary_coding: bool, rescale: tuple[float, float] | None
) -> ObservedDataset:
    if rescale is not None:
        lo, hi = rescale
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{path}: empty file, no header") from None
    K = _infer_k(header)
    design = enumerate_assignments(K)
    arms: list[int] = []
    uptake_rows: list[list[int]] = []
    outcomes: list[float] = []
    for line, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2 * K + 1:
            raise InvalidInputError(
                f"line {line}: {len(row)} fields; expected {2 * K + 1}"
            )
        z = tuple(
            _parse_level(row[k - 1], line, f"z{k}", binary_coding) for k in range(1, K + 1)
        )
        d = [
            _parse_level(row[K + k - 1], line, f"d{k}", binary_coding)
            for k in range(1, K + 1)
        ]
        tok = row[2 * K].strip()
        try:
            y = float(tok)
        except ValueError:
            raise InvalidInputError(f"line {line}, column y: {tok!r} is not numeric") from None
        if rescale is not None:
            y = (y - lo) / (hi - lo)
        if not np.isfinite(y) or y < 0.0 or y > 1.0:
            raise InvalidInputError(
                f"line {line}, column y: value {y} outside [0, 1]"
                + (" after rescale" if rescale is not None else "")
            )
        arms.append(design.index(z))
        uptake_rows.append(d)
        outcomes.append(y)
    if not arms:
        raise InvalidInputError(f"{path}: no data rows")
    arm, uptake, outcome = frozen(
        np.asarray(arms, dtype=np.intp), np.asarray(uptake_rows, dtype=np.int8), np.asarray(outcomes, dtype=np.float64)
    )
    return ObservedDataset(design=design, arm=arm, uptake=uptake, outcome=outcome, rescale=rescale)


def load_csv(
    path,
    *,
    binary_coding: bool = False,
    rescale: tuple[float, float] | None = None,
) -> ObservedDataset:
    """Read a CSV in the schema above. A file in save_csv's form takes the
    array parse, which splits a file of two or more 1 MiB byte ranges across
    the usable CPUs (see _load_canonical); any other file is read again by
    the row parser, which gives the same dataset or the error with its line
    and column."""
    if rescale is not None:
        lo, hi = float(rescale[0]), float(rescale[1])
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise InvalidInputError(f"rescale range ({lo}, {hi}) must be finite with max > min")
        rescale = (lo, hi)
    data = _load_canonical(path, binary_coding, rescale)
    return data if data is not None else _load_rows(path, binary_coding, rescale)


def save_csv(data: ObservedDataset, path) -> None:
    """Write in the load_csv schema with -1/+1 coding and csv.writer's CRLF
    line ends; floats via repr so a reload reproduces them bit-exactly."""
    if data.weight is not None:
        raise InvalidInputError("a weighted dataset has no CSV form: its rows would lose their counts")
    design = data.design
    bits = (data.uptake == 1) @ (1 << np.arange(design.K, dtype=np.int64))
    codes, row_code = np.unique(data.arm + design.J * bits, return_inverse=True)
    levels = design.levels.tolist()
    prefixes = [
        ",".join(map(str, levels[code & (design.J - 1)] + levels[code >> design.K]))
        for code in codes.tolist()
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(expected_header(design.K)) + "\r\n")
        rows = map(prefixes.__getitem__, row_code.tolist())
        fh.writelines(map("{},{!r}\r\n".format, rows, data.outcome.tolist()))
