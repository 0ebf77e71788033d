"""Layer spans recorded from outside the program.

The layers are the package modules. ``Tracer.install`` replaces every
public module-level function of the traced layers with a wrapper, at every
module attribute that names it (``estimate.estimate_bounds`` and the
``cli.estimate_bounds`` that ``cli`` imported are both replaced), so the
program's own call sites go through the wrappers unchanged. ``uninstall``
puts the originals back. Functions are found by walking the modules, so a
function a later change removes or renames simply drops out of the
breakdown.

Each wrapped call opens a span. Spans stay in memory until the run writes
them out. A span's self time is its duration minus the durations of its
direct child spans, and it is charged to one bucket:

* the bucket named for the function, when the function belongs to a group
  in ``GROUPS``;
* otherwise the bucket of its parent span, when the parent is in the same
  layer (``estimate.nu_hat_table`` under ``estimate.estimate_bounds``
  counts as ``estimate.estimate_bounds``);
* otherwise ``<layer>.other``.

Every span charges exactly one bucket, so the bucket self times of an
operation plus the time outside its root spans add up to the operation's
wall time. Calls into ``design`` are only counted: its functions are
called in tight loops, and a span each would cost more than their work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

SPAN_LAYERS = ("cli", "data", "estimate", "simulate", "oracle", "population")
COUNT_LAYERS = ("design",)

# bucket -> (layer, function names or a "prefix*" pattern). A name that no
# longer exists is skipped.
GROUPS = {
    "cli.main": ("cli", "*"),
    "data.load_csv": ("data", ("load_csv",)),
    "data.save_csv": ("data", ("save_csv",)),
    "estimate.estimate_bounds": ("estimate", ("estimate_bounds",)),
    "estimate.imbens_manski_ci": ("estimate", ("imbens_manski_ci",)),
    "estimate.wald_reference": ("estimate", ("wald_reference",)),
    "simulate.generate_population": ("simulate", ("generate_population",)),
    "simulate.complete_randomization": ("simulate", ("complete_randomization",)),
    "simulate.observe": ("simulate", ("observe",)),
    "simulate.monte_carlo": ("simulate", ("monte_carlo",)),
    "oracle.truth": ("oracle", ("main_effect", "interaction_effect", "joint_interaction_effect")),
    "oracle.interval": (
        "oracle",
        (
            "adjusted_bounds",
            "simple_bounds",
            "exclusion_bounds",
            "interaction_bounds",
            "joint_bounds",
            "conservative_bounds",
        ),
    ),
    "population.classify": ("population", ("classify",)),
    "population.checks": ("population", "check_*"),
}

PACKAGE = "factorbounds"


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


def _group_of(layer: str, name: str) -> str | None:
    for bucket, (group_layer, names) in GROUPS.items():
        if group_layer != layer:
            continue
        if isinstance(names, str):  # a prefix pattern such as "check_*"
            if name.startswith(names[:-1]):
                return bucket
        elif name in names:
            return bucket
    return None


class Tracer:
    """Wraps the program's layer functions and keeps their spans in memory.

    A span is the tuple (op, span id, parent id, name, bucket, start, end);
    ``op`` is the operation the span belongs to, set by the caller through
    ``op``. ``calls`` counts every call of every wrapped function.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.group_of: dict[str, str | None] = {}
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _span_wrapper(self, fn, name: str, layer: str, group: str | None):
        stack, spans, calls = self._stack, self.spans, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else None
            if group is not None:
                bucket = group
            elif parent is not None and parent[2] == layer:
                bucket = parent[3]
            else:
                bucket = layer + ".other"
            self._next_id += 1
            frame = [self._next_id, parent[0] if parent is not None else 0, layer, bucket]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, frame[0], frame[1], name, bucket, start, end))

        return wrapper

    def _count_wrapper(self, fn, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package binds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        self.group_of = {}
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in _public_functions(module).items():
                name = f"{layer}.{fname}"
                if layer in COUNT_LAYERS:
                    self.group_of[name] = layer
                    replacements[id(fn)] = (fn, self._count_wrapper(fn, name))
                else:
                    group = _group_of(layer, fname)
                    self.group_of[name] = group
                    replacements[id(fn)] = (fn, self._span_wrapper(fn, name, layer, group))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def buckets_present(self) -> set[str]:
        """Groups with at least one function in the traced program."""
        return {g for g in self.group_of.values() if g in GROUPS}

    def calls_in(self, group: str) -> int:
        """Calls into a group's functions, or into a count-only layer."""
        return sum(n for name, n in self.calls.items() if self.group_of.get(name) == group)

    def self_times(self) -> dict[int, Counter]:
        """Self seconds per bucket, for each operation."""
        child = Counter()
        for _, _, parent, _, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[int, Counter] = {}
        for op, sid, _, _, bucket, start, end in self.spans:
            out.setdefault(op, Counter())[bucket] += (end - start) - child[sid]
        return out
