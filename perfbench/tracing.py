"""Spans around kuniform's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function, in every kuniform
module that holds a reference to it (so `tables.k_upper_bound`,
`cli.hetero_shadow` and `bounds.binom` are caught too), by a wrapper.
Spanned functions record (name, start, end, parent) in memory, and the
spans are written out when the pass ends; the hottest helpers are only
counted, since a span per call would cost more than the call.  Each
operation of a pass is a root span named `op.<kind>`, so self time can
be split by operation kind.

`span_times` turns the spans into calls, self time and growth fits once
the pass is over.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from functools import wraps

SPANNED = {
    "cli": ("main",),
    "tables": ("diff_table", "compute_bound_records", "shadow_certified_set"),
    "bounds": (
        "k_upper_bound", "alpha_vector", "alpha_closed_form",
        "alpha_oracle", "verify_recurrence", "recurrence_sum",
    ),
    "enumerators": (
        "macwilliams_transform", "shadow_transform", "a_to_c", "c_to_a",
        "c_to_b", "b_to_c", "validate_state_constraints",
    ),
    "hetero": ("ame_verdict", "scott_search", "hetero_shadow"),
    "oracle": (
        "purity_table", "shadow_from_purities", "ame_shadow_oracle",
        "direct_enumerator", "direct_shadow", "is_k_uniform",
    ),
    "exact": ("elem_sym_prefix",),
}
COUNTED = {
    "enumerators": ("basis_matrix_entry",),
    "hetero": ("scott_check",),
    "exact": ("binom", "falling_binom"),
}
# Party count of a call, for the log-log growth fits.
GROWTH = {
    "bounds.alpha_vector": lambda args: args[0],
    "bounds.alpha_oracle": lambda args: args[0],
    "enumerators.shadow_transform": lambda args: args[0].n_parties,
    "hetero.hetero_shadow": lambda args: args[0].n_parties,
}

SPANNED_NAMES = [f"{m}.{f}" for m, fs in SPANNED.items() for f in fs]
COUNTED_NAMES = [f"{m}.{f}" for m, fs in COUNTED.items() for f in fs]


class Tracer:
    """Records spans in the pass interpreter; `span_times` reads them afterwards."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported kuniform module
        self.spans: list = []  # [name, start, end, parent index, party count or None]
        self.stack: list = []  # indices of the open spans
        self.calls = dict.fromkeys(COUNTED_NAMES, 0)
        self.subsets_in_search = 0
        self._patched: list = []
        self._alpha_cache = modules["bounds"].alpha_vector

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _spanned(self, name: str, fn):
        clock = time.perf_counter
        size_of = GROWTH.get(name)
        cache = self._alpha_cache if name == "bounds.alpha_vector" else None
        stack = self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache.cache_info().misses if cache is not None else 0
            span = self._open(name)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if size_of is not None and (
                    cache is None or cache.cache_info().misses > misses
                ):
                    span[4] = size_of(args)

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        if name == "hetero.scott_check":
            spans, stack = self.spans, self.stack

            @wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if stack and spans[stack[-1]][0] == "hetero.scott_search":
                    self.subsets_in_search += 1
                return fn(*args, **kwargs)

            return wrapper

        @wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replacement = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, names in table.items():
                for fname in names:
                    fn = getattr(self.modules[mod], fname)
                    replacement[id(fn)] = (fn, make(f"{mod}.{fname}", fn))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- operations ----------------------------------------------------------

    def begin_op(self, kind: str) -> list:
        """Open the root span of one operation, named `op.<kind>`."""
        return self._open(f"op.{kind}")

    def end_op(self, span: list, start: float, end: float) -> None:
        span[1], span[2] = start, end
        self.stack.pop()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        info = self._alpha_cache.cache_info()
        return {
            "calls": self.calls,
            "alpha_cache": [info.hits, info.misses],
            "subsets_in_search": self.subsets_in_search,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_times(spans: list, duration) -> dict:
    """Calls, self time and growth per spanned function, from one pass's spans.

    `duration(start, end)` gives the time a span counts for; the caller
    passes one that leaves out the pauses of the pass and scales the rest.
    Self time is a span's duration minus the durations of its child spans.
    Each span also counts towards the kind of the operation it ran under.
    """
    full = [duration(s[1], s[2]) for s in spans]
    own = list(full)
    kinds: list = [None] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:  # a parent span is always recorded before its children
            own[parent] -= full[i]
            kinds[i] = kinds[parent]
        else:
            kinds[i] = name[len("op."):]
    calls = dict.fromkeys(SPANNED_NAMES, 0)
    self_s = dict.fromkeys(SPANNED_NAMES, 0.0)
    self_by_kind: dict[str, dict[str, float]] = {}
    op_seconds: dict[str, float] = {}
    points: dict[str, list] = {name: [] for name in GROWTH}
    for (name, _, _, parent, size), t, mine, kind in zip(spans, full, own, kinds):
        if parent < 0:
            op_seconds[kind] = op_seconds.get(kind, 0.0) + t
            continue
        calls[name] += 1
        self_s[name] += mine
        by_kind = self_by_kind.setdefault(kind, {})
        by_kind[name] = by_kind.get(name, 0.0) + mine
        if size is not None:
            points[name].append((size, t))
    return {
        "calls": calls,
        "self_s": self_s,
        "self_by_kind": self_by_kind,
        "op_seconds": op_seconds,
        "growth": {name: fit_slope(p) for name, p in points.items()},
    }


def fit_slope(points) -> float:
    """Least-squares slope of log(seconds) against log(N); 0 with fewer than two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
