"""Seeded inputs of the three workloads.

`build(workload, seed, state_dir)` returns the operations of one pass.
Every pass of a run repeats the same list.  Within a list no operation
repeats another's (N, d) or profile, so the program's caches (the
`alpha_vector` cache above all) are never hit across operations.

Sizes are drawn by stratified sampling: one draw from each of several
narrow bands.  A seed then changes the inputs without changing how much
work a pass does, so the run-to-run spread of the metrics stays small.
The bands of the large operations are narrowest, since their cost grows
like N^3: a band 5 % wide in N would move a pass by up to 15 %.

Only this module's own arithmetic (in `checks`) is used to sort candidate
profiles by the verdict path they must take; the program sees nothing
but the finished inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import checks

WORKLOADS = ("homogeneous_bounds", "hetero_ame", "cross_validation")

# Published table ranges, which the per-N bound commands stay outside of.
_SMALL_BOUND_RANGES = {2: (4, 100), 3: (89, 121), 4: (10, 60), 5: (10, 122)}
_SMALL_BOUND_PER_D = 20
_LARGE_BOUND_BANDS = [(500 + 100 * s, 510 + 100 * s) for s in range(4)]

# Profiles per verdict path.  The three paths decided before the shadow
# test get more, so the median small operation falls inside their tight
# cluster of latencies and not on the edge of the slower shadow paths.
AME_PATHS = {"infeasible": 14, "corollary7": 14, "scott-witness": 14, "shadow-negative": 10, "unknown": 10}
_AME_POOL = 70
# (low, high) odd N of the ame profiles that reach the shadow test.
_SHADOW_REACH_BANDS = [(101, 109), (133, 141), (165, 173)]
# d2 -> band of n for the library shadow kernel on d1 x d2^(2n).
_SHADOW_FAMILY_BANDS = {2: (95, 98), 3: (88, 91), 4: (83, 86)}

# Round trips run once at every N = 4 .. 7 for every local dimension 2 .. 9.
# Larger N would put the median small operation among the slow round
# trips, where latency climbs steeply with N, and make it seed-sensitive.
_ROUNDTRIP_NS = range(4, 8)
_ROUNDTRIP_DS = range(2, 10)


def _cli(kind: str, check: str, *argv, **extra) -> dict:
    return {"kind": kind, "check": check, "cli": [str(a) for a in argv], **extra}


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One draw from each of `count` equal bands of [lo, hi)."""
    edges = [lo + (hi - lo) * s // count for s in range(count + 1)]
    return [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]


def _spread(others: list[dict], small: list[dict]) -> list[dict]:
    """The small operations placed evenly among the others.

    The machine's speed swings within a second, so small operations run
    back to back would all sample one moment of it.
    """
    groups: list[list[dict]] = [[] for _ in range(len(others) + 1)]
    for i, op in enumerate(small):
        groups[i * len(groups) // len(small)].append(op)
    ops = groups[0]
    for op, group in zip(others, groups[1:]):
        ops += [op] + group
    return ops


def homogeneous_bounds(rng: random.Random) -> list[dict]:
    others = [_cli("table", "table", "table", "--paper", t) for t in ("I", "II", "III")]
    small = []
    for d, (lo, hi) in _SMALL_BOUND_RANGES.items():
        for n in _stratified(rng, lo, hi, _SMALL_BOUND_PER_D):
            small.append(_cli("small", "bound", "bound", "--d", d, "--n", n))
    for d in (3, 4, 5):
        for lo, hi in _LARGE_BOUND_BANDS:
            others.append(_cli("large", "bound", "bound", "--d", d, "--n", rng.randrange(lo, hi)))
    return _spread(others, small)


def _spec(classes: list[tuple[int, int]]) -> str:
    return ",".join(f"{d}x{c}" for d, c in classes)


def _ame_candidate(rng: random.Random) -> list[tuple[int, int]]:
    """A profile from one of three shapes that together reach every verdict path."""
    shape = rng.randrange(3)
    if shape == 0:
        dims = rng.sample(range(2, 8), rng.randint(2, 4))
        return [(d, rng.randint(1, 8)) for d in dims]
    if shape == 1:
        # one class past Scott's party count, balanced by a few neighbours
        d = rng.choice((3, 4))
        others = rng.sample((d - 1, d + 1, d + 2), rng.randint(1, 3))
        classes = [(d, rng.randint(2 * d * d - 4, 40))] + [(e, rng.randint(1, 2)) for e in others]
        rng.shuffle(classes)
        return classes
    d2 = rng.randint(2, 4)
    d1 = rng.choice([d for d in range(2, min(9, d2 * d2) + 1) if d != d2])
    n = rng.randint(1, checks.pair_threshold(d1, d2) + 3)
    return [(d1, 1), (d2, 2 * n)]


def ame_batch(rng: random.Random) -> list[str]:
    """`AME_PATHS[path]` distinct profiles for each verdict path, at most 45 parties.

    Each path first gathers a pool of `_AME_POOL` profiles; the batch takes
    the pool's members at evenly spaced ranks by party count, so every seed
    gets the same spread of sizes on every path.
    """
    pools: dict[str, list[tuple[int, str]]] = {path: [] for path in AME_PATHS}
    seen = set()
    for _ in range(50000):
        classes = _ame_candidate(rng)
        spec = _spec(classes)
        dims = checks.parse_dims(spec)
        if spec in seen or len(dims) < 2 or len(dims) > 45:
            continue
        seen.add(spec)
        pool = pools[checks.predict_ame(dims)[0]]
        if len(pool) < _AME_POOL:
            pool.append((len(dims), spec))
        if all(len(pool) == _AME_POOL for pool in pools.values()):
            batch = []
            for path, count in AME_PATHS.items():
                step = _AME_POOL // count
                batch += [spec for _, spec in sorted(pools[path])[step // 2 :: step][:count]]
            return batch
    raise RuntimeError("could not fill every verdict path of the ame batch")


def _shadow_reaching_profile(rng: random.Random, lo: int, hi: int) -> str:
    """Near-homogeneous odd profile (d2+1)^c1 d2^c2 whose verdict needs the shadow test."""
    while True:
        n = rng.randrange(lo, hi) | 1
        d2 = rng.randint(7, 9)
        c1 = rng.randint(2, n // 5)
        spec = _spec([(d2 + 1, c1), (d2, n - c1)])
        if checks.predict_ame(checks.parse_dims(spec))[0] in ("shadow-negative", "unknown"):
            return spec


def hetero_ame(rng: random.Random) -> list[dict]:
    others = [_cli("table", "table", "table", "--paper", "IV")]
    small = [_cli("small", "ame", "ame", "--dims", spec) for spec in ame_batch(rng)]
    for lo, hi in _SHADOW_REACH_BANDS:
        others.append(_cli("large", "ame", "ame", "--dims", _shadow_reaching_profile(rng, lo, hi)))
    for d2, (lo, hi) in _SHADOW_FAMILY_BANDS.items():
        d1 = rng.choice([d for d in range(2, d2 * d2 + 1) if d != d2])
        spec = _spec([(d1, 1), (d2, 2 * rng.randrange(lo, hi))])
        others.append({"kind": "large", "check": "hetero_shadow", "lib": "hetero_shadow", "dims": spec})
    return _spread(others, small)


def corpus_states() -> list[tuple[str, list[int], list[list[int]]]]:
    """(name, dims, kets with amplitude 1) of the reference state corpus."""
    states = []
    for d in (2, 3):
        for n in range(2, 7):
            states.append((f"ghz-n{n}-d{d}", [d] * n, [[x] * n for x in range(d)]))
    for n in (2, 3, 4):
        states.append((f"product-n{n}-d2", [2] * n, [[0] * n]))
    states.append(("w3", [2, 2, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    states.append(
        ("ame43", [3] * 4, [[i, j, (i + j) % 3, (i + 2 * j) % 3] for i in range(3) for j in range(3)])
    )
    return states


def write_state_files(state_dir: Path) -> dict[str, str]:
    state_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, dims, kets in corpus_states():
        doc = {"dims": dims, "amps": [{"ket": k, "re": "1", "im": "0"} for k in kets]}
        path = state_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def cross_validation(rng: random.Random, state_dir: Path) -> list[dict]:
    others = [_cli("large", "verify", "verify", "--suite", "alpha")]
    others += [_cli("medium", "verify", "verify", "--suite", s) for s in ("shadow-oracle", "recurrence")]
    files = write_state_files(state_dir)
    small = []
    for name, dims, _ in corpus_states():
        extra = {"state": name, "dims": dims}
        small.append(_cli("small", "enumerate", "state", "--file", files[name], "--enumerate", **extra))
        for k in range(1, len(dims) // 2 + 1):
            small.append(_cli("small", "uniform", "state", "--file", files[name], "--check-uniform", k, k=k, **extra))
    for n, d in product(_ROUNDTRIP_NS, _ROUNDTRIP_DS):
        c = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(n // 2 + 1)]
        small.append({"kind": "small", "check": "roundtrip", "lib": "roundtrip", "n": n, "d": d, "c": c})
    rng.shuffle(small)
    return _spread(others, small)


def build(workload: str, seed: int, state_dir: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "homogeneous_bounds":
        return homogeneous_bounds(rng)
    if workload == "hetero_ame":
        return hetero_ame(rng)
    if workload == "cross_validation":
        return cross_validation(rng, state_dir)
    raise ValueError(f"unknown workload {workload!r}")
