"""Pinned reference tables and the diff harness that reproduces them.

Four published tables are checked in as fixtures: the range-compressed
upper bounds on k for local dimensions 3, 4, 5 (table ids "I", "II",
"III") and the two-column family table of AME non-existence results in
d1 x d2^(2n) systems (id "IV": closed-form thresholds plus the n values
certified by the shadow coefficients below each threshold).

`diff_table` recomputes a table from scratch and reports every cell that
differs; an empty diff is the reproduction statement the command-line
`table` command prints.  `TableDiff.to_json_dict` is its payload, and
`table_csv` and `bound_csv` the CSV of `table --format csv` (which
`scripts/reproduce_tables.py` writes) and of `bound --format csv`.

The per-N bounds of Tables I-III and of `bound` come from
`compute_bound_records`, which scans the first N and walks the alpha
sign boundary from each N to the next, in O(1) big-integer steps per N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import BoundVerdict, _verdict, _walk_hits
from .hetero import DimensionProfile, hetero_shadow, scott_pair_threshold

TABLE_IDS = ("I", "II", "III", "IV")

# (first N, last N, bound) cells, exactly as published.
RANGE_TABLES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "I": (
        (2, 3, 1), (4, 5, 2), (6, 8, 3), (9, 9, 4), (10, 13, 5), (14, 14, 6),
        (15, 18, 7), (19, 19, 8), (20, 22, 9), (23, 23, 10), (24, 27, 11),
        (28, 32, 13), (33, 36, 15), (37, 41, 17), (42, 46, 19), (47, 50, 21),
        (51, 55, 23), (56, 60, 25), (61, 65, 27), (66, 69, 29), (70, 74, 31),
        (75, 79, 33), (80, 83, 35), (84, 88, 37),
    ),
    "II": (
        (60, 63, 29), (64, 67, 31), (68, 72, 33), (73, 76, 35), (77, 80, 37),
        (81, 84, 39), (85, 89, 41), (90, 93, 43), (94, 97, 45), (98, 102, 47),
        (103, 106, 49), (107, 110, 51), (111, 114, 53), (115, 119, 55),
        (120, 123, 57), (124, 127, 59), (128, 131, 61), (132, 136, 63),
        (137, 140, 65), (141, 144, 67), (145, 149, 69), (150, 153, 71),
        (154, 157, 73), (158, 161, 75),
    ),
    "III": (
        (180, 183, 89), (184, 187, 91), (188, 191, 93), (192, 195, 95),
        (196, 199, 97), (200, 203, 99), (204, 207, 101), (208, 211, 103),
        (212, 215, 105), (216, 219, 107), (220, 223, 109), (224, 228, 111),
        (229, 232, 113), (233, 236, 115), (237, 240, 117), (241, 244, 119),
        (245, 248, 121), (249, 252, 123), (253, 256, 125), (257, 260, 127),
        (261, 264, 129), (265, 268, 131), (269, 272, 133), (273, 276, 135),
    ),
}

RANGE_TABLE_DIMS = {"I": 3, "II": 4, "III": 5}

# (d1 range, d2, closed-form threshold on n, shadow-certified n below it).
HETERO_TABLE: tuple[tuple[int, int, int, int, tuple[int, ...]], ...] = (
    (3, 4, 2, 5, (4,)),
    (2, 2, 3, 10, (6, 8, 9)),
    (4, 4, 3, 11, (6, 8, 9, 10)),
    (5, 8, 3, 10, (6, 8, 9)),
    (9, 9, 3, 10, (6, 8)),
    (2, 2, 4, 17, (10, 12, 14, 16)),
    (3, 3, 4, 18, (12, 14, 16)),
    (5, 5, 4, 19, (12, 14, 16, 18)),
    (6, 8, 4, 18, (14, 16)),
    (9, 16, 4, 17, (14, 16)),
)


def format_n_range(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def compute_bound_records(
    local_dim: int, n_min: int, n_max: int
) -> list[BoundVerdict]:
    """`k_upper_bound` at each N = n_min .. n_max, record for record.

    The first N is scanned as `k_upper_bound` scans it; every later N costs
    O(1) big-integer steps, by walking the alpha sign boundary from N to
    N + 1 (`bounds._walk_hits`).  The verdicts are combined by the same
    `bounds._verdict`.
    """
    hits = _walk_hits(local_dim, n_min, n_max)
    return [_verdict(n, local_dim, hit) for n, hit in zip(range(n_min, n_max + 1), hits)]


def compress_to_ranges(records: list[BoundVerdict]) -> tuple[tuple[int, int, int], ...]:
    """Run-length compress per-N bounds into the published range layout."""
    cells: list[list[int]] = []
    for rec in records:
        if cells and cells[-1][2] == rec.k_max:
            cells[-1][1] = rec.n_parties
        else:
            cells.append([rec.n_parties, rec.n_parties, rec.k_max])
    return tuple(tuple(c) for c in cells)


@dataclass(frozen=True)
class CellDiff:
    """One disagreement between a computed cell and the pinned fixture."""

    where: str
    expected: object
    computed: object

    def to_json_dict(self) -> dict:
        return {
            "where": self.where,
            "expected": self.expected,
            "computed": self.computed,
        }


@dataclass(frozen=True)
class TableDiff:
    table_id: str
    computed: tuple
    diffs: tuple[CellDiff, ...]
    records: Optional[tuple] = None  # per-N verdicts for the range tables

    @property
    def match(self) -> bool:
        return not self.diffs

    def to_json_dict(self) -> dict:
        doc = {"table": self.table_id, "match": self.match}
        doc["diffs"] = [d.to_json_dict() for d in self.diffs]
        if self.table_id == "IV":
            doc["rows"] = [
                {"d1": d1, "d2": d2, "threshold_n": thr, "shadow_certified_n": list(ns)}
                for d1, d2, thr, ns in self.computed
            ]
        else:
            doc["cells"] = [
                {"n_range": format_n_range(lo, hi), "k_max": k} for lo, hi, k in self.computed
            ]
            doc["records"] = [r.to_json_dict() for r in self.records]
        return doc


def shadow_certified_set(d1: int, d2: int, n_below: int) -> tuple[int, ...]:
    """All n < n_below whose shadow coefficients go negative on d1 x d2^(2n)."""
    certified = []
    for n in range(1, n_below):
        profile = DimensionProfile((d1,) + (d2,) * (2 * n))
        if hetero_shadow(profile).first_negative() is not None:
            certified.append(n)
    return tuple(certified)


def _diff_range_table(table_id: str) -> TableDiff:
    expected = RANGE_TABLES[table_id]
    d = RANGE_TABLE_DIMS[table_id]
    n_min, n_max = expected[0][0], expected[-1][1]
    records = compute_bound_records(d, n_min, n_max)
    computed = compress_to_ranges(records)
    diffs: list[CellDiff] = []
    by_n_expected = {}
    for lo, hi, k in expected:
        for n in range(lo, hi + 1):
            by_n_expected[n] = k
    for rec in records:
        want = by_n_expected[rec.n_parties]
        if rec.k_max != want:
            diffs.append(
                CellDiff(f"d={d} N={rec.n_parties}", want, rec.k_max)
            )
    if computed != expected and not diffs:
        # same per-N values but different run boundaries cannot happen with
        # pure run-length compression; flag it anyway rather than hide it
        diffs.append(CellDiff(f"table {table_id} layout", expected, computed))
    return TableDiff(table_id, computed, tuple(diffs), tuple(records))


def _diff_hetero_table() -> TableDiff:
    computed_rows = []
    diffs: list[CellDiff] = []
    for d1_lo, d1_hi, d2, threshold, shadow_ns in HETERO_TABLE:
        for d1 in range(d1_lo, d1_hi + 1):
            got_threshold = scott_pair_threshold(d1, d2)
            got_shadow = shadow_certified_set(d1, d2, got_threshold)
            computed_rows.append((d1, d2, got_threshold, got_shadow))
            if got_threshold != threshold:
                diffs.append(
                    CellDiff(f"d1={d1} d2={d2} threshold", threshold, got_threshold)
                )
            if got_shadow != shadow_ns:
                diffs.append(
                    CellDiff(
                        f"d1={d1} d2={d2} shadow set",
                        list(shadow_ns),
                        list(got_shadow),
                    )
                )
    return TableDiff("IV", tuple(computed_rows), tuple(diffs))


def table_csv(diff: TableDiff) -> str:
    """The computed table as CSV lines, header first, without a final newline."""
    if diff.table_id == "IV":
        lines = ["d1,d2,threshold_n,shadow_certified_n"]
        lines += [
            f"{d1},{d2},{thr},{' '.join(map(str, ns))}"
            for d1, d2, thr, ns in diff.computed
        ]
    else:
        lines = ["N_range,k_max"]
        lines += [f"{format_n_range(lo, hi)},{k}" for lo, hi, k in diff.computed]
    return "\n".join(lines)


def bound_csv(records: list[BoundVerdict]) -> str:
    """Per-N bounds as CSV lines, header first, without a final newline."""
    lines = ["N,k_max,provenance"]
    lines += [f"{r.n_parties},{r.k_max},{r.provenance}" for r in records]
    return "\n".join(lines)


def diff_table(table_id: str) -> TableDiff:
    """Recompute the identified table and diff it against the fixture."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}, expected one of {TABLE_IDS}")
    if table_id == "IV":
        return _diff_hetero_table()
    return _diff_range_table(table_id)
