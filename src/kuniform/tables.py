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

The per-N bounds of Tables I-III come from `bounds.compute_bound_records`,
the one source of `bound` too; `tables.compute_bound_records` is that
same function, imported by name.

Table IV's shadow sets come from the family route: the shadow numerators
of d1 x d2^(2n) are base + d1 slope (`hetero.pair_family_shadow`), so
`shadow_certified_set` takes every d1 of one d2 at once and spends two
substitutions per (d2, n), whatever the number of d1.  `_diff_hetero_table`
groups the table's rows by d2 for it: 64 substitutions for the 302
profiles the table's shadow sets cover.  Only these two import `hetero`,
so Tables I-III and `bound_csv` run without it.
"""

from __future__ import annotations

from .bounds import BoundVerdict, compute_bound_records
from .errors import exact_int, exact_ints
from .exact import FrozenRecord

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


def compress_to_ranges(records: list[BoundVerdict]) -> tuple[tuple[int, int, int], ...]:
    """Run-length compress per-N bounds into the published range layout."""
    cells: list[list[int]] = []
    for rec in records:
        if cells and cells[-1][2] == rec.k_max:
            cells[-1][1] = rec.n_parties
        else:
            cells.append([rec.n_parties, rec.n_parties, rec.k_max])
    return tuple(tuple(c) for c in cells)


class CellDiff(FrozenRecord):
    """One disagreement between a computed cell and the pinned fixture."""

    def __init__(self, where: str, expected: object, computed: object) -> None:
        self.__dict__.update(where=where, expected=expected, computed=computed)

    def to_json_dict(self) -> dict:
        return {
            "where": self.where,
            "expected": self.expected,
            "computed": self.computed,
        }


class TableDiff(FrozenRecord):
    def __init__(self, table_id: str, computed: tuple, diffs: tuple[CellDiff, ...],
                 records: tuple | None = None) -> None:  # per-N verdicts of the range tables
        self.__dict__.update(table_id=table_id, computed=computed, diffs=diffs, records=records)

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


def shadow_certified_set(
    d1s: tuple[int, ...], d2: int, n_below: int
) -> tuple[tuple[int, ...], ...]:
    """For each d1 of `d1s`, all n < n_below whose shadow goes negative on d1 x d2^(2n).

    The numerators of every d1 are read off one (base, slope) pair per n
    (`hetero.pair_family_shadow`).  `d1s` is a nonempty list or tuple of
    exact ints >= 2, d2 an exact int >= 2 and n_below one >= 1 (the input
    rules `errors.exact_ints` and `errors.exact_int`).  Before any
    substitution the shadow caps apply to the largest profile asked for,
    max(d1s) x d2^(2 (n_below - 1)): CapacityError as `hetero_shadow`
    raises it there.
    """
    from .hetero import check_pair_shadow_size, pair_family_shadow

    d1s = exact_ints(d1s, "d1s", 2)
    if not d1s:
        raise ValueError("d1s needs at least one dimension")
    exact_int(d2, "d2", 2)
    exact_int(n_below, "n_below", 1)
    if n_below > 1:
        check_pair_shadow_size(max(d1s), d2, n_below - 1)
    certified: list[list[int]] = [[] for _ in d1s]
    for n in range(1, n_below):
        base, slope = pair_family_shadow(d2, n)
        for found, d1 in zip(certified, d1s):
            if any(b + d1 * v < 0 for b, v in zip(base, slope)):
                found.append(n)
    return tuple(map(tuple, certified))


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
    from .hetero import scott_pair_threshold

    rows = [
        (d1, d2, threshold, shadow_ns)
        for d1_lo, d1_hi, d2, threshold, shadow_ns in HETERO_TABLE
        for d1 in range(d1_lo, d1_hi + 1)
    ]
    thresholds = {(d1, d2): scott_pair_threshold(d1, d2) for d1, d2, _, _ in rows}
    by_d2: dict[int, list[int]] = {}
    for d1, d2, _, _ in rows:
        by_d2.setdefault(d2, []).append(d1)
    # one sweep per d2 up to its largest threshold; each d1 keeps the n below its own
    certified = {}
    for d2, d1s in by_d2.items():
        n_below = max(thresholds[d1, d2] for d1 in d1s)
        for d1, ns in zip(d1s, shadow_certified_set(d1s, d2, n_below)):
            certified[d1, d2] = tuple(n for n in ns if n < thresholds[d1, d2])
    computed_rows = []
    diffs: list[CellDiff] = []
    for d1, d2, threshold, shadow_ns in rows:
        got_threshold, got_shadow = thresholds[d1, d2], certified[d1, d2]
        computed_rows.append((d1, d2, got_threshold, got_shadow))
        if got_threshold != threshold:
            diffs.append(CellDiff(f"d1={d1} d2={d2} threshold", threshold, got_threshold))
        if got_shadow != shadow_ns:
            diffs.append(
                CellDiff(f"d1={d1} d2={d2} shadow set", list(shadow_ns), list(got_shadow))
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
