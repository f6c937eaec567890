#!/usr/bin/env python3
"""Recompute all four reference tables and write them with diff reports.

Output lands in out/ (CSV per table plus a one-line verdict each).  The
run is the library's headline experiment: every cell of every table is
recomputed from scratch in exact rational arithmetic and compared with
the pinned fixtures.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kuniform.tables import TABLE_IDS, diff_table, table_csv  # noqa: E402


def main() -> int:
    out_dir = ROOT / "out"
    out_dir.mkdir(exist_ok=True)
    all_match = True
    for table_id in TABLE_IDS:
        start = time.perf_counter()
        diff = diff_table(table_id)
        elapsed_ms = (time.perf_counter() - start) * 1000
        path = out_dir / f"table_{table_id}.csv"
        path.write_text(table_csv(diff) + "\n")
        verdict = "MATCH" if diff.match else f"{len(diff.diffs)} DIFFS"
        print(f"table {table_id}: {verdict} ({elapsed_ms:.1f} ms) -> {path}")
        for cell in diff.diffs:
            print(f"  {cell.where}: expected {cell.expected}, computed {cell.computed}")
        all_match = all_match and diff.match
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
