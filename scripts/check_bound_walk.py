#!/usr/bin/env python3
"""Check the boundary walk against the per-N scan at every party count.

`bounds.compute_bound_records`, the source of `bound --n-range` and of
Tables I-III, walks the alpha sign boundary from N to N+1;
`bounds.k_upper_bound` scans each N on its own.  This compares the two
record for record (`to_json_dict`, so the witness too) for every
d = 2..6 and N = 2..4096, and exits 1 naming the first mismatch.  The
per-N scans take most of its time, about 40 s on a 2-core VM.

    python3 scripts/check_bound_walk.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kuniform.bounds import compute_bound_records, k_upper_bound  # noqa: E402
from kuniform.errors import MAX_PARTIES  # noqa: E402

LOCAL_DIMS = range(2, 7)
N_MIN = 2


def main() -> int:
    for d in LOCAL_DIMS:
        start = time.monotonic()
        walked = compute_bound_records(d, N_MIN, MAX_PARTIES)
        for n, record in zip(range(N_MIN, MAX_PARTIES + 1), walked, strict=True):
            want = k_upper_bound(n, d).to_json_dict()
            if record.to_json_dict() != want:
                print(f"mismatch at d={d} N={n}: walk {record.to_json_dict()}, scan {want}")
                return 1
        print(f"d={d}: N={N_MIN}..{MAX_PARTIES} agree ({time.monotonic() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
