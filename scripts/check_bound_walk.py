#!/usr/bin/env python3
"""Check the boundary walk against a parity-test scan at every party count.

`bounds.compute_bound_records`, the source of `bound --n-range`, of
`bound --n` and of Tables I-III, locates each N's first firing alpha
index by the sign of a pair of sums, which is right only because of the
monotonicity fact F1 proved in `bounds._walk_hits`.  This recomputes the
index without it: for each N on its own, it reads the sums S_i of
`bounds._alpha_sums` in order and stops at the first i with
(-1)^i S_i > 0, the definition of a firing index, and composes the
verdict by `bounds._verdict`.  The two are compared record for record
(`to_json_dict`, so the witness too) for every d = 2..6 and
N = 2..4096, and the script exits 1 naming the first mismatch.  It
takes 23-31 s on a 2-core VM, nearly all of it in the per-N scans.

    python3 scripts/check_bound_walk.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kuniform.bounds import _alpha_sums, _verdict, compute_bound_records  # noqa: E402
from kuniform.errors import MAX_PARTIES  # noqa: E402

LOCAL_DIMS = range(2, 7)
N_MIN = 2


def scanned(n: int, d: int) -> dict:
    """The verdict for N = n from the first i with (-1)^i S_i > 0, or from none."""
    sums = enumerate(_alpha_sums(n, d), 1)
    hit = next(((i, s) for i, s in sums if (s < 0 if i & 1 else s > 0)), None)
    return _verdict(n, d, hit).to_json_dict()


def main() -> int:
    for d in LOCAL_DIMS:
        start = time.monotonic()
        walked = compute_bound_records(d, N_MIN, MAX_PARTIES)
        for n, record in zip(range(N_MIN, MAX_PARTIES + 1), walked, strict=True):
            want = scanned(n, d)
            if record.to_json_dict() != want:
                print(f"mismatch at d={d} N={n}: walk {record.to_json_dict()}, scan {want}")
                return 1
        print(f"d={d}: N={N_MIN}..{MAX_PARTIES} agree ({time.monotonic() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
