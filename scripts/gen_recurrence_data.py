#!/usr/bin/env python3
"""Regenerate src/kuniform/data/range_recurrences.json.

The three-term recurrences certifying the d=3 sign facts are recorded
below in factored form (integer constant times a product of integer
polynomials in n).  This script expands each product into a plain
coefficient list, determines empirically the first n from which all
three polynomials are positive, and writes the packaged data file.

Each spec is checked at generation time by `kuniform.bounds.verify_recurrence`,
the check the package runs on the shipped data: the stated initial
terms, and the identity lead(n) p_(n+2) = mid(n) p_(n+1) + low(n) p_n for
every n from BASE_N to N_CHECK, with p_n recomputed by direct summation.
A transcription typo in any factor makes the check fail loudly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kuniform.bounds import RecurrenceSpec, poly_eval, verify_recurrence  # noqa: E402

N_CHECK = 40
BASE_N = 1  # every shipped identity holds from n = 1


def expand(constant: int, factors: list[list[int]]) -> list[int]:
    coeffs = [constant]
    for factor in factors:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# (offset, lead=h_{n+2}, mid=h_{n+1}, low=h_n, stated initial terms)
# Polynomial factors are ascending coefficient lists: [c0, c1, ...] = c0 + c1 n + ...
RAW = [
    (
        -1,
        (729, [[0, 1], [1, 1], [1, 3], [2, 3], [4, 3], [5, 3], [148, 870, 1247]]),
        (48, [[0, 1], [1, 3], [2, 3], [64845, 611964, 2158381, 3177680, 2083331, 496306]]),
        (448, [[-1, 7], [1, 7], [2, 7], [3, 7], [4, 7], [5, 7], [2265, 3364, 1247]]),
        [(1, 4), (2, 36)],
    ),
    (
        -2,
        (729, [[0, 1], [1, 1], [1, 3], [2, 3], [4, 3], [5, 3], [-135, -371, -261, 1247]]),
        (48, [[0, 1], [1, 3], [2, 3], [-775965, -4093609, -9631385, -9070501, -1782359, 1633193, 496306]]),
        (448, [[-2, 7], [-1, 7], [1, 7], [2, 7], [3, 7], [4, 7], [480, 2848, 3480, 1247]]),
        [(1, 6), (2, 120), (3, 3150), (4, 80304)],
    ),
    (
        -3,
        (729, [[-1, 1], [1, 1], [1, 3], [2, 3], [4, 3], [5, 3], [-504, -608, -1392, 1247]]),
        (48, [[1, 3], [2, 3], [3214890, 9384249, 14090971, -2171291, -19263725, -11599109, 686749, 496306]]),
        (448, [[-3, 7], [-2, 7], [-1, 7], [1, 7], [2, 7], [3, 7], [-1257, 349, 2349, 1247]]),
        [],
    ),
    (
        -4,
        (729, [[-2, 1], [1, 1], [1, 3], [2, 3], [4, 3], [5, 3], [-1353, -563, -2523, 1247]]),
        (48, [[1, 3], [2, 3], [18830070, 43348599, 74568645, 40640779, -13416795, -24189239, -259695, 496306]]),
        (448, [[-4, 7], [-3, 7], [-2, 7], [-1, 7], [1, 7], [2, 7], [-3192, -1868, 1218, 1247]]),
        [],
    ),
    (
        0,
        (729, [[-2, 1], [1, 1], [2, 1], [2, 3], [4, 3], [5, 3], [7, 3], [-3645, -3083, -783, 1247]]),
        (48, [[1, 1], [2, 3], [4, 3], [197026830, 382545627, 243647573, -48990041, -109302835, -33053867, 1425437, 496306]]),
        (448, [[0, 1], [1, 7], [2, 7], [3, 7], [4, 7], [5, 7], [6, 7], [-6264, -908, 2958, 1247]]),
        [],
    ),
    (
        1,
        (729, [[-1, 1], [2, 1], [2, 3], [4, 3], [5, 3], [7, 3], [-1992, -1808, 348, 1247]]),
        (48, [[2, 3], [4, 3], [51994386, 81931221, -12029301, -109375991, -77973861, -14829041, 2371881, 496306]]),
        (448, [[1, 7], [2, 7], [3, 7], [4, 7], [5, 7], [6, 7], [-2205, 2629, 4089, 1247]]),
        [],
    ),
    (
        2,
        (729, [[0, 1], [2, 1], [2, 3], [4, 3], [5, 3], [7, 3], [-795, -251, 1479, 1247]]),
        (48, [[2, 3], [4, 3], [-645120, -28032777, -76821521, -79862429, -31964789, 622405, 3318325, 496306]]),
        (448, [[2, 7], [3, 7], [4, 7], [5, 7], [6, 7], [8, 7], [1680, 6448, 5220, 1247]]),
        [],
    ),
    (
        3,
        (729, [[1, 1], [2, 1], [2, 3], [4, 3], [5, 3], [7, 3], [192, 1588, 2610, 1247]]),
        (48, [[1, 1], [2, 3], [4, 3], [-5160960, -12315591, -6140488, 7365557, 9532008, 3768463, 496306]]),
        (448, [[3, 7], [4, 7], [5, 7], [6, 7], [8, 7], [9, 7], [5637, 10549, 6351, 1247]]),
        [],
    ),
    (
        4,
        (729, [[1, 1], [2, 1], [2, 3], [4, 3], [5, 3], [7, 3], [1215, 2494, 1247]]),
        (48, [[1, 1], [3, 2], [2, 3], [4, 3], [1148175, 3168228, 3289453, 1488918, 248153]]),
        (448, [[4, 7], [5, 7], [6, 7], [8, 7], [9, 7], [10, 7], [4956, 4988, 1247]]),
        [],
    ),
    (
        5,
        (729, [[-1, 1], [2, 1], [3, 1], [4, 3], [5, 3], [7, 3], [8, 3], [-4632, -1568, 2088, 1247]]),
        (48, [[2, 1], [4, 3], [5, 3], [317472570, 181921041, -370788709, -455647763, -173370589, -15074909, 4057013, 496306]]),
        (448, [[1, 1], [5, 7], [6, 7], [8, 7], [9, 7], [10, 7], [11, 7], [-2865, 6349, 5829, 1247]]),
        [],
    ),
    (
        6,
        (729, [[0, 1], [2, 1], [3, 1], [4, 3], [5, 3], [7, 3], [8, 3], [-1743, 1309, 3219, 1247]]),
        (48, [[2, 1], [4, 3], [5, 3], [-23224320, -267580053, -455857497, -300018401, -71856645, 6011233, 5003457, 496306]]),
        (448, [[1, 1], [6, 7], [8, 7], [9, 7], [10, 7], [11, 7], [12, 7], [4032, 11488, 6960, 1247]]),
        [],
    ),
    (
        7,
        (729, [[2, 1], [3, 1], [4, 3], [5, 3], [7, 3], [8, 3], [960, 4468, 4350, 1247]]),
        (48, [[2, 1], [4, 3], [5, 3], [-77414400, -131658555, -61786316, 12280125, 18870400, 5453595, 496306]]),
        (448, [[8, 7], [9, 7], [10, 7], [11, 7], [12, 7], [13, 7], [11025, 16909, 8091, 1247]]),
        [],
    ),
    (
        8,
        (729, [[2, 1], [3, 1], [4, 3], [5, 3], [7, 3], [8, 3], [3723, 7909, 5481, 1247]]),
        (48, [[2, 1], [4, 3], [5, 3], [11399265, 53229759, 86249173, 67712283, 28055911, 5903733, 496306]]),
        (448, [[8, 7], [9, 7], [10, 7], [11, 7], [12, 7], [13, 7], [18360, 22612, 9222, 1247]]),
        [],
    ),
    (
        9,
        (729, [[2, 1], [3, 1], [4, 3], [5, 3], [7, 3], [8, 3], [3396, 4118, 1247]]),
        (48, [[2, 1], [4, 3], [5, 3], [19995525, 49463220, 47943485, 22845248, 5361259, 496306]]),
        (448, [[9, 7], [10, 7], [11, 7], [12, 7], [13, 7], [15, 7], [8761, 6612, 1247]]),
        [],
    ),
]


def main() -> None:
    specs = []
    for offset, lead_raw, mid_raw, low_raw, initial in RAW:
        lead = expand(*lead_raw)
        mid = expand(*mid_raw)
        low = expand(*low_raw)
        positive_from = None
        for start in range(1, N_CHECK + 1):
            if all(
                poly_eval(poly, n) > 0
                for n in range(start, N_CHECK + 1)
                for poly in (lead, mid, low)
            ):
                positive_from = start
                break
        assert positive_from is not None, f"offset {offset}: never all positive"

        spec = RecurrenceSpec(
            offset, tuple(lead), tuple(mid), tuple(low), tuple(initial), BASE_N, positive_from
        )
        _, failures = verify_recurrence(spec, N_CHECK)
        assert not failures, (offset, failures)

        print(f"offset {offset:+d}: base_n={BASE_N} positive_from={positive_from}")
        specs.append(
            {
                "offset": offset,
                "lead": lead,
                "mid": mid,
                "low": low,
                "initial_terms": [[n, str(v)] for n, v in initial],
                "base_n": BASE_N,
                "positive_from": positive_from,
            }
        )

    out = ROOT / "src" / "kuniform" / "data" / "range_recurrences.json"
    out.write_text(json.dumps({"specs": specs}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
