"""Reference computation that measures the machine's current speed.

Usage: python3 -S reference.py

Never imports kuniform.  It does the two kinds of work kuniform spends
its time in, in about equal parts: sums of products of big-integer
binomials (the shape of the closed-form alpha coefficients) and a
forward substitution on a triangular system in Fractions (the shape of
the triangular solve and the rational polynomial kernels), plus a few
interpreter-bound steps on dicts and JSON (the shape of per-call parsing
and rendering).  It repeats that work REPEATS times and prints the mean
time of one repeat in seconds.  The benchmark runs it in its own
interpreter before, during (with the pass interpreter stopped) and after
each pass, and scales the pass's times by (nominal time / mean measured
time).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction

REPEATS = 4


def work() -> tuple:
    n, d = 700, 5
    acc = 0
    for i in range(1, n // 2 + 1, 24):
        for j in range(i):
            acc += (
                (1 - d) ** j
                * math.comb(n - 2 * i + j, n - 2 * i)
                * math.comb(2 * i - 2 - j, i - 1)
            )
    # forward substitution on a triangular binomial system, in Fractions
    m = 85
    x: list[Fraction] = []
    for i in range(m):
        row = Fraction(int(i == 0))
        for j in range(i):
            row -= (-3) ** (i - j) * math.comb(m, i - j) * x[j]
        x.append(row / (i + 2))
    total = Fraction(0)
    for k in range(400):
        doc = json.loads(json.dumps({"k": [k, str(k)], "v": {"c": k}}))
        total += Fraction(doc["v"]["c"], 7) + Fraction(3, k + 1)
    return acc, x[-1], total


def main() -> None:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    print(statistics.mean(times))


if __name__ == "__main__":
    main()
