"""Tables I-IV of the paper, transcribed by hand from the publication.

This transcription is kept apart from the program's own fixture
(`kuniform.tables`), so that a table the program reproduces is compared
with the paper and not with itself.  Each range cell reads
"first-last:k" (or "N:k" for a single party count); each Table IV row
reads "d1_first-d1_last|d2|threshold n|shadow-certified n ...".
"""

from __future__ import annotations

TABLE_DIMS = {"I": 3, "II": 4, "III": 5}

_RANGE_TEXT = {
    "I": """
        2-3:1 4-5:2 6-8:3 9:4 10-13:5 14:6 15-18:7 19:8 20-22:9 23:10
        24-27:11 28-32:13 33-36:15 37-41:17 42-46:19 47-50:21 51-55:23
        56-60:25 61-65:27 66-69:29 70-74:31 75-79:33 80-83:35 84-88:37
    """,
    "II": """
        60-63:29 64-67:31 68-72:33 73-76:35 77-80:37 81-84:39 85-89:41
        90-93:43 94-97:45 98-102:47 103-106:49 107-110:51 111-114:53
        115-119:55 120-123:57 124-127:59 128-131:61 132-136:63 137-140:65
        141-144:67 145-149:69 150-153:71 154-157:73 158-161:75
    """,
    "III": """
        180-183:89 184-187:91 188-191:93 192-195:95 196-199:97 200-203:99
        204-207:101 208-211:103 212-215:105 216-219:107 220-223:109
        224-228:111 229-232:113 233-236:115 237-240:117 241-244:119
        245-248:121 249-252:123 253-256:125 257-260:127 261-264:129
        265-268:131 269-272:133 273-276:135
    """,
}

_TABLE_IV_TEXT = """
    3-4|2|5|4
    2-2|3|10|6 8 9
    4-4|3|11|6 8 9 10
    5-8|3|10|6 8 9
    9-9|3|10|6 8
    2-2|4|17|10 12 14 16
    3-3|4|18|12 14 16
    5-5|4|19|12 14 16 18
    6-8|4|18|14 16
    9-16|4|17|14 16
"""


def _span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    return int(lo), int(hi or lo)


def range_cells(table_id: str) -> list[tuple[str, int]]:
    """Published (n_range, k_max) cells of Table I, II or III, in order."""
    cells = []
    for token in _RANGE_TEXT[table_id].split():
        n_range, _, k = token.partition(":")
        cells.append((n_range, int(k)))
    return cells


def range_bound_by_n(table_id: str) -> dict[int, int]:
    """Published k_max for every N the table covers."""
    by_n = {}
    for n_range, k in range_cells(table_id):
        lo, hi = _span(n_range)
        for n in range(lo, hi + 1):
            by_n[n] = k
    return by_n


def table_iv_rows() -> list[tuple[int, int, int, list[int]]]:
    """Published Table IV expanded to one (d1, d2, threshold, shadow ns) row per d1."""
    rows = []
    for line in _TABLE_IV_TEXT.split("\n"):
        if not line.strip():
            continue
        d1_span, d2, threshold, shadow = line.strip().split("|")
        lo, hi = _span(d1_span)
        for d1 in range(lo, hi + 1):
            rows.append((d1, int(d2), int(threshold), [int(x) for x in shadow.split()]))
    return rows
