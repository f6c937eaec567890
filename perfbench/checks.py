"""Checks of kuniform's outputs against computations made apart from it.

Nothing here imports kuniform.  Every expected value is recomputed from
the published formulas (Rains' qubit bound, Scott's party-count
threshold, the generalized subset inequality, Schmidt feasibility), from
the paper's tables as transcribed in `published`, or from a shadow route
of this module's own: the AME purity profile summed over dimension-class
count vectors and pushed through the Krawtchouk generating function
(1 - z)^s (1 + z)^(N - s) by Horner's rule.  That route shares no code and
no algorithm with `hetero.hetero_shadow` (elementary symmetric sums) or
`oracle.ame_shadow_oracle` (subset-sum butterfly).

Where a check compares with the program's second route (`alpha_oracle`
for N <= 60, `ame_shadow_oracle` for N <= 11), the caller passes that
function in `oracles`, so this module stays importable on its own.

Each `check_*` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, prod

import published

ORACLE_ALPHA_MAX_N = 60
ORACLE_SHADOW_MAX_N = 11

# `verify --suite recurrence` checks one identity per n = 1..30 for each
# offset -4..9 of N mod 14.
RECURRENCE_CHECKS = 14 * 30

# Largest uniformity of each kind of state in the corpus.
_KNOWN_MAX_UNIFORMITY = {"ghz": 1, "ame43": 2, "w3": 0, "product": 0}


def rat(text) -> Fraction:
    return Fraction(str(text))


def parse_dims(spec: str) -> list[int]:
    """Expand "<dim>x<count>,..." into the list of local dimensions."""
    dims: list[int] = []
    for term in spec.split(","):
        dim, count = term.split("x")
        dims += [int(dim)] * int(count)
    return dims


def class_counts(dims) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for d in dims:
        counts[d] = counts.get(d, 0) + 1
    return sorted(counts.items())


# ---------------------------------------------------------------------------
# homogeneous bounds
# ---------------------------------------------------------------------------


def rains_bound(n: int) -> int:
    """Rains (1999): k <= 2 floor(N/6) + 1, or + 2 when N = 5 mod 6."""
    m, rest = divmod(n, 6)
    return 2 * m + 2 if rest == 5 else 2 * m + 1


def scott_condition(n: int, d: int) -> bool:
    """Scott (2004): no AME state once N > 2(d^2 - 1) (even N) or N > 2d(d + 1) - 1 (odd N)."""
    if n % 2 == 0:
        return n > 2 * (d * d - 1)
    return n > 2 * d * (d + 1) - 1


def check_bound_record(rec: dict, d: int, oracles: dict) -> list[str]:
    n, k, prov = rec["n"], rec["k_max"], rec["provenance"]
    half = n // 2
    where = f"d={d} N={n}"
    problems = []
    if rec["d"] != d:
        problems.append(f"{where}: record has d={rec['d']}")
    if not 0 <= k <= half:
        problems.append(f"{where}: k_max={k} outside 0..floor(N/2)")
    if scott_condition(n, d) and k > half - 1:
        problems.append(f"{where}: k_max={k} above Scott's bound {half - 1}")
    if d == 2 and k > rains_bound(n):
        problems.append(f"{where}: k_max={k} above Rains' bound {rains_bound(n)}")
    if prov.startswith("alpha-sign(") and prov.endswith(")"):
        i = int(prov[len("alpha-sign(") : -1])
        witness = rat(rec["witness"])
        if k != i - 1:
            problems.append(f"{where}: {prov} but k_max={k}")
        if (-1) ** i * witness >= 0:
            problems.append(f"{where}: witness {witness} of {prov} lacks the forcing sign")
        if n <= ORACLE_ALPHA_MAX_N and oracles["alpha_oracle"](n, d, i) != witness:
            problems.append(f"{where}: witness of {prov} differs from the triangular solve")
        return problems
    if "witness" in rec:
        problems.append(f"{where}: witness without an alpha-sign provenance")
    expected_k = {
        "scott": half - 1 if scott_condition(n, d) else None,
        "rains": rains_bound(n) if d == 2 else None,
        "ame-nonexistence-table": half - 1,
        "trivial-Schmidt": half,
    }
    if prov not in expected_k:
        problems.append(f"{where}: unknown provenance {prov!r}")
    elif expected_k[prov] != k:
        problems.append(f"{where}: provenance {prov} does not give k_max={k}")
    return problems


def check_bound(payload: dict, d: int, n: int, oracles: dict) -> list[str]:
    records = payload["records"]
    if payload["d"] != d or [r["n"] for r in records] != [n]:
        return [f"bound d={d} N={n}: wrong records {records!r}"]
    return check_bound_record(records[0], d, oracles)


def check_range_table(payload: dict, table_id: str, oracles: dict) -> list[str]:
    d = published.TABLE_DIMS[table_id]
    problems = []
    cells = [(c["n_range"], c["k_max"]) for c in payload["cells"]]
    if cells != published.range_cells(table_id):
        problems.append(f"table {table_id}: cells differ from the published table")
    by_n = published.range_bound_by_n(table_id)
    if [r["n"] for r in payload["records"]] != sorted(by_n):
        problems.append(f"table {table_id}: records do not cover the table's N range")
    for rec in payload["records"]:
        if by_n.get(rec["n"]) != rec["k_max"]:
            problems.append(f"table {table_id} N={rec['n']}: k_max={rec['k_max']}, published {by_n.get(rec['n'])}")
        problems += check_bound_record(rec, d, oracles)
    return problems


def check_table_iv(payload: dict) -> list[str]:
    rows = [
        (r["d1"], r["d2"], r["threshold_n"], r["shadow_certified_n"])
        for r in payload["rows"]
    ]
    problems = []
    if rows != published.table_iv_rows():
        problems.append("table IV: rows differ from the published table")
    for d1, d2, threshold, _ in rows:
        if threshold != pair_threshold(d1, d2):
            problems.append(f"table IV d1={d1} d2={d2}: threshold {threshold} != {pair_threshold(d1, d2)}")
    return problems


def check_table(payload: dict, table_id: str, oracles: dict) -> list[str]:
    problems = []
    if payload["table"] != table_id or payload["match"] is not True or payload["diffs"]:
        problems.append(f"table {table_id}: program reports a mismatch {payload['diffs']!r}")
    if table_id == "IV":
        return problems + check_table_iv(payload)
    return problems + check_range_table(payload, table_id, oracles)


# ---------------------------------------------------------------------------
# heterogeneous AME verdicts
# ---------------------------------------------------------------------------


def schmidt_feasible(dims) -> bool:
    """Every floor(N/2)-party side must be no larger than its complement."""
    half = len(dims) // 2
    largest = prod(sorted(dims, reverse=True)[:half])
    return largest * largest <= prod(dims)


def subset_value(counts: dict[int, int], total: int, half: int) -> Fraction:
    """Left side of the generalized subset inequality for a subset with these dimension counts."""
    ratio = Fraction(prod(d ** (2 * c) for d, c in counts.items()), total)
    deficit = 1 - sum(Fraction(c, d * d) for d, c in counts.items())
    return ratio * deficit + half + 1


def min_subset_value(dims) -> Fraction | None:
    """Smallest inequality value over all (floor(N/2) + 2)-subsets, None if there are none."""
    n = len(dims)
    size = n // 2 + 2
    if size > n:
        return None
    classes = class_counts(dims)
    total = prod(dims)
    best = None
    for counts in product(*(range(min(c, size) + 1) for _, c in classes)):
        if sum(counts) != size:
            continue
        value = subset_value({d: k for (d, _), k in zip(classes, counts)}, total, n // 2)
        if best is None or value < best:
            best = value
    return best


def pair_family(dims) -> tuple[int, int, int] | None:
    """(d1, d2, n) when the profile is d1 x d2^(2n); a homogeneous odd profile has d1 = d2."""
    if len(dims) % 2 == 0:
        return None
    classes = class_counts(dims)
    if len(classes) == 1:
        return dims[0], dims[0], len(dims) // 2
    if len(classes) == 2:
        (da, ca), (db, cb) = classes
        if ca == 1:
            return da, db, cb // 2
        if cb == 1:
            return db, da, ca // 2
    return None


def pair_threshold(d1: int, d2: int) -> int:
    """Corollary 7: smallest n certified in closed form on d1 x d2^(2n), d1 <= d2^2."""
    if d1 < d2:
        bound = Fraction(d2**4 - d1, d2**2 - d1) - 2
    else:
        bound = Fraction(d2**2 * (d1 + 1), d1) - 1
    return int(bound // 1) + 1


def _structured_counts(d1: int, d2: int, n: int) -> dict[int, int]:
    """Dimension counts of the subset behind Corollary 7."""
    if d1 < d2:
        return {d2: n + 2}
    if d1 == d2:
        return {d1: n + 2}
    return {d1: 1, d2: n + 1}


def ame_shadow(dims) -> list[Fraction]:
    """Shadow coefficients s_0..s_N of a hypothetical AME state on the profile.

    The AME purity of a subset S is 1 / min(D_S, D / D_S), so total * purity
    is the integer max(D_S, D / D_S).  Grouping subsets by size s gives the
    weights w_s, and s_j = [z^(N-j)] sum_s w_s (1 - z)^s (1 + z)^(N-s) / D.
    """
    n = len(dims)
    total = prod(dims)
    classes = class_counts(dims)
    weight = [0] * (n + 1)
    for counts in product(*(range(c + 1) for _, c in classes)):
        mult = prod(comb(c, k) for (_, c), k in zip(classes, counts))
        d_sub = prod(d**k for (d, _), k in zip(classes, counts))
        weight[sum(counts)] += mult * max(d_sub, total // d_sub)
    poly = [weight[n]]
    row = [1]
    for s in range(n - 1, -1, -1):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
        poly = [a - b + weight[s] * r for a, b, r in zip(poly + [0], [0] + poly, row)]
    return [Fraction(poly[n - j], total) for j in range(n + 1)]


def first_negative(values) -> int | None:
    return next((j for j, v in enumerate(values) if v < 0), None)


def predict_ame(dims) -> tuple[str, object]:
    """The verdict path `ame` must take, with the value that decides it."""
    if not schmidt_feasible(dims):
        return "infeasible", None
    family = pair_family(dims)
    if family is not None:
        d1, d2, n = family
        threshold = pair_threshold(d1, d2)
        half = len(dims) // 2
        if n >= threshold and subset_value(_structured_counts(d1, d2, n), prod(dims), half) < 0:
            return "corollary7", threshold
    best = min_subset_value(dims)
    if best is not None and best < 0:
        return "scott-witness", best
    if len(dims) % 2 == 1:
        shadow = ame_shadow(dims)
        j = first_negative(shadow)
        if j is not None:
            return "shadow-negative", (j, shadow[j])
    return "unknown", None


def _check_witness(witness: dict, dims) -> list[str]:
    subset = witness["subset"]
    half = len(dims) // 2
    if len(subset) != half + 2 or len(set(subset)) != len(subset):
        return [f"witness subset {subset} is not {half + 2} distinct parties"]
    if not all(0 <= i < len(dims) for i in subset):
        return [f"witness subset {subset} out of range"]
    counts: dict[int, int] = {}
    for i in subset:
        counts[dims[i]] = counts.get(dims[i], 0) + 1
    value = subset_value(counts, prod(dims), half)
    problems = []
    if value != rat(witness["value"]):
        problems.append(f"witness value {witness['value']} != recomputed {value}")
    if value >= 0:
        problems.append(f"witness value {value} is not negative")
    return problems


def check_ame(status: str, payload: dict, dims, oracles: dict) -> list[str]:
    where = f"ame {dims[:3]}...N={len(dims)}"
    if payload["profile"] != list(dims):
        return [f"{where}: profile echoed as {payload['profile'][:5]}..."]
    path, info = predict_ame(dims)
    verdict = payload["status"]
    cert = payload.get("certificate")
    got = cert["kind"].split("(")[0] if cert else verdict
    problems = []
    if got != path:
        problems.append(f"{where}: verdict {got}, expected {path}")
        return problems
    if status != ("ok" if verdict == "unknown" else "violation-found"):
        problems.append(f"{where}: envelope status {status} for verdict {verdict}")
    if path in ("scott-witness", "corollary7"):
        problems += [f"{where}: {p}" for p in _check_witness(cert["witness"], dims)]
    if path == "corollary7" and cert["threshold_n"] != info:
        problems.append(f"{where}: threshold {cert['threshold_n']} != {info}")
    if path == "shadow-negative":
        j, s_j = info
        if cert["kind"] != f"shadow-negative({j})" or cert["j"] != j or rat(cert["s_j"]) != s_j:
            problems.append(f"{where}: shadow certificate {cert} != j={j} s_j={s_j}")
        if len(dims) <= ORACLE_SHADOW_MAX_N and oracles["ame_shadow_oracle"](dims)[j] != s_j:
            problems.append(f"{where}: s_j differs from the subset-sum oracle")
    return problems


def check_hetero_shadow(shadow, dims, oracles: dict) -> list[str]:
    n = len(dims)
    where = f"hetero_shadow N={n}"
    shadow = list(shadow)
    problems = []
    if sum(shadow) != 2**n:
        problems.append(f"{where}: coefficients sum to {sum(shadow)}, not 2^N")
    if shadow != ame_shadow(dims):
        problems.append(f"{where}: differs from the class-sum shadow route")
    if n <= ORACLE_SHADOW_MAX_N and tuple(shadow) != tuple(oracles["ame_shadow_oracle"](dims)):
        problems.append(f"{where}: differs from the subset-sum oracle")
    return problems


# ---------------------------------------------------------------------------
# cross-validation suites, explicit states and round trips
# ---------------------------------------------------------------------------


def expected_verify_checks(suite: str) -> int:
    if suite == "alpha":
        return sum(4 * (n // 2 + 1) for n in range(2, 61))
    if suite == "recurrence":
        return RECURRENCE_CHECKS
    return sum(
        1
        for n in (3, 5, 7, 9, 11)
        for dims in combinations_with_replacement((2, 3, 4), n)
        if schmidt_feasible(dims)
    )


def check_verify(payload: dict, suite: str) -> list[str]:
    expected = expected_verify_checks(suite)
    problems = []
    if payload["suite"] != suite or payload["checks"] != expected:
        problems.append(f"verify {suite}: {payload['checks']} checks, expected {expected}")
    if payload["failures"]:
        problems.append(f"verify {suite}: failures {payload['failures'][:3]}")
    return problems


def known_max_uniformity(state: str) -> int:
    return _KNOWN_MAX_UNIFORMITY[state.split("-")[0]]


def check_enumerate(payload: dict, state: str, dims) -> list[str]:
    n, d = len(dims), dims[0]
    a = [rat(x) for x in payload["a"]["coeffs"]]
    s = [rat(x) for x in payload["s"]["coeffs"]]
    kmax = known_max_uniformity(state)
    problems = []
    if payload["dims"] != list(dims) or len(a) != n + 1 or len(s) != n + 1:
        return [f"{state}: wrong shape"]
    if a[0] != 1 or any(x < 0 for x in a) or sum(a) != d**n:
        problems.append(f"{state}: enumerator {payload['a']['coeffs']} is not a pure-state enumerator summing to d^N")
    if sum(s) != 2**n or payload["s_matches_transform"] is not True:
        problems.append(f"{state}: shadow does not sum to 2^N or disagrees with the transform")
    if any(a[j] != 0 for j in range(1, kmax + 1)):
        problems.append(f"{state}: a_1..a_{kmax} not zero for a {kmax}-uniform state")
    if kmax + 1 <= n // 2 and a[kmax + 1] == 0:
        problems.append(f"{state}: a_{kmax + 1} is zero for a state that is not {kmax + 1}-uniform")
    return problems


def check_uniform(payload: dict, state: str, dims, k: int) -> list[str]:
    expected = k <= known_max_uniformity(state)
    if payload["dims"] != list(dims) or payload["k"] != k or payload["uniform"] is not expected:
        return [f"{state}: --check-uniform {k} gave {payload.get('uniform')}, expected {expected}"]
    return []


def invariant_expansion(n: int, d: int, c) -> list[Fraction]:
    """sum_i c_i (x + (d-1) y)^(N-2i) (y (x - y))^i, expanded term by term."""
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(c):
        for ell in range(n - 2 * i + 1):
            lead = ci * comb(n - 2 * i, ell) * (d - 1) ** ell
            for m in range(i + 1):
                out[ell + i + m] += lead * comb(i, m) * (-1) ** m
    return out


def check_roundtrip(result: dict, n: int, d: int, c) -> list[str]:
    where = f"round trip N={n} d={d}"
    a, b, shadow = result["a"], result["b"], result["shadow"]
    t = n % 2
    checks = {
        "c_to_a expands the invariant basis": list(a) == invariant_expansion(n, d, c),
        "a_to_c(c_to_a(c)) == c": list(result["a_to_c"]) == list(c),
        "b_to_c(c_to_b(c)) == c": list(result["b_to_c"]) == list(c),
        "the duality transform fixes A": list(result["macwilliams"]) == list(a),
        "the shadow compresses to c_to_b": [shadow[2 * j + t] for j in range(n // 2 + 1)] == list(b),
        "odd shadow tail vanishes": all(shadow[n - j] == 0 for j in range(1, n + 1, 2)),
        "constraint report sees duality": result["duality_invariant"] is True,
    }
    return [f"{where}: {name} fails" for name, ok in checks.items() if not ok]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def parse_envelope(raw: dict, command: str) -> tuple[str, dict]:
    """Status and payload of one CLI run; raises ValueError on a failed run."""
    if raw["rc"] != 0:
        raise ValueError(f"exit code {raw['rc']}: {raw['out'][-200:]!r}")
    doc = json.loads(raw["out"])
    if doc["command"] != command or set(doc) != {"command", "status", "timestamp", "payload"}:
        raise ValueError(f"malformed envelope {raw['out'][:200]!r}")
    return doc["status"], doc["payload"]


def check_op(op: dict, raw, oracles: dict) -> list[str]:
    """Problems with one operation's output; raises ValueError if the run itself failed."""
    check = op["check"]
    if "cli" in op:
        status, payload = parse_envelope(raw, op["cli"][0])
        if check == "ame":
            return check_ame(status, payload, parse_dims(op["cli"][2]), oracles)
        if status not in ("ok", "violation-found"):
            return [f"{' '.join(op['cli'])}: status {status}"]
        if check == "table":
            return check_table(payload, op["cli"][2], oracles)
        if check == "bound":
            return check_bound(payload, int(op["cli"][2]), int(op["cli"][4]), oracles)
        if check == "verify":
            return check_verify(payload, op["cli"][2])
        if check == "enumerate":
            return check_enumerate(payload, op["state"], op["dims"])
        if check == "uniform":
            return check_uniform(payload, op["state"], op["dims"], op["k"])
    elif check == "hetero_shadow":
        return check_hetero_shadow(raw, parse_dims(op["dims"]), oracles)
    elif check == "roundtrip":
        return check_roundtrip(raw, op["n"], op["d"], [rat(x) for x in op["c"]])
    raise ValueError(f"unknown check {check!r}")
