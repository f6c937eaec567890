#!/usr/bin/env python3
"""Benchmark of kuniform: passes of user-visible operations, timed and checked.

Usage, from the root of a kuniform checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: homogeneous_bounds, hetero_ame, cross_validation (see
README.md).  A run first measures set-up time, then runs passes until
`--seconds`, counted from its start, are used up.  Each pass runs the
workload's operations in a fresh interpreter (`passrun.py`), so no cache
of the program survives from one pass to the next.  The reference
computation (`reference.py`) runs in its own interpreter just before and
just after each pass, and after every REFERENCE_INTERVAL_S seconds of
the pass, for which the pass interpreter is stopped (SIGSTOP) and then
resumed (SIGCONT): one interpreter computes at a time, and a long
operation is sampled as often as a short one.  Every stretch of the pass
between two references is scaled by (nominal reference time / mean of
those two references), which reports times at a nominal machine speed.
The speed of a shared machine swings by a fifth within a second and
drifts over minutes, so references taken only around a whole pass would
miss most of the drift.

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` the run alternates untraced and traced passes and
carries the per-layer metrics.  Run outputs and span files go to
`.perfbench-out/` in the checkout.  Exit code 2 when the current
directory is not a kuniform checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import passrun
import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"

# Typical mean time of one reference repeat on the machine the figures in
# README.md come from (shared 2-core VM, Python 3.11.7).
NOMINAL_REFERENCE_S = 0.060
# Seconds the pass runs between two references.
REFERENCE_INTERVAL_S = 1.0
SETUP_PROBES = 11
MIN_PASSES = 2
# Start no new pass after this many seconds, whatever --seconds says.
HARD_LIMIT_S = 120.0

CLOSED_FORM_ALPHA = ("bounds.k_upper_bound", "bounds.alpha_vector", "bounds.alpha_closed_form")
HETERO_KERNELS = ("hetero.hetero_shadow", "hetero.scott_search", "exact.elem_sym_prefix")
SECOND_ROUTES = ("bounds.alpha_oracle", "enumerators.a_to_c") + tuple(
    name for name in tracing.SPANNED_NAMES if name.startswith("oracle.")
)


def _child(args: list[str]) -> str:
    """Run one interpreter to its end and return the last line of its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=170
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{args[0]} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def reference() -> float:
    return float(_child([str(HERE / "reference.py")]))


def measure_setup(src: Path) -> tuple[float, float]:
    """Median raw set-up seconds over several interpreters, and the median scaled one.

    A reference runs before the first probe and after each one; a probe is
    scaled by the mean of the references on its two sides.
    """
    _child([str(HERE / "setup_probe.py"), str(src)])  # writes bytecode caches
    refs = [reference()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(float(_child([str(HERE / "setup_probe.py"), str(src)])))
        refs.append(reference())
    scaled = [t * NOMINAL_REFERENCE_S / statistics.mean(pair) for t, pair in zip(raw, zip(refs, refs[1:]))]
    return statistics.median(raw), statistics.median(scaled)


class Timeline:
    """The stretches of wall-clock time in which a pass ran, each with its scale.

    `pauses` are the (start, end, reference seconds) of the pauses in which
    the references ran, in order.  The pass ran in the gaps between them;
    a gap is scaled by nominal time / mean of the references on its sides.
    """

    def __init__(self, pauses: list[tuple[float, float, float]]):
        self.starts = [end for _, end, _ in pauses[:-1]]
        self.ends = [start for start, _, _ in pauses[1:]]
        self.scales = [
            NOMINAL_REFERENCE_S / statistics.mean((a[2], b[2])) for a, b in zip(pauses, pauses[1:])
        ]
        lengths = [e - s for s, e in zip(self.starts, self.ends)]
        self.raw_before = [0.0, *accumulate(lengths)]
        self.scaled_before = [0.0, *accumulate(t * f for t, f in zip(lengths, self.scales))]

    def _upto(self, t: float, scaled: bool) -> float:
        k = bisect_right(self.starts, t) - 1
        if k < 0:
            return 0.0
        part = min(t, self.ends[k]) - self.starts[k]
        if scaled:
            return self.scaled_before[k] + part * self.scales[k]
        return self.raw_before[k] + part

    def raw(self, start: float, end: float) -> float:
        """Seconds the pass ran between two clock readings, pauses left out."""
        return self._upto(end, False) - self._upto(start, False)

    def scaled(self, start: float, end: float) -> float:
        """The same seconds at the nominal machine speed."""
        return self._upto(end, True) - self._upto(start, True)


def _expect(proc: subprocess.Popen, word: str) -> None:
    line = proc.stdout.readline().decode().strip()
    if line != word:
        raise RuntimeError(f"pass interpreter said {line!r}, expected {word!r}")


def _pause(proc: subprocess.Popen, waiting: bool) -> tuple[float, float, float]:
    """Run one reference while the pass interpreter is held, and release it.

    A waiting interpreter (at READY or DONE) is released with a line on
    stdin; a running one is stopped with SIGSTOP and resumed with SIGCONT.
    """
    start = time.perf_counter()
    if not waiting:
        os.kill(proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            raise RuntimeError(f"pass interpreter ended while running (status {status})")
    seconds = reference()
    end = time.perf_counter()
    if waiting:
        proc.stdin.write(b"\n")
        proc.stdin.flush()
    else:
        os.kill(proc.pid, signal.SIGCONT)
    return start, end, seconds


def run_pass(src: Path, ops_path: Path, spans: Path, traced: bool) -> dict:
    """One pass in a fresh interpreter, with references before, during and after it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    args = [sys.executable, "-S", str(HERE / "passrun.py"), str(src), str(ops_path), str(int(traced)), str(spans)]
    pauses = []
    with open(spans.with_suffix(".stderr"), "w", encoding="utf-8") as err:
        proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            _expect(proc, passrun.READY)
            pauses.append(_pause(proc, waiting=True))
            while not select.select([proc.stdout], [], [], REFERENCE_INTERVAL_S)[0]:
                pauses.append(_pause(proc, waiting=False))
            _expect(proc, passrun.DONE)
            pauses.append(_pause(proc, waiting=True))
            out = proc.stdout.read().decode()
            returncode = proc.wait(timeout=170)
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
                proc.kill()
                proc.wait()
    if returncode != 0 or not out.strip():
        raise RuntimeError(f"pass failed ({returncode}), see {spans.with_suffix('.stderr')}")
    result = json.loads(out.strip().splitlines()[-1])
    timeline = Timeline(pauses)
    for op in result["ops"]:
        op["seconds"] = timeline.raw(op["start"], op["end"])
        op["scaled"] = timeline.scaled(op["start"], op["end"])
    if traced:
        with open(spans, encoding="utf-8") as fh:
            recorded = [json.loads(line) for line in fh]
        times = tracing.span_times(recorded, timeline.scaled)
        times["calls"].update(result["trace"]["calls"])
        result["trace"].update(times)
    result["traced"] = traced
    result["references"] = [seconds for _, _, seconds in pauses]
    return result


def run_passes(src: Path, ops_path: Path, out: Path, tag: str, deadline: float, trace: bool) -> list[dict]:
    """Passes until the next one would end after `deadline`, and at least MIN_PASSES.

    A traced run alternates untraced and traced passes and ends on a traced one.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(src, ops_path, out / f"spans-{tag}-{len(passes)}.jsonl", traced))
        now = time.perf_counter()
        done = len(passes) >= MIN_PASSES and not (trace and not traced)
        if done and (now + (now - start) / len(passes) > deadline or now - start > HARD_LIMIT_S):
            return passes


def tally(records: list[dict]) -> dict:
    """Attempted and failed operations; `correct` is false once an answer was wrong.

    An operation fails when it raised or exited with an error, or when its
    output failed a check.  Only the second kind makes the run incorrect.
    """
    failed = [r for r in records if r["error"] or r["problems"]]
    for r in failed[:10]:
        print(f"perfbench: failed {r['kind']} op: {r['error'] or r['problems'][:3]}", file=sys.stderr)
    return {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
    }


def _pass_times(p: dict, scaled: bool = True) -> dict:
    ops = p["ops"]
    times = [o["scaled" if scaled else "seconds"] for o in ops]
    return {
        "total": sum(times),
        "large": sum(t for t, o in zip(times, ops) if o["kind"] == "large"),
        "small_ms": 1000 * statistics.median(t for t, o in zip(times, ops) if o["kind"] == "small"),
    }


def end_to_end(passes: list[dict], setup_scaled: float) -> dict:
    times = [_pass_times(p) for p in passes]
    return {
        "pass_s": (statistics.median(t["total"] for t in times), "s"),
        "large_op_s": (statistics.median(t["large"] for t in times), "s"),
        "small_op_ms": (statistics.median(t["small_ms"] for t in times), "ms"),
        "setup_s": (setup_scaled, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def _share(tr: dict, names, kind: str | None = None) -> float:
    self_s = tr["self_by_kind"].get(kind, {}) if kind else tr["self_s"]
    total = tr["op_seconds"].get(kind, 0.0) if kind else sum(tr["op_seconds"].values())
    return sum(self_s.get(n, 0.0) for n in names) / total if total else 0.0


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def med(values):
        return statistics.median(list(values))

    trs = [p["trace"] for p in traced]
    metrics: dict = {}
    for name in tracing.SPANNED_NAMES:
        metrics[f"{name}.calls"] = (med(tr["calls"][name] for tr in trs), "count")
        metrics[f"{name}.self_s"] = (med(tr["self_s"][name] for tr in trs), "s")
    for name in tracing.COUNTED_NAMES:
        metrics[f"{name}.calls"] = (med(tr["calls"][name] for tr in trs), "count")
    for name in tracing.GROWTH:
        metrics[f"{name}.growth"] = (med(tr["growth"][name] for tr in trs), "slope")

    def hit_ratio(tr):
        hits, misses = tr["alpha_cache"]
        return hits / (hits + misses) if hits + misses else 0.0

    def subsets_per_call(tr):
        calls = tr["calls"]["hetero.scott_search"]
        return tr["subsets_in_search"] / calls if calls else 0.0

    metrics["bounds.alpha_vector.hit_ratio"] = (med(hit_ratio(tr) for tr in trs), "ratio")
    metrics["hetero.scott_search.subsets_per_call"] = (med(subsets_per_call(tr) for tr in trs), "count")
    metrics["share.closed_form_alpha"] = (med(_share(tr, CLOSED_FORM_ALPHA) for tr in trs), "ratio")
    metrics["share.hetero_kernels_large"] = (med(_share(tr, HETERO_KERNELS, "large") for tr in trs), "ratio")
    metrics["share.hetero_kernels_small"] = (med(_share(tr, HETERO_KERNELS, "small") for tr in trs), "ratio")
    metrics["share.second_routes"] = (med(_share(tr, SECOND_ROUTES) for tr in trs), "ratio")
    traced_s = med(_pass_times(p)["total"] for p in traced)
    untraced_s = med(_pass_times(p)["total"] for p in untraced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds

    # Every interpreter of the run (probes, references, passes) inherits this
    # one CPU, so a reference measures the CPU that the pass runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    src = root / "src"
    if not (src / "kuniform" / "cli.py").is_file():
        print("perfbench: run from the root of a kuniform checkout (src/kuniform not found)", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    ops = workloads.build(args.workload, args.seed, out / "states")
    ops_path = out / f"ops-{tag}.json"
    ops_path.write_text(json.dumps(ops))

    setup_raw, setup_scaled = measure_setup(src)
    passes = run_passes(src, ops_path, out, tag, deadline, bool(args.trace))

    counts = tally([o for p in passes for o in p["ops"]])
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    raw = [_pass_times(p, scaled=False) for p in untraced]
    kinds = [o["kind"] for o in passes[0]["ops"]]
    print(
        f"workload={args.workload} seed={args.seed} ops/pass={len(ops)} "
        f"(small={kinds.count('small')} large={kinds.count('large')}) "
        f"samples: passes={len(untraced)} traced={len(traced)} setup interpreters={SETUP_PROBES}; "
        f"references={sum(len(p['references']) for p in passes)} nominal={NOMINAL_REFERENCE_S}s "
        f"measured median={statistics.median(r for p in passes for r in p['references']):.4f}s"
    )
    print(
        f"raw (unscaled) medians: pass_s={statistics.median(t['total'] for t in raw):.4f} "
        f"large_op_s={statistics.median(t['large'] for t in raw):.4f} "
        f"small_op_ms={statistics.median(t['small_ms'] for t in raw):.4f} setup_s={setup_raw:.4f}"
    )
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setup_scaled)
    if args.trace:
        print(f"tracing overhead: traced pass {metrics['trace.pass_s'][0]:.3f}s vs untraced "
              f"{statistics.median(_pass_times(p)['total'] for p in untraced):.3f}s")
    print(json.dumps({
        **counts,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
