"""Verdict benchmark for boolkit.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: one process, one thread,
each verdict requested after the previous one returned.  A pass asks for one
verdict per input item; passes repeat until the next one would end after
--seconds of measured time (at least one pass).  Every verdict is checked
against the independent reference after its pass, outside the timing.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones (per
pass) plus trace.overhead_share; spans go to .bench_out/.

--workload all runs every workload, each in its own process, and prints every
metric by name and unit.  The last line of standard output is always one JSON
object with correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# Verdict times are read against a fixed pure-Python loop, timed at the
# start and end of a pass and after any verdict that ends more than
# CALIBRATE_EVERY_S after the last timing.  The machine's speed drifts by
# tens of percent from one minute to the next, and it moves the loop and
# boolkit together.  A "reference second" (ref_s) is the time a verdict takes
# on a machine where the loop takes CALIBRATION_REF_S.  The set-up time is
# scaled the same way, by the loop timed just before and after it.
CALIBRATION_LOOP = 25_000
CALIBRATION_REF_S = 0.005
CALIBRATE_EVERY_S = 0.2

END_TO_END = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/ref_s"),
    ("verdict_p50_ms", "ref_ms"),
    ("verdict_p90_ms", "ref_ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, layer, source): source is "calls", "self_s" or a count name
PER_LAYER = [
    ("compact.oracle.calls", "count", "compact.oracle", "calls"),
    ("compact.oracle.self_s", "s", "compact.oracle", "self_s"),
    ("compact.oracle.nodes", "count", "compact.oracle", "nodes"),
    ("compact.oracle.unknown", "count", "compact.oracle", "unknown"),
    ("compact.materialize.self_s", "s", "compact.materialize", "self_s"),
    ("compact.materialize.members", "count", "compact.materialize", "members"),
    ("compact.fincons.self_s", "s", "compact.fincons", "self_s"),
    ("compact.conservative.self_s", "s", "compact.conservative", "self_s"),
    ("compact.conservative.subsets", "count", "compact.conservative", "subsets"),
    ("consprop.verify.calls", "count", "consprop.verify", "calls"),
    ("consprop.verify.self_s", "s", "consprop.verify", "self_s"),
    ("consprop.model.self_s", "s", "consprop.model", "self_s"),
    ("consprop.saturate.self_s", "s", "consprop.saturate", "self_s"),
    ("consprop.saturate.members", "count", "consprop.saturate", "members"),
    ("balg.poset.self_s", "s", "balg.poset", "self_s"),
    ("balg.poset.elements", "count", "balg.poset", "elements"),
    ("balg.ro_completion.self_s", "s", "balg.ro_completion", "self_s"),
    ("balg.ro_completion.atoms", "count", "balg.ro_completion", "atoms"),
    ("balg.ultrafilters.self_s", "s", "balg.ultrafilters", "self_s"),
    ("bvmodel.eval.calls", "count", "bvmodel.eval", "calls"),
    ("bvmodel.eval.self_s", "s", "bvmodel.eval", "self_s"),
    ("bvmodel.validate.calls", "count", "bvmodel.validate", "calls"),
    ("bvmodel.validate.self_s", "s", "bvmodel.validate", "self_s"),
    ("bvmodel.mixing.self_s", "s", "bvmodel.mixing", "self_s"),
    ("bvmodel.quotient.self_s", "s", "bvmodel.quotient", "self_s"),
    ("proofs.check.self_s", "s", "proofs.check", "self_s"),
    ("proofs.probe.self_s", "s", "proofs.probe", "self_s"),
    ("proofs.probe.trials", "count", "proofs.probe", "trials"),
    ("forcing.build.self_s", "s", "forcing.build", "self_s"),
    ("forcing.build.conditions", "count", "forcing.build", "conditions"),
    ("forcing.dense.self_s", "s", "forcing.dense", "self_s"),
    ("forcing.generic.self_s", "s", "forcing.generic", "self_s"),
    ("forcing.term_model.self_s", "s", "forcing.term_model", "self_s"),
    ("syntax.parse.self_s", "s", "syntax.parse", "self_s"),
    ("syntax.nnf.self_s", "s", "syntax.nnf", "self_s"),
    ("syntax.qe.self_s", "s", "syntax.qe", "self_s"),
]


def load_boolkit():
    """Import boolkit from this checkout's src/ only, dropping any earlier
    import first; returns the package and the seconds the import took."""
    src = ROOT / "src"
    if not (src / "boolkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no boolkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "boolkit" or n.startswith("boolkit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    boolkit = importlib.import_module("boolkit")
    for name in ("balg", "bvmodel", "compact", "consprop", "forcing", "proofs", "syntax"):
        importlib.import_module(f"boolkit.{name}")
    elapsed = time.perf_counter() - start
    if Path(boolkit.__file__).resolve().parent != (src / "boolkit").resolve():
        raise SystemExit(f"perfbench: boolkit imported from {boolkit.__file__}, not {src}")
    return boolkit, elapsed


def prefix(seed, pass_no, index):
    """Constant prefix of one verdict: fixed width, so every verdict pays the
    same renaming cost, and unique within a process."""
    if pass_no >= 1000 or index >= 10000:
        raise ValueError("prefix space exhausted")
    return f"k{seed % 1000:03d}{pass_no:03d}{index:04d}_"


def calibrate():
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(CALIBRATION_LOOP):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = i
    return time.perf_counter() - start


class Pass:
    """One pass over the items: per-verdict times (in seconds and in
    reference seconds) and outcomes, and the process's peak resident memory
    when the pass's verdicts were done."""

    def __init__(self):
        self.times = []
        self.ref_times = []
        self.decided = 0
        self.failures = []
        self.wall = 0.0
        self.peak_rss_mb = 0.0
        self.loops = []


def run_pass(bk, workload, items, seed, pass_no, memo, tracer=None):
    _, prepare, verdict, check = workload
    prepared = [prepare(bk, item, prefix(seed, pass_no, i)) for i, item in enumerate(items)]
    outputs = []
    result = Pass()
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    loops = [calibrate()]  # loop times; verdict i ran between segment[i] and the next
    segment = []
    try:
        last = time.perf_counter()
        for i, args in enumerate(prepared):
            if tracer is not None:
                tracer.begin_verdict((pass_no, i))
            t0 = time.perf_counter()
            try:
                out = (verdict(bk, args), None)
            except Exception as exc:  # a verdict that raises is a failed operation
                out = (None, f"{type(exc).__name__}: {exc}")
            result.times.append(time.perf_counter() - t0)
            segment.append(len(loops) - 1)
            outputs.append(out)
            if time.perf_counter() - last > CALIBRATE_EVERY_S:
                loops.append(calibrate())
                last = time.perf_counter()
        loops.append(calibrate())
    finally:
        result.wall = time.perf_counter() - start
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
    result.loops = loops
    result.ref_times = [
        t * 2 * CALIBRATION_REF_S / (loops[k] + loops[k + 1]) for t, k in zip(result.times, segment)
    ]
    for i, (item, args, (out, error)) in enumerate(zip(items, prepared, outputs)):
        decided, problem = True, error
        if error is None:
            try:
                decided, problem = check(bk, i, item, args, out, memo)
            except Exception as exc:  # output too malformed to check
                problem = f"unreadable output, {type(exc).__name__}: {exc}"
        result.decided += decided
        if problem is not None:
            result.failures.append((i, problem))
    return result


def measure(bk, workload, items, seed, seconds, tracer=None):
    """Passes until the next would end after ``seconds`` of measured time.
    With a tracer, passes alternate untraced and traced, in pairs."""
    memo = {}
    passes, traced = [], []
    measured = 0.0
    while True:
        step = 0.0
        for use in ([None] if tracer is None else [None, tracer]):
            p = run_pass(bk, workload, items, seed, len(passes) + len(traced), memo, use)
            (passes if use is None else traced).append(p)
            step += p.wall
        measured += step
        if measured + step > seconds:
            return passes, traced


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timing(per_pass):
    """Throughput, median and 90th percentile (ms) of per-pass verdict
    times, each verdict's time being its median over the passes; throughput
    is one pass at those times."""
    times = [statistics.median(ts) for ts in zip(*per_pass)]
    return len(times) / sum(times), 1000 * statistics.median(times), 1000 * percentile(times, 0.9)


def end_to_end(passes, setup_s):
    """Verdict times in reference seconds.  Peak memory is read after the
    first pass, before any verification."""
    per_s, p50, p90 = timing([p.ref_times for p in passes])
    attempted = sum(len(p.times) for p in passes)
    return {
        "setup_s": setup_s,
        "verdicts_per_s": per_s,
        "verdict_p50_ms": p50,
        "verdict_p90_ms": p90,
        "decided_share": sum(p.decided for p in passes) / attempted,
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def per_layer(tracer, traced, untraced):
    n = len(traced)
    out = {}
    for name, _, layer, source in PER_LAYER:
        stats = tracer.layers[layer]
        if source == "calls":
            value = stats.calls
        elif source == "self_s":
            value = stats.self_s
        else:
            value = stats.counts.get(source, 0)
        out[name] = value / n
    oracle = tracer.layers["compact.oracle"]
    out["compact.oracle.nodes_per_s"] = oracle.counts.get("nodes", 0) / oracle.self_s if oracle.self_s else 0.0
    out["compact.oracle.repeat_share"] = oracle.counts.get("repeats", 0) / oracle.calls if oracle.calls else 0.0
    out["trace.overhead_share"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1
    )
    return out


LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
LAYER_UNITS.update({
    "compact.oracle.nodes_per_s": "1/s",
    "compact.oracle.repeat_share": "ratio",
    "trace.overhead_share": "ratio",
})
UNITS = dict(END_TO_END, **LAYER_UNITS)


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    setups, ref_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        bk, import_s = load_boolkit()
        start = time.perf_counter()
        items = workload[0](random.Random(seed))
        setups.append(import_s + time.perf_counter() - start)
        ref_setups.append(setups[-1] * 2 * CALIBRATION_REF_S / (before + calibrate()))
    setup_s = statistics.median(ref_setups)

    tracer = Tracer(bk) if trace else None
    passes, traced = measure(bk, workload, items, seed, seconds, tracer)
    everything = passes + traced
    failures = [f for p in everything for f in p.failures]
    attempted = sum(len(p.times) for p in everything)
    for i, problem in failures[:20]:
        print(f"FAILED {name} item {i}: {problem}", file=sys.stderr)
    if trace:
        metrics = per_layer(tracer, traced, passes)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans_{name}_{seed}.jsonl")
    else:
        metrics = end_to_end(passes, setup_s)
    loop_ms = 1000 * statistics.median(t for p in everything for t in p.loops)
    per_s, p50, p90 = timing([p.times for p in passes])
    print(f"# {name}: {len(items)} verdicts per pass, {len(passes)} untraced and "
          f"{len(traced)} traced passes, {attempted} verdicts, {len(failures)} failed")
    print(f"# calibration loop {loop_ms:.3f} ms (reference {1000 * CALIBRATION_REF_S:g} ms); "
          f"in wall-clock units: set-up {statistics.median(setups):.6g} s, {per_s:.6g} verdicts/s, "
          f"p50 {p50:.6g} ms, p90 {p90:.6g} ms")
    for key, value in metrics.items():
        print(f"{name:12s} {key:34s} {value:14.6g} {UNITS[key]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so peak memory and the program's
    module-level caches belong to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
