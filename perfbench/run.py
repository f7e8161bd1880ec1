"""nicholslie benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload dims-z24 --seed 1 --seconds 25 --trace 0

The library is imported from the checkout's src/ and nowhere else.  The
last line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}; the line before it carries the run's context (seed,
inputs digest, tail percentile, raw timings, Python version, nproc, src
line count, calibration time).

--trace 0 runs a closed loop (one client, no threads) for --seconds (and
to the end of the round in progress) and reports the end-to-end metrics,
scaled to reference machine speed (see Speedometer).  --trace 1
replays a fixed, seed-derived op list, untraced and then with every
public function of the library wrapped in spans, and reports the
per-layer metrics; its counts are identical for identical seeds.
Inputs, run records and spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
CAL_ITERATIONS = 200  # one calibration slice
CAL_REF_S = 0.001  # the slice's time at reference speed
CAL_ELASTICITY = 0.75
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 1.0
TRACE_ROUNDS = 3  # untraced/traced pass pairs; per-layer times are their medians
LIB_MODULES = ("scalar", "braiding", "freealg", "graphs", "nichols", "lie", "verify", "cli")
PROBE_MATRIX = {"n": 2, "cyclotomic_order": 3, "q": [["-1", "z"], ["1", "2"]]}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (e.g. the library source is missing)."""


def fresh_import():
    """Import nicholslie from this checkout's src/, discarding any earlier
    import so that module-level caches start empty."""
    for name in [m for m in sys.modules if m == "nicholslie" or m.startswith("nicholslie.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("nicholslie")
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"nicholslie imported from {lib.__file__}, not from {SRC}")
    for name in LIB_MODULES:
        importlib.import_module(f"nicholslie.{name}")
    return lib


def setup(workload, seed, out_dir):
    """Import the library, generate the inputs from the seed and build the
    ops; returns (lib, inputs, ops)."""
    lib = fresh_import()
    inputs = workload.generate(random.Random(f"{workload.name}/{seed}"))
    return lib, inputs, workload.build(lib, inputs, inputs["ops"], out_dir)


class Speedometer:
    """Calibration slices interleaved with the measured work.

    A slice is a fixed piece of pure-Python Fraction arithmetic (about
    1 ms here) run with the garbage collector paused, so nothing the
    library leaves behind changes it.  On a shared machine (measured on
    a 2-core box) speed drifts by up to 2x over seconds, for the library
    and the slice alike.  A measured interval is reported at reference speed,
    raw * (CAL_REF_S / s) ** CAL_ELASTICITY with s the median slice time
    within CAL_WINDOW_S of the interval; the raw figures go on the
    context line.  Library code slows by less than the slice in a slow
    spell (the log-log slope of op time against slice time measured
    0.67-0.83 over the four workloads), hence an elasticity below 1.
    """

    def __init__(self):
        self.at = []
        self.took = []

    def slice(self):
        paused = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, CAL_ITERATIONS + 1):
            acc += Fraction(1, k) * Fraction(k % 7 + 1, 3)
        end = time.perf_counter()
        if paused:
            gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def due(self, now):
        return not self.at or now - self.at[-1] >= CAL_EVERY_S

    def scale(self, start, end):
        """Factor that takes a raw interval [start, end] to reference speed."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S)
        if lo == hi:  # no slice that close: take the nearest
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return (CAL_REF_S / statistics.median(self.took[lo:hi])) ** CAL_ELASTICITY


def src_line_count():
    files = sorted((SRC / "nicholslie").glob("*.py"))
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def timed_loop(workload, lib, inputs, ops, out_dir, seconds, max_ops, speed):
    """Closed loop for `seconds`, then to the end of the round in progress,
    so every run holds whole rounds; returns (phase seconds,
    [(op index, start, latency, output)])."""
    results = []
    pool = len(ops)
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    i = 0
    while (clock() < deadline or i % workload.round_ops) and (max_ops is None or i < max_ops):
        if speed.due(clock()):
            speed.slice()
        j = i % pool
        if j == 0 and i:
            # pool exhausted: rebuild so the next pass starts as cold as the first
            ops = workload.build(lib, inputs, inputs["ops"], out_dir)
        op, ops[j] = ops[j], None  # release matrices (and their caches) after use
        t0 = clock()
        try:
            output = workload.run(lib, op)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            output = Failure(traceback.format_exc())
        results.append((j, t0, clock() - t0, output))
        i += 1
    end = clock()
    speed.slice()
    return end - start, results


class Failure:
    """The output of an op that raised: its traceback."""

    def __init__(self, text):
        self.text = text


def check_all(workload, lib, inputs, results):
    """Count failed ops; report each to stderr with what re-runs it by hand."""
    failed = 0
    for j, *_, output in results:
        op = inputs["ops"][j]
        reason = output.text if isinstance(output, Failure) else workload.check(lib, inputs, op, output)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED op {j} of {workload.name}: {reason}\n  inputs: {json.dumps(op)}\n"
                      f"  re-run: {workload.replay(inputs, op)}", file=sys.stderr)
    return failed


def run_probe(lib, out_dir):
    """A few tiny calls that reach every layer, so no per-layer timer of a
    traced run reads an exact zero; the same in every workload."""
    path = str(out_dir / "probe.json")
    for argv in (["verify", "--claim", "thm-equiv"],
                 ["verify", "--claim", "thm-maxsupport"],
                 ["verify", "--claim", "prop-pair", "--u", "x1", "--v", "x1"],
                 ["verify", "--claim", "prop-brackets", "--monomial", "x1 x1 x2"],
                 ["ismember", "--lie", "braided", "--monomial", "x2 x1"]):
        lib.cli.main(argv[:1] + ["--input", path] + argv[1:], out=io.StringIO())
    B = lib.braiding.BraidingMatrix.from_json(json.dumps(PROBE_MATRIX))
    lib.nichols.symmetrizer_rank_oracle(B, (1, 1))


def replay_pass(workload, lib, inputs, out_dir, count, speed, tracer=None):
    """Build the first `count` ops afresh and run them once; returns
    (wall seconds scaled to reference speed, reference-speed factor, results)."""
    if tracer is not None:
        tracer.install(lib)
    start = time.perf_counter()
    try:
        run_probe(lib, out_dir)
        ops = workload.build(lib, inputs, inputs["ops"][:count], out_dir)
        results = []
        for j in range(count):
            if speed.due(time.perf_counter()):
                speed.slice()
            if tracer is not None:
                tracer.op_id = j
            op, ops[j] = ops[j], None
            try:
                output = workload.run(lib, op)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                output = Failure(traceback.format_exc())
            results.append((j, output))
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.op_id = -1
            tracer.uninstall()
    speed.slice()
    factor = speed.scale(start, end)
    return (end - start) * factor, factor, results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="cap on ops: ends the timed phase early; replaces the traced list length")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "probe.json").write_text(json.dumps(PROBE_MATRIX), encoding="utf-8")

    speed = Speedometer()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.slice()
        begin = time.perf_counter()
        lib, inputs, ops = setup(workload, args.seed, out_dir)
        setups.append((time.perf_counter() - begin, begin))
    speed.slice()
    record = json.dumps(inputs, sort_keys=True)
    (out_dir / "inputs.json").write_text(record, encoding="utf-8")
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(record.encode()).hexdigest(),
        "inputs_file": str((out_dir / "inputs.json").relative_to(ROOT)),
        "load": "closed loop, one client, one process, no threads",
    }

    if args.trace:
        count = min(args.ops or workload.trace_ops, len(inputs["ops"]))
        del ops
        results, ratios, rounds = [], [], []
        spans_path = out_dir / "spans.bin"
        for k in range(TRACE_ROUNDS):
            untraced_s, _, untraced_results = replay_pass(workload, lib, inputs, out_dir, count, speed)
            tracer = Tracer()
            traced_s, factor, traced_results = replay_pass(
                workload, lib, inputs, out_dir, count, speed, tracer)
            results += untraced_results + traced_results
            ratios.append(traced_s / untraced_s)
            rounds.append({m: (v * factor if unit == "s" else v, unit)
                           for m, (v, unit) in tracer.metrics().items()})
            if k == 0:
                tracer.write(spans_path)
                context.update(spans=len(tracer.name), spans_file=str(spans_path.relative_to(ROOT)))
            del tracer
        counts = [{m: v for m, v in r.items() if v[1] != "s"} for r in rounds]
        if any(c != counts[0] for c in counts):
            raise BenchmarkError("call counts differ between identical traced passes")
        metrics = {m: (statistics.median(r[m][0] for r in rounds), unit)
                   for m, (_, unit) in rounds[0].items()}
        metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
        context.update(trace_ops=count, trace_rounds=TRACE_ROUNDS, overhead_ratios=ratios)
        attempted = len(results)
    else:
        phase_s, results = timed_loop(workload, lib, inputs, ops, out_dir, args.seconds, args.ops, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(results)

    failed = check_all(workload, lib, inputs, results)
    if not args.trace:
        raw = sorted(lat for _, _, lat, _ in results)
        scaled = sorted(lat * speed.scale(t0, t0 + lat) for _, t0, lat, _ in results)
        setup_scaled = [sec * speed.scale(begin, begin + sec) for sec, begin in setups]
        # the highest whole percentile with at least ten samples beyond it
        # (nearest rank); the maximum when there are too few samples
        n = len(raw)
        tail_pct = math.floor(100 * (1 - 10 / n)) if n > 10 else 100
        tail = max(math.ceil(tail_pct * n / 100) - 1, 0)
        ok = attempted - failed
        metrics = {
            "ops_per_s": (ok / math.fsum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
            "op_tail_ms": (scaled[tail] * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        context.update(
            op_samples=len(raw),
            op_tail_percentile=tail_pct,
            phase_s=phase_s,
            raw_ops_per_s=ok / phase_s,
            raw_op_p50_ms=statistics.median(raw) * 1000.0,
            raw_op_tail_ms=raw[tail] * 1000.0,
            raw_setup_s=statistics.median(sec for sec, _ in setups),
            setup_first_s=setups[0][0],  # also pays first-time imports and bytecode
        )
    context.update(
        fail_ratio=failed / attempted,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        src_lines=src_line_count(),
        calibration_s=statistics.median(speed.took),
        calibration_slices=len(speed.took),
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
