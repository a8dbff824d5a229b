"""Closed-loop benchmark of pathauction, end to end and layer by layer.

    python3 perfbench/run.py --workload grid-analysis --seed 1 --seconds 45 --trace 0

One client, one process, no threads: each operation starts only after the
previous one returned. The operations of a workload form a pass; the client
repeats whole passes for about ``--seconds`` (the whole number of passes
nearest to it), so every run measures the same mix. Every output is checked
against an independent oracle. The inputs and the oracles' expectations are
computed first, by plan.py in a child process that has ended before timing
starts, so the timed process's peak memory holds none of the oracles' data.

Times are the CPU time of this process (``time.process_time``: user plus
system). The program is single-threaded and does no waiting, so an
operation's CPU time is its latency minus the time the host gave the CPU to
others; on shared virtual machines that preemption alone was seen to double
the wall time of a fixed loop for seconds at a time. The CPU's own speed
drifts too, by up to a factor of two in phases of seconds to minutes. So
right after each operation the client times a fixed unit of pure-Python work
(hostspeed.py) and scales the operation's CPU time by the unit's nominal
time over its measured one. Each operation's time is the median of its
scaled times over the passes of the run, and the latency metrics are taken
over those per-operation medians. The summary line shows the raw figures
too, and how much slower than nominal the host ran.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json. With ``--trace 1`` the client alternates untraced and
traced passes; the traced ones wrap each layer's public entry points (see
spans.py) and the line reports the per-layer metrics, including the tracing
overhead: the sum of per-operation medians over the traced passes minus that
over the untraced ones. Count metrics must repeat exactly in every traced
pass and in every run of the same seed on the same sources; a mismatch
makes the run incorrect.

Lines before the last one are a readable summary. The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from spans import COUNT_METRICS, Tracer, layer_metrics
from workloads import KNOWN_DEFECT, OK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 61
SETUP_UNITS = 8  # reference units timed after each set-up
MIN_OPS = 100  # distinct operations per pass, so that 10 lie beyond p90
MIN_PASSES = 3
PLAN_TIMEOUT_S = 150
CLOCK = time.process_time
PASS_COUNTS = COUNT_METRICS + ("cli.output_bytes", "cli.exit_code_mismatches")


def import_fresh():
    """Import pathauction from the checkout's src/, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pathauction" or m.startswith("pathauction.")]:
        del sys.modules[name]
    pa = importlib.import_module("pathauction")
    importlib.import_module("pathauction.cli")
    if not Path(pa.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pathauction imported from {pa.__file__}, not from {SRC}")
    return pa


def traced_modules(pa) -> dict[str, object]:
    names = ("graph", "mechanisms", "analysis", "cli")
    return {"pathauction": pa, **{f"pathauction.{n}": getattr(pa, n, None) for n in names}}


def scaled(cpu_s: float, unit_s: float) -> float:
    """A CPU time on a host that runs the reference unit in its nominal time."""
    return cpu_s * hostspeed.NOMINAL_S / unit_s


@dataclass
class Tally:
    """Outcomes of every operation the client ran. Per pass, the CPU time of
    each operation and of the reference unit timed right after it."""

    passes: list[list[float]] = field(default_factory=list)
    units: list[list[float]] = field(default_factory=list)
    failed: int = 0
    known_defects: int = 0
    reasons: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.passes))

    def scaled_passes(self) -> list[list[float]]:
        return [list(map(scaled, p, u)) for p, u in zip(self.passes, self.units)]

    def op_times(self) -> list[float]:
        """Each operation's median scaled CPU time over the passes."""
        return [statistics.median(times) for times in zip(*self.scaled_passes())]

    def raw_op_times(self) -> list[float]:
        """Each operation's median CPU time over the passes, unscaled."""
        return [statistics.median(times) for times in zip(*self.passes)]

    def mean_over_median(self) -> float:
        """Mean scaled pass time over the sum of the per-operation medians."""
        return statistics.fmean(map(sum, self.scaled_passes())) / sum(self.op_times())

    def host_factor(self) -> float:
        """Median measured time of the reference unit over its nominal time."""
        return statistics.median(u for p in self.units for u in p) / hostspeed.NOMINAL_S


@dataclass
class PassStats:
    busy_s: float
    output_bytes: int
    known_defects: int


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def run_pass(ops, tally: Tally, first: dict, tracer: Tracer | None = None) -> PassStats:
    """Run every operation once, in order; time the call and then the
    reference unit, then check the call's output."""
    busy, nbytes, known, latencies, units = 0.0, 0, 0, [], []
    tally.passes.append(latencies)
    tally.units.append(units)
    clock, time_unit = CLOCK, hostspeed.time_unit
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = op.call() if tracer is None else tracer.call("op", op.name, op.call, (), {})
        except Exception as exc:  # an op that raises is checked and counted, the loop goes on
            out = exc
        elapsed = clock() - t0
        busy += elapsed
        latencies.append(elapsed)
        units.append(time_unit(clock))
        nbytes += getattr(out, "nbytes", 0)
        verdict = op.check(out)
        if verdict in (OK, KNOWN_DEFECT) and i in first and not _same(first[i], out):
            verdict = "output differs from the first pass"
        first.setdefault(i, out)
        if verdict == KNOWN_DEFECT:
            known += 1
        elif verdict != OK:
            tally.failed += 1
            if len(tally.reasons) < 5:
                tally.reasons.append(f"{op.name}: {verdict}")
    tally.known_defects += known
    return PassStats(busy, nbytes, known)


def closed_loop(ops, seconds: float) -> tuple[Tally, float]:
    tally, first = Tally(), {}
    start = time.perf_counter()
    while True:
        last = run_pass(ops, tally, first).busy_s
        elapsed = time.perf_counter() - start
        if elapsed + last / 2 >= seconds and len(tally.passes) >= MIN_PASSES:
            return tally, elapsed


def traced_loop(ops, seconds: float, pa):
    """Alternate untraced and traced passes.

    Returns the tally (untraced passes at even indices, traced at odd ones),
    the tracer, and the per-layer metrics of each traced pass.
    """
    tally, first, tracer = Tally(), {}, Tracer()
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        run_pass(ops, tally, first)
        missing = tracer.install(traced_modules(pa))
        if missing and not per_pass:
            print(f"not traced (binding absent): {', '.join(missing)}", file=sys.stderr)
        mark = len(tracer.spans)
        try:
            stats = run_pass(ops, tally, first, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.finished(mark))
        metrics["cli.output_bytes"] = stats.output_bytes
        metrics["cli.exit_code_mismatches"] = stats.known_defects
        per_pass.append(metrics)
    return tally, tracer, per_pass


def make_plan(workload: str, seed: int, workdir: Path):
    """(spec, plan) of a workload, computed by plan.py in a child process."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "plan.pickle"
    subprocess.run(
        [sys.executable, str(HERE / "plan.py"), "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), "--out", str(out)],
        check=True, timeout=PLAN_TIMEOUT_S,
    )
    with open(out, "rb") as handle:
        return pickle.load(handle)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counts_repeat(counts: dict, workload: str, seed: int) -> str | None:
    """Compare with the counts an earlier run of this seed and these sources saved."""
    path = WORK / "counts" / f"{source_digest()}-{workload}-{seed}.json"
    if path.exists():
        saved = json.loads(path.read_text(encoding="utf-8"))
        if saved != counts:
            diff = sorted(k for k in counts if saved.get(k) != counts[k])
            return f"count metrics differ from an earlier run of this seed: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return None


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathauction" / "__init__.py").is_file():
        print(f"perfbench: no pathauction sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec, plan = make_plan(args.workload, args.seed, workdir)
        setups = []

        def set_up():
            t0 = CLOCK()
            pa = import_fresh()
            built = workload.build(spec, pa, workdir)
            elapsed = CLOCK() - t0
            unit = statistics.median(hostspeed.time_unit(CLOCK) for _ in range(SETUP_UNITS))
            setups.append((scaled(elapsed, unit), elapsed))
            return pa, built

        pa, built = set_up()
        ops = workload.ops(built, pa, plan)
        if len(ops) < MIN_OPS:
            raise RuntimeError(f"{len(ops)} operations per pass, fewer than {MIN_OPS}")
        gc.collect()
        if args.trace:
            tally, tracer, per_pass = traced_loop(ops, args.seconds, pa)
        else:
            tally, wall = closed_loop(ops, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The other set-ups run after the loop: each import leaves a copy of
        # the package's modules behind, which must not count in peak_rss_mb.
        for _ in range(SETUP_REPS - 1):
            set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = tally.attempted
    passes = n // len(ops)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{len(ops)} ops per pass, {passes} passes, {n} ops")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    errors = tally.failed + tally.known_defects
    print(f"error_rate {errors / n:.6f} ratio ({errors} of {n} ops: {tally.failed} failed, "
          f"{tally.known_defects} TooLarge-guard requests exiting 1 where the README documents 3)")
    correct = tally.failed == 0

    if args.trace:
        counts = {k: per_pass[0][k] for k in PASS_COUNTS}
        for metrics in per_pass[1:]:
            if any(metrics[k] != counts[k] for k in counts):
                print("count metrics differ between traced passes", file=sys.stderr)
                correct = False
        problem = counts_repeat(counts, args.workload, args.seed)
        if problem:
            print(problem, file=sys.stderr)
            correct = False
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values.update(counts)
        plain = Tally(tally.passes[0::2], tally.units[0::2])
        traced = Tally(tally.passes[1::2], tally.units[1::2])
        overhead = sum(traced.op_times()) - sum(plain.op_times())
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / sum(plain.op_times())
        values["timing.mean_over_median"] = plain.mean_over_median()
        values["timing.host_factor"] = tally.host_factor()
        WORK.mkdir(parents=True, exist_ok=True)
        spans_file = WORK / f"spans-{args.workload}.tsv"
        tracer.write(str(spans_file))
        units = declared["per_layer"]
        print(f"{len(per_pass)} traced passes; spans of seed {args.seed} written to "
              f"{spans_file.relative_to(ROOT)}")
    else:
        latencies = tally.op_times()
        p50 = statistics.median(latencies)
        p90, beyond = percentile(latencies, 0.9)
        raw = tally.raw_op_times()
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared["end_to_end"]
        print(f"wall {wall:.2f} s; median scaled CPU time of each of {len(latencies)} operations "
              f"over {passes} passes, {beyond} beyond p90; mean/median "
              f"{tally.mean_over_median():.3f}; setup is the median of {SETUP_REPS}")
        print(f"host ran the reference unit {tally.host_factor():.3f} times slower than nominal; "
              f"unscaled: throughput {len(raw) / sum(raw):.6g} ops/s, "
              f"p50 {statistics.median(raw) * 1e3:.6g} ms, "
              f"p90 {percentile(raw, 0.9)[0] * 1e3:.6g} ms, "
              f"setup {statistics.median(r for _, r in setups):.6g} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
