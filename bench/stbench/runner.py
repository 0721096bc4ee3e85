"""One benchmark run: set-up timing, timed passes, traced passes, result."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from statistics import median

from . import trace
from .core import (REFERENCE_S, Checker, Outcome, at_reference_speed,
                   peak_rss_mb, per_op, percentile, reference_probe, run_pass)
from .workloads import KNOWN_FAILURES, OP_LIMIT_S, WORKLOADS, Context

# (metric, unit) printed with --trace 0
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

SETUP_REPEATS = 9
IMPORT_PROBE = "import time, stairtile; print(time.monotonic())"
BARE_PROBE = "import time; print(time.monotonic())"
# Start-up time of a bare interpreter at the nominal machine speed.
REFERENCE_START_S = 0.032


def _python(ctx: Context, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ctx.env(),
                          cwd=ctx.root, capture_output=True, text=True,
                          timeout=60, check=True)


def _rescale(samples: list[float], probes: list[float]) -> list[float]:
    scale = REFERENCE_S / median(probes)
    return [t * scale for t in samples]


def _start_s(ctx: Context, code: str) -> float:
    """Seconds from spawning an interpreter until ``code`` prints the time.
    CLOCK_MONOTONIC is shared by parent and child on Linux."""
    start = time.monotonic()
    proc = _python(ctx, ["-c", code])
    return float(proc.stdout.split()[-1]) - start


def setup_times(ctx: Context, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import stairtile``
    returns, at reference speed.

    Process start-up is kernel and loader work, which the Fraction probe
    tracks poorly.  So each import is paired with the start of a bare
    interpreter, which runs no stairtile code, and is rescaled by
    REFERENCE_START_S over that start's time.
    """
    _start_s(ctx, IMPORT_PROBE)  # fills the bytecode cache
    out = []
    for _ in range(repeats):
        full = _start_s(ctx, IMPORT_PROBE)
        out.append(full * REFERENCE_START_S / _start_s(ctx, BARE_PROBE))
    return out


def import_split(ctx: Context, repeats: int) -> tuple[float, float]:
    """Median (numpy, stairtile without numpy) import seconds at reference
    speed, read from ``-X importtime``.  numpy reads 0 once the package
    stops importing it."""
    numpy_s, own_s, probes = [], [], []
    for _ in range(repeats):
        proc = _python(ctx, ["-X", "importtime", "-c", "import stairtile"])
        probes.append(reference_probe())
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        numpy = cumulative.get("numpy", 0.0)
        numpy_s.append(numpy)
        own_s.append(cumulative["stairtile"] - numpy)
    return (median(_rescale(numpy_s, probes)),
            median(_rescale(own_s, probes)))


def _timed_passes(run_one, seconds: float) -> list:
    """Repeat ``run_one`` while another repeat fits in the time budget; at
    least once."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(walls) > seconds:
            return results


def _peak_rss_mb(workload: str, outcomes: list[Outcome]) -> float:
    """Largest per-op peak resident set, over the ops that did not time out.

    How much a hanging op piles up before its limit stops it depends on
    machine speed, so timed-out ops are left out.  A CLI call is a process
    of its own: there the peak of the largest child counts (ru_maxrss is in
    KiB on Linux).
    """
    if workload == "cli_calls":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return max((o.peak_mb for o in outcomes if o.status != "timeout"),
               default=peak_rss_mb())


def _result(outcomes: list[Outcome], metrics: dict) -> dict:
    return {
        "correct": not any(o.status.startswith("wrong") for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def end_to_end(outcomes: list[Outcome], setup: list[float],
               peak_rss_mb: float, limit: float) -> dict:
    """Times are at reference speed.  Each op is timed by its median over
    the passes, which damps bursts that hit one pass.

    sweep_s is the sum of those medians over the runs of each op that
    passed.  A failed op adds nothing to it: ok_frac and op_p90_s already
    count the failure, and the time a failure takes is mostly the limit's
    timer, not the program's work.
    """
    ops = list(per_op(outcomes, at_reference_speed(outcomes)).values())
    # a failed op ranks above every time
    times = [median(math.inf if o.failed else t for o, t in samples)
             for samples in ops]
    passed = [[t for o, t in samples if not o.failed] for samples in ops]
    values = {
        "setup_s": median(setup),
        "sweep_s": sum(median(t) for t in passed if t),
        # when the rank lands on a failed op, its time is at least the limit
        "op_p50_s": min(percentile(times, 0.5), limit),
        "op_p90_s": min(percentile(times, 0.9), limit),
        "ok_frac": sum(not o.failed for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def write_op_times(path: str, outcomes: list[Outcome]) -> None:
    """Per-op median seconds, raw and at reference speed, and statuses."""
    rows = {name: {"seconds": median(o.seconds for o, _ in samples),
                   "at_reference_speed": median(t for _, t in samples),
                   "status": sorted({o.status for o, _ in samples})}
            for name, samples in per_op(
                outcomes, at_reference_speed(outcomes)).items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)


def summary(workload: str, seed: int, passes: int,
            outcomes: list[Outcome]) -> list[str]:
    failed = sum(o.failed for o in outcomes)
    probe = median(o.probe_s for o in outcomes)
    lines = [f"# {workload} seed {seed}: {passes} passes, "
             f"{len(outcomes)} ops, {failed} failed "
             f"(fail_frac {failed / len(outcomes):.4f}); machine at "
             f"{REFERENCE_S / probe:.2f}x reference speed"]
    seen: dict[str, tuple[str, int]] = {}
    for o in outcomes:
        if o.failed:
            status, n = seen.get(o.name, (o.status, 0))
            seen[o.name] = (status, n + 1)
    for name, (status, n) in sorted(seen.items()):
        tag = "known" if name in KNOWN_FAILURES else "NEW"
        lines.append(f"#   failed [{tag}] x{n} {name}: {status[:160]}")
    return lines


def run(root: str, workload: str, seed: int, seconds: float,
        traced: bool) -> tuple[dict, list[str]]:
    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = Context(root, out_dir, in_process=traced)
    ops = WORKLOADS[workload](seed, ctx)
    with open(os.path.join(root, "bench", "golden.json"),
              encoding="utf-8") as handle:
        golden = json.load(handle).get(workload, {})
    checker = Checker(golden)
    limit = OP_LIMIT_S

    if not traced:
        setup = setup_times(ctx, SETUP_REPEATS)
        passes = _timed_passes(lambda: run_pass(ops, limit, checker),
                               seconds)
        outcomes = [o for p in passes for o in p]
        write_op_times(os.path.join(out_dir, f"ops-{workload}-{seed}.json"),
                       outcomes)
        metrics = end_to_end(outcomes, setup,
                             _peak_rss_mb(workload, outcomes), limit)
        return (_result(outcomes, metrics),
                summary(workload, seed, len(passes), outcomes))

    tracer = trace.Tracer()
    absent: set[str] = set()

    def traced_pair():
        plain = run_pass(ops, limit, checker)
        with trace.instrumented(tracer) as missing:
            absent.update(missing)
            spanned = [tracer.run_op(op, limit, checker) for op in ops]
        return plain + spanned

    pairs = _timed_passes(traced_pair, seconds)
    outcomes = [o for pair in pairs for o in pair]
    scaled = at_reference_speed(outcomes)
    n = len(ops)
    plain_s, traced_s, op_scale = [], [], []
    for start in range(0, len(outcomes), 2 * n):
        plain_s.append(sum(scaled[start:start + n]))
        traced_s.append(sum(scaled[start + n:start + 2 * n]))
        traced = range(start + n, start + 2 * n)
        op_scale += [scaled[i] / outcomes[i].seconds
                     if outcomes[i].seconds else 1.0 for i in traced]
    values = trace.layer_values(tracer, len(pairs), op_scale)
    values["import.numpy_s"], values["import.stairtile_s"] = import_split(
        ctx, SETUP_REPEATS)
    values["trace.overhead_frac"] = median(traced_s) / median(plain_s) - 1
    tracer.write(os.path.join(out_dir, f"spans-{workload}-{seed}.json"))
    return (_result(outcomes, trace.layer_metrics(values, absent)),
            summary(workload, seed, len(pairs), outcomes))
