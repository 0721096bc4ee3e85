"""Closed-loop op runner: one client, one op at a time, no threads.

An op is one library call (or one CLI subprocess) with a fixed name.  Each
op runs under a wall-clock limit; an op that hits it, raises, or returns an
output its checks reject is a failed op.  A run repeats the workload's op
list in passes until its time budget is spent.
"""

from __future__ import annotations

import gc
import hashlib
import math
import signal
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Callable, Optional

# Probe time at the nominal machine speed.  It sets the scale of every
# reported time (see ``at_reference_speed``).
REFERENCE_S = 3e-4
# Ops on each side whose probes set an op's local machine speed.
PROBE_REACH = 10


class OpTimeout(BaseException):
    """Raised inside an op that outlives its limit.

    A ``BaseException`` so that no ``except Exception`` in the library can
    swallow it.
    """


def _no_check(result: object) -> Optional[str]:
    return None


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``call`` runs the program and returns its output; ``encode`` turns the
    output into the canonical text compared with the golden file; ``check``
    returns None when the output satisfies the op's closed forms or
    certificates, else a status starting with ``"wrong:"`` (a wrong answer)
    or ``"error:"`` (a crash or a refusal of the wrong kind).
    """

    name: str
    call: Callable[[], object]
    encode: Callable[[object], str]
    check: Callable[[object], Optional[str]] = _no_check


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    status: str  # "ok", "timeout", "error: ...", "wrong: ..."
    peak_mb: float  # peak resident set of this process during the op
    probe_s: float  # reference_probe() right after the op

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def call_with_limit(fn: Callable[[], object],
                    limit: float) -> tuple[object, float, Optional[str]]:
    """Run ``fn`` under an interval timer; return (result, seconds, error).

    ``error`` is None on success, ``"timeout"`` when the limit was hit, and
    ``"error: <exception>"`` when ``fn`` raised.  Must run in the main thread.
    """
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise OpTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    result: object = None
    error: Optional[str] = None
    try:
        try:
            result = fn()
        finally:
            # an alarm that arrives after this line is ignored
            armed[0] = False
    except (OpTimeout, subprocess.TimeoutExpired):
        error = "timeout"
    except Exception as exc:  # the op's failure is the measurement
        error = f"error: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
    return result, elapsed, error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


class Checker:
    """Decides each op's status from its output.

    The golden digest is compared on every execution (it is cheap); the
    closed-form and certificate checks run once per op name per run, since
    they may cost as much as the op itself.
    """

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._verdicts: dict[str, Optional[str]] = {}

    def status(self, op: Op, result: object) -> str:
        try:
            text = op.encode(result)
        except Exception as exc:
            return f"wrong: output cannot be encoded ({type(exc).__name__})"
        expected = self.golden.get(op.name)
        if expected is not None and digest(text) != expected:
            return "wrong: output differs from the golden file"
        if op.name not in self._verdicts:
            try:
                self._verdicts[op.name] = op.check(result)
            except Exception as exc:
                self._verdicts[op.name] = (
                    f"wrong: check raised {type(exc).__name__}: {exc}")
        return self._verdicts[op.name] or "ok"


def reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (VmHWM) to its current
    resident set; False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_probe() -> float:
    """Seconds for a fixed loop of Fraction additions that does not touch
    stairtile.  The cyclic collector is off, so the size of the heap the
    program leaves behind cannot change the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 121):
            total += Fraction(i, i + 7)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(outcomes: list[Outcome]) -> list[float]:
    """Each op's time rescaled to the nominal machine speed.

    The machine's speed drifts by tens of percent within minutes, so each
    wall time is multiplied by REFERENCE_S over the median probe time of the
    ops up to PROBE_REACH places before and after it.  A failed op keeps its
    wall time: a limit is a timer, not work.
    """
    probes = [o.probe_s for o in outcomes]
    out = []
    for i, o in enumerate(outcomes):
        local = median(probes[max(0, i - PROBE_REACH):i + PROBE_REACH + 1])
        out.append(o.seconds if o.failed else o.seconds * REFERENCE_S / local)
    return out


def run_op(op: Op, limit: float, checker: Checker) -> Outcome:
    # every op starts from the same collector state, whatever ran before it
    gc.collect()
    # without the reset the peak is the high-water mark of the run so far
    reset_peak_rss()
    result, seconds, error = call_with_limit(op.call, limit)
    peak = peak_rss_mb()  # before the checks allocate
    status = error or checker.status(op, result)
    return Outcome(op.name, seconds, status, peak, reference_probe())


def run_pass(ops: list[Op], limit: float, checker: Checker) -> list[Outcome]:
    return [run_op(op, limit, checker) for op in ops]


def per_op(outcomes: list[Outcome],
           seconds: list[float]) -> dict[str, list[tuple[Outcome, float]]]:
    """Each op's outcomes and rescaled times across passes, in first-pass
    order."""
    by_name: dict[str, list[tuple[Outcome, float]]] = {}
    for o, t in zip(outcomes, seconds):
        by_name.setdefault(o.name, []).append((o, t))
    return by_name


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("no values")
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]
