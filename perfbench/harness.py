"""Timing core shared by every workload: speed calibration, the closed
measurement loop, repeated set-up and summary statistics.

The shared 2-core machine this was sized on changes speed by up to 2x over
seconds (CPU time tracks wall time, so the loss is clock speed, not
scheduling).  Each timing is therefore taken next to a calibration chunk: a
fixed piece of standard-library work in the two styles the library's time
goes to: Fraction arithmetic in dicts keyed by tuples (the exact core), and
splitting, formatting and JSON-encoding short strings (the CLI and module
imports).  A time is divided by the speed factor ``chunk time / CAL_REF_S``
of the chunks around it, which states it for a machine on which one chunk
takes CAL_REF_S seconds.  The chunk never touches ``rplaces`` and runs with
the cyclic collector off, so its time does not depend on what the library
keeps alive.  Raw figures are printed too.
"""
from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time
from array import array
from fractions import Fraction

CAL_REF_S = 0.010     # nominal time of one calibration chunk
ROUND_S = 0.25        # measured work between two calibration chunks
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _cal_work() -> int:
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(300):
        key = (Fraction(i % 17, 5), i % 3)
        x = x * Fraction(7, 5) + Fraction(1, i + 2)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        acc[key] = acc.get(key, 0) + x
    return len(acc)


def _cal_text() -> int:
    acc: dict = {}
    for i in range(450):
        line = f"def-elem a{i % 7} in R = {i} + {i % 5}/3*t^({i % 4})"
        words = line.split()
        acc[words[1]] = acc.get(words[1], "")[:40] + words[-1]
        rec = {"command": words[0], "inputs": " ".join(words[1:]),
               "result": {"value": str(i * 7919 % 1000)}}
        acc[i % 13] = json.dumps(rec, sort_keys=True)
    return len(acc)


def calibrate() -> float:
    """Seconds taken by one calibration chunk right now.  The cyclic
    collector is off during the chunk: its passes cost in proportion to the
    live heap, which is the library's, and the chunk is to measure the
    machine alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _cal_work()
        _cal_text()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(cal_s: float) -> float:
    """Slowdown factor of the machine relative to the nominal one."""
    return cal_s / CAL_REF_S


def census_mix(counts: dict, floor: float) -> dict:
    """Share of each op kind: its share of the calls counted by
    ``census.py``, raised to ``floor`` for a kind in-repo use rarely or
    never makes, so that every kind is still run and checked; then all are
    scaled to sum to 1."""
    total = sum(counts.values())
    raw = {k: max(floor, c / total) for k, c in counts.items()}
    norm = sum(raw.values())
    return {k: v / norm for k, v in raw.items()}


def purge_modules(prefix: str = "rplaces") -> None:
    for name in [m for m in sys.modules
                 if m == prefix or m.startswith(prefix + ".")]:
        del sys.modules[name]


def timed_setups(setup_once, reps: int, min_s: float = 0.0,
                 max_reps: int = 1) -> tuple:
    """Run ``setup_once()`` at least ``reps`` times and until ``min_s``
    seconds of set-up are measured (at most ``max_reps`` times), each from
    a fresh import of the library, each between two calibration chunks.
    Returns the last state, the scaled set-up times and the raw ones."""
    scaled, raw = [], []
    state = None
    before = calibrate()
    while len(raw) < max(reps, 1) or \
            (len(raw) < max_reps and sum(raw) < min_s):
        state = None
        purge_modules()
        gc.collect()        # drop the previous copy of the library
        t0 = time.perf_counter()
        state = setup_once()
        dt = time.perf_counter() - t0
        after = calibrate()
        raw.append(dt)
        scaled.append(dt / speed((before + after) / 2))
        before = after
    return state, scaled, raw


class Pass:
    """One ordered list of operations; ``ops[i]`` is ``(kind, fn, args)``."""

    __slots__ = ("name", "ops")

    def __init__(self, name: str, ops: list):
        self.name = name
        self.ops = ops


class Loop:
    """Closed loop, one caller: each op starts when the previous returns.

    Latencies are kept per calibration round so that each can be scaled by
    the speed measured around it, in float arrays: the benchmark's own
    memory then stays small next to the library's peak RSS.
    """

    def __init__(self):
        self.rounds: list = []       # [latencies of one round]
        self.cals: list = [calibrate()]
        self._cur = array("d")
        self._round_t = 0.0
        self.attempted = 0
        self.distinct = 0            # ops in the longest pass run
        self.measured_raw = 0.0

    def _close_round(self) -> None:
        self.rounds.append(self._cur)
        self._cur = array("d")
        self._round_t = 0.0
        self.cals.append(calibrate())

    def run_pass(self, p: Pass, budget_s: float = math.inf,
                 hooks=None) -> list:
        """Run ops of ``p`` until the pass ends or ``budget_s`` of op time
        is spent.  Returns the results of the completed ops; a raised op
        leaves an ``OpError`` in its slot."""
        gc.collect()        # every pass starts from a collected heap
        results = []
        spent = 0.0
        perf = time.perf_counter
        cur = self._cur
        for kind, fn, args in p.ops:
            if hooks is not None:
                hooks.begin_op(kind)
            t0 = perf()
            try:
                out = fn(*args)
            except Exception as exc:  # recorded as a failed op
                out = OpError(exc)
            dt = perf() - t0
            if hooks is not None:
                hooks.end_op()
            results.append(out)
            cur.append(dt)
            spent += dt
            self._round_t += dt
            if self._round_t >= ROUND_S:
                self._close_round()
                cur = self._cur
            if spent >= budget_s:
                break
        self.attempted += len(results)
        self.distinct = max(self.distinct, len(results))
        self.measured_raw += spent
        return results

    def finish(self) -> None:
        if self._cur:
            self._close_round()

    def factors(self) -> list:
        """Speed factor of each round: mean of the chunks around it."""
        return [speed((self.cals[i] + self.cals[i + 1]) / 2)
                for i in range(len(self.rounds))]

    def scaled_latencies(self) -> list:
        out = []
        for lats, f in zip(self.rounds, self.factors()):
            out.extend(dt / f for dt in lats)
        return out


class OpError:
    """An op that raised; ``code`` names the exception type."""

    __slots__ = ("exc", "code")

    def __init__(self, exc: BaseException):
        self.exc = exc
        self.code = type(exc).__name__


def tail(latencies_sorted: list, distinct: int) -> tuple:
    """Highest ladder percentile with at least 10 samples beyond it:
    (percentile, value, samples beyond).

    Later passes repeat the ops of the first, so a repeat is not a new
    sample: the ladder counts samples beyond in ``distinct`` ops (one
    pass), and the value is read from all timings."""
    n = len(latencies_sorted)
    best = (50.0, latencies_sorted[(n - 1) // 2], distinct // 2)
    for p in TAIL_LADDER:
        beyond = math.floor(distinct * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= 10:
            idx = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            best = (p, latencies_sorted[idx], beyond)
    return best


def summarize(loop: Loop) -> dict:
    """ops/s, median and tail latency from scaled per-op times."""
    lats = loop.scaled_latencies()
    if not lats:
        raise RuntimeError("no operation was timed")
    lats.sort()
    total = sum(lats)
    p, tval, beyond = tail(lats, loop.distinct)
    raw_total = loop.measured_raw
    return {
        "ops": len(lats),
        "ops_per_s": len(lats) / total,
        "raw_ops_per_s": len(lats) / raw_total,
        "p50_ms": statistics.median(lats) * 1e3,
        "tail_pct": p,
        "tail_ms": tval * 1e3,
        "tail_beyond": beyond,
        "speed_median": statistics.median(loop.factors()),
    }


def check_each(p: Pass, results: list, ok) -> list:
    """Apply ``ok(index, kind, args, result)`` to each completed op; returns
    (op index, reason) for every op that raised or failed its check."""
    bad = []
    for i, ((kind, _, args), r) in enumerate(zip(p.ops, results)):
        if isinstance(r, OpError):
            continue            # counted under its error code already
        try:
            good = ok(i, kind, args, r)
        except Exception as exc:  # a check that cannot run is a failure
            bad.append((i, f"check-{kind}-{type(exc).__name__}"))
            continue
        if not good:
            bad.append((i, f"check-{kind}"))
    return bad
