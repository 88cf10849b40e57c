"""Op runner, per-op wall cap and run statistics.

An *item* is one unit of workload input (a market instance, an option
chain, ...) together with the list of library calls ("ops") made on it.
Every op runs under an in-process interval timer; an op that raises, hits
its cap, or fails its result check is recorded as failed and the run goes
on.  Result checks run after the item's ops, outside the timed region.
"""

from __future__ import annotations

import math
import resource
import signal
import time
from dataclasses import dataclass, field
from typing import Callable


class OpTimeout(BaseException):
    """Raised inside an op by the interval timer when it reaches its cap.

    A BaseException so that library code catching Exception cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    """One library call on an item.

    fn(ctx) returns the op's result; ctx maps the names of the item's
    earlier ops to their results.  check(result, ctx) runs after all of
    the item's ops and returns None or a failure message.  An op whose
    `needs` did not all succeed is not run and counts as failed."""
    name: str
    fn: Callable
    check: Callable = None
    needs: tuple = ()


@dataclass
class Item:
    label: str
    ops: list


@dataclass
class OpRecord:
    item: str
    op: str
    seconds: float  # wall time; the cap for a timed-out op
    status: str  # "ok" | "timeout" | "error" | "check" | "skipped"
    detail: str = ""

    @property
    def ok(self):
        return self.status == "ok"


def run_op(fn, cap):
    """(status, result or message, seconds) of fn() under a wall cap."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok", result, time.perf_counter() - t0
    except OpTimeout:
        return "timeout", "no result within %g s" % cap, cap
    except Exception as exc:  # a failed op is a measurement, not a crash
        return ("error", "%s: %s" % (type(exc).__name__, exc),
                time.perf_counter() - t0)
    finally:
        signal.signal(signal.SIGALRM, old)


@dataclass
class ItemRun:
    records: list = field(default_factory=list)
    seconds: float = 0.0  # sum of op times, capped ops at their cap


def run_item(item: Item, cap, on_op_start=None, on_op_end=None):
    """Run an item's ops in order, then check their results."""
    ctx = {}
    out = ItemRun()
    failed = set()
    for op in item.ops:
        missing = [n for n in op.needs if n in failed or n not in ctx]
        if missing:
            failed.add(op.name)
            out.records.append(OpRecord(item.label, op.name, 0.0,
                                        "skipped",
                                        "needs " + ",".join(missing)))
            continue
        if on_op_start:
            on_op_start(item.label, op.name)
        status, value, secs = run_op(lambda: op.fn(ctx), cap)
        if on_op_end:
            on_op_end(status)
        out.seconds += secs
        if status == "ok":
            ctx[op.name] = value
            out.records.append(OpRecord(item.label, op.name, secs, "ok"))
        else:
            failed.add(op.name)
            out.records.append(OpRecord(item.label, op.name, secs,
                                        status, value))
    for rec, op in zip(out.records, item.ops):
        if rec.ok and op.check is not None:
            status, msg, _ = run_op(lambda: op.check(ctx[op.name], ctx),
                                    cap)
            if status != "ok":
                msg = "check %s: %s" % (status, msg)
            if msg:
                rec.status = "check"
                rec.detail = msg
    return out


def run_items(items, cycle, cap, seconds):
    """Run items in whole cycles of `cycle` items for about `seconds`:
    always one cycle, and a further one while that brings the expected
    total (at the mean cycle time so far) closer to `seconds` than
    stopping would.  Reuses `items` from the start if it runs out."""
    runs = []
    t0 = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(cycle):
            runs.append(run_item(items[len(runs) % len(items)], cap))
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / cycles / 2 > seconds:
            return runs, elapsed


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
