"""Tests of the op runner: caps, failure records, checks."""

import time

from harness import Item, Op, geomean, quantile, run_item, run_op


def _spin():
    while True:
        time.sleep(0.01)


def test_run_op_caps_a_hanging_call():
    t0 = time.perf_counter()
    status, msg, secs = run_op(_spin, 0.2)
    assert status == "timeout" and secs == 0.2
    assert time.perf_counter() - t0 < 2.0


def test_failures_are_recorded_and_the_item_goes_on():
    def boom(ctx):
        raise ValueError("bad input")

    item = Item("x", [
        Op("hang", lambda ctx: _spin()),
        Op("after_hang", lambda ctx: 1, needs=("hang",)),
        Op("raises", boom),
        Op("wrong", lambda ctx: 2, check=lambda r, ctx: "expected 3"),
        Op("right", lambda ctx: 3, check=lambda r, ctx: None),
    ])
    run = run_item(item, cap=0.2)
    got = [(r.op, r.status) for r in run.records]
    assert got == [("hang", "timeout"), ("after_hang", "skipped"),
                   ("raises", "error"), ("wrong", "check"),
                   ("right", "ok")]
    assert run.records[2].detail == "ValueError: bad input"
    assert run.records[3].detail == "expected 3"
    assert run.seconds >= 0.2


def test_quantile_interpolates():
    assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert quantile([0.0, 10.0], 0.9) == 9.0
    assert quantile([5.0], 0.9) == 5.0


def test_geomean():
    assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
    assert abs(geomean([5.0]) - 5.0) < 1e-12
