"""Tests of the benchmark's tracer: binding coverage, restore, self time."""

import importlib

import numpy as np

import pricebounds  # noqa: F401
from pricebounds import lp, milp

import tracer


def _bindings():
    return {(m.__name__, attr): val
            for m in tracer.package_modules()
            for attr, val in vars(m).items() if callable(val)}


def _originals():
    return [getattr(importlib.import_module("pricebounds." + mod), fname)
            for mod, fname, _ in tracer.TRACED]


def test_every_binding_is_wrapped_and_restored():
    originals = _originals()
    before = _bindings()
    tr = tracer.Tracer()
    n = tr.install()
    try:
        sites = set(tr.sites)
        for fn in originals:
            for (mod, attr), val in _bindings().items():
                assert val is not fn, "%s.%s still unwrapped" % (mod, attr)
        # bindings made by `from .x import f` inside the package
        for site in ("pricebounds.milp.solve_lp",
                     "pricebounds.accp.chebyshev_center",
                     "pricebounds.radial.generate",
                     "pricebounds.arbitrage.solve_accp",
                     "pricebounds.cli.solve_ecp"):
            assert site in sites
        submodule_sites = [s for s in sites if s.count(".") == 2]
        assert len(submodule_sites) >= 32
        assert n == len(sites)
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, val in before.items():
        assert after[key] is val, "%s.%s not restored" % key


def _span(name, parent, start, end, op="op"):
    return tracer.Span(name, parent, op, start=start, end=end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("d", 1, 2.0, 3.0),
        _span("c", 0, 5.0, 6.5),
    ]
    assert np.allclose(tracer.self_times(spans), [5.5, 2.0, 1.0, 1.5])


def test_capped_ops_are_left_out_of_layer_metrics():
    spans = [
        _span("lp.solve_lp", -1, 0.0, 1.0, op="kept"),
        _span("lp.solve_lp", -1, 1.0, 3.0, op="cut"),
    ]
    m = tracer.layer_metrics(spans, capped={"cut"})
    assert m["lp.solve_lp.calls"] == (1, "count")
    assert m["lp.solve_lp.self_s"] == (1.0, "s")


def test_traced_milp_records_node_lps_as_children():
    # min -x0 - x1 s.t. x0 + x1 <= 1.5, x binary: branching needed
    base = lp.LinearProgram(np.array([-1.0, -1.0]),
                            [(np.array([1.0, 1.0]), "<=", 1.5)],
                            [(0.0, 1.0), (0.0, 1.0)])
    prog = milp.MixedIntegerProgram(base, [0, 1])
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_op("item", "op")
        res = milp.solve_milp(prog)
        tr.end_op("ok")
        milp.solve_milp(prog)  # not recording: no spans
    finally:
        tr.uninstall()
    assert res.incumbent_value == -1.0
    names = [s.name for s in tr.spans]
    assert names[0] == "milp.solve_milp"
    assert names.count("lp.solve_lp") == len(names) - 1 >= 3
    assert all(s.parent == 0 for s in tr.spans[1:])
    m = tracer.layer_metrics(tr.spans)
    assert m["milp.solve_milp.calls"][0] == 1
    assert m["milp.solve_milp.nodes"][0] == res.nodes
    assert m["lp.solve_lp.calls"][0] == len(names) - 1
    assert 0 < m["milp.solve_milp.node_lp_s"][0] <= (
        tr.spans[0].end - tr.spans[0].start)
