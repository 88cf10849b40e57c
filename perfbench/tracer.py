"""Outside-in tracer for the pricebounds layers.

The library is not changed.  Each traced function is replaced by a
wrapper at every place it is bound: the pricebounds modules import by
name (`from .lp import solve_lp`), so `milp.solve_lp`, `accp.solve_lp`
and `lp.solve_lp` are separate bindings of one function and each must
be wrapped.  Calls through a module attribute (`cpwa.evaluate`,
`ecp.radial_mod.generate`) see the wrapper of the defining module.

A wrapper records a span (name, start, end, parent, op id) and a few
counts taken from the call's arguments and result.  Spans stay in memory
until `write` is called.  Per-layer metrics are derived from them; spans
of ops that were cut by their wall cap are left out, because where the
cap lands depends on timing and would make the counts unrepeatable.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, or -1
    op: str
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    info: dict = field(default_factory=dict)


def _lp_info(args, kwargs, res):
    return {"pivots": res.iterations, "status": res.status}


def _milp_info(args, kwargs, res):
    return {"nodes": res.nodes, "status": res.status, "pool": len(res.pool)}


def _encode_info(args, kwargs, res):
    return {"binaries": len(res.program.binary_vars),
            "rows": len(res.program.base.rows)}


def _radial_info(args, kwargs, res):
    tmpl = args[0] if args else kwargs["tmpl"]
    return {"tuples": math.prod(len(pieces) for _, _, pieces in tmpl.terms),
            "blocks": len(res.blocks)}


def _ecp_info(args, kwargs, res):
    return {"iterations": res.iterations, "cuts": len(res.support)}


def _accp_info(args, kwargs, out):
    res = out[0]
    return {"iterations": res.iterations, "active_cuts": len(res.support),
            "heuristic": int("heuristic-assisted" in res.caveats)}


def _sample_info(args, kwargs, res):
    return {"draws": int(res.shape[0])}


def _cheb_info(args, kwargs, res):
    return {"empty": int(res is None)}


# (module, function, info extractor): the layer boundaries that are traced
TRACED = [
    ("lp", "solve_lp", _lp_info),
    ("lp", "chebyshev_center", _cheb_info),
    ("milp", "solve_milp", _milp_info),
    ("encoding", "encode_min", _encode_info),
    ("cpwa", "evaluate", None),
    ("cpwa", "evaluate_many", None),
    ("cpwa", "instantiate", None),
    ("radial", "generate", _radial_info),
    ("ecp", "solve_ecp", _ecp_info),
    ("accp", "solve_accp", _accp_info),
    ("accp", "extract_measure", None),
    ("arbitrage", "detect", None),
    ("arbitrage", "repair_chain", None),
    ("market", "build_market", None),
    ("market", "sample_joint", _sample_info),
    ("cli", "solve_one", None),
]


def package_modules():
    """The loaded pricebounds modules, package included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pricebounds" or
                                  name.startswith("pricebounds."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.capped = set()  # op ids cut by their wall cap
        self.recording = False
        self.op = ""
        self._stack = []
        self._sites = []  # (module, attribute, original function)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1,
                        self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every binding of every traced function; returns the
        number of binding sites."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, fname, info in TRACED:
            fn = getattr(importlib.import_module("pricebounds." + mod), fname)
            wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (mod, fname), fn,
                                               info))
        for m in package_modules():
            for attr, val in list(vars(m).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._sites.append((m, attr, val))
                    setattr(m, attr, hit[1])
        return len(self._sites)

    def uninstall(self):
        for m, attr, fn in reversed(self._sites):
            setattr(m, attr, fn)
        self._sites = []

    @property
    def sites(self):
        return ["%s.%s" % (m.__name__, attr) for m, attr, _ in self._sites]

    # -- op boundaries (harness callbacks) ---------------------------------

    def begin_op(self, item, op):
        self.op = "%s/%s" % (item, op)
        self.recording = True

    def end_op(self, status):
        self.recording = False
        if status == "timeout":
            self.capped.add(self.op)

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "error": s.error,
                    "info": s.info}) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus the time its direct
    children cover (calls are sequential, so children do not overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, capped=()):
    """Per-layer metrics {name: (value, unit)} from a span list."""
    selfs = self_times(spans)
    keep = [i for i, s in enumerate(spans) if s.op not in capped]
    by = defaultdict(list)
    for i in keep:
        by[spans[i].name].append(i)

    def calls(name):
        return len(by[name])

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by[name])

    def self_s(name):
        return sum(selfs[i] for i in by[name])

    def info(name, key):
        return sum(spans[i].info.get(key, 0) for i in by[name])

    def status(name, value):
        return sum(spans[i].info.get("status") == value for i in by[name])

    def children_of(parent, name):
        return [i for i in by[name] if spans[i].parent >= 0 and
                spans[spans[i].parent].name == parent]

    lp, milp = "lp.solve_lp", "milp.solve_milp"
    n_lp, n_milp = calls(lp), calls(milp)
    tuples = info("radial.generate", "tuples")
    m = {
        lp + ".calls": (n_lp, "count"),
        lp + ".self_s": (self_s(lp), "s"),
        lp + ".ms_per_call": (1000 * self_s(lp) / n_lp if n_lp else 0.0,
                              "ms"),
        lp + ".pivots": (info(lp, "pivots"), "count"),
        lp + ".errors": (sum(bool(spans[i].error) for i in by[lp]),
                         "count"),
        lp + ".unbounded": (status(lp, "unbounded"), "count"),
        lp + ".infeasible": (status(lp, "infeasible"), "count"),
        "lp.chebyshev_center.calls": (calls("lp.chebyshev_center"),
                                      "count"),
        "lp.chebyshev_center.total_s": (total("lp.chebyshev_center"), "s"),
        "lp.chebyshev_center.empty": (info("lp.chebyshev_center", "empty"),
                                      "count"),
        milp + ".calls": (n_milp, "count"),
        milp + ".self_s": (self_s(milp), "s"),
        milp + ".node_lp_s": (sum(spans[i].end - spans[i].start
                                  for i in children_of(milp, lp)), "s"),
        milp + ".nodes": (info(milp, "nodes"), "count"),
        milp + ".nodes_per_call": (info(milp, "nodes") / n_milp
                                   if n_milp else 0.0, "nodes/call"),
        milp + ".gap_reached": (status(milp, "gap_reached"), "count"),
        milp + ".node_limit": (status(milp, "node_limit"), "count"),
        milp + ".pool_points": (info(milp, "pool"), "count"),
        "encoding.encode_min.binaries": (info("encoding.encode_min",
                                              "binaries"), "count"),
        "encoding.encode_min.rows": (info("encoding.encode_min", "rows"),
                                     "count"),
        "radial.generate.tuples": (tuples, "count"),
        "radial.generate.blocks": (info("radial.generate", "blocks"),
                                   "count"),
        "radial.generate.kept_frac": (info("radial.generate", "blocks") /
                                      tuples if tuples else 0.0, "ratio"),
        "radial.generate.lp_calls": (len(children_of("radial.generate",
                                                     lp)), "count"),
        "ecp.solve_ecp.iterations": (info("ecp.solve_ecp", "iterations"),
                                     "count"),
        "ecp.solve_ecp.cuts": (info("ecp.solve_ecp", "cuts"), "count"),
        "accp.solve_accp.iterations": (info("accp.solve_accp",
                                            "iterations"), "count"),
        "accp.solve_accp.active_cuts": (info("accp.solve_accp",
                                             "active_cuts"), "count"),
        "accp.solve_accp.heuristic_assisted": (info("accp.solve_accp",
                                                    "heuristic"), "count"),
        "market.sample_joint.draws": (info("market.sample_joint", "draws"),
                                      "count"),
    }
    for name in ("encoding.encode_min", "cpwa.evaluate", "cpwa.evaluate_many",
                 "cpwa.instantiate", "radial.generate", "ecp.solve_ecp",
                 "accp.solve_accp", "market.sample_joint"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["market.build_market.self_s"] = (self_s("market.build_market"), "s")
    for name in ("accp.extract_measure", "arbitrage.detect",
                 "arbitrage.repair_chain", "cli.solve_one"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".total_s"] = (total(name), "s")
    return m
