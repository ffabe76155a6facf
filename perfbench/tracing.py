"""Spans and counters recorded around calls into the library's layers.

Everything here wraps public functions from the outside: the library is
not changed to be traced.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Optional, Sequence

from citbdd import (
    HANDLER_AND, HANDLER_PARTIAL_DOWN, HANDLER_PARTIAL_UP,
    BddManager, ConjunctionHandler, EncodingMode, Op, QuantOrder,
    TraversalHandler, ValidityHandler,
    build_partial_bdd, compile_constraints, encode_full, generate,
    make_encoding, order_parameters, parse_model, verify,
)
from citbdd.model import check_assignment

QUANT_ORDER = {HANDLER_PARTIAL_UP: QuantOrder.UP,
               HANDLER_PARTIAL_DOWN: QuantOrder.DOWN}


class Tracer:
    """Spans as (id, parent id, name, start, end), in perf_counter seconds."""

    def __init__(self):
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        span_id = self.new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append((span_id, parent, name, start, time.perf_counter()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


class CountingHandler(ValidityHandler):
    """Passes checks to another handler, counting calls and valid answers.

    With a tracer it also records each call as a span under ``parent``,
    and with ``stream`` it appends a copy of each checked assignment.
    """

    def __init__(self, inner: ValidityHandler, tracer: Optional[Tracer] = None,
                 stream: Optional[list] = None):
        self.inner = inner
        self.name = inner.name
        self.dropped = inner.dropped
        self.tracer = tracer
        self.stream = stream
        self.parent: Optional[int] = None
        self.calls = 0
        self.valid = 0
        self.busy_s = 0.0

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        if self.stream is not None:
            self.stream.append(tuple(assignment))
        self.calls += 1
        if self.tracer is None:
            ok = self.inner.is_valid(assignment)
        else:
            start = time.perf_counter()
            ok = self.inner.is_valid(assignment)
            end = time.perf_counter()
            self.busy_s += end - start
            self.tracer.spans.append((self.tracer.new_id(), self.parent,
                                      "validity.is_valid", start, end))
        self.valid += ok
        return ok

    def reset(self, parent: Optional[int]) -> None:
        self.parent = parent
        self.calls = self.valid = 0
        self.busy_s = 0.0


def _duration(tracer: Tracer, span_id: int) -> float:
    for sid, _, _, start, end in reversed(tracer.spans):
        if sid == span_id:
            return end - start
    raise KeyError(span_id)


def build_traced(tracer: Tracer, parent: int, model, kind: str):
    """``build_handler`` taken apart into its layer calls, each in a span.

    Returns the handler, its manager and a dict of layer figures.
    """
    with tracer.span("encode.order_parameters", parent) as sid:
        order = order_parameters(model)
    layers = {"encode.order_s": _duration(tracer, sid)}
    mode = EncodingMode.FULL if kind == HANDLER_AND else EncodingMode.WITH_DASH
    with tracer.span("encode.compile", parent) as sid:
        enc = make_encoding(model, mode, order)
        mgr = BddManager(enc.total_bits)
        cc = compile_constraints(model, enc, mgr)
    layers["encode.compile_s"] = _duration(tracer, sid)
    layers["encode.f_nodes"] = len(mgr.function_nodes(cc.f))
    if kind == HANDLER_AND:
        handler = ConjunctionHandler(cc)
    else:
        quant = QUANT_ORDER[kind]
        with tracer.span(f"validity.build_partial_bdd.{quant.value}", parent) as sid:
            pb = build_partial_bdd(cc, quant)
        layers[f"validity.build_g_{quant.value}_s"] = _duration(tracer, sid)
        layers["validity.g_nodes"] = len(mgr.function_nodes(pb.g))
        handler = TraversalHandler(pb)
    layers["bdd.nodes_after_setup"] = mgr.node_count
    return handler, mgr, layers


def build_g_probe(tracer: Tracer, parent: int, model,
                  quant: QuantOrder) -> tuple[float, int]:
    """Time ``build_partial_bdd`` under ``quant`` on a freshly compiled
    model; return the time and the node count of ``g``."""
    enc = make_encoding(model, EncodingMode.WITH_DASH)
    mgr = BddManager(enc.total_bits)
    cc = compile_constraints(model, enc, mgr)
    with tracer.span(f"validity.build_partial_bdd.{quant.value}", parent) as sid:
        pb = build_partial_bdd(cc, quant)
    return _duration(tracer, sid), len(mgr.function_nodes(pb.g))


def run_traced(tracer: Tracer, name: str, text: str, t: int, kind: str,
               probe_orders: Sequence[QuantOrder], stream: Optional[list]):
    """One instance with every layer call in a span.

    Returns the suite rows, the verify report and the instance's layer
    figures.  ``stream``, when given, receives every assignment checked
    during ``generate``.
    """
    with tracer.span(f"instance {name}") as root:
        with tracer.span("model.parse_model", root) as sid:
            model = parse_model(text)
        layers = {"model.parse_s": _duration(tracer, sid)}
        handler, mgr, built = build_traced(tracer, root, model, kind)
        layers.update(built)
        for quant in probe_orders:
            seconds, g_nodes = build_g_probe(tracer, root, model, quant)
            layers[f"validity.build_g_{quant.value}_s"] = seconds
            layers.setdefault("validity.g_nodes", g_nodes)

        counting = CountingHandler(handler, tracer, stream)
        with tracer.span("ipog.generate", root) as sid:
            counting.reset(sid)
            suite = generate(model, t, counting)
        generate_s = _duration(tracer, sid)
        counting.stream = None
        layers.update({
            "trace.generate_s": generate_s,
            "validity.check_s": counting.busy_s,
            "ipog.self_s": generate_s - counting.busy_s,
            "validity.checks": counting.calls,
            "validity.valid": counting.valid,
            "bdd.nodes_after_generate": mgr.node_count,
        })
        with tracer.span("ipog.verify", root) as sid:
            counting.reset(sid)
            report = verify(model, suite.rows, t, counting)
        layers["ipog.verify_self_s"] = _duration(tracer, sid) - counting.busy_s
        layers["ipog.verify_checks"] = counting.calls
    return suite.rows, report, layers


REPLAY_METRICS = ("validity.validate_us", "encode.encode_us", "bdd.walk_us",
                  "bdd.cube_us", "bdd.apply_us")


def replay_checks(text: str, stream: Sequence[Sequence[Optional[int]]]) -> dict:
    """Mean cost in microseconds of each step of one check, replaying
    ``stream`` through the public per-step functions.

    The traversal steps (validate, encode, walk) run on the partial BDD
    built bottom-up; the conjunction steps (cube, apply) on a freshly
    compiled FULL-encoding constraint BDD, as ``check_and`` runs them,
    skipping assignments that fix no constrained parameter.  Each step
    runs over the whole stream before the next starts.
    """
    model = parse_model(text)
    order = order_parameters(model)
    enc = make_encoding(model, EncodingMode.WITH_DASH, order)
    mgr = BddManager(enc.total_bits)
    pb = build_partial_bdd(compile_constraints(model, enc, mgr), QuantOrder.UP)
    full = make_encoding(model, EncodingMode.FULL, order)
    amgr = BddManager(full.total_bits)
    f = compile_constraints(model, full, amgr).f

    clock = time.perf_counter
    start = clock()
    for a in stream:
        check_assignment(model, a)
    validate = clock() - start
    start = clock()
    encoded = [encode_full(enc, a) for a in stream]
    encode = clock() - start
    g = pb.g
    start = clock()
    for bits in encoded:
        mgr.eval(g, bits)
    walk = clock() - start

    literal_lists = []
    for a in stream:
        literals = [(offset + j, (a[p] >> j) & 1)
                    for p, width, offset in zip(full.order, full.widths, full.offsets)
                    if a[p] is not None for j in range(width)]
        if literals:
            literal_lists.append(literals)
    start = clock()
    cubes = [amgr.make_assignment_cube(lits) for lits in literal_lists]
    cube = clock() - start
    start = clock()
    for c in cubes:
        amgr.apply(Op.AND, c, f)
    apply = clock() - start

    per_check = 1e6 / max(1, len(stream))
    per_cube = 1e6 / max(1, len(cubes))
    return dict(zip(REPLAY_METRICS, (validate * per_check, encode * per_check,
                                     walk * per_check, cube * per_cube,
                                     apply * per_cube)))
