"""Tests for the three validity handlers and the partial-test-case BDD."""

import gc
import hashlib
import random
import weakref
from itertools import product

import pytest

from citbdd.bdd import BddManager, ResourceLimitError
from citbdd.encode import EncodingMode, compile_constraints, encode_full, make_encoding
from citbdd.ipog import generate
from citbdd.model import eval_constraints, parse_model
from citbdd.validity import (
    HANDLER_KINDS, ConjunctionHandler, OracleHandler, QuantOrder,
    TraversalHandler, build_handler, build_partial_bdd,
)

from conftest import MODELS_DIR, load_model
from model_gen import all_assignments, random_model
from test_bdd import extend_dash_reference


def literal_validity(model, assignment):
    """Definitional check: try every completion of the unspecified positions."""
    open_positions = [i for i, v in enumerate(assignment) if v is None]
    for values in product(*(range(model.sizes[i]) for i in open_positions)):
        full = list(assignment)
        for i, v in zip(open_positions, values):
            full[i] = v
        if eval_constraints(model, full):
            return True
    return False


class TestOracle:
    def test_printer_goldens(self, printer):
        oracle = OracleHandler(printer)
        assert oracle.is_valid((1, 0, 2)) is True
        assert oracle.is_valid((2, 0, 0)) is False
        assert oracle.is_valid((1, 1, None)) is True
        assert oracle.is_valid((0, None, 0)) is False

    def test_full_case_equals_eval(self, printer):
        oracle = OracleHandler(printer)
        for t in product(range(3), repeat=3):
            assert oracle.is_valid(t) == eval_constraints(printer, t)

    def test_all_dash_means_satisfiable(self, printer):
        assert OracleHandler(printer).is_valid((None, None, None)) is True

    def test_all_dash_unsatisfiable_model(self):
        m = parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = x && a = y\n")
        assert OracleHandler(m).is_valid((None,)) is False

    def test_agrees_with_literal_definition(self):
        rng = random.Random(8)
        for _ in range(30):
            m = random_model(rng, max_params=4, max_domain=3)
            oracle = OracleHandler(m)
            for assignment in all_assignments(m):
                assert oracle.is_valid(assignment) == literal_validity(m, assignment)

    def test_rejects_bad_values(self, printer):
        with pytest.raises(ValueError):
            OracleHandler(printer).is_valid((9, None, 0))


def _printer_cc(printer, mode):
    enc = make_encoding(printer, mode, order=(0, 1, 2))
    return compile_constraints(printer, enc, BddManager(enc.total_bits))


class TestConjunctionCheck:
    def test_printer_goldens(self, printer):
        handler = ConjunctionHandler(_printer_cc(printer, EncodingMode.FULL))
        assert handler.is_valid((1, 1, None)) is True
        assert handler.is_valid((0, None, 0)) is False

    def test_fixed_value_cube_shape(self, printer):
        # (1,1,-) pins the first two parameters: x1 !x2 x3 !x4.
        cc = _printer_cc(printer, EncodingMode.FULL)
        mgr = cc.manager
        expected = mgr.make_assignment_cube([(0, 1), (1, 0), (2, 1), (3, 0)])
        literals = []
        enc = cc.encoding
        for param, width, offset in zip(enc.order, enc.widths, enc.offsets):
            v = (1, 1, None)[param]
            if v is not None:
                literals += [(offset + j, (v >> j) & 1) for j in range(width)]
        assert mgr.make_assignment_cube(literals) == expected

    def test_all_dash_reflects_satisfiability(self, printer):
        handler = ConjunctionHandler(_printer_cc(printer, EncodingMode.FULL))
        assert handler.is_valid((None, None, None)) is True
        unsat = parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = x && a = y\n")
        enc = make_encoding(unsat, EncodingMode.FULL)
        cc_unsat = compile_constraints(unsat, enc, BddManager(enc.total_bits))
        assert ConjunctionHandler(cc_unsat).is_valid((None,)) is False

    def test_handler_requires_full_mode(self, printer):
        cc = _printer_cc(printer, EncodingMode.WITH_DASH)
        with pytest.raises(ValueError, match="FULL"):
            ConjunctionHandler(cc)

    def test_synth20_t3_store_is_pinned(self):
        # The node store after a whole run, node for node, as the generic
        # route (make_assignment_cube, then apply) left it: the check must
        # make the same nodes in the same order and share the cache.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        generate(model, 3, handler)
        mgr = handler.cc.manager
        assert mgr.node_count == 44_803
        assert hashlib.sha256(repr(list(mgr.nodes())).encode("ascii")).hexdigest() == \
            "91c71c7d0b03e0ba0bb486c54ee9550f427371457f1d5aac83794d45d0235bf8"

    def test_rejected_assignment_makes_no_node(self):
        # Every value is range checked before the cube's first node is made,
        # so a bad value anywhere leaves the store as it was.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        mgr = handler.cc.manager
        rng = random.Random(4)
        row = [rng.randrange(size) for size in model.sizes]
        assert handler.dropped and len(handler.dropped) < model.n
        for p in range(model.n):
            for bad in (model.sizes[p], -1):
                before = mgr.node_count
                with pytest.raises(ValueError, match="out of range"):
                    handler.is_valid(row[:p] + [bad] + row[p + 1:])
                assert mgr.node_count == before, (p, bad)
        handler.is_valid(row)
        assert mgr.node_count > before  # the same row, in range, does make nodes


class TestPartialBdd:
    def test_printer_counts(self, printer):
        # 51 of the 4^3 = 64 possible assignments extend to a valid test
        # case (checked against the definitional oracle below).
        cc = _printer_cc(printer, EncodingMode.WITH_DASH)
        pb = build_partial_bdd(cc, QuantOrder.UP)
        handler = TraversalHandler(pb)
        accepted = [a for a in all_assignments(printer) if handler.is_valid(a)]
        expected = [a for a in all_assignments(printer) if literal_validity(printer, a)]
        assert accepted == expected
        assert len(accepted) == 51
        # Every accepted bit vector is the encoding of a valid assignment;
        # the printer has no junk codewords, so the counts line up exactly.
        assert pb.manager.count_solutions(pb.g) == 51

    def test_traverse_goldens(self, printer):
        cc = _printer_cc(printer, EncodingMode.WITH_DASH)
        handler = TraversalHandler(build_partial_bdd(cc, QuantOrder.UP))
        assert handler.is_valid((1, 1, None)) is True
        assert handler.is_valid((0, None, 0)) is False
        assert handler.is_valid((1, 0, 2)) is True

    def test_up_down_same_function(self, printer):
        cc = _printer_cc(printer, EncodingMode.WITH_DASH)
        up = build_partial_bdd(cc, QuantOrder.UP)
        down = build_partial_bdd(cc, QuantOrder.DOWN)
        assert up.g == down.g

    def test_up_down_same_function_random(self):
        rng = random.Random(55)
        for _ in range(25):
            m = random_model(rng)
            enc = make_encoding(m, EncodingMode.WITH_DASH)
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            assert build_partial_bdd(cc, QuantOrder.UP).g == \
                build_partial_bdd(cc, QuantOrder.DOWN).g

    def test_every_step_matches_composition_on_shipped_models(self):
        # Each parameter's pass equals f ∨ (C ∧ ∃C. f) built from the
        # generic operations, and the passes together give the built g.
        for path in sorted(MODELS_DIR.glob("*.model")):
            m = load_model(path.stem)
            enc = make_encoding(m, EncodingMode.WITH_DASH)
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            mgr = cc.manager
            for quant in QuantOrder:
                positions = range(len(enc.order))
                if quant is QuantOrder.UP:
                    positions = reversed(positions)
                g = cc.f
                for pos in positions:
                    first, width = enc.offsets[pos], enc.widths[pos]
                    step = mgr.extend_dash(first, width, g)
                    assert step == extend_dash_reference(mgr, first, width, g), \
                        (path.stem, quant, pos)
                    g = step
                assert build_partial_bdd(cc, quant).g == g, (path.stem, quant)

    def test_vacuous_constraint_keeps_domain_and_dash(self):
        # One retained parameter under a tautological constraint: g accepts
        # each in-domain codeword plus the all-ones dash codeword.
        m = parse_model("[PARAMETERS]\na: x, y, z\nfree: 0, 1\n[CONSTRAINTS]\na >= x\n")
        enc = make_encoding(m, EncodingMode.WITH_DASH)
        cc = compile_constraints(m, enc, BddManager(enc.total_bits))
        pb = build_partial_bdd(cc, QuantOrder.UP)
        assert pb.manager.count_solutions(pb.g) == 4  # x, y, z, dash

    def test_requires_dash_mode(self, printer):
        cc = _printer_cc(printer, EncodingMode.FULL)
        with pytest.raises(ValueError, match="WITH_DASH"):
            build_partial_bdd(cc)

    def test_resource_limit_surfaces(self, printer):
        enc = make_encoding(printer, EncodingMode.WITH_DASH)
        with pytest.raises(ResourceLimitError):
            cc = compile_constraints(printer, enc, BddManager(enc.total_bits, max_nodes=4))
            build_partial_bdd(cc, QuantOrder.UP)

    def test_g_matches_f_on_full_cases(self, printer):
        cc1 = _printer_cc(printer, EncodingMode.FULL)
        handler = TraversalHandler(build_partial_bdd(
            _printer_cc(printer, EncodingMode.WITH_DASH), QuantOrder.UP))
        for t in product(range(3), repeat=3):
            via_f = cc1.manager.eval(cc1.f, encode_full(cc1.encoding, t))
            assert handler.is_valid(t) == via_f


# ``b`` has three values in two bits, and ``g`` tests none of them when
# ``a`` is not ``x``: on that path the walk skips ``b``'s whole block.
SKIPPED_BLOCK = parse_model("[PARAMETERS]\na: x, y, z\nb: p, q, r\nc: u, v\n"
                            "[CONSTRAINTS]\na = x => b = p\n")


class TestTraversalTable:
    def test_walk_matches_eval(self):
        rng = random.Random(66)
        models = [SKIPPED_BLOCK] + [random_model(rng) for _ in range(25)]
        for m in models:
            enc = make_encoding(m, EncodingMode.WITH_DASH)
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            for quant in QuantOrder:
                pb = build_partial_bdd(cc, quant)
                handler = TraversalHandler(pb)
                last = enc.order[-1]
                for a in all_assignments(m):
                    valid = handler.is_valid(a)
                    assert valid == pb.manager.eval(pb.g, encode_full(enc, a)), \
                        (m, quant, a)
                    if not valid:
                        # The walk may reach FALSE above the last block; a
                        # bad value there must still raise.
                        bad = list(a)
                        bad[last] = m.sizes[last]
                        with pytest.raises(ValueError, match="out of range"):
                            handler.is_valid(bad)

    @pytest.mark.parametrize("kind", HANDLER_KINDS)
    @pytest.mark.parametrize("assignment, message", [
        ((3, 0, 0), r"^value 3 out of range for 'a'$"),
        ((0, -1, 0), r"^value -1 out of range for 'b'$"),
        ((1, 5, 0), r"^value 5 out of range for 'b'$"),
        ((1, 0, 2), r"^value 2 out of range for 'c'$"),
        ((0, 1, 2), r"^value 2 out of range for 'c'$"),  # after g reaches FALSE
        ((0, 0), r"^expected 3 values, got 2$"),
    ])
    def test_rejects_bad_input(self, kind, assignment, message):
        handler = build_handler(SKIPPED_BLOCK, kind)
        with pytest.raises(ValueError, match=message):
            handler.is_valid(assignment)


class TestHandlerAgreement:
    def test_printer_exhaustive(self, printer):
        handlers = [build_handler(printer, kind) for kind in HANDLER_KINDS]
        for assignment in all_assignments(printer):
            verdicts = {h.is_valid(assignment) for h in handlers}
            assert len(verdicts) == 1, assignment

    def test_random_models_exhaustive(self):
        rng = random.Random(99)
        for _ in range(25):
            m = random_model(rng, max_params=4, max_domain=3)
            handlers = [build_handler(m, kind) for kind in HANDLER_KINDS]
            for assignment in all_assignments(m):
                verdicts = [h.is_valid(assignment) for h in handlers]
                assert len(set(verdicts)) == 1, (m, assignment, verdicts)

    def test_restriction_monotonicity(self):
        rng = random.Random(123)
        for _ in range(15):
            m = random_model(rng, max_params=4, max_domain=3)
            handlers = [build_handler(m, kind) for kind in HANDLER_KINDS]
            valid_full = [t for t in product(*(range(s) for s in m.sizes))
                          if eval_constraints(m, t)]
            for t in valid_full[:20]:
                for mask in range(1 << m.n):
                    partial = tuple(v if not (mask >> i) & 1 else None
                                    for i, v in enumerate(t))
                    for h in handlers:
                        assert h.is_valid(partial), (t, partial, h.name)

    def test_extension_witness(self, printer):
        # Greedily fixing parameters while staying valid always reaches a
        # valid full test case.
        handler = build_handler(printer, "bdd-partial-up")
        for start in all_assignments(printer):
            if not handler.is_valid(start):
                continue
            current = list(start)
            for p in range(printer.n):
                if current[p] is not None:
                    continue
                for v in range(printer.sizes[p]):
                    current[p] = v
                    if handler.is_valid(current):
                        break
                    current[p] = None
                assert current[p] is not None
            assert eval_constraints(printer, current)


class TestHandlerFactory:
    def test_kinds_and_names(self, printer):
        for kind in HANDLER_KINDS:
            handler = build_handler(printer, kind)
            assert handler.name == kind

    def test_unknown_kind(self, printer):
        with pytest.raises(ValueError, match="unknown handler"):
            build_handler(printer, "csp")

    def test_dropped_parameters(self):
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nc: 0, 1\n"
                        "[CONSTRAINTS]\nb = 0\n")
        for kind in HANDLER_KINDS:
            assert build_handler(m, kind).dropped == {0, 2}

    def test_store_freed_without_the_cycle_collector(self):
        # Dropping a traversal handler frees its manager by reference
        # counting alone: nothing built during set-up may hold the manager
        # in a reference cycle.
        model = load_model("synth20")
        gc.disable()
        try:
            for kind in ("bdd-partial-up", "bdd-partial-down"):
                handler = build_handler(model, kind)
                store = weakref.ref(handler.pb.manager)
                del handler
                assert store() is None, kind
        finally:
            gc.enable()

    def test_set_up_leaves_nothing_for_the_cycle_collector(self):
        # Set-up of every kind on every shipped model is freed by reference
        # counting alone, so a run leaves no garbage to the collector.
        models = {path.stem: load_model(path.stem)
                  for path in sorted(MODELS_DIR.glob("*.model"))}
        gc.collect()
        gc.disable()
        try:
            for name, model in models.items():
                for kind in HANDLER_KINDS:
                    build_handler(model, kind)
                    assert gc.collect() == 0, (name, kind)
        finally:
            gc.enable()

    def test_unconstrained_model(self, printer_free):
        for kind in HANDLER_KINDS:
            handler = build_handler(printer_free, kind)
            assert handler.is_valid((None, None, None)) is True
            assert handler.is_valid((0, 2, 1)) is True
            assert handler.dropped == {0, 1, 2}
