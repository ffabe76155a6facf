"""Tests for the three validity handlers and the partial-test-case BDD."""

import ast
import gc
import hashlib
import operator
import random
import weakref
from functools import partial
from itertools import product
from math import prod

import pytest

from citbdd.bdd import COLLECT_FLOOR, FALSE, TRUE, BddManager
from citbdd.encode import EncodingMode, compile_constraints, encode_full, make_encoding
from citbdd.ipog import generate
from citbdd.model import (
    Compare, CompareParams, Connective, Not, Parameter, SutModel,
    check_assignment, eval_constraints, parse_model,
)
from citbdd.validity import (
    AND_STORE_LIMIT, HANDLER_KINDS, ConjunctionHandler, OracleHandler,
    QuantOrder, TraversalHandler, build_handler, build_partial_bdd,
)

from conftest import MODELS_DIR, load_model
from model_gen import all_assignments, chain_model, random_model
from test_bdd import extend_dash_reference
from test_golden_suites import CountingHandler


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

    def test_long_chain_at_the_default_recursion_limit(self):
        # The search is a loop, so 1,199 unfixed parameters need no frames;
        # on a chain each link tries at most its three values, so each check
        # is linear.
        oracle = OracleHandler(chain_model(1200))
        free = [None] * 1200
        assert oracle.is_valid(free) is True
        assert oracle.is_valid([1] + free[1:]) is True  # forces every link to v1
        assert oracle.is_valid([1] + free[1:-1] + [2]) is False

    def test_checks_leave_nothing_for_the_cycle_collector(self, printer):
        oracle = OracleHandler(printer)
        assignments = list(product((None, 0, 1, 2), repeat=3))
        gc.collect()
        gc.disable()
        try:
            for assignment in assignments:
                oracle.is_valid(assignment)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        # The node store and the computed table after a whole run, entry for
        # entry and in insertion order, as the generic route
        # (make_assignment_cube, then apply) left them: the check must make
        # the same nodes in the same order and the same cache keys, tag and
        # operand order included.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        generate(model, 3, handler)
        mgr = handler.cc.manager
        assert mgr.node_count == 40_738
        assert hashlib.sha256(repr(list(mgr.nodes())).encode("ascii")).hexdigest() == \
            "56da276d077d48bd1e17b6cfe19675637e78d57fbaf1e583234a2dab89b9dfc8"
        assert len(mgr._cache) == 77_630
        assert hashlib.sha256(repr(list(mgr._cache.items())).encode("ascii")).hexdigest() == \
            "4d028db10e14feb53e9c5594f66fb23b909a91af4ea1edb7fdf839aa5a26a404"

    def test_rejected_assignment_makes_no_node(self):
        # Every value is range checked before the cube's first node is made,
        # so a bad value anywhere leaves the store as it was.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        mgr = handler.cc.manager
        rng = random.Random(4)
        row = [rng.randrange(size) for size in model.sizes]
        assert model.dropped and len(model.dropped) < model.n
        for p in range(model.n):
            for bad in (model.sizes[p], -1, -model.sizes[p] - 1, 10**20, 1.0):
                before = mgr.node_count
                with pytest.raises(ValueError, match="out of range"):
                    handler.is_valid(row[:p] + [bad] + row[p + 1:])
                assert mgr.node_count == before, (p, bad)
        handler.is_valid(row)
        assert mgr.node_count > before  # the same row, in range, does make nodes

    def test_repeated_check_leaves_the_store_as_it_was(self):
        # A repeat is answered from the memo: no node, no computed-table entry.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        mgr = handler.cc.manager
        rng = random.Random(6)
        rows = [[rng.randrange(size) if rng.random() < 0.3 else None for size in model.sizes]
                for _ in range(300)]
        answers = [handler.is_valid(row) for row in rows]
        assert 0 < sum(answers) < len(rows)
        for row, answer in zip(rows, answers):
            store = (mgr.node_count, len(mgr._cache))
            assert handler.is_valid(row) is answer
            assert (mgr.node_count, len(mgr._cache)) == store

    @pytest.mark.parametrize("where", ["constrained", "dropped"])
    def test_memo_keeps_the_value_rule(self, where):
        # The memo is keyed only by values that passed the range check, so a
        # bad value in an answered row, even one equal and hashing alike to a
        # good value (1.0 == 1), still raises and makes nothing.
        model = load_model("synth20")
        handler = build_handler(model, "bdd-and")
        mgr = handler.cc.manager
        p = min(model.dropped) if where == "dropped" else min(
            set(range(model.n)) - model.dropped)
        row = [1] * model.n
        handler.is_valid(row)
        store = (mgr.node_count, len(mgr._cache))
        for bad in (1.0, -1, model.sizes[p], "a"):
            with pytest.raises(ValueError, match="out of range"):
                handler.is_valid(row[:p] + [bad] + row[p + 1:])
            assert (mgr.node_count, len(mgr._cache)) == store, bad

    def test_true_is_answered_as_one(self):
        # True is the index 1, so it shares 1's memo entry, whichever comes first.
        model = load_model("synth20")
        first, second = build_handler(model, "bdd-and"), build_handler(model, "bdd-and")
        p = min(set(range(model.n)) - model.dropped)
        rng = random.Random(7)
        for _ in range(50):
            row = [rng.randrange(size) if rng.random() < 0.3 else None for size in model.sizes]
            row[p] = 1
            with_true = row[:p] + [True] + row[p + 1:]
            answer = first.is_valid(row)
            assert second.is_valid(with_true) is answer
            stores = [h.cc.manager.node_count for h in (first, second)]
            assert first.is_valid(with_true) is answer and second.is_valid(row) is answer
            assert [h.cc.manager.node_count for h in (first, second)] == stores


class StoreWatch(CountingHandler):
    """Counts and hashes the checks, and records the conjunction handler's
    store size after each."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sizes = []

    def is_valid(self, assignment):
        answer = super().is_valid(assignment)
        self.sizes.append(self.inner.cc.manager.node_count)
        return answer


def test_conjunction_store_is_collected():
    # chain200 at t=1 makes over half a million cube and conjunction nodes
    # when nothing is freed; the store limit keeps the nodes made after set-up
    # within AND_STORE_LIMIT plus one check's growth, and the collections
    # change no answer and no check.
    model = chain_model(200)
    handler = build_handler(model, "bdd-and")
    first = handler.cc.manager.node_count
    watch = StoreWatch(handler)
    suite = generate(model, 1, watch)
    generated = watch.calls
    up = CountingHandler(build_handler(model, "bdd-partial-up"))
    assert suite.rows == generate(model, 1, up).rows
    assert watch.calls == up.calls
    assert watch.sha256.hexdigest() == up.sha256.hexdigest()
    # Later checks, on the collected store, still agree with the traversal.
    rng = random.Random(20)
    rows = [[rng.randrange(3) if rng.random() < 0.05 else None for _ in range(model.n)]
            for _ in range(2000)]
    answers = [watch.is_valid(row) for row in rows]
    assert 0 < sum(answers) < len(rows)
    assert answers == [up.is_valid(row) for row in rows]
    sizes = [first] + watch.sizes
    steps = [after - before for before, after in zip(sizes, sizes[1:])]
    assert min(steps[:generated]) < 0  # generate ran a collection
    assert max(sizes) - first <= AND_STORE_LIMIT + max(steps)


def test_setup_store_is_pinned(models_dir):
    # Set-up on every shipped model, node for node and computed-table entry
    # for entry: compiling under both encodings runs AND, OR, XOR
    # (equality6's ``primary = backup``) and IMPLIES, and the up then down
    # builds in the WITH_DASH manager run the quantifying ORs.
    paths = sorted(models_dir.glob("*.model"))
    assert len(paths) == 12
    digest = hashlib.sha256()
    for path in paths:
        model = parse_model(path.read_text(encoding="utf-8"))
        for mode in (EncodingMode.FULL, EncodingMode.WITH_DASH):
            enc = make_encoding(model, mode)
            mgr = BddManager(enc.total_bits)
            cc = compile_constraints(model, enc, mgr)
            if mode is EncodingMode.WITH_DASH:
                build_partial_bdd(cc, QuantOrder.UP)
                build_partial_bdd(cc, QuantOrder.DOWN)
            digest.update(repr((path.stem, mode.value, list(mgr.nodes()),
                                list(mgr._cache.items()))).encode("ascii"))
    assert digest.hexdigest() == \
        "bc66310f35e15edf1e8903d2e5970c1fccd9a023a62b05204d453e7c68b17ad1"


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

    def test_small_builds_do_not_collect(self):
        # synth20's passes make a few hundred nodes: the store after the
        # build is the store the bare passes leave.
        m = load_model("synth20")
        enc = make_encoding(m, EncodingMode.WITH_DASH)
        for quant in QuantOrder:
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            build_partial_bdd(cc, quant)
            bare = compile_constraints(m, enc, BddManager(enc.total_bits))
            passes(bare, quant)
            assert list(cc.manager.nodes()) == list(bare.manager.nodes())

    def test_chain_build_frees_its_garbage(self):
        m = chain_model(120)
        enc = make_encoding(m, EncodingMode.WITH_DASH)
        cc = compile_constraints(m, enc, BddManager(enc.total_bits))
        mgr = cc.manager
        base = mgr.node_count + 2
        before = list(mgr.nodes())
        up = build_partial_bdd(cc, QuantOrder.UP)
        # Everything the build made and ``g`` no longer reaches is less
        # than one collection's slack.
        made = mgr.node_count + 2 - base
        live = sum(1 for node in mgr.function_nodes(up.g) if node >= base)
        assert made - live < COLLECT_FLOOR
        down = build_partial_bdd(cc, QuantOrder.DOWN)
        assert down.g == up.g
        assert list(mgr.nodes())[:base - 2] == before
        # The bare passes in a fresh manager make many more nodes, and the
        # same function.
        bare = compile_constraints(m, enc, BddManager(enc.total_bits))
        g = passes(bare, QuantOrder.UP)
        assert bare.manager.node_count - (base - 2) > made + COLLECT_FLOOR
        assert canonical(bare.manager, g) == canonical(mgr, up.g)

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

    def test_g_matches_f_on_full_cases(self, printer):
        cc1 = _printer_cc(printer, EncodingMode.FULL)
        handler = TraversalHandler(build_partial_bdd(
            _printer_cc(printer, EncodingMode.WITH_DASH), QuantOrder.UP))
        for t in product(range(3), repeat=3):
            via_f = cc1.manager.eval(cc1.f, encode_full(cc1.encoding, t))
            assert handler.is_valid(t) == via_f


def passes(cc, quant):
    """``g`` built by bare ``extend_dash`` passes, with no collection."""
    enc = cc.encoding
    positions = range(len(enc.order))
    if quant is QuantOrder.UP:
        positions = reversed(positions)
    g = cc.f
    for pos in positions:
        g = cc.manager.extend_dash(enc.offsets[pos], enc.widths[pos], g)
    return g


def canonical(mgr, f):
    """The nodes ``f`` reaches as (level, low, high), numbered in
    depth-first post-order: equal exactly for equal functions, whatever
    handles each manager gave them."""
    order = {FALSE: FALSE, TRUE: TRUE}
    nodes = []
    stack = [f]
    while stack:
        node = stack[-1]
        if node in order:
            stack.pop()
            continue
        low, high = mgr._low[node], mgr._high[node]
        if low not in order:
            stack.append(low)
        elif high not in order:
            stack.append(high)
        else:
            stack.pop()
            order[node] = len(order)
            nodes.append((mgr._level[node], order[low], order[high]))
    return nodes


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

    @pytest.mark.parametrize("kind", HANDLER_KINDS)
    @pytest.mark.parametrize("value", [1.0, 1.5, "a", True, -1, -4, -6, 10**20, []])
    @pytest.mark.parametrize("position", [0, 2], ids=["constrained", "dropped"])
    def test_one_rule_for_every_value(self, kind, value, position):
        # A value is None or an index in range, an index being what
        # operator.index accepts: True is 1, and 1.0 is no index, at a
        # constrained position (``a``) and at a dropped one (``c``).
        def outcome(handler, assignment):
            try:
                return handler.is_valid(assignment)
            except ValueError as exc:
                return str(exc)

        row = [1, 0, 0]
        row[position] = value
        oracle = build_handler(SKIPPED_BLOCK, "oracle")
        if value is True:
            expected = oracle.is_valid([1 if v is True else v for v in row])
        else:
            name = SKIPPED_BLOCK.params[position].name
            expected = f"value {value} out of range for {name!r}"
        assert outcome(oracle, row) == expected
        assert outcome(build_handler(SKIPPED_BLOCK, kind), row) == expected


def walk_reference(handler, assignment):
    """The traversal check as one loop over ``handler.steps``: the walk
    that ``TraversalHandler`` writes out as straight-line code."""
    model = handler.model
    if len(assignment) != model.n:
        check_assignment(model, assignment)
    node = 0
    try:
        for p, rows, dash in handler.steps:
            v = assignment[p]
            if v is None:
                node = dash[node]
            elif 0 <= v < model.sizes[p]:
                node = rows[node][v]
            else:
                check_assignment(model, assignment)
        for p in sorted(model.dropped):
            v = assignment[p]
            if v is not None and not 0 <= operator.index(v) < model.sizes[p]:
                check_assignment(model, assignment)
    except (TypeError, IndexError):
        check_assignment(model, assignment)
        raise
    return node == handler.accept


def outcome(check, assignment):
    """The check's answer, or the message of the ValueError it raises."""
    try:
        return check(assignment)
    except ValueError as exc:
        return str(exc)


def probe_values(size):
    """Values to try at a position with ``size`` values: ``True`` and
    ``False``, which are 1 and 0, and values that are no index into the
    domain, among them negatives that a tuple index would wrap into it."""
    return (-1, -size - 1, -2 * size, 10**20, 0.0, "", [], True, False)


def assert_walk_matches_reference(handler, assignments):
    reference = partial(walk_reference, handler)
    for a in assignments:
        assert outcome(handler.is_valid, a) == outcome(reference, a), (handler.name, a)
        for p, size in enumerate(handler.model.sizes):
            for value in probe_values(size):
                row = list(a)
                row[p] = value
                assert outcome(handler.is_valid, row) == outcome(reference, row), \
                    (handler.name, row)


# Value and parameter comparisons over four parameters, and a fifth that
# occurs in no constraint.
LABELLED_CONSTRAINTS = (
    Connective(Compare(0, "=", 1), "=>", Not(Compare(1, "=", 2))),
    Connective(CompareParams(2, "!=", 3), "||", Compare(0, ">=", 2)),
)


def labelled_model(name, label):
    return SutModel(tuple(Parameter(name(i), tuple(label(i, v) for v in range(size)))
                          for i, size in enumerate((3, 3, 2, 4, 3))),
                    LABELLED_CONSTRAINTS)


class TestCompiledWalk:
    """``TraversalHandler.is_valid`` is the walk compiled from the tables,
    and answers as the table loop it replaces, messages included."""

    def test_matches_table_loop_on_shipped_models(self):
        paths = sorted(MODELS_DIR.glob("*.model"))
        assert len(paths) == 12
        for path in paths:
            model = load_model(path.stem)
            rng = random.Random(path.stem)
            if prod(s + 1 for s in model.sizes) <= 1000:
                assignments = list(all_assignments(model))
            else:
                assignments = [tuple(rng.choice((None, *range(s))) for s in model.sizes)
                               for _ in range(200)]
            for kind in ("bdd-partial-up", "bdd-partial-down"):
                assert_walk_matches_reference(build_handler(model, kind), assignments)

    def test_matches_table_loop_on_random_models(self):
        rng = random.Random(27)
        for i in range(200):
            model = random_model(rng)
            handler = build_handler(model, ("bdd-partial-up", "bdd-partial-down")[i % 2])
            reference = partial(walk_reference, handler)
            for a in all_assignments(model):
                assert handler.is_valid(a) == reference(a), (model, a)
            assert_walk_matches_reference(handler, [(None,) * model.n, (0,) * model.n])

    @pytest.mark.parametrize("kind", ["bdd-partial-up", "bdd-partial-down"])
    def test_source_reads_no_name_or_label(self, kind):
        # Names and labels reach the walk only through its globals, so
        # quotes, backslashes, comments and code in them change nothing.
        trick = '"\'\\# __import__("os")'
        tricky = build_handler(labelled_model(lambda i: f"{trick}{i}",
                                              lambda i, v: f"{trick}{v}"), kind)
        plain = build_handler(labelled_model(lambda i: f"p{i}", lambda i, v: f"v{v}"), kind)
        assert tricky.source == plain.source
        constants = [node.value for node in ast.walk(ast.parse(tricky.source))
                     if isinstance(node, ast.Constant)]
        assert constants and all(type(c) is int or c is None for c in constants)
        for a in all_assignments(plain.model):
            assert tricky.is_valid(a) == plain.is_valid(a), a

    @pytest.mark.parametrize("kind", ["bdd-and", "bdd-partial-up", "bdd-partial-down"])
    def test_check_dies_with_its_handler(self, printer, kind):
        # The compiled walk is not left in its own globals, and the
        # conjunction check does not hold its handler, so nothing of the
        # handler waits for the cycle collector.
        gc.collect()
        gc.disable()
        try:
            handler = build_handler(printer, kind)
            generate(printer, 2, handler)
            refs = [weakref.ref(handler), weakref.ref(handler.is_valid)]
            del handler
            assert [ref() for ref in refs] == [None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_long_chain_at_the_default_recursion_limit(self):
        # One statement per step: 400 of them compile with no nesting.
        handler = build_handler(chain_model(400), "bdd-partial-up")
        free = [None] * 400
        assert handler.is_valid(free) is True
        assert handler.is_valid([1] + free[1:]) is True  # forces every link to v1
        assert handler.is_valid([1] + free[1:-1] + [2]) is False

    def test_unconstrained_parameters_keep_one_loop(self):
        def source_lines(free):
            text = "[PARAMETERS]\n" + "".join(f"p{i}: a, b\n" for i in range(free + 1))
            model = parse_model(text + "[CONSTRAINTS]\np0 = a\n")
            return len(build_handler(model, "bdd-partial-up").source.splitlines())
        assert source_lines(3000) == source_lines(3)


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
        models = [load_model(path.stem) for path in sorted(MODELS_DIR.glob("*.model"))]
        assert len(models) == 12
        for model in models:
            for kind in HANDLER_KINDS:
                assert build_handler(model, kind).dropped == model.dropped, kind

    def test_store_freed_without_the_cycle_collector(self):
        # The traversal handler holds only its tables, so the set-up
        # manager dies when build_handler returns, by reference counting
        # alone: nothing may hold it, in a reference cycle or otherwise.
        model = load_model("synth20")
        gc.disable()
        try:
            before = [o for o in gc.get_objects() if isinstance(o, BddManager)]
            for kind in ("bdd-partial-up", "bdd-partial-down"):
                handler = build_handler(model, kind)
                assert handler.is_valid((None,) * model.n)
                assert [o for o in gc.get_objects() if isinstance(o, BddManager)
                        and not any(o is b for b in before)] == [], kind
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
