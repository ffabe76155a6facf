"""Tests for parameter encodings, variable ordering, and constraint compilation."""

import random
from itertools import product

import pytest

from citbdd.bdd import TRUE, BddManager, Op
from citbdd.encode import (
    EncodingMode,
    _translate, _value_le,
    compile_constraints, constrained_params, encode_full, make_encoding,
    order_parameters,
)
from citbdd.model import Connective, Not, eval_constraints, parse_model

from model_gen import random_model
from test_bdd import build_printer_f, printer_formula
from formula_oracle import all_bits


class TestConstrainedParams:
    def test_printer_all(self, printer):
        assert constrained_params(printer) == {0, 1, 2}

    def test_none(self, printer_free):
        assert constrained_params(printer_free) == frozenset()

    def test_omitted_parameter(self):
        m = parse_model("""
            [PARAMETERS]
            P1: a, b
            P2: a, b
            P3: a, b
            P4: a, b
            [CONSTRAINTS]
            P1 = a => P2 = b
            P4 != a
        """)
        assert constrained_params(m) == {0, 1, 3}

    def test_masking_preserves_validity(self):
        # Values of the dropped parameter never change the constraint verdict.
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nfree: 0, 1, 2\n"
                        "[CONSTRAINTS]\na = 0 => b = 1\n")
        assert constrained_params(m) == {0, 1}
        for a, b in product(range(2), repeat=2):
            verdicts = {eval_constraints(m, (a, b, v)) for v in range(3)}
            assert len(verdicts) == 1


def _bfs_distances(model):
    """Independent distance oracle: explicit parse-forest graph plus BFS."""
    from collections import deque
    adjacency = {}
    occurrences = []  # (param, node_id)
    counter = [0]

    def new_node():
        node = counter[0]
        counter[0] += 1
        adjacency[node] = []
        return node

    def connect(a, b):
        adjacency[a].append(b)
        adjacency[b].append(a)

    def walk(expr, parent):
        node = new_node()
        connect(parent, node)
        if isinstance(expr, Not):
            walk(expr.child, node)
        elif isinstance(expr, Connective):
            walk(expr.left, node)
            walk(expr.right, node)
        elif hasattr(expr, "param"):
            leaf = new_node()
            connect(node, leaf)
            occurrences.append((expr.param, leaf))
            const_leaf = new_node()
            connect(node, const_leaf)
        else:
            for p in (expr.left, expr.right):
                leaf = new_node()
                connect(node, leaf)
                occurrences.append((p, leaf))

    virtual_root = new_node()
    for c in model.constraints:
        walk(c, virtual_root)

    def bfs(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    result = {}
    for i, (p, np_) in enumerate(occurrences):
        dist = bfs(np_)
        for q, nq in occurrences:
            if q == p:
                continue
            key = (p, q) if p < q else (q, p)
            d = dist[nq]
            if key not in result or d < result[key]:
                result[key] = d
    return result


def _greedy_order(params, dist):
    def d(a, b):
        return dist[(a, b) if a < b else (b, a)]
    params = sorted(params)
    first = min(params, key=lambda p: (sum(d(p, q) for q in params if q != p), p))
    chosen = [first]
    rest = [p for p in params if p != first]
    while rest:
        nxt = min(rest, key=lambda p: (sum(d(p, s) for s in chosen), p))
        chosen.append(nxt)
        rest.remove(nxt)
    return tuple(chosen)


class TestOrderParameters:
    def test_printer_order(self, printer):
        # The middle parameter appears in both constraints, so it minimizes
        # the distance sum and comes first.
        assert order_parameters(printer) == (1, 0, 2)

    def test_two_parameter_constraint_ties_to_declaration(self):
        m = parse_model("[PARAMETERS]\nx: 0, 1\ny: 0, 1\n[CONSTRAINTS]\nx = 0 => y = 1\n")
        assert order_parameters(m) == (0, 1)

    def test_disjoint_constraints_group(self):
        m = parse_model("""
            [PARAMETERS]
            a: 0, 1
            b: 0, 1
            c: 0, 1
            d: 0, 1
            [CONSTRAINTS]
            a = 0 => b = 1
            c = 0 => d = 1
        """)
        order = order_parameters(m)
        # Parameters of one constraint stay adjacent; no interleaving.
        assert set(order[:2]) in ({0, 1}, {2, 3})
        assert set(order[2:]) in ({0, 1}, {2, 3})

    def test_matches_bfs_graph_oracle(self):
        rng = random.Random(424)
        for _ in range(60):
            m = random_model(rng)
            if not constrained_params(m):
                continue
            assert order_parameters(m) == _greedy_order(constrained_params(m),
                                                        _bfs_distances(m))


class TestEncodingLayout:
    def test_printer_widths(self, printer):
        full = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        dash = make_encoding(printer, EncodingMode.WITH_DASH, order=(0, 1, 2))
        assert full.widths == (2, 2, 2) and full.total_bits == 6
        assert dash.widths == (2, 2, 2) and dash.total_bits == 6

    def test_width_growth_for_dash(self):
        m = parse_model("[PARAMETERS]\na: 0\nb: 0, 1\nc: 0, 1, 2, 3\n"
                        "[CONSTRAINTS]\na = 0 && b = 0 && c = 0\n")
        full = make_encoding(m, EncodingMode.FULL, order=(0, 1, 2))
        dash = make_encoding(m, EncodingMode.WITH_DASH, order=(0, 1, 2))
        assert full.widths == (0, 1, 2)   # singleton domains need no bits
        assert dash.widths == (1, 2, 3)   # one extra codeword for the dash

    def test_offsets_contiguous(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_model(rng)
            for mode in EncodingMode:
                enc = make_encoding(m, mode)
                total = 0
                for off, w in zip(enc.offsets, enc.widths):
                    assert off == total
                    total += w
                assert total == enc.total_bits

    def test_order_must_cover_constrained(self, printer):
        with pytest.raises(ValueError, match="permutation"):
            make_encoding(printer, EncodingMode.FULL, order=(0, 1))

    def test_dropped(self):
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nc: 0, 1\n"
                        "[CONSTRAINTS]\nb = 0\n")
        enc = make_encoding(m, EncodingMode.FULL)
        assert enc.dropped == {0, 2}
        assert enc.order == (1,)


class TestEncodeFull:
    def test_full_test_case(self, printer):
        enc = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        assert encode_full(enc, (1, 0, 2)) == [1, 0, 0, 0, 0, 1]

    def test_partial_with_dash(self, printer):
        enc = make_encoding(printer, EncodingMode.WITH_DASH, order=(0, 1, 2))
        assert encode_full(enc, (1, 1, None)) == [1, 0, 1, 0, 1, 1]
        assert encode_full(enc, (0, None, 0)) == [0, 0, 1, 1, 0, 0]

    def test_dash_rejected_in_full_mode(self, printer):
        enc = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        with pytest.raises(ValueError, match="unspecified"):
            encode_full(enc, (1, None, 2))

    def test_value_out_of_range(self, printer):
        enc = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        with pytest.raises(ValueError, match="out of range"):
            encode_full(enc, (1, 3, 2))


class TestCompile:
    def _printer_cc(self, printer, mode=EncodingMode.FULL):
        enc = make_encoding(printer, mode, order=(0, 1, 2))
        mgr = BddManager(enc.total_bits)
        return compile_constraints(printer, enc, mgr)

    def test_printer_equals_direct_formula(self, printer):
        cc = self._printer_cc(printer)
        for bits in all_bits(6):
            assert cc.manager.eval(cc.f, bits) == printer_formula(bits)

    def test_printer_equals_handbuilt_bdd(self, printer):
        cc = self._printer_cc(printer)
        assert cc.f == build_printer_f(cc.manager)

    def test_printer_satisfying_count(self, printer):
        cc = self._printer_cc(printer)
        assert cc.manager.count_solutions(cc.f) == 18

    def test_domain_bound_for_three_values(self):
        # Size-3 domain on two bits: the bound reduces to high => not low.
        m = parse_model("[PARAMETERS]\na: 0, 1, 2\n[CONSTRAINTS]\na >= 0\n")
        enc = make_encoding(m, EncodingMode.FULL)
        mgr = BddManager(enc.total_bits)
        cc = compile_constraints(m, enc, mgr)
        lo, hi = mgr.mk_var(0), mgr.mk_var(1)
        assert cc.f == mgr.apply(Op.IMPLIES, hi, mgr.negate(lo))

    def test_semantic_faithfulness_printer(self, printer):
        for mode in EncodingMode:
            enc = make_encoding(printer, mode, order=(0, 1, 2))
            cc = compile_constraints(printer, enc, BddManager(enc.total_bits))
            for t in product(range(3), repeat=3):
                assert cc.manager.eval(cc.f, encode_full(enc, t)) == \
                    eval_constraints(printer, t)

    def test_semantic_faithfulness_random_models(self):
        rng = random.Random(1234)
        for _ in range(40):
            m = random_model(rng, max_params=5)
            for mode in EncodingMode:
                enc = make_encoding(m, mode)
                cc = compile_constraints(m, enc, BddManager(enc.total_bits))
                for t in product(*(range(s) for s in m.sizes)):
                    assert cc.manager.eval(cc.f, encode_full(enc, t)) == \
                        eval_constraints(m, t)

    def test_order_invariance(self, printer):
        accepted = {}
        for order in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
            enc = make_encoding(printer, EncodingMode.FULL, order=order)
            cc = compile_constraints(printer, enc, BddManager(enc.total_bits))
            accepted[order] = {
                t for t in product(range(3), repeat=3)
                if cc.manager.eval(cc.f, encode_full(enc, t))
            }
        assert len(set(map(frozenset, accepted.values()))) == 1

    def test_dash_codewords_rejected_by_f(self, printer):
        enc = make_encoding(printer, EncodingMode.WITH_DASH, order=(0, 1, 2))
        cc = compile_constraints(printer, enc, BddManager(enc.total_bits))
        for assignment in [(None, 0, 1), (1, None, 1), (1, 1, None), (None, None, None)]:
            assert cc.manager.eval(cc.f, encode_full(enc, assignment)) is False

    def test_param_eq_param_unequal_widths(self):
        # 5 values (3 bits with dash) against 2 values (2 bits with dash):
        # equality must compare numeric values, not raw codewords.
        m = parse_model("[PARAMETERS]\nwide: 0, 1, 2, 3, 4\nnarrow: 0, 1\n"
                        "[CONSTRAINTS]\nwide = narrow\n")
        for mode in EncodingMode:
            enc = make_encoding(m, mode)
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            for t in product(range(5), range(2)):
                assert cc.manager.eval(cc.f, encode_full(enc, t)) == (t[0] == t[1])

    def test_var_count_mismatch(self, printer):
        enc = make_encoding(printer, EncodingMode.FULL)
        with pytest.raises(ValueError, match="variables"):
            compile_constraints(printer, enc, BddManager(enc.total_bits + 1))


def chain_text(n_params):
    """An implication chain, ``cK = cK+1 || cK = v0``, in the same text the
    benchmark's chain instances use."""
    names = [f"c{i:03d}" for i in range(n_params)]
    lines = [f"# implication chain over {n_params} parameters", "[PARAMETERS]"]
    lines += [f"{name}: v0, v1, v2" for name in names]
    lines += ["", "[CONSTRAINTS]"]
    lines += [f"{a} = {b} || {a} = v0" for a, b in zip(names, names[1:])]
    return "\n".join(lines) + "\n"


class TestChainScale:
    """The random models above have at most nine parameters; these run the
    ordering and the compilation on a 150-parameter chain."""

    @pytest.fixture(scope="class")
    def chain150(self):
        return parse_model(chain_text(150))

    def test_order_matches_bfs_graph_oracle(self, chain150):
        assert order_parameters(chain150) == _greedy_order(
            constrained_params(chain150), _bfs_distances(chain150))

    def test_balanced_f_equals_linear_fold(self, chain150):
        for mode in EncodingMode:
            enc = make_encoding(chain150, mode)
            mgr = BddManager(enc.total_bits)
            f = compile_constraints(chain150, enc, mgr).f
            linear = TRUE
            for pos in range(len(enc.order)):
                linear = mgr.apply(Op.AND, linear,
                                   _value_le(mgr, enc, pos, enc.sizes[pos] - 1))
            for c in chain150.constraints:
                linear = mgr.apply(Op.AND, linear, _translate(mgr, enc, c))
            assert f == linear, mode
