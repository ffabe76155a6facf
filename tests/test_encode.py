"""Tests for parameter encodings, variable ordering, and constraint compilation."""

import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import citbdd
from citbdd.bdd import COLLECT_FLOOR, TRUE, BddManager, Op
from citbdd.encode import (
    EncodingMode,
    _translate, _value_le,
    compile_constraints, encode_full, make_encoding,
    order_parameters, tree_order,
)
from citbdd.ipog import generate, verify
from citbdd.model import (
    Compare, Connective, Not, Parameter, SutModel, eval_constraints, format_constraint,
    occurrences, parse_model,
)
from citbdd.validity import (
    HANDLER_AND, HANDLER_ORACLE, HANDLER_PARTIAL_DOWN, HANDLER_PARTIAL_UP, build_handler,
)

from model_gen import random_model, synth_model
from test_bdd import build_printer_f, printer_formula
from test_validity import canonical
from formula_oracle import all_bits
from conftest import MODELS_DIR, load_model


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


class TestTreeOrder:
    def test_printer_order(self, printer):
        # The middle parameter appears in both constraints, so it minimizes
        # the distance sum and comes first.
        assert tree_order(printer) == (1, 0, 2)

    def test_two_parameter_constraint_ties_to_declaration(self):
        m = parse_model("[PARAMETERS]\nx: 0, 1\ny: 0, 1\n[CONSTRAINTS]\nx = 0 => y = 1\n")
        assert tree_order(m) == (0, 1)

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
        order = tree_order(m)
        # Parameters of one constraint stay adjacent; no interleaving.
        assert set(order[:2]) in ({0, 1}, {2, 3})
        assert set(order[2:]) in ({0, 1}, {2, 3})

    def test_matches_bfs_graph_oracle(self):
        rng = random.Random(424)
        for _ in range(60):
            m = random_model(rng)
            constrained = set(range(m.n)) - m.dropped
            if not constrained:
                continue
            assert tree_order(m) == _greedy_order(constrained, _bfs_distances(m))

    def test_long_parsed_line(self):
        # 900 relations joined by ``&&`` over 50 parameters: a tree 900
        # levels deep, too deep for the BFS oracle's recursive walk.  The
        # expected order was recorded from the pairwise path comparison
        # this ordering replaced, which took seconds on this line.
        m = parse_model("[PARAMETERS]\n" + "".join(f"p{i}: a, b\n" for i in range(50))
                        + "[CONSTRAINTS]\n"
                        + " && ".join(f"p{7 * i % 50} != b" for i in range(900)) + "\n")
        assert tree_order(m) == (
            0, 7, 14, 21, 28, 35, 42, 49, 6, 13, 20, 27, 34, 41, 48, 5, 12, 19, 26, 33,
            40, 47, 4, 11, 18, 25, 32, 39, 43, 36, 29, 22, 15, 8, 1, 44, 37, 30, 23, 16,
            9, 2, 45, 38, 31, 24, 17, 10, 3, 46)


def total_span(model, order):
    """The sum over the constraints of the distance in ``order`` between
    the first and the last of their parameters."""
    place = {p: i for i, p in enumerate(order)}
    total = 0
    for c in model.constraints:
        places = [place[p] for p in occurrences(c)]
        total += max(places) - min(places)
    return total


def order_models():
    """The shipped models and 200 random ones of up to ten parameters."""
    models = [load_model(path.stem) for path in sorted(MODELS_DIR.glob("*.model"))]
    rng = random.Random(2003)
    return models + [random_model(rng, max_params=10) for _ in range(200)]


class TestOrderParameters:
    """``order_parameters`` is ``tree_order`` refined by FORCE."""

    def test_printer_order(self, printer):
        # From the seed (1, 0, 2), the edge {0, 1} centres at 0.5 and the
        # edge {1, 2} at 1, so the targets are 0.5, 0.75 and 1: the span of
        # the two constraints falls from 3 to 2.
        assert total_span(printer, tree_order(printer)) == 3
        assert order_parameters(printer) == (0, 1, 2)
        assert total_span(printer, (0, 1, 2)) == 2

    def test_permutation_of_constrained(self):
        for m in order_models():
            order = order_parameters(m)
            assert sorted(order) == sorted(set(range(m.n)) - m.dropped)

    def test_deterministic(self):
        for m in order_models():
            again = SutModel(m.params, m.constraints)
            assert order_parameters(m) == order_parameters(m) == order_parameters(again)

    def test_span_never_above_seed(self):
        for m in order_models():
            assert total_span(m, order_parameters(m)) <= total_span(m, tree_order(m))

    def test_one_constraint_keeps_the_seed(self):
        # Every parameter of a single constraint moves to its one centre,
        # so the first round gives back the seed.
        m = parse_model("[PARAMETERS]\n" + "".join(f"p{i}: a, b\n" for i in range(12))
                        + "[CONSTRAINTS]\n"
                        + " && ".join(f"p{5 * i % 12} != b" for i in range(40)) + "\n")
        assert order_parameters(m) == tree_order(m)

    def test_synth60_span_and_f_shrink(self):
        # On a model of scale60's shape FORCE cuts the span from 232 to 129
        # and FULL f sevenfold.
        m = synth_model(random.Random(2), 60, 40, 30, 14)
        sizes = {}
        for name, order in (("tree", tree_order(m)), ("force", order_parameters(m))):
            enc = make_encoding(m, EncodingMode.FULL, order)
            cc = compile_constraints(m, enc, BddManager(enc.total_bits))
            sizes[name] = (total_span(m, order), len(cc.manager.function_nodes(cc.f)))
        assert sizes == {"tree": (232, 9630), "force": (129, 1331)}


# A child that, once its imports are done, limits its own address space to
# 1 GB and compiles synth200-shaped models under both encodings in the
# default order: an allocation past the limit fails with a MemoryError.
SCALE_CHILD = """\
import random, resource, sys
sys.path[:0] = sys.argv[1:3]
from citbdd import BddManager, EncodingMode, compile_constraints, make_encoding
from model_gen import synth_model
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for seed in (1, 2, 3):
    model = synth_model(random.Random(seed), 200, 133, 100, 14)
    for mode in EncodingMode:
        enc = make_encoding(model, mode)
        cc = compile_constraints(model, enc, BddManager(enc.total_bits))
        print(seed, mode.value, cc.manager.node_count)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_synth200_compiles_in_1gb():
    # Under the parse-tree order alone, seed 2's FULL compile runs out of
    # 1.5 GB; refined by FORCE, its f has 7,182 nodes.
    src = Path(citbdd.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    child = subprocess.run([sys.executable, "-c", SCALE_CHILD, str(src), str(tests)],
                           capture_output=True, text=True, timeout=300)
    assert (child.returncode, child.stderr) == (0, "")
    assert len(child.stdout.splitlines()) == 6


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
        for order in ((0, 1), (0, 1, 1, 2)):
            with pytest.raises(ValueError, match="permutation"):
                make_encoding(printer, EncodingMode.FULL, order=order)
        # A dropped parameter has no place in the order.
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\n[CONSTRAINTS]\nb = 0\n")
        with pytest.raises(ValueError, match="permutation"):
            make_encoding(m, EncodingMode.FULL, order=(0, 1))

    def test_order_entries_must_be_ints(self, printer):
        # ``True == 1`` and ``1.0 == 1``, so only the type tells them apart.
        for order in ((1.0, 0, 2), (True, 0, 2)):
            with pytest.raises(ValueError, match="permutation"):
                make_encoding(printer, EncodingMode.FULL, order=order)

    def test_dropped(self):
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nc: 0, 1\n"
                        "[CONSTRAINTS]\nb = 0\n")
        enc = make_encoding(m, EncodingMode.FULL)
        assert m.dropped == {0, 2}
        assert enc.order == (1,)

    def test_codes_on_every_shipped_model(self):
        # Value v's literals are its bits, least significant first, on the
        # parameter's block; WITH_DASH alone adds the all-ones codeword.
        for path in sorted(MODELS_DIR.glob("*.model")):
            model = load_model(path.stem)
            for mode in EncodingMode:
                enc = make_encoding(model, mode)
                assert len(enc.codes) == len(enc.order), (path.stem, mode)
                for pos, (size, codes) in enumerate(zip(enc.sizes, enc.codes)):
                    first, width = enc.offsets[pos], enc.widths[pos]
                    assert codes[:size] == tuple(
                        tuple((first + j, (v >> j) & 1) for j in range(width))
                        for v in range(size)), (path.stem, mode, pos)
                    if mode is EncodingMode.WITH_DASH:
                        assert codes[size:] == (tuple((first + j, 1) for j in range(width)),)
                    else:
                        assert len(codes) == size


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

    @pytest.mark.parametrize("bad", [3, -1, 1.0, 1.5, "a"])
    def test_value_out_of_range(self, printer, bad):
        # Exactly the indices in range pass, as in check_assignment.
        enc = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        with pytest.raises(ValueError, match="out of range for parameter #1"):
            encode_full(enc, (1, bad, 2))

    def test_true_is_one(self, printer):
        enc = make_encoding(printer, EncodingMode.FULL, order=(0, 1, 2))
        assert encode_full(enc, (1, True, 2)) == encode_full(enc, (1, 1, 2))


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
        assert tree_order(chain150) == _greedy_order(
            set(range(chain150.n)) - chain150.dropped, _bfs_distances(chain150))

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


class Uncollected(BddManager):
    """A manager that never collects, so a compile in it keeps every term."""

    def collect(self, base, roots, floor=COLLECT_FLOOR):
        return list(roots)


class TestCompileCollects:
    """A compile that makes more than ``COLLECT_FLOOR`` nodes frees its
    terms: chain400 makes 30,214 nodes for a 2,396-node ``f``."""

    @pytest.fixture(scope="class")
    def chain400(self):
        return parse_model(chain_text(400))

    def test_store_is_f(self, chain400):
        for mode in EncodingMode:
            enc = make_encoding(chain400, mode)
            cc = compile_constraints(chain400, enc, BddManager(enc.total_bits))
            mgr = cc.manager
            assert mgr.node_count == len(mgr.function_nodes(cc.f)), mode
            bare = compile_constraints(chain400, enc, Uncollected(enc.total_bits))
            assert bare.manager.node_count > mgr.node_count + COLLECT_FLOOR
            assert canonical(mgr, cc.f) == canonical(bare.manager, bare.f)

    def test_older_nodes_keep_their_handles(self, chain400):
        enc = make_encoding(chain400, EncodingMode.FULL)
        mgr = BddManager(enc.total_bits)
        older = mgr.apply(Op.OR, mgr.mk_var(0), mgr.mk_var(enc.total_bits - 1))
        before = list(mgr.nodes())
        base = mgr.node_count + 2
        f = compile_constraints(chain400, enc, mgr).f
        assert list(mgr.nodes())[:base - 2] == before
        assert mgr.node_count == base - 2 + sum(1 for node in mgr.function_nodes(f)
                                                if node >= base)
        assert mgr.count_solutions(older) == 3 << (enc.total_bits - 2)
        bare = compile_constraints(chain400, enc, Uncollected(enc.total_bits))
        assert canonical(mgr, f) == canonical(bare.manager, bare.f)


def deep_tree(levels):
    """A constraint ``levels`` deep, built in Python since the parser
    recurses: ``!`` alternating with ``||`` against a relation, the deeper
    side on the left and on the right in turn.  Returns it with the text
    ``format_constraint`` gives it, built alongside."""
    params = (Parameter("a", ("x", "y")), Parameter("b", ("x", "y", "z")),
              Parameter("c", ("x", "y", "z")), Parameter("d", ("x", "y")))
    expr, text = Compare(0, "=", 0), "a = x"
    for k in range(levels // 2):
        p = k % 4
        v = k // 4 % len(params[p].domain)
        rel, rel_text = Compare(p, "=", v), f"{params[p].name} = {params[p].domain[v]}"
        if k % 2:
            expr, text = Connective(expr, "||", rel), text + " || " + rel_text
        else:
            expr, text = Connective(rel, "||", expr), rel_text + " || " + text
        expr, text = Not(expr), "!(" + text + ")"
    return SutModel(params, (expr,)), text


class TestDeepTree:
    """A 10,000-level tree at the interpreter's default recursion limit."""

    @pytest.fixture(scope="class")
    def deep(self):
        return deep_tree(10000)

    def test_equality_hash_and_repr(self, deep):
        model, _ = deep
        other, _ = deep_tree(10000)
        expr, again = model.constraints[0], other.constraints[0]
        assert expr is not again and expr == again and not expr != again
        assert model == other and hash(model) == hash(other)
        assert hash(expr) == hash(again)
        assert repr(expr) == repr(again)
        assert repr(expr).startswith("Not(child=Connective(left=")
        assert Not(expr) != expr and Connective(expr, "&&", expr) != Connective(expr, "||", again)
        assert {expr: 1}[again] == 1

    def test_model_order_and_format(self, deep):
        model, text = deep
        assert order_parameters(model) == (0, 1, 2, 3)
        assert format_constraint(model.constraints[0], model) == text

    @pytest.mark.parametrize("kind", [HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN,
                                      HANDLER_ORACLE])
    def test_generate_and_verify(self, deep, kind):
        model, _ = deep
        handler = build_handler(model, kind)
        cases = list(product(*(range(s) for s in model.sizes)))
        valid = [eval_constraints(model, case) for case in cases]
        assert 0 < sum(valid) < len(cases)
        assert [handler.is_valid(case) for case in cases] == valid
        suite = generate(model, 2, handler)
        assert verify(model, suite.rows, 2, handler).ok
