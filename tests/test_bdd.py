"""Tests for the BDD engine: semantics, canonicity, reduction, errors."""

import copy
import gc
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from citbdd.bdd import FALSE, TRUE, BddError, BddManager, Op

from formula_oracle import (
    all_bits, build, direct_eval, random_formula, scan_reduction_violations,
)


# The compiled printer constraints over bits x1..x6 (index 0..5), written
# out directly as a Python predicate: domain bounds for three parameters of
# size three plus both constraints in bit form.
def printer_formula(v):
    bound = (not v[1] or not v[0]) and (not v[3] or not v[2]) and (not v[5] or not v[4])
    c1 = (v[0] or v[1]) or (not v[2] and not v[3])
    c2 = (v[2] or v[3]) or (v[4] or v[5])
    return bound and c1 and c2


# SHA-256 of every operator's store and computed table in
# TestApply.test_expansion_order_is_pinned.
EXPANSION_ORDER_SHA256 = "eca9b793d3607ae3efa9a27e81cd34b729c5617a3662342c69521558699b4913"


def build_printer_f(mgr):
    def eq0(lo):  # two-bit field at offset lo equals zero
        return mgr.make_assignment_cube([(lo, 0), (lo + 1, 0)])
    f = TRUE
    for lo in (0, 2, 4):
        f = mgr.apply(Op.AND, f, mgr.negate(mgr.make_assignment_cube([(lo, 1), (lo + 1, 1)])))
    f = mgr.apply(Op.AND, f, mgr.apply(Op.IMPLIES, eq0(0), eq0(2)))
    f = mgr.apply(Op.AND, f, mgr.apply(Op.IMPLIES, eq0(2), mgr.negate(eq0(4))))
    return f


class TestMkVar:
    def test_semantics(self):
        mgr = BddManager(2)
        x0 = mgr.mk_var(0)
        assert mgr.eval(x0, [1, 0]) is True
        assert mgr.eval(x0, [0, 1]) is False

    def test_same_ref(self):
        mgr = BddManager(3)
        assert mgr.mk_var(0) == mgr.mk_var(0)

    def test_last_variable(self):
        mgr = BddManager(6)
        x5 = mgr.mk_var(5)
        assert mgr.eval(x5, [0] * 5 + [1]) is True

    def test_out_of_range(self):
        mgr = BddManager(2)
        with pytest.raises(BddError, match="out of range"):
            mgr.mk_var(2)
        with pytest.raises(BddError, match="out of range"):
            mgr.mk_var(-1)


class TestApply:
    def test_contradiction(self):
        mgr = BddManager(2)
        x1 = mgr.mk_var(1)
        assert mgr.apply(Op.AND, x1, mgr.negate(x1)) == FALSE

    def test_or_identity_same_ref(self):
        mgr = BddManager(3)
        f = mgr.apply(Op.AND, mgr.mk_var(0), mgr.mk_var(2))
        assert mgr.apply(Op.OR, f, FALSE) == f

    def test_terminal_tables(self):
        mgr = BddManager(1)
        assert mgr.apply(Op.AND, TRUE, FALSE) == FALSE
        assert mgr.apply(Op.OR, TRUE, FALSE) == TRUE
        assert mgr.apply(Op.XOR, TRUE, TRUE) == FALSE
        assert mgr.apply(Op.IMPLIES, TRUE, FALSE) == FALSE
        assert mgr.apply(Op.IMPLIES, FALSE, FALSE) == TRUE

    def test_printer_f_matches_direct_formula(self):
        mgr = BddManager(6)
        f = build_printer_f(mgr)
        for bits in all_bits(6):
            assert mgr.eval(f, bits) == printer_formula(bits)

    def test_and_matches_de_morgan_on_random_bdds(self):
        # AND has its own recursion; OR and NOT go through other code.
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 8)
            mgr = BddManager(n)
            fs = [build(mgr, random_formula(rng, n, rng.randint(1, 16)))
                  for _ in range(4)] + [FALSE, TRUE]
            for a in fs:
                for b in fs:
                    dual = mgr.negate(mgr.apply(Op.OR, mgr.negate(a), mgr.negate(b)))
                    assert mgr.apply(Op.AND, a, b) == dual, (a, b)
            assert scan_reduction_violations(mgr) == []

    def test_expansion_order_is_pinned(self):
        # Every operator's nodes and computed-table entries come in the
        # order the recursion makes them: the low child before the high one
        # at equal levels too. Recorded before any change to the engine.
        digest = hashlib.sha256()
        for op in Op:
            rng = random.Random(59)
            mgr = BddManager(8)
            fs = [build(mgr, random_formula(rng, 8, rng.randint(2, 16)))
                  for _ in range(12)]
            for a in fs:
                for b in fs:
                    mgr.apply(op, a, b)
            digest.update(repr((op.value, list(mgr.nodes()),
                                list(mgr._cache.items()))).encode())
        assert digest.hexdigest() == EXPANSION_ORDER_SHA256

    def test_foreign_ref(self):
        mgr = BddManager(2)
        with pytest.raises(BddError, match="unknown node handle"):
            mgr.apply(Op.AND, 99, TRUE)


class TestNegate:
    def test_terminals(self):
        mgr = BddManager(1)
        assert mgr.negate(TRUE) == FALSE
        assert mgr.negate(FALSE) == TRUE

    def test_involution_same_ref(self):
        mgr = BddManager(6)
        f = build_printer_f(mgr)
        assert mgr.negate(mgr.negate(f)) == f

    def test_complement_everywhere(self):
        mgr = BddManager(6)
        f = build_printer_f(mgr)
        g = mgr.negate(f)
        for bits in all_bits(6):
            assert mgr.eval(g, bits) == (not mgr.eval(f, bits))

    def test_makes_the_nodes_a_recursion_makes(self):
        rng = random.Random(41)
        for _ in range(20):
            formula = random_formula(rng, 8, 16)
            ours, ref = BddManager(8), BddManager(8)
            f = build(ours, formula)
            assert build(ref, formula) == f
            assert ours.negate(f) == negate_reference(ref, f)
            assert list(ours.nodes()) == list(ref.nodes())
            assert ours._cache == ref._cache

    def test_deeper_than_the_recursion_limit(self):
        # A 3,000-variable cube is a chain 3,000 nodes deep.
        mgr = BddManager(3000)
        cube = mgr.make_cube(range(3000))
        complement = mgr.negate(cube)
        assert mgr.count_solutions(complement) == 2 ** 3000 - 1
        # The OR of the negative literals, built bottom-up.
        rebuilt = FALSE
        for i in reversed(range(3000)):
            rebuilt = mgr.apply(Op.OR, mgr.negate(mgr.mk_var(i)), rebuilt)
        assert rebuilt == complement
        assert mgr.negate(complement) == cube


def negate_reference(mgr, a):
    """The complement of ``a`` by the recursion the engine once used."""
    if a <= TRUE:
        return TRUE - a
    res = mgr._cache.get(("not", a))
    if res is None:
        res = mgr._mk(mgr._level[a], negate_reference(mgr, mgr._low[a]),
                      negate_reference(mgr, mgr._high[a]))
        mgr._cache[("not", a)] = res
    return res


class TestExists:
    def test_single_variable(self):
        mgr = BddManager(2)
        x1 = mgr.mk_var(1)
        assert mgr.exists(x1, x1) == TRUE

    def test_vacuous_same_ref(self):
        mgr = BddManager(3)
        f = mgr.apply(Op.OR, mgr.mk_var(1), mgr.mk_var(2))
        assert mgr.exists(mgr.mk_var(0), f) == f

    def test_two_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 8)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, rng.randint(2, 14)))
            j = rng.randrange(n)
            quantified = mgr.exists(mgr.mk_var(j), f)
            for bits in all_bits(n):
                lo = list(bits)
                hi = list(bits)
                lo[j] = 0
                hi[j] = 1
                expected = mgr.eval(f, lo) or mgr.eval(f, hi)
                assert mgr.eval(quantified, bits) == expected

    def test_nested_equals_joint(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(3, 9)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, 12))
            a, b = rng.sample(range(n), 2)
            ca, cb = mgr.mk_var(a), mgr.mk_var(b)
            joint = mgr.make_cube([a, b])
            assert mgr.exists(ca, mgr.exists(cb, f)) == mgr.exists(joint, f)

    def test_result_order_independent(self):
        rng = random.Random(3)
        for _ in range(10):
            n = 6
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, 12))
            cube = mgr.make_cube([1, 3, 4])
            nested = mgr.exists(mgr.mk_var(4), mgr.exists(mgr.mk_var(1), mgr.exists(mgr.mk_var(3), f)))
            assert mgr.exists(cube, f) == nested

    def test_rejects_non_cube(self):
        mgr = BddManager(3)
        disj = mgr.apply(Op.OR, mgr.mk_var(0), mgr.mk_var(1))
        with pytest.raises(BddError, match="positive literals"):
            mgr.exists(disj, TRUE)
        with pytest.raises(BddError, match="positive literals"):
            mgr.exists(mgr.negate(mgr.mk_var(0)), TRUE)


def extend_dash_reference(mgr, first, width, f):
    """``f ∨ (C ∧ ∃C. f)`` composed from the generic operations."""
    cube = mgr.make_cube(range(first, first + width))
    return mgr.apply(Op.OR, f, mgr.apply(Op.AND, mgr.exists(cube, f), cube))


class TestExtendDash:
    def test_matches_composition_on_random_bdds(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 8)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, rng.randint(2, 16)))
            for width in (1, 2, 3):
                for first in range(n - width + 1):
                    assert mgr.extend_dash(first, width, f) == \
                        extend_dash_reference(mgr, first, width, f), (first, width)
            assert scan_reduction_violations(mgr) == []

    def test_terminals(self):
        mgr = BddManager(4)
        assert mgr.extend_dash(1, 2, FALSE) == FALSE
        assert mgr.extend_dash(1, 2, TRUE) == TRUE

    def test_function_independent_of_the_block_is_kept(self):
        rng = random.Random(8)
        for _ in range(20):
            mgr = BddManager(8)
            # Over variables 0-2 and 6-7 only, around the block 3..5.
            f = build(mgr, random_formula(rng, 8, 12))
            f = mgr.exists(mgr.make_cube([3, 4, 5]), f)
            assert mgr.extend_dash(3, 3, f) == f == extend_dash_reference(mgr, 3, 3, f)

    def test_block_out_of_range(self):
        mgr = BddManager(4)
        with pytest.raises(BddError, match="out of range"):
            mgr.extend_dash(3, 2, TRUE)
        with pytest.raises(BddError, match="out of range"):
            mgr.extend_dash(-1, 1, TRUE)
        with pytest.raises(BddError, match="unknown node handle"):
            mgr.extend_dash(0, 1, 99)


class TestEval:
    def test_true_everywhere(self):
        mgr = BddManager(3)
        for bits in all_bits(3):
            assert mgr.eval(TRUE, bits) is True

    def test_printer_valid_vector(self):
        mgr = BddManager(6)
        f = build_printer_f(mgr)
        assert mgr.eval(f, [1, 0, 0, 0, 0, 1]) is True

    def test_printer_invalid_vector(self):
        mgr = BddManager(6)
        f = build_printer_f(mgr)
        assert mgr.eval(f, [0, 1, 0, 0, 0, 0]) is False

    def test_length_mismatch(self):
        mgr = BddManager(3)
        with pytest.raises(BddError, match="expected 3 bits"):
            mgr.eval(TRUE, [0, 1])


class TestIsFalse:
    def test_contradiction(self):
        mgr = BddManager(2)
        x1 = mgr.mk_var(1)
        assert mgr.apply(Op.AND, x1, mgr.negate(x1)) == FALSE

    def test_printer_f_satisfiable(self):
        mgr = BddManager(6)
        assert build_printer_f(mgr) != FALSE


class TestCanonicity:
    def test_minterm_reconstruction_gives_same_ref(self):
        # Build the same function along a completely different construction
        # path: OR of assignment cubes, one per satisfying valuation.
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 6)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, rng.randint(2, 12)))
            rebuilt = FALSE
            for bits in all_bits(n):
                if mgr.eval(f, bits):
                    cube = mgr.make_assignment_cube(list(enumerate(bits)))
                    rebuilt = mgr.apply(Op.OR, rebuilt, cube)
            assert rebuilt == f

    def test_reduction_scan_clean(self):
        rng = random.Random(5)
        mgr = BddManager(8)
        for _ in range(50):
            build(mgr, random_formula(rng, 8, 16))
        assert scan_reduction_violations(mgr) == []

    def test_node_count_bound(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 8)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, 20))
            assert len(mgr.function_nodes(f)) <= 2 ** (n + 1)


class TestCountSolutions:
    def test_terminals(self):
        mgr = BddManager(4)
        assert mgr.count_solutions(TRUE) == 16
        assert mgr.count_solutions(FALSE) == 0

    def test_matches_truth_table(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 8)
            mgr = BddManager(n)
            f = build(mgr, random_formula(rng, n, 12))
            expected = sum(1 for bits in all_bits(n) if mgr.eval(f, bits))
            assert mgr.count_solutions(f) == expected

    def test_deeper_than_the_recursion_limit(self):
        # A 3,000-variable cube is a chain 3,000 nodes deep.
        mgr = BddManager(3000)
        cube = mgr.make_cube(range(3000))
        assert mgr.count_solutions(cube) == 1
        assert mgr.count_solutions(mgr.negate(cube)) == 2 ** 3000 - 1

    def test_leaves_nothing_for_the_cycle_collector(self):
        mgr = BddManager(8)
        f = build(mgr, random_formula(random.Random(23), 8, 16))
        gc.collect()
        gc.disable()
        try:
            mgr.count_solutions(f)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCompact:
    """``compact`` frees the nodes made since ``base`` that no root reaches."""

    def _store(self, seed):
        """A manager with three functions made before ``base`` and twelve
        after it; the roots are three of the twelve, the rest garbage.
        Returns the manager, ``base``, and the handles and formulas of the
        older functions and of the roots."""
        rng = random.Random(seed)
        mgr = BddManager(8)
        older = [random_formula(rng, 8, 12) for _ in range(3)]
        kept = [build(mgr, formula) for formula in older]
        base = mgr.node_count + 2
        formulas = [random_formula(rng, 8, 16) for _ in range(12)]
        made = [build(mgr, formula) for formula in formulas]
        picks = [0, 5, 11]
        return (mgr, base, kept, older,
                [made[i] for i in picks], [formulas[i] for i in picks])

    def test_keeps_everything_below_base(self):
        for seed in range(20):
            mgr, base, kept, _, roots, _ = self._store(seed)
            prefix = [node for node in mgr.nodes() if node[0] < base]
            mgr.compact(base, roots + kept)
            assert [node for node in mgr.nodes() if node[0] < base] == prefix
            assert mgr.compact(base, kept) == kept

    def test_survivors_are_the_roots_functions(self):
        for seed in range(20):
            mgr, base, _, _, roots, formulas = self._store(seed)
            before = mgr.node_count
            new_roots = mgr.compact(base, roots)
            assert mgr.node_count < before
            # What is left above ``base`` is what the roots reach, numbered
            # densely with every child below its parent.
            assert all(low < ref and high < ref for ref, _, low, high in mgr.nodes())
            reached = set().union(*(mgr.function_nodes(r) for r in new_roots))
            assert ({ref for ref, *_ in mgr.nodes() if ref >= base}
                    == {ref for ref in reached if ref >= base})
            assert scan_reduction_violations(mgr) == []
            for formula, root in zip(formulas, new_roots):
                for bits in all_bits(8):
                    assert mgr.eval(root, bits) == direct_eval(formula, bits)

    def test_unique_table_holds_the_survivors(self):
        # Building a kept function again returns its handle: the unique
        # table finds the kept nodes instead of making copies of them.
        for seed in range(10):
            mgr, base, kept, older, roots, formulas = self._store(seed)
            new_roots = mgr.compact(base, roots)
            assert mgr._cache == {}
            assert [build(mgr, formula) for formula in older] == kept
            assert [build(mgr, formula) for formula in formulas] == new_roots
            assert scan_reduction_violations(mgr) == []

    def test_terminal_roots_and_an_empty_sweep(self):
        mgr = BddManager(3)
        f = mgr.apply(Op.AND, mgr.mk_var(0), mgr.mk_var(2))
        base = mgr.node_count + 2
        mgr.apply(Op.OR, mgr.mk_var(1), f)
        assert mgr.compact(base, [TRUE, FALSE, f]) == [TRUE, FALSE, f]
        assert mgr.node_count == base - 2
        assert mgr.compact(mgr.node_count + 2, []) == []

    def test_bad_base_or_root(self):
        mgr = BddManager(2)
        x = mgr.mk_var(0)
        for base in (1, mgr.node_count + 3, "2"):
            with pytest.raises(BddError, match="base handle"):
                mgr.compact(base, [x])
        with pytest.raises(BddError, match="unknown node handle"):
            mgr.compact(2, [99])


class TestCollect:
    """``collect`` calls ``compact`` once the handles past the last
    collection's survivors outnumber twice the survivors plus ``floor``."""

    FLOOR = 4

    def _store(self):
        """A manager holding ``x0 ∧ x1``, which leaves a computed-table
        entry, below ``base``; ``mk_var`` of an unused variable then makes
        one node.  Returns the manager, ``x0 ∧ x1`` and ``base``."""
        mgr = BddManager(32)
        older = mgr.apply(Op.AND, mgr.mk_var(0), mgr.mk_var(1))
        return mgr, older, mgr.node_count + 2

    def test_below_the_rule_nothing_changes(self):
        mgr, _, base = self._store()
        made = [mgr.mk_var(i) for i in range(2, 2 + self.FLOOR)]
        nodes, cache = list(mgr.nodes()), dict(mgr._cache)
        assert cache
        assert mgr.collect(base, made[:2], self.FLOOR) == made[:2]
        assert list(mgr.nodes()) == nodes
        assert mgr._cache == cache

    def test_past_the_rule_it_compacts(self):
        mgr, _, base = self._store()
        made = [mgr.mk_var(i) for i in range(2, 3 + self.FLOOR)]
        twin = copy.deepcopy(mgr)
        roots = [made[-1], made[1]]
        assert mgr.collect(base, roots, self.FLOOR) == twin.compact(base, roots)
        assert list(mgr.nodes()) == list(twin.nodes())
        assert mgr._cache == {}

    def test_a_second_call_waits_for_twice_the_survivors(self):
        mgr, _, base = self._store()
        made = [mgr.mk_var(i) for i in range(2, 3 + self.FLOOR)]
        roots = mgr.collect(base, made[:2], self.FLOOR)
        assert mgr.node_count == base  # the base - 2 older nodes and two survivors
        fresh = iter(range(3 + self.FLOOR, 32))
        for made in range(1, 2 * len(roots) + self.FLOOR + 1):
            mgr.mk_var(next(fresh))
            assert mgr.collect(base, roots, self.FLOOR) == roots
            assert mgr.node_count == base + made
        mgr.mk_var(next(fresh))
        assert mgr.collect(base, roots, self.FLOOR) == roots
        assert mgr.node_count == base

    def test_no_roots_leave_only_the_nodes_below_base(self):
        mgr, older, base = self._store()
        for i in range(2, 3 + self.FLOOR):
            mgr.mk_var(i)
        assert mgr.collect(base, (), self.FLOOR) == []
        assert mgr.node_count == base - 2
        assert mgr.count_solutions(older) == 1 << 30


class TestLimitsAndDebug:
    def test_to_dot(self):
        mgr = BddManager(2)
        f = mgr.apply(Op.AND, mgr.mk_var(0), mgr.negate(mgr.mk_var(1)))
        dot = mgr.to_dot(f)
        assert "style=dashed" in dot and "style=solid" in dot
        assert 'label="x0"' in dot and 'label="x1"' in dot

    def test_zero_variable_manager(self):
        mgr = BddManager(0)
        assert mgr.eval(TRUE, []) is True
        assert mgr.count_solutions(TRUE) == 1

    def test_store_leaves_nothing_for_the_collector(self):
        # Full collections must not walk the node store or the operation
        # cache; a store of hundreds of thousands of nodes would otherwise
        # cost a tenth of a second per full collection.
        gc.collect()
        before = len(gc.get_objects())
        mgr = BddManager(16)
        rng = random.Random(5)
        f = TRUE
        for _ in range(60):
            for op in Op:
                f = mgr.apply(op, f, build(mgr, random_formula(rng, 16, 6)))
        f = mgr.exists(mgr.make_cube(range(0, 16, 3)), mgr.negate(f))
        gc.collect()
        assert mgr.node_count > 1000
        assert len(gc.get_objects()) - before < 50


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_soundness_random(data):
    n = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    formula = random_formula(rng, n, rng.randint(2, 16))
    mgr = BddManager(n)
    f = build(mgr, formula)
    for bits in all_bits(n):
        assert mgr.eval(f, bits) == direct_eval(formula, bits)
    assert scan_reduction_violations(mgr) == []
