"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from citbdd.bdd import BddManager
from citbdd.cli import cmd_generate, cmd_verify
from citbdd.encode import EncodingMode, compile_constraints, make_encoding
from citbdd.ipog import generate
from citbdd.model import eval_constraints, parse_model
from citbdd.validity import (
    HANDLER_KINDS, ConjunctionHandler, OracleHandler, QuantOrder,
    TraversalHandler, build_handler, build_partial_bdd,
)

from conftest import MODELS_DIR
from formula_oracle import (
    all_bits, build, direct_eval, random_formula, scan_reduction_violations,
)
from model_gen import all_assignments, random_model


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")


def _all_models():
    paths = sorted(MODELS_DIR.glob("*.model"))
    assert len(paths) >= 10, "the repo must ship at least ten benchmark models"
    return [(p.stem, parse_model(p.read_text(encoding="utf-8"))) for p in paths]


def test_c1_running_example_goldens(printer):
    """Worked-example assignments classify identically under every handler."""
    goldens = [
        ((1, 0, 2), True),
        ((2, 0, 0), False),
        ((1, 1, None), True),
        ((0, None, 0), False),
    ]
    with criterion(1, "running-example golden validity checks", 1.0):
        oracle = OracleHandler(printer)
        handlers = [build_handler(printer, kind) for kind in HANDLER_KINDS]
        for assignment, expected in goldens:
            assert oracle.is_valid(assignment) is expected
            for handler in handlers:
                assert handler.is_valid(assignment) is expected, \
                    (handler.name, assignment)


def test_c2_derived_counts(printer):
    """18 valid full test cases and 23 valid pairs, counted two ways each."""
    with criterion(2, "printer model: 18 valid full test cases, 23 valid pairs", 1.0):
        # Brute force over all 27 full test cases.
        full_brute = [t for t in product(range(3), repeat=3)
                      if eval_constraints(printer, t)]
        assert len(full_brute) == 18

        # Accepting paths of the compiled constraint function.
        enc = make_encoding(printer, EncodingMode.FULL)
        cc = compile_constraints(printer, enc, BddManager(enc.total_bits))
        assert cc.manager.count_solutions(cc.f) == 18

        # Valid pairs by brute-force oracle.
        def pairs_by(checker):
            count = 0
            for pa, pb in combinations(range(3), 2):
                for va, vb in product(range(3), range(3)):
                    combo = [None] * 3
                    combo[pa], combo[pb] = va, vb
                    if checker(combo):
                        count += 1
            return count

        assert pairs_by(OracleHandler(printer).is_valid) == 23

        # The same 23 by filtering the partial-test-case function.
        enc2 = make_encoding(printer, EncodingMode.WITH_DASH)
        cc2 = compile_constraints(printer, enc2, BddManager(enc2.total_bits))
        pb = build_partial_bdd(cc2, QuantOrder.UP)
        assert pairs_by(TraversalHandler(pb).is_valid) == 23
        assert pairs_by(ConjunctionHandler(cc).is_valid) == 23


def test_c3_oracle_equivalence_sweep():
    """200 random models: all four check routes agree on every assignment."""
    rng = random.Random(20260808)
    with criterion(3, "oracle equivalence sweep over 200 random models", 120.0):
        models = 0
        checked = 0
        while models < 200:
            model = random_model(rng, max_params=6, max_domain=4, max_constraints=4)
            models += 1
            enc1 = make_encoding(model, EncodingMode.FULL)
            cc1 = compile_constraints(model, enc1, BddManager(enc1.total_bits))
            enc2 = make_encoding(model, EncodingMode.WITH_DASH)
            cc2 = compile_constraints(model, enc2, BddManager(enc2.total_bits))
            oracle = OracleHandler(model)
            conj = ConjunctionHandler(cc1)
            up = TraversalHandler(build_partial_bdd(cc2, QuantOrder.UP))
            down = TraversalHandler(build_partial_bdd(cc2, QuantOrder.DOWN))
            for assignment in all_assignments(model):
                expected = oracle.is_valid(assignment)
                assert conj.is_valid(assignment) is expected, (model, assignment)
                assert up.is_valid(assignment) is expected, (model, assignment)
                assert down.is_valid(assignment) is expected, (model, assignment)
                checked += 1
        assert checked > 100_000  # the sweep is genuinely exhaustive


def test_c4_bdd_engine_soundness():
    """500 random formulas: exhaustive truth tables match direct semantics."""
    rng = random.Random(97)
    with criterion(4, "BDD engine soundness on 500 random formulas", 60.0):
        for _ in range(500):
            n = rng.randint(1, 12)
            formula = random_formula(rng, n, rng.randint(2, 18))
            mgr = BddManager(n)
            f = build(mgr, formula)
            negated = mgr.negate(f)
            cube_vars = rng.sample(range(n), rng.randint(1, min(3, n)))
            cube = mgr.make_cube(cube_vars)
            quantified = mgr.exists(cube, f)

            for bits in all_bits(n):
                expected = direct_eval(formula, bits)
                assert mgr.eval(f, bits) == expected
                assert mgr.eval(negated, bits) == (not expected)
                any_truthy = False
                for choice in product((0, 1), repeat=len(cube_vars)):
                    probe = list(bits)
                    for var, bit in zip(cube_vars, choice):
                        probe[var] = bit
                    if direct_eval(formula, probe):
                        any_truthy = True
                        break
                assert mgr.eval(quantified, bits) == any_truthy

            assert scan_reduction_violations(mgr) == []


def test_c5_ipog_correctness(tmp_path):
    """Suites for every shipped model, t in {2, 3}, pass cmd_verify under
    every handler."""
    models = _all_models()
    with criterion(5, f"IPOG suites verify for {len(models)} models, t=2 and t=3", 300.0):
        for stem, model in models:
            model_path = MODELS_DIR / f"{stem}.model"
            for t in (2, 3):
                outputs = []
                for kind in HANDLER_KINDS:
                    out = tmp_path / f"{stem}_{t}_{kind}.csv"
                    rc = cmd_generate(str(model_path), t, kind, fill=False,
                                      out_path=str(out))
                    assert rc == 0, (stem, t, kind)
                    outputs.append(out)
                blobs = {out.read_bytes() for out in outputs}
                assert len(blobs) == 1, f"{stem} t={t}: handlers disagree on the suite"
                for out in outputs:
                    rc = cmd_verify(str(model_path), str(out), t)
                    assert rc == 0, (stem, t, out.name)


def test_c6_up_down_identity():
    """Quantifying upward and downward yields the same canonical function."""
    models = _all_models()
    with criterion(6, "UP/DOWN quantification orders agree on every model", 60.0):
        for stem, model in models:
            enc = make_encoding(model, EncodingMode.WITH_DASH)
            cc = compile_constraints(model, enc, BddManager(enc.total_bits))
            up = build_partial_bdd(cc, QuantOrder.UP)
            down = build_partial_bdd(cc, QuantOrder.DOWN)
            assert up.g == down.g, stem


def test_c7_traversal_cost_independent_of_workload():
    """Per-check traversal cost stays flat from 10^3 to 10^6 checks."""
    model = parse_model((MODELS_DIR / "synth20.model").read_text(encoding="utf-8"))
    assert model.n == 20
    with criterion(7, "traversal cost flat across workload sizes on 20 parameters", 60.0):
        handler = build_handler(model, "bdd-partial-up")
        sizes = model.sizes
        radices = [s + 1 for s in sizes]
        space = 1
        for r in radices:
            space *= r
        rng = random.Random(4242)

        def decode(x):
            out = []
            for radix, size in zip(radices, sizes):
                x, rem = divmod(x, radix)
                out.append(None if rem == size else rem)
            return tuple(out)

        assignments = [decode(rng.randrange(space)) for _ in range(1_000_000)]
        for a in assignments[:2000]:  # warm caches before timing
            handler.is_valid(a)

        start = time.perf_counter()
        for a in assignments[:1000]:
            handler.is_valid(a)
        small_mean = (time.perf_counter() - start) / 1000

        start = time.perf_counter()
        for a in assignments:
            handler.is_valid(a)
        big_mean = (time.perf_counter() - start) / len(assignments)

        ratio = big_mean / small_mean
        assert 1 / 3 <= ratio <= 3, f"mean {small_mean:.2e}s vs {big_mean:.2e}s"


def test_c8_traversal_beats_conjunction_at_scale():
    """Directional timing: on the hardest model at t=3, the traversal
    handler's end-to-end generation is no slower than the conjunction
    handler's.  A failure here calls for investigation (constants are
    machine dependent), not for loosening the other criteria."""
    model = parse_model((MODELS_DIR / "synth20.model").read_text(encoding="utf-8"))
    with criterion(8, "bdd-partial-up <= bdd-and on the hardest model at t=3", 120.0):
        def best_of(kind, runs=3):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                handler = build_handler(model, kind)
                generate(model, 3, handler)
                times.append(time.perf_counter() - start)
            return min(times)

        and_time = best_of("bdd-and")
        up_time = best_of("bdd-partial-up")
        print(f"  bdd-and {and_time:.3f}s vs bdd-partial-up {up_time:.3f}s")
        assert up_time <= and_time, (
            f"expected the traversal handler to win: {up_time:.3f}s vs {and_time:.3f}s")
