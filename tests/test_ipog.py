"""Tests for suite generation and verification."""

import hashlib
import random
import tracemalloc
from itertools import combinations, product

import pytest

from citbdd.ipog import TestSuite as Suite
from citbdd.ipog import (
    VerifyReport, _KeyLayout, _row, _strength, _value_masks, generate, verify,
)
from citbdd.model import eval_constraints, parse_model
from citbdd.validity import HANDLER_KINDS, OracleHandler, ValidityHandler, build_handler

from conftest import MODELS_DIR, load_model
from model_gen import random_model

# A known-good 10-row strength-2 suite for the printer model, with three
# partial rows, as (Paper size, Feed tray, Paper type) value indices.
KNOWN_GOOD_PRINTER_SUITE = [
    (0, 0, 2),
    (1, 0, 1),
    (1, 1, 0),
    (1, 2, 2),
    (2, 0, 1),
    (2, 1, 2),
    (2, 2, 0),
    (0, None, 1),
    (None, 1, 1),
    (None, 2, 1),
]

# A 9-row strength-2 suite for the unconstrained printer parameters.
UNCONSTRAINED_PRINTER_SUITE = [
    (0, 0, 0), (0, 1, 2), (0, 2, 1),
    (1, 0, 1), (1, 1, 0), (1, 2, 2),
    (2, 0, 2), (2, 1, 1), (2, 2, 0),
]


def brute_force_valid_pairs(model):
    """All valid 2-way combinations, by exhaustive oracle check."""
    oracle = OracleHandler(model)
    pairs = []
    for (pa, pb) in combinations(range(model.n), 2):
        for va, vb in product(range(model.sizes[pa]), range(model.sizes[pb])):
            combo = [None] * model.n
            combo[pa], combo[pb] = va, vb
            if oracle.is_valid(combo):
                pairs.append(((pa, pb), (va, vb)))
    return pairs


class TestPrinterGeneration:
    def test_valid_pair_counts(self, printer):
        pairs = brute_force_valid_pairs(printer)
        assert len(pairs) == 23
        per_pair = {}
        for (params, _) in pairs:
            per_pair[params] = per_pair.get(params, 0) + 1
        assert per_pair == {(0, 1): 7, (0, 2): 8, (1, 2): 8}

    def test_t2_constrained_all_handlers(self, printer):
        suites = {}
        oracle = build_handler(printer, "oracle")
        for kind in HANDLER_KINDS:
            suite = generate(printer, 2, build_handler(printer, kind))
            suites[kind] = suite.rows
            report = verify(printer, suite.rows, 2, oracle)
            assert report.ok, report.describe(printer)
            for row in suite.rows:
                assert oracle.is_valid(row)
        # Handlers agree, so the suites are identical row for row.
        assert len(set(map(tuple, suites.values()))) == 1

    def test_t2_unconstrained_covers_all_27_pairs(self, printer_free):
        handler = build_handler(printer_free, "bdd-partial-up")
        suite = generate(printer_free, 2, handler)
        assert len(suite.rows) >= 9
        report = verify(printer_free, suite.rows, 2, handler)
        assert report.ok
        covered = {(p, tuple(row[q] for q in p))
                   for row in suite.rows
                   for p in combinations(range(3), 2)
                   if all(row[q] is not None for q in p)}
        assert len(covered) == 27

    def test_t3_is_exactly_the_valid_full_set(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        suite = generate(printer, 3, handler)
        valid_full = {t for t in product(range(3), repeat=3)
                      if eval_constraints(printer, t)}
        assert len(suite.rows) == 18
        assert set(suite.rows) == valid_full

    def test_seed_lower_bound(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        suite = generate(printer, 2, handler)
        oracle = OracleHandler(printer)
        seed_size = sum(
            1 for va, vb in product(range(3), range(3))
            if oracle.is_valid((va, vb, None))
        )
        assert len(suite.rows) >= seed_size

    def test_determinism(self, printer):
        rows = [generate(printer, 2, build_handler(printer, "bdd-partial-up")).rows
                for _ in range(3)]
        assert rows[0] == rows[1] == rows[2]

    def test_fill_dashes(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        suite = generate(printer, 2, handler, fill_dashes=True)
        for row in suite.rows:
            assert None not in row
            assert eval_constraints(printer, row)
        assert verify(printer, suite.rows, 2, handler).ok


class TestGenerateEdges:
    def test_t1_single_parameter(self):
        m = parse_model("[PARAMETERS]\nonly: a, b\n")
        suite = generate(m, 1, build_handler(m, "bdd-partial-up"))
        assert suite.rows == [(0,), (1,)]

    def test_strength_out_of_range(self, printer):
        handler = build_handler(printer, "oracle")
        # A strength is an index, as operator.index reads one: a float, a
        # string or None is rejected like a number out of range.
        for t in (4, 0, 2.0, "2", None):
            with pytest.raises(ValueError, match="out of range"):
                generate(printer, t, handler)
            with pytest.raises(ValueError, match="out of range"):
                verify(printer, KNOWN_GOOD_PRINTER_SUITE, t, handler)

    def test_unsatisfiable_model(self):
        m = parse_model("[PARAMETERS]\na: x, y\nb: x, y\n[CONSTRAINTS]\na = x && a = y\n")
        for kind in HANDLER_KINDS:
            suite = generate(m, 2, build_handler(m, kind))
            assert suite.rows == []
            assert suite.diagnostic is not None

    def test_vertical_growth_appends_partial_rows(self, printer):
        # Strength 2 on the constrained printer needs more than the seed
        # rows; the appended rows keep unspecified entries.
        suite = generate(printer, 2, build_handler(printer, "bdd-partial-up"))
        assert any(None in row for row in suite.rows)

    def test_big_domain_memory(self):
        # A 10,000-value parameter: generate's bookkeeping must grow with
        # the domain, not with its square, which would be 100 MB.
        text = ("[PARAMETERS]\nbig: " + ", ".join(f"v{i}" for i in range(10_000))
                + "\nb: no, yes\nc: no, yes\n[CONSTRAINTS]\nb = yes => c = no\n")
        model = parse_model(text)
        handler = build_handler(model, "bdd-partial-up")
        tracemalloc.start()
        try:
            suite = generate(model, 1, handler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(suite) == 10_000
        assert peak < 40_000_000

    def test_sorts_parameters_by_domain_size(self):
        m = parse_model("[PARAMETERS]\nsmall: 0, 1\nbig: 0, 1, 2, 3\n"
                        "[CONSTRAINTS]\nbig != 3\n")
        suite = generate(m, 1, build_handler(m, "oracle"))
        # Seeding covers the largest domain first: its three valid values
        # appear in declaration order across the first rows.
        assert [row[1] for row in suite.rows[:3]] == [0, 1, 2]
        assert all(row[1] != 3 for row in suite.rows)


class TestVerify:
    def test_known_good_suite_passes(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        report = verify(printer, KNOWN_GOOD_PRINTER_SUITE, 2, handler)
        assert report.ok
        assert report.suite_size == 10

    def test_invalid_row_reported(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        report = verify(printer, KNOWN_GOOD_PRINTER_SUITE + [(2, 0, 0)], 2, handler)
        assert (10, (2, 0, 0)) in report.invalid_rows
        assert not report.ok

    def test_unconstrained_suite_fails_constrained_model(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        report = verify(printer, UNCONSTRAINED_PRINTER_SUITE, 2, handler)
        assert not report.ok
        bad = {row for _, row in report.invalid_rows}
        assert (0, 0, 0) in bad  # violates the tray/paper-type exclusion
        assert (0, 1, 2) in bad  # violates the size/tray implication

    def test_empty_suite_reports_all_valid_pairs(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        report = verify(printer, [], 2, handler)
        assert not report.ok
        assert len(report.uncovered) == 23
        assert report.uncovered == [(p, v) for p, v in brute_force_valid_pairs(printer)]

    def test_empty_suite_t1_unconstrained(self, printer_free):
        handler = build_handler(printer_free, "bdd-partial-up")
        report = verify(printer_free, [], 1, handler)
        assert len(report.uncovered) == 9

    def test_describe_mentions_labels(self, printer):
        handler = build_handler(printer, "bdd-partial-up")
        report = verify(printer, [], 1, handler)
        text = report.describe(printer)
        assert "Paper size=B4" in text
        assert "FAILED" in text

    @pytest.mark.parametrize("kind", HANDLER_KINDS)
    def test_row_length_checked(self, printer, kind):
        handler = build_handler(printer, kind)
        with pytest.raises(ValueError, match="entries"):
            verify(printer, [*KNOWN_GOOD_PRINTER_SUITE, (0, 0)], 2, handler)


class RecordingHandler(ValidityHandler):
    """Records every assignment that reaches ``is_valid``."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def is_valid(self, assignment):
        self.calls.append(tuple(assignment))
        return self.inner.is_valid(assignment)


class TestSkipUnconstrained:
    """``generate`` asks the handler only about rows that fix a constrained
    parameter, besides its first check of the all-unspecified row."""

    def test_combo_on_dropped_parameter(self):
        m = parse_model("[PARAMETERS]\nP1: a, b\nP2: a, b\nP3: a, b\nP4: a, b\n"
                        "[CONSTRAINTS]\nP1 = a => P2 = b\nP4 != a\n")
        handler = RecordingHandler(build_handler(m, "bdd-partial-up"))
        generate(m, 2, handler)
        assert len(handler.calls) == 42
        assert handler.calls[0] == (None,) * 4
        assert all(any(a[p] is not None for p in (0, 1, 3))
                   for a in handler.calls[1:])

    def test_combo_on_constrained_parameter(self):
        m = parse_model("[PARAMETERS]\nP1: a, b\nP2: a, b\n[CONSTRAINTS]\nP1 = a\n")
        handler = RecordingHandler(build_handler(m, "bdd-partial-up"))
        generate(m, 1, handler)
        assert len(handler.calls) == 5
        assert (0, None) in handler.calls

    def test_unconstrained_model_always_skips(self, printer_free):
        handler = RecordingHandler(build_handler(printer_free, "oracle"))
        suite = generate(printer_free, 2, handler)
        assert handler.calls == [(None, None, None)]
        assert len(suite.rows) == 10


class TestAcrossModels:
    @pytest.mark.parametrize("name", ["chain4", "forbidden", "comparators", "equality6"])
    def test_generated_suites_verify(self, name):
        model = load_model(name)
        oracle = build_handler(model, "oracle")
        for t in (2, 3):
            rows_by_kind = []
            for kind in HANDLER_KINDS:
                suite = generate(model, t, build_handler(model, kind))
                rows_by_kind.append(suite.rows)
            assert all(rows == rows_by_kind[0] for rows in rows_by_kind[1:])
            report = verify(model, rows_by_kind[0], t, oracle)
            assert report.ok, f"{name} t={t}: {report.describe(model)}"


class TestRandomModels:
    def test_bdd_suite_equals_oracle_suite_and_verifies(self):
        rng = random.Random(11)
        for i in range(60):
            model = random_model(rng, max_params=6)
            oracle = build_handler(model, "oracle")
            for t in range(1, min(3, model.n) + 1):
                for fill in (False, True):
                    suite = generate(model, t, build_handler(model, "bdd-partial-up"),
                                     fill_dashes=fill)
                    expected = generate(model, t, oracle, fill_dashes=fill)
                    where = f"model {i}, t={t}, fill={fill}"
                    assert suite.rows == expected.rows, where
                    assert suite.diagnostic == expected.diagnostic, where
                    report = verify(model, suite.rows, t, oracle)
                    assert report.ok, f"{where}: {report.describe(model)}"


def verify_reference(model, rows, t, handler):
    """``verify`` as it was before it read the suite as row bitmasks: one
    set of value tuples per t-subset, probed once per value combination."""
    n = model.n
    if not 1 <= t <= n:
        raise ValueError(f"strength {t} out of range for {n} parameters")
    sizes = model.sizes
    report = VerifyReport(suite_size=len(rows))

    for idx, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {idx} has {len(row)} entries, expected {n}")
        if not handler.is_valid(row):
            report.invalid_rows.append((idx, tuple(row)))

    # The suite by column: each subset's covered values are one zip of its
    # columns.  An unspecified position is None and so covers no value.
    columns = [[row[p] for row in rows] for p in range(n)]
    for subset in combinations(range(n), t):
        covered = set(zip(*(columns[p] for p in subset)))
        for values in product(*(range(sizes[p]) for p in subset)):
            if values in covered:
                continue
            if handler.is_valid(_row(n, subset, values)):
                report.uncovered.append((subset, values))
    return report


class Digest:
    """Stands in for a list and keeps only the count and a digest of what is
    appended: an empty suite at t=4 makes hundreds of thousands of calls."""

    def __init__(self):
        self.count = 0
        self._sha = hashlib.sha256()

    def append(self, item):
        self.count += 1
        self._sha.update(repr(item).encode())

    def extend(self, items):
        for item in items:
            self.append(item)
        return self

    def value(self):
        return self.count, self._sha.hexdigest()


def _outcome(check, model, rows, t, handler):
    """What ``check`` reports on a suite, and the ``is_valid`` calls it makes."""
    recording = RecordingHandler(handler)
    recording.calls = Digest()
    report = check(model, rows, t, recording)
    return (report.suite_size, report.invalid_rows,
            Digest().extend(report.uncovered).value(), recording.calls.value())


def _sweep_suites(model, rows, rng):
    """The generated suite and its damaged variants, by name."""
    violating = next((row for row in product(*map(range, model.sizes))
                      if not eval_constraints(model, row)), None)
    suites = {
        "generated": rows,
        "every 2nd row removed": rows[::2],
        "every 3rd row removed": [row for i, row in enumerate(rows) if i % 3 != 2],
        "cells blanked": [tuple(None if rng.random() < 0.2 else v for v in row)
                          for row in rows],
        "empty": [],
    }
    if violating is not None:  # an unconstrained model has no violating row
        suites["violating row appended"] = [*rows, violating]
    return suites


def _assert_matches_reference(model, t, handler, where, rng):
    rows = generate(model, t, handler).rows
    for label, suite in _sweep_suites(model, rows, rng).items():
        expected = _outcome(verify_reference, model, suite, t, handler)
        assert _outcome(verify, model, suite, t, handler) == expected, \
            f"{where}, t={t}, {label}"


class TestVerifyMatchesReference:
    """``verify`` gives the reference's report, ``uncovered`` in the same
    order, from the same ``is_valid`` calls."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in MODELS_DIR.glob("*.model")))
    def test_shipped_models(self, name):
        model = load_model(name)
        handler = build_handler(model, "bdd-partial-up")
        for t in range(1, min(4, model.n) + 1):
            _assert_matches_reference(model, t, handler, name, random.Random(f"{name}/{t}"))

    def test_random_models(self):
        rng = random.Random(19)
        for i in range(120):
            model = random_model(rng, max_params=6)
            handler = build_handler(model, HANDLER_KINDS[i % len(HANDLER_KINDS)])
            for t in range(1, min(4, model.n) + 1):
                _assert_matches_reference(model, t, handler, f"model {i}", rng)


def generate_reference(model, t, handler, fill_dashes=False):
    """``generate`` as it was before it kept the uncovered combinations as
    int masks: one set of keys per value of the new parameter, a set of
    each row's own keys, and one set intersection per candidate value."""
    n = model.n
    t = _strength(t, n)
    sizes = model.sizes
    order = sorted(range(n), key=lambda i: (-sizes[i], i))
    constrained = [p for p in range(n) if p not in model.dropped]
    is_valid = handler.is_valid

    def valid(row):
        return all(row[p] is None for p in constrained) or is_valid(row)

    if not is_valid((None,) * n):
        return Suite(model, t, [], diagnostic="model has no valid test cases")

    rows = []
    masks = {p: _value_masks(rows, p, sizes[p]) for p in order[:t - 1]}
    radix = max(sizes)
    value_span = radix ** (t - 1)
    value_weight = [radix ** (t - 2 - s) for s in range(t - 1)]
    offsets = [[j * n ** (t - 2 - s) * value_span for j in range(n)]
               for s in range(t - 1)]

    buf = [None] * n
    for idx in range(t - 1, n):
        p_new = order[idx]
        placed = order[:idx]
        dn = sizes[p_new]

        pending = [set() for _ in range(dn)]
        new_dropped = p_new in model.dropped
        for positions in combinations(range(idx), t - 1):
            subset = [placed[j] for j in positions]
            pos_key = 0
            for j in positions:
                pos_key = pos_key * n + j
            unchecked = new_dropped and all(q in model.dropped for q in subset)
            for prefix in product(*(range(sizes[q]) for q in subset)):
                key = pos_key
                for q, w in zip(subset, prefix):
                    buf[q] = w
                    key = key * radix + w
                if unchecked:
                    for s in pending:
                        s.add(key)
                    continue
                for v in range(dn):
                    buf[p_new] = v
                    if is_valid(buf):
                        pending[v].add(key)
            for q in subset:
                buf[q] = None
        buf[p_new] = None

        for row in rows:
            vals = [row[q] for q in placed]
            slots = [[o + w * vw for o, w in zip(offs, vals) if w is not None]
                     for offs, vw in zip(offsets, value_weight)]
            seen = {sum(slot[k] for slot, k in zip(slots, ks))
                    for ks in combinations(range(idx - vals.count(None)), t - 1)}
            free = new_dropped and all(row[p] is None for p in constrained)
            best_v = None
            best = set()
            for v in range(dn):
                row[p_new] = v
                if not (free or is_valid(row)):
                    continue
                covered = pending[v] & seen
                if best_v is None or len(covered) > len(best):
                    best_v, best = v, covered
            row[p_new] = best_v
            if best_v is not None:
                pending[best_v] -= best
        masks[p_new] = _value_masks(rows, p_new, dn)

        for key in sorted(set().union(*pending)):
            pos_key, value_key = divmod(key, value_span)
            pairs = []
            for _ in range(t - 1):
                pos_key, j = divmod(pos_key, n)
                value_key, w = divmod(value_key, radix)
                pairs.append((placed[j], w))
            for v in range(dn):
                if key not in pending[v]:
                    continue
                full = pairs + [(p_new, v)]
                covering = compatible = -1
                for p, w in full:
                    m = masks[p]
                    covering &= m[w]
                    compatible &= m[w] | m[None]
                if covering:
                    continue
                while compatible:
                    bit = compatible & -compatible
                    r = rows[bit.bit_length() - 1]
                    candidate = list(r)
                    for p, w in full:
                        candidate[p] = w
                    if valid(candidate):
                        for p, w in full:
                            if r[p] is None:
                                masks[p][None] ^= bit
                                masks[p][w] |= bit
                        r[:] = candidate
                        break
                    compatible ^= bit
                else:
                    bit = 1 << len(rows)
                    row = _row(n, [p for p, _ in full], [w for _, w in full])
                    rows.append(row)
                    for p in order[:idx + 1]:
                        masks[p][row[p]] |= bit

    if fill_dashes:
        for row in rows:
            for p in range(n):
                if row[p] is not None:
                    continue
                for v in range(sizes[p]):
                    row[p] = v
                    if valid(row):
                        break
                    row[p] = None

    return Suite(model, t, [tuple(r) for r in rows])


class AnswerRecorder(RecordingHandler):
    """Records every ``(assignment, answer)`` pair of ``is_valid``."""

    def is_valid(self, assignment):
        answer = self.inner.is_valid(assignment)
        self.calls.append((tuple(assignment), answer))
        return answer


def _generated(gen, model, t, handler, fill):
    """The rows and diagnostic ``gen`` returns, and the checks it makes."""
    recorder = AnswerRecorder(handler)
    recorder.calls = Digest()
    suite = gen(model, t, recorder, fill_dashes=fill)
    return suite.rows, suite.diagnostic, recorder.calls.value()


def _assert_generate_matches_reference(model, t, handler, where):
    """Compare with and without ``fill_dashes``; return the unfilled rows."""
    for fill in (True, False):
        expected = _generated(generate_reference, model, t, handler, fill)
        assert _generated(generate, model, t, handler, fill) == expected, \
            f"{where}, t={t}, fill={fill}"
    return expected[0]


class TestGenerateMatchesReference:
    """``generate`` gives the reference's rows and diagnostic from the same
    ``is_valid`` calls, in the same order and with the same answers."""

    def test_random_models(self):
        rng = random.Random(23)
        for i in range(80):
            model = random_model(rng, max_params=7)
            handler = build_handler(model, HANDLER_KINDS[i % len(HANDLER_KINDS)])
            for t in range(1, min(4, model.n) + 1):
                _assert_generate_matches_reference(model, t, handler, f"model {i}")

    def test_wide_models(self):
        # Domains of 5 to 8 values over 10 to 12 parameters: a row's key
        # mask spans dozens of machine words at t=3.
        rng = random.Random(2008)
        for i in range(4):
            model = random_model(rng, max_params=12, max_domain=8, min_params=10,
                                 min_domain=5, max_constraints=6)
            handler = build_handler(model, "bdd-partial-up")
            for t in (1, 2, 3):
                _assert_generate_matches_reference(model, t, handler, f"wide model {i}")

    def test_wide_model_t4(self):
        # Hundreds of machine words per mask, and thousands of rows.
        model = random_model(random.Random(2), max_params=10, max_domain=8,
                             min_params=10, min_domain=5, max_constraints=6)
        handler = build_handler(model, "bdd-partial-up")
        rows = _assert_generate_matches_reference(model, 4, handler, "wide model")
        assert len(rows) > 1000

    @pytest.mark.parametrize("big, binary, t", [(200, 10, 3), (100, 8, 4), (50, 20, 3)])
    def test_mixed_domains(self, big, binary, t):
        # One large domain among binary ones: keys spaced for the largest
        # domain in every slot would need 56 million bits per value at t=4.
        text = ("[PARAMETERS]\nbig: " + ", ".join(f"v{i}" for i in range(big)) + "\n"
                + "".join(f"b{i}: no, yes\n" for i in range(binary))
                + "[CONSTRAINTS]\nbig = v0 => b0 = no\nb1 = yes => b2 = no\n")
        model = parse_model(text)
        handler = build_handler(model, "bdd-partial-up")
        _assert_generate_matches_reference(model, t, handler, f"{big} x {binary}")


# The domain sizes test_keys_are_dense_and_decode lays out.
LAYOUT_SIZES = [[5, 4, 4, 3, 2, 2], [7] * 6, [200] + [2] * 10, [3, 1, 2], []]


def _layout_keys(layout, sizes, k):
    """The key of every k-slot combination over ``sizes``, in enumeration
    order, read off ``layout``'s per-slot terms."""
    return [sum(layout.base[s][j] + w * layout.weight[s][j]
                for s, (j, w) in enumerate(zip(positions, values)))
            for positions in combinations(range(len(sizes)), k)
            for values in product(*(range(sizes[j]) for j in positions))]


class TestKeyLayout:
    @pytest.mark.parametrize("sizes", [[5, 4, 4, 3, 2, 2], [7] * 6, [200] + [2] * 10,
                                       [3, 1, 2], []])
    def test_keys_are_dense_and_decode(self, sizes):
        for k in range(min(len(sizes), 4) + 1):
            layout = _KeyLayout(sizes, k)
            keys, decoded = [], []
            for positions in combinations(range(len(sizes)), k):
                for values in product(*(range(sizes[j]) for j in positions)):
                    key = sum(layout.base[s][j] + w * layout.weight[s][j]
                              for s, (j, w) in enumerate(zip(positions, values)))
                    keys.append(key)
                    decoded.append((list(positions), list(values)))
            assert sorted(keys) == list(range(layout.space))
            assert list(map(layout.combo, keys)) == decoded
            # Vertical growth sorts decoded keys to get the enumeration
            # order back, whatever order the keys themselves are in.
            assert sorted(map(layout.combo, range(layout.space))) == decoded

    @pytest.mark.parametrize("sizes", LAYOUT_SIZES)
    def test_keys_nest(self, sizes):
        # The combinations over the first a positions keep their keys when
        # positions are added after them, and take the lowest keys.
        for k in range(min(len(sizes), 4) + 1):
            whole = _KeyLayout(sizes, k)
            for a in range(len(sizes) + 1):
                keys = _layout_keys(_KeyLayout(sizes[:a], k), sizes[:a], k)
                assert keys == _layout_keys(whole, sizes[:a], k)
                assert sorted(keys) == list(range(whole.count[k][a]))

    @pytest.mark.parametrize("sizes", LAYOUT_SIZES)
    def test_extend_adds_the_keys_of_each_slot(self, sizes):
        # acc[s] built position by position holds exactly the keys of the
        # s-combinations of the row's specified positions so far.
        rng = random.Random(29)
        n = len(sizes)

        def expected(layout, row):
            specified = [j for j, w in enumerate(row) if w is not None]
            return [sum(1 << sum(layout.base[s][j] + row[j] * layout.weight[s][j]
                                 for s, j in enumerate(positions))
                        for positions in combinations(specified, m))
                    for m in range(len(layout.base) + 1)]

        for k in range(min(n, 4) + 1):
            layout = _KeyLayout(sizes, k)
            for _ in range(10):
                row = [None if rng.random() < 0.3 else rng.randrange(d) for d in sizes]
                acc = [1] + [0] * k
                for j, w in enumerate(row):
                    if w is not None:
                        layout.extend(acc, j, w)
                    assert acc == expected(layout, row[:j + 1])
                assert layout.keys(row) == acc
                # A row whose lowest unspecified position is filled, as a
                # merge may, is built afresh.
                if None in row:
                    j = row.index(None)
                    row[j] = rng.randrange(sizes[j])
                    assert layout.keys(row) == expected(layout, row)


# A model with a dropped parameter: P3 occurs in no constraint.
DROPPED_MODEL = ("[PARAMETERS]\nP1: a, b\nP2: a, b, c\nP3: a, b\n"
                 "[CONSTRAINTS]\nP1 = a => P2 = b\n")


class TestVerifyBadValues:
    """A bad value fails in the row pass with the handler's message, never
    in building the coverage masks."""

    @pytest.mark.parametrize("kind", HANDLER_KINDS)
    @pytest.mark.parametrize("position", [0, 2], ids=["constrained", "dropped"])
    def test_bad_value_raises_from_the_row_pass(self, kind, position):
        model = parse_model(DROPPED_MODEL)
        handler = build_handler(model, kind)
        assert model.dropped == {2}
        rows = generate(model, 2, handler).rows
        for bad in (model.sizes[position], -1, 1.0, "a"):
            row = list(rows[1])
            row[position] = bad
            recording = RecordingHandler(handler)
            with pytest.raises(ValueError, match="out of range"):
                verify(model, [rows[0], tuple(row), *rows[2:]], 2, recording)
            assert recording.calls == [rows[0], tuple(row)], f"{kind}: {bad!r}"


class IsValidOnly:
    """A handler that lets only ``is_valid`` through: reading any other
    attribute fails the test."""

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    def __getattribute__(self, name):
        if name != "is_valid":
            raise AssertionError(f"handler.{name} read")
        return getattr(object.__getattribute__(self, "_inner"), name)


class TestHandlerContract:
    """``generate`` and ``verify`` read nothing on the handler but
    ``is_valid``: the unconstrained parameters come from ``SutModel.dropped``."""

    @pytest.mark.parametrize("name", ["printer", "sparse12", "synth16"])
    def test_is_valid_suffices(self, name):
        model = load_model(name)
        handler = build_handler(model, "bdd-partial-up")
        stub = IsValidOnly(handler)
        with pytest.raises(AssertionError, match="handler.name read"):
            stub.name
        rows = generate(model, 2, stub).rows
        assert rows == generate(model, 2, handler).rows
        for suite in (rows, rows[::2], []):
            assert verify(model, suite, 2, stub) == verify(model, suite, 2, handler)
