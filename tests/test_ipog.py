"""Tests for suite generation and verification."""

from itertools import combinations, product

import pytest

from citbdd.ipog import generate, skip_unconstrained_check, verify
from citbdd.model import eval_constraints, parse_model
from citbdd.validity import HANDLER_KINDS, OracleHandler, build_handler

from conftest import load_model

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
        with pytest.raises(ValueError, match="out of range"):
            generate(printer, 4, handler)
        with pytest.raises(ValueError, match="out of range"):
            generate(printer, 0, handler)

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

    def test_row_length_checked(self, printer):
        handler = build_handler(printer, "oracle")
        with pytest.raises(ValueError, match="entries"):
            verify(printer, [(0, 0)], 2, handler)


class TestSkipUnconstrained:
    def test_combo_on_dropped_parameter(self):
        m = parse_model("[PARAMETERS]\nP1: a, b\nP2: a, b\nP3: a, b\nP4: a, b\n"
                        "[CONSTRAINTS]\nP1 = a => P2 = b\nP4 != a\n")
        handler = build_handler(m, "bdd-partial-up")
        assert skip_unconstrained_check(handler, (None, None, 0, None)) is True

    def test_combo_on_constrained_parameter(self):
        m = parse_model("[PARAMETERS]\nP1: a, b\nP2: a, b\n[CONSTRAINTS]\nP1 = a\n")
        handler = build_handler(m, "bdd-partial-up")
        assert skip_unconstrained_check(handler, (0, None)) is False

    def test_unconstrained_model_always_skips(self, printer_free):
        handler = build_handler(printer_free, "oracle")
        assert skip_unconstrained_check(handler, (1, 2, 0)) is True


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
