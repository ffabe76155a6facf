"""Tests for the model types, the constraint parser, and evaluation."""

import gc
import hashlib
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from citbdd.model import (
    _CONNECTIVES, Compare, CompareParams, Connective, Not,
    ModelError, Parameter, SutModel,
    eval_constraints, format_constraint, occurrences, parse_constraint, parse_model,
)

from conftest import MODELS_DIR, PRINTER_TEXT, load_model
from model_gen import random_model


class TestParseModel:
    def test_printer(self, printer):
        assert printer.n == 3
        assert [p.name for p in printer.params] == ["Paper size", "Feed tray", "Paper type"]
        assert printer.sizes == (3, 3, 3)
        assert len(printer.constraints) == 2
        assert printer.constraints == (
            Connective(Compare(0, "=", 0), "=>", Compare(1, "=", 0)),
            Connective(Compare(1, "=", 0), "=>", Not(Compare(2, "=", 0))),
        )

    def test_no_constraints(self, printer_free):
        assert printer_free.constraints == ()
        assert printer_free.sizes == (3, 3, 3)

    def test_implies_golden(self):
        m = parse_model("""
            [PARAMETERS]
            Size: B4, A4, B5
            Tray: Bypass, Tray1, Tray2
            [CONSTRAINTS]
            Size = B4 => Tray = Bypass
        """)
        assert m.constraints == (Connective(Compare(0, "=", 0), "=>", Compare(1, "=", 0)),)

    def test_comments_and_blanks(self):
        m = parse_model("""
            # leading comment
            [PARAMETERS]
            a: x, y   # trailing comment

            [CONSTRAINTS]
            # a constraint follows
            a = x || a = y
        """)
        assert m.sizes == (2,)
        assert len(m.constraints) == 1

    def test_value_by_index(self):
        m = parse_model("[PARAMETERS]\na: x, y, z\n[CONSTRAINTS]\na = 2\n")
        assert m.constraints == (Compare(0, "=", 2),)

    def test_label_wins_over_index(self):
        # the literal label "2" names index 0, beating the index reading
        m = parse_model("[PARAMETERS]\na: 2, 1, 0\n[CONSTRAINTS]\na = 2\n")
        assert m.constraints == (Compare(0, "=", 0),)

    def test_quoted_names_and_labels(self):
        m = parse_model('[PARAMETERS]\nmy param: has space, plain\n'
                        '[CONSTRAINTS]\n"my param" != "has space"\n')
        assert m.constraints == (Compare(0, "!=", 0),)

    def test_quoted_parameter_lines(self):
        # A name or label that is one whole quoted string reads as it does
        # in a constraint; ':', ',' and '#' inside it are text.
        m = parse_model('[PARAMETERS]\nt: "Tray 1", Bypass\nu: a, b\n'
                        '[CONSTRAINTS]\nt = "Tray 1" => u = a\n')
        assert m.params[0].domain == ("Tray 1", "Bypass")
        assert m.constraints == (Connective(Compare(0, "=", 0), "=>", Compare(1, "=", 0)),)
        m = parse_model('[PARAMETERS]\n"Paper size": B4, A4\nu: a, b\n'
                        '[CONSTRAINTS]\n"Paper size" = B4 => u = a\n')
        assert m.params[0].name == "Paper size"
        assert m.constraints == (Connective(Compare(0, "=", 0), "=>", Compare(1, "=", 0)),)
        m = parse_model('[PARAMETERS]\n"a:b" : "x,y", "say \\"#1\\"", a"b, plain # c\n')
        assert m.params == (Parameter("a:b", ("x,y", 'say "#1"', 'a"b', "plain")),)
        # A quote that does not make a whole field quoted never reaches past
        # the next ':' or ','.
        m = parse_model('[PARAMETERS]\nx: 13", 15", 17"\n')
        assert m.params[0].domain == ('13"', '15"', '17"')
        m = parse_model('[PARAMETERS]\n12" screen: "a, b", c\n')
        assert m.params == (Parameter('12" screen', ("a, b", "c")),)
        m = parse_model('[PARAMETERS]\nx: "a" b, "c", d\n')
        assert m.params[0].domain == ('"a" b', "c", "d")

    def test_param_to_param(self):
        m = parse_model("[PARAMETERS]\na: x, y\nb: x, y, z\n[CONSTRAINTS]\na = b\na != b\n")
        assert m.constraints == (CompareParams(0, "=", 1), CompareParams(0, "!=", 1))


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ModelError) as exc:
            parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = \n")
        assert exc.value.line == 4

    def test_unknown_parameter(self):
        with pytest.raises(ModelError, match="unknown parameter"):
            parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\nb = x\n")

    def test_unknown_value(self):
        with pytest.raises(ModelError, match="unknown value"):
            parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = z\n")

    def test_value_index_out_of_range(self):
        with pytest.raises(ModelError, match="out of range"):
            parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = 5\n")

    def test_empty_domain(self):
        with pytest.raises(ModelError, match="empty"):
            parse_model("[PARAMETERS]\na:\n")

    def test_duplicate_parameter(self):
        with pytest.raises(ModelError, match="duplicate parameter"):
            parse_model("[PARAMETERS]\na: x, y\na: p, q\n")

    def test_duplicate_label(self):
        with pytest.raises(ModelError, match="duplicate value labels"):
            parse_model("[PARAMETERS]\na: x, x\n")

    def test_unknown_section(self):
        with pytest.raises(ModelError, match="unknown section"):
            parse_model("[STUFF]\n")

    def test_content_before_section(self):
        with pytest.raises(ModelError, match="before any"):
            parse_model("a: x, y\n")

    def test_ordering_between_parameters_rejected(self):
        with pytest.raises(ModelError, match="ordering comparison"):
            parse_model("[PARAMETERS]\na: x, y\nb: x, y\n[CONSTRAINTS]\na < b\n")

    def test_unexpected_character(self):
        with pytest.raises(ModelError, match="unexpected character"):
            parse_model("[PARAMETERS]\na: x, y\n[CONSTRAINTS]\na = x $\n")

    def test_empty_label_names_the_line(self):
        with pytest.raises(ModelError, match="empty value label at line 2"):
            parse_model("[PARAMETERS]\na: x,\n")

    def test_parameter_rejects_an_empty_label(self):
        with pytest.raises(ModelError, match="empty value label"):
            Parameter("x", ("a", ""))

    def test_dash_label_is_reserved(self):
        # A suite CSV writes "-" for an unspecified value, so a value
        # labelled "-" would read back as unspecified.
        with pytest.raises(ModelError, match="parameter 'a' has the value label '-'.*line 2"):
            parse_model("[PARAMETERS]\na: -, x\nb: p, q\n")
        with pytest.raises(ModelError, match="parameter 'x' has the value label '-'"):
            Parameter("x", ("a", "-"))
        assert Parameter("x", ("-a", "a-", "--")).domain == ("-a", "a-", "--")

    @pytest.mark.parametrize("name, label, text", [
        (" a", "x", " a"), ("a\t", "x", "a\t"), ("a", " x", " x"), ("a", "x\n", "x\n"),
        ("a", " - ", " - ")])
    def test_surrounding_whitespace_is_rejected(self, name, label, text):
        # A suite CSV cell is read stripped, so such a name or label could
        # not be read back.
        message = f"parameter {name!r}: {text!r} has surrounding whitespace"
        with pytest.raises(ModelError, match=re.escape(message)):
            Parameter(name, (label, "y"))

    def test_quoted_whitespace_names_the_line(self):
        with pytest.raises(ModelError, match="parameter ' a': ' a' .* at line 3"):
            parse_model('[PARAMETERS]\nb: x, y\n" a": x, y\n')
        with pytest.raises(ModelError, match="parameter 'a': 'x ' .* at line 2"):
            parse_model('[PARAMETERS]\na: "x ", y\n')


class TestMalformedNodes:
    """``SutModel`` checks constraint trees built in code, not parsed."""

    _PARAMS = (Parameter("a", ("x", "y")), Parameter("b", ("x", "y", "z")))

    def test_non_node_rejected(self):
        for bad in ("a = x", None, Not("a = x"),
                    Connective(Compare(0, "=", 0), "&&", None),
                    Connective("a = x", "||", Compare(0, "=", 0))):
            with pytest.raises(ModelError, match="not a constraint node"):
                SutModel(self._PARAMS, (bad,))

    def test_unknown_connective_rejected(self):
        for op in ("^", "and", None, ["&&"]):
            with pytest.raises(ModelError, match="unknown connective"):
                SutModel(self._PARAMS,
                         (Connective(Compare(0, "=", 0), op, Compare(1, "=", 0)),))

    def test_non_int_index_rejected(self):
        with pytest.raises(ModelError, match="value 1.0 outside"):
            SutModel(self._PARAMS, (Compare(0, "=", 1.0),))
        with pytest.raises(ModelError, match="value True outside"):
            SutModel(self._PARAMS, (Compare(0, "=", True),))
        with pytest.raises(ModelError, match="parameter #0.0"):
            SutModel(self._PARAMS, (Compare(0.0, "=", 1),))
        with pytest.raises(ModelError, match="parameter #'b'"):
            SutModel(self._PARAMS, (CompareParams(0, "=", "b"),))

    def test_unknown_comparator_rejected(self):
        for op in ("==", "~", None, ["="]):
            with pytest.raises(ModelError, match="unknown comparator"):
                SutModel(self._PARAMS, (Compare(0, op, 1),))

    def test_ordering_between_parameters_rejected(self):
        for op in ("<", "<=", ">", ">=", "=="):
            with pytest.raises(ModelError, match="not allowed between two parameters"):
                SutModel(self._PARAMS, (CompareParams(0, op, 1),))


class TestMalformedParams:
    """``SutModel`` and ``Parameter`` check parameters built in code."""

    _PARAMS = (Parameter("a", ("x", "y")),)

    def test_non_parameter_rejected(self):
        with pytest.raises(ModelError, match="params must be a tuple of Parameter"):
            SutModel(("a",), ())

    def test_params_list_rejected(self):
        with pytest.raises(ModelError, match="params must be a tuple of Parameter"):
            SutModel(list(self._PARAMS), ())

    def test_constraints_none_rejected(self):
        with pytest.raises(ModelError, match="constraints must be a tuple"):
            SutModel(self._PARAMS, None)

    def test_list_domain_rejected(self):
        with pytest.raises(ModelError, match="needs a tuple of string labels"):
            Parameter("a", ["x", "y"])

    def test_non_string_label_rejected(self):
        with pytest.raises(ModelError, match="needs a tuple of string labels"):
            Parameter("a", ("x", 1))

    def test_non_string_name_rejected(self):
        with pytest.raises(ModelError, match="is not a string"):
            Parameter(1, ("x", "y"))


class TestPrecedence:
    def _parse(self, text):
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nc: 0, 1\nd: 0, 1\n")
        return m, parse_constraint(text, m)

    # The relations ``a = 0``, ``b = 0`` and ``c = 0``.
    A, B, C = (Compare(k, "=", 0) for k in range(3))

    def test_not_binds_tightest(self):
        _, e = self._parse("!a = 0 && b = 0")
        assert e == Connective(Not(self.A), "&&", self.B)

    def test_and_over_or(self):
        _, e = self._parse("a = 0 || b = 0 && c = 0")
        assert e == Connective(self.A, "||", Connective(self.B, "&&", self.C))

    def test_or_over_implies(self):
        _, e = self._parse("a = 0 || b = 0 => c = 0")
        assert e == Connective(Connective(self.A, "||", self.B), "=>", self.C)

    def test_implies_right_associative(self):
        _, e = self._parse("a = 0 => b = 0 => c = 0")
        assert e == Connective(self.A, "=>", Connective(self.B, "=>", self.C))

    def test_parentheses(self):
        _, e = self._parse("(a = 0 => b = 0) => c = 0")
        assert e == Connective(Connective(self.A, "=>", self.B), "=>", self.C)

    def test_left_assoc_chains(self):
        _, e = self._parse("a = 0 && b = 0 && c = 0")
        assert e == Connective(Connective(self.A, "&&", self.B), "&&", self.C)


class TestEvalConstraints:
    def test_printer_valid(self, printer):
        assert eval_constraints(printer, (1, 0, 2)) is True

    def test_printer_invalid(self, printer):
        assert eval_constraints(printer, (2, 0, 0)) is False

    def test_no_constraints_always_true(self, printer_free):
        for t in product(range(3), repeat=3):
            assert eval_constraints(printer_free, t) is True

    def test_comparators_use_value_indices(self):
        m = parse_model("[PARAMETERS]\na: lo, mid, hi\n[CONSTRAINTS]\na >= mid\n")
        assert eval_constraints(m, (0,)) is False
        assert eval_constraints(m, (1,)) is True
        assert eval_constraints(m, (2,)) is True

    def test_param_eq_param_compares_indices(self):
        m = parse_model("[PARAMETERS]\na: x, y\nb: p, q, r\n[CONSTRAINTS]\na = b\n")
        assert eval_constraints(m, (0, 0)) is True
        assert eval_constraints(m, (1, 1)) is True
        assert eval_constraints(m, (1, 2)) is False

    def test_rejects_partial(self, printer):
        with pytest.raises(ValueError, match="not full"):
            eval_constraints(printer, (1, None, 2))

    def test_rejects_out_of_range(self, printer):
        with pytest.raises(ValueError, match="^value 7 out of range for 'Paper type'$"):
            eval_constraints(printer, (1, 0, 7))
        with pytest.raises(ValueError, match="^value 3 out of range for 'Feed tray'$"):
            eval_constraints(printer, (2, 3, 3))
        with pytest.raises(ValueError, match="^expected 3 values, got 2$"):
            eval_constraints(printer, (1, 0))

    def test_pure(self, printer):
        results = {eval_constraints(printer, (1, 0, 2)) for _ in range(5)}
        assert results == {True}


# -- round-trip formatting ---------------------------------------------------

_RT_MODEL = SutModel(
    (Parameter("alpha", ("a0", "a1", "a2")),
     Parameter("beta quoted", ("b 0", "b1")),
     Parameter("gamma", ("g0", "g1", "g2", "g3"))),
    (),
)


def _exprs(depth):
    relations = st.one_of(
        st.builds(Compare, st.just(0), st.just("="), st.integers(0, 2)),
        st.builds(Compare, st.just(1), st.just("!="), st.integers(0, 1)),
        st.builds(Compare, st.just(2), st.just("<"), st.integers(0, 3)),
        st.builds(Compare, st.just(2), st.just("<="), st.integers(0, 3)),
        st.builds(Compare, st.just(0), st.just(">"), st.integers(0, 2)),
        st.builds(Compare, st.just(1), st.just(">="), st.integers(0, 1)),
        st.builds(CompareParams, st.just(0), st.just("="), st.just(2)),
        st.builds(CompareParams, st.just(1), st.just("!="), st.just(0)),
    )
    return st.recursive(
        relations,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Connective, sub, st.sampled_from(tuple(_CONNECTIVES)), sub),
        ),
        max_leaves=depth,
    )


class TestRoundTrip:
    def test_printer_constraints(self, printer):
        for expr in printer.constraints:
            text = format_constraint(expr, printer)
            assert parse_constraint(text, printer) == expr

    def test_leaves_nothing_for_the_cycle_collector(self, printer):
        gc.collect()
        gc.disable()
        try:
            for expr in printer.constraints:
                format_constraint(expr, printer)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parameter_named_like_a_label_of_the_other(self):
        # The parser reads ``y`` after ``x =`` as x's label, so no text
        # gives this comparison back: formatting it refuses.
        m = SutModel((Parameter("x", ("a", "y")), Parameter("y", ("a", "b"))), ())
        assert parse_constraint("x = y", m) == Compare(0, "=", 1)
        with pytest.raises(ModelError, match=r"^cannot write 'x' = 'y': 'y' is also a "
                                             r"label of 'x'$"):
            format_constraint(CompareParams(0, "=", 1), m)
        # The other way round, ``x`` is no label of ``y``.
        assert parse_constraint(format_constraint(CompareParams(1, "!=", 0), m), m) == \
            CompareParams(1, "!=", 0)

    @settings(max_examples=300, deadline=None)
    @given(_exprs(12))
    def test_random_trees(self, expr):
        text = format_constraint(expr, _RT_MODEL)
        assert parse_constraint(text, _RT_MODEL) == expr


def _structure(e):
    """``e`` as nested tuples of class name and fields: a reference for the
    equality the dataclasses gave the operator nodes."""
    if isinstance(e, Not):
        return ("Not", _structure(e.child))
    if isinstance(e, Connective):
        return ("Connective", _structure(e.left), e.op, _structure(e.right))
    return e


def _rebuilt(e):
    """A structurally equal copy of ``e`` that shares no operator node with it."""
    if isinstance(e, Not):
        return Not(_rebuilt(e.child))
    if isinstance(e, Connective):
        return Connective(_rebuilt(e.left), e.op, _rebuilt(e.right))
    return e


def _dataclass_repr(e):
    """The text the dataclass-generated ``repr`` gave, recursively."""
    if isinstance(e, Not):
        return f"Not(child={_dataclass_repr(e.child)})"
    if isinstance(e, Connective):
        return (f"Connective(left={_dataclass_repr(e.left)}, op={e.op!r}, "
                f"right={_dataclass_repr(e.right)})")
    return repr(e)


class TestOperatorIdentity:
    """``==``, ``hash`` and ``repr`` of ``Not`` and ``Connective`` go through
    ``fold`` and keep what the dataclasses gave small trees."""

    def test_printer_constraints(self, printer):
        first, second = printer.constraints
        assert repr(second) == (
            "Connective(left=Compare(param=1, op='=', value=0), op='=>', "
            "right=Not(child=Compare(param=2, op='=', value=0)))")
        assert repr(printer).endswith(f"constraints=({first!r}, {second!r}))")
        assert second == _rebuilt(second) and hash(second) == hash(_rebuilt(second))
        assert first != second and Not(first) != first and Not(first) != Not(second)
        assert Connective(first, "&&", second) != Connective(first, "||", second)
        assert Not(first).__eq__(first.left) is NotImplemented
        assert len({first, second, _rebuilt(first), _rebuilt(second)}) == 2
        assert parse_model(PRINTER_TEXT) == printer
        assert hash(parse_model(PRINTER_TEXT)) == hash(printer)

    @settings(max_examples=300, deadline=None)
    @given(_exprs(12), _exprs(12))
    def test_random_trees(self, a, b):
        copy = _rebuilt(a)
        assert copy == a and not copy != a and hash(copy) == hash(a)
        assert repr(a) == _dataclass_repr(a)
        assert (a == b) == (_structure(a) == _structure(b))
        if a == b:
            assert hash(a) == hash(b)


# SHA-256 over ``format_constraint`` of every constraint of the shipped
# models, then of 100 seeded random models, one line each.  The round trip
# above only checks that the text parses back to the tree; this pins the
# parentheses and spacing too.
FORMAT_SHA256 = "88b93743b5abf01cca83dd47d5c152cf9b73bccc7a6f5d3f6176a278214eff0a"


def test_format_matches_golden():
    models = [load_model(p.stem) for p in sorted(MODELS_DIR.glob("*.model"))]
    rng = random.Random(29)
    models += [random_model(rng, max_params=8) for _ in range(100)]
    total = hashlib.sha256()
    lines = 0
    for model in models:
        for expr in model.constraints:
            total.update(format_constraint(expr, model).encode("utf-8") + b"\n")
            lines += 1
    assert (len(models), lines) == (112, 300)
    assert total.hexdigest() == FORMAT_SHA256


# -- parameter occurrences ---------------------------------------------------

def referenced_params_reference(expr):
    """The parameters of ``expr``, with repeats, by the recursion
    ``constrained_params`` and the oracle once used."""
    if isinstance(expr, Not):
        yield from referenced_params_reference(expr.child)
    elif isinstance(expr, Connective):
        yield from referenced_params_reference(expr.left)
        yield from referenced_params_reference(expr.right)
    elif isinstance(expr, Compare):
        yield expr.param
    else:
        yield expr.left
        yield expr.right


class TestOccurrences:
    def test_match_the_walks_they_replace(self):
        models = [load_model(p.stem) for p in sorted(MODELS_DIR.glob("*.model"))]
        rng = random.Random(7)
        models += [random_model(rng, max_params=12) for _ in range(300)]
        for model in models:
            for c in model.constraints:
                assert list(occurrences(c)) == list(referenced_params_reference(c))

    def test_deeper_than_the_recursion_limit(self):
        # Built in Python: the parser still recurses once per ``!``.
        expr = Compare(0, "=", 0)
        for _ in range(10000):
            expr = Not(expr)
        assert list(occurrences(expr)) == [0]


class TestDropped:
    """``SutModel.dropped``: the parameters that occur in no constraint."""

    def test_printer_none(self, printer):
        assert printer.dropped == frozenset()

    def test_unconstrained_all(self, printer_free):
        assert printer_free.dropped == {0, 1, 2}

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
        assert m.dropped == {2}

    def test_masking_preserves_validity(self):
        # Values of the dropped parameter never change the constraint verdict.
        m = parse_model("[PARAMETERS]\na: 0, 1\nb: 0, 1\nfree: 0, 1, 2\n"
                        "[CONSTRAINTS]\na = 0 => b = 1\n")
        assert m.dropped == {2}
        for a, b in product(range(2), repeat=2):
            verdicts = {eval_constraints(m, (a, b, v)) for v in range(3)}
            assert len(verdicts) == 1
