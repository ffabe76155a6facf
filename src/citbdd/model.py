"""System-under-test models: parameters with finite domains plus constraints.

Models are loaded from a small line-oriented text format::

    # a comment
    [PARAMETERS]
    Paper size: B4, A4, B5
    Feed tray: Bypass, Tray 1, Tray 2
    Paper type: Thick, Normal, Thin

    [CONSTRAINTS]
    "Paper size" = B4 => "Feed tray" = Bypass
    "Feed tray" = Bypass => !("Paper type" = Thick)

Constraint expressions combine relations with ``!``, ``&&``, ``||`` and
``=>`` (binding in that order; ``=>`` is right associative).  A relation
compares a parameter against one of its values (``=``, ``!=``, ``<``,
``<=``, ``>``, ``>=``) or against another parameter (``=``, ``!=`` only).
Values may be written as labels, quoted labels, or 0-based indices; the
ordering comparators compare 0-based value indices.  Names and labels that
are not plain identifiers must be double quoted.

Internally every parameter value is its 0-based index into the declared
domain.  A constraint tree has four kinds of node, each operator kept as
written: ``Not(child)``; ``Connective(left, op, right)`` for ``&&``, ``||``
and ``=>``; and two relations, ``Compare(param, op, value)`` for a
parameter against a value index and ``CompareParams(left, op, right)`` for
two parameters.

An assignment is a tuple with one entry per parameter, where ``None``
marks an unspecified ("dash") position; an assignment with no ``None``
entries is a full test case.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

# One value index per parameter; None = unspecified.
Assignment = tuple[Optional[int], ...]


class ModelError(ValueError):
    """Malformed model text or expression, with source position when known."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


# ---------------------------------------------------------------------------
# Constraint expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Not:
    child: "ConstraintExpr"

    def evaluate(self, values: Sequence[Optional[int]]) -> bool:
        return not self.child.evaluate(values)


# Each connective as written in the source: its binding strength (higher
# binds tighter) and whether it associates to the right.
_CONNECTIVES = {"=>": (0, True), "||": (1, False), "&&": (2, False)}
# ``!`` and then the relations bind tighter than every connective.
_PREC_NOT, _PREC_ATOM = 3, 4


@dataclass(frozen=True)
class Connective:
    """``left op right`` with ``op`` one of ``&&``, ``||``, ``=>``."""
    left: "ConstraintExpr"
    op: str
    right: "ConstraintExpr"

    def evaluate(self, values: Sequence[Optional[int]]) -> bool:
        left = self.left.evaluate(values)
        if self.op == "&&":
            return left and self.right.evaluate(values)
        if self.op == "||":
            return left or self.right.evaluate(values)
        return not left or self.right.evaluate(values)


# Each comparator as written in the source, and the function deciding it
# over 0-based value indices.
_COMPARE = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
# The comparators allowed between two parameters.
_PARAM_COMPARE = ("=", "!=")


@dataclass(frozen=True)
class Compare:
    """``param op value``: a parameter against one of its value indices."""
    param: int
    op: str
    value: int

    def evaluate(self, values: Sequence[Optional[int]]) -> bool:
        return _COMPARE[self.op](values[self.param], self.value)


@dataclass(frozen=True)
class CompareParams:
    """``left op right``: two parameters' value indices, ``op`` ``=`` or ``!=``."""
    left: int
    op: str
    right: int

    def evaluate(self, values: Sequence[Optional[int]]) -> bool:
        return _COMPARE[self.op](values[self.left], values[self.right])


ConstraintExpr = Union[Not, Connective, Compare, CompareParams]


def referenced_params(expr: ConstraintExpr) -> Iterator[int]:
    """Yield the parameter indices occurring in ``expr`` (with repeats)."""
    if isinstance(expr, Not):
        yield from referenced_params(expr.child)
    elif isinstance(expr, Connective):
        yield from referenced_params(expr.left)
        yield from referenced_params(expr.right)
    elif isinstance(expr, Compare):
        yield expr.param
    else:
        yield expr.left
        yield expr.right


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Parameter:
    """A named parameter and its value labels.  It owns the per-parameter
    rules: a non-empty name, a non-empty tuple of labels, no empty and no
    repeated label."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ModelError(f"parameter name {self.name!r} is not a string")
        if not self.name:
            raise ModelError("parameter name cannot be empty")
        if (not isinstance(self.domain, tuple)
                or not all(isinstance(v, str) for v in self.domain)):
            raise ModelError(f"parameter {self.name!r} needs a tuple of string "
                             f"labels, got {self.domain!r}")
        if len(self.domain) < 1:
            raise ModelError(f"parameter {self.name!r} has an empty domain")
        if any(not v for v in self.domain):
            raise ModelError(f"parameter {self.name!r} has an empty value label")
        if len(set(self.domain)) != len(self.domain):
            raise ModelError(f"parameter {self.name!r} has duplicate value labels")


@dataclass(frozen=True)
class SutModel:
    params: tuple[Parameter, ...]
    constraints: tuple[ConstraintExpr, ...]

    def __post_init__(self):
        if (not isinstance(self.params, tuple)
                or not all(isinstance(p, Parameter) for p in self.params)):
            raise ModelError(f"params must be a tuple of Parameter, got {self.params!r}")
        if not isinstance(self.constraints, tuple):
            raise ModelError("constraints must be a tuple of constraint nodes, "
                             f"got {self.constraints!r}")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ModelError("duplicate parameter names")
        for c in self.constraints:
            self._check_expr(c)

    def _check_expr(self, expr: ConstraintExpr) -> None:
        if isinstance(expr, Not):
            self._check_expr(expr.child)
        elif isinstance(expr, Connective):
            if not isinstance(expr.op, str) or expr.op not in _CONNECTIVES:
                raise ModelError(f"unknown connective {expr.op!r}")
            self._check_expr(expr.left)
            self._check_expr(expr.right)
        elif isinstance(expr, Compare):
            self._check_param(expr.param)
            if not isinstance(expr.op, str) or expr.op not in _COMPARE:
                raise ModelError(f"unknown comparator {expr.op!r}")
            if (type(expr.value) is not int
                    or not 0 <= expr.value < len(self.params[expr.param].domain)):
                raise ModelError(f"constraint references value {expr.value!r} outside the "
                                 f"domain of {self.params[expr.param].name!r}")
        elif isinstance(expr, CompareParams):
            self._check_param(expr.left)
            self._check_param(expr.right)
            if expr.op not in _PARAM_COMPARE:
                raise ModelError(f"comparator {expr.op!r} is not allowed "
                                 "between two parameters")
        else:
            raise ModelError(f"constraint {expr!r} is not a constraint node")

    def _check_param(self, p: int) -> None:
        if type(p) is not int or not 0 <= p < len(self.params):
            raise ModelError(f"constraint references parameter #{p!r}, "
                             f"model has {len(self.params)}")

    @property
    def n(self) -> int:
        return len(self.params)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p.domain) for p in self.params)


def eval_constraints(model: SutModel, t: Sequence[Optional[int]]) -> bool:
    """Decide whether the full test case ``t`` satisfies every constraint."""
    check_assignment(model, t)
    if None in t:
        raise ValueError("test case is not full: parameter "
                         f"{model.params[list(t).index(None)].name!r} is unspecified")
    return all(c.evaluate(t) for c in model.constraints)


def check_assignment(model: SutModel, t: Sequence[Optional[int]]) -> None:
    """Raise ValueError unless ``t`` is a well-formed (possibly partial) assignment."""
    sizes = model.sizes
    if len(t) != len(sizes):
        raise ValueError(f"expected {len(sizes)} values, got {len(t)}")
    for v, s in zip(t, sizes):
        if v is not None and not 0 <= v < s:
            param = next(p for p, w, z in zip(model.params, t, sizes)
                         if w is not None and not 0 <= w < z)
            raise ValueError(f"value {v} out of range for {param.name!r}")


# ---------------------------------------------------------------------------
# Expression formatting
# ---------------------------------------------------------------------------

_BARE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _quote(name: str) -> str:
    if _BARE_RE.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_constraint(expr: ConstraintExpr, model: SutModel) -> str:
    """Render ``expr`` so that re-parsing it yields a structurally equal tree."""
    return _format(expr, 0, model)


def _format(e: ConstraintExpr, min_prec: int, model: SutModel) -> str:
    """``e`` rendered, in parentheses if it binds looser than ``min_prec``."""
    if isinstance(e, Not):
        text = "!" + _format(e.child, _PREC_NOT, model)
        prec = _PREC_NOT
    elif isinstance(e, Connective):
        # The operand on the side ``op`` associates to may bind as loosely
        # as ``op``; the other one needs parentheses if it does.
        prec, right_assoc = _CONNECTIVES[e.op]
        text = (_format(e.left, prec + right_assoc, model) + " " + e.op + " "
                + _format(e.right, prec + (not right_assoc), model))
    elif isinstance(e, CompareParams):
        text = (_quote(model.params[e.left].name) + " " + e.op
                + " " + _quote(model.params[e.right].name))
        prec = _PREC_ATOM
    else:
        param = model.params[e.param]
        text = (_quote(param.name) + " " + e.op
                + " " + _quote(param.domain[e.value]))
        prec = _PREC_ATOM
    if prec < min_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "string" | "number" | "op" | "end"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+)
      | (?P<op>=>|!=|<=|>=|&&|\|\||[!=<>()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "string":
                value = re.sub(r'\\(.)', r'\1', value[1:-1])
            tokens.append(_Token(kind, value, line, pos + 1))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser for one constraint expression."""

    def __init__(self, tokens: list[_Token], model_params: Sequence[Parameter]):
        self.tokens = tokens
        self.pos = 0
        self.params = model_params
        self.by_name = {p.name: i for i, p in enumerate(model_params)}

    def parse(self) -> ConstraintExpr:
        expr = self._binary(0)
        tok = self._peek()
        if tok.kind != "end":
            raise ModelError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        return expr

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept_op(self, text: str) -> bool:
        tok = self._peek()
        if tok.kind == "op" and tok.text == text:
            self.pos += 1
            return True
        return False

    def _binary(self, min_prec: int) -> ConstraintExpr:
        """Precedence climbing: operands joined by connectives binding at
        ``min_prec`` or tighter."""
        expr = self._unary()
        while True:
            tok = self._peek()
            if tok.kind != "op" or tok.text not in _CONNECTIVES:
                return expr
            prec, right_assoc = _CONNECTIVES[tok.text]
            if prec < min_prec:
                return expr
            self.pos += 1
            expr = Connective(expr, tok.text,
                              self._binary(prec + (not right_assoc)))

    def _unary(self) -> ConstraintExpr:
        if self._accept_op("!"):
            return Not(self._unary())
        if self._accept_op("("):
            expr = self._binary(0)
            tok = self._peek()
            if not self._accept_op(")"):
                raise ModelError("expected ')'", tok.line, tok.col)
            return expr
        return self._relation()

    def _relation(self) -> ConstraintExpr:
        left = self._operand("parameter name")
        param = self.by_name.get(left.text)
        if param is None:
            raise ModelError(f"unknown parameter {left.text!r}", left.line, left.col)
        op = self._peek()
        if op.kind != "op" or op.text not in _COMPARE:
            raise ModelError(f"expected a comparison operator, got {op.text!r}",
                             op.line, op.col)
        self._next()
        right = self._operand("value or parameter name")
        return self._resolve(param, op, right)

    def _operand(self, what: str) -> _Token:
        tok = self._peek()
        if tok.kind in ("ident", "string", "number"):
            return self._next()
        raise ModelError(f"expected {what}, got {tok.text or 'end of line'!r}",
                         tok.line, tok.col)

    def _resolve(self, param: int, op: _Token, right: _Token) -> ConstraintExpr:
        domain = self.params[param].domain
        # A label of the left-hand parameter wins over a parameter name,
        # which wins over a bare 0-based index.
        if right.text in domain:
            return Compare(param, op.text, domain.index(right.text))
        other = self.by_name.get(right.text)
        if other is not None:
            if op.text not in _PARAM_COMPARE:
                raise ModelError(f"ordering comparison {op.text!r} is not allowed "
                                 "between two parameters", op.line, op.col)
            return CompareParams(param, op.text, other)
        if right.kind == "number":
            value = int(right.text)
            if not 0 <= value < len(domain):
                raise ModelError(f"value index {value} out of range for "
                                 f"{self.params[param].name!r} "
                                 f"(domain size {len(domain)})", right.line, right.col)
            return Compare(param, op.text, value)
        raise ModelError(f"unknown value {right.text!r} for parameter "
                         f"{self.params[param].name!r}", right.line, right.col)


def parse_constraint(text: str, model: SutModel, line: int = 1) -> ConstraintExpr:
    """Parse a single constraint expression against an existing model."""
    return _ExprParser(_tokenize(text, line), model.params).parse()


def _strip_comment(line: str) -> str:
    # '#' starts a comment unless it appears inside a quoted string.
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "#":
            return line[:i]
        i += 1
    return line


def parse_model(text: str) -> SutModel:
    """Parse model-file text into a SutModel.

    Raises ModelError with a source position for syntax problems, references
    to undeclared parameters or values, empty domains, and duplicate names.
    """
    params: list[Parameter] = []
    names: set[str] = set()
    constraint_lines: list[tuple[int, str]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        header = re.fullmatch(r"\[(.+)\]", line)
        if header:
            name = header.group(1).strip().upper()
            if name not in ("PARAMETERS", "CONSTRAINTS"):
                raise ModelError(f"unknown section [{header.group(1)}]", lineno)
            section = name
            continue
        if section == "PARAMETERS":
            if ":" not in line:
                raise ModelError("expected 'name: value, value, ...'", lineno)
            name, _, rest = line.partition(":")
            name = name.strip()
            if name in names:
                raise ModelError(f"duplicate parameter {name!r}", lineno)
            labels = tuple(v.strip() for v in rest.split(",")) if rest.strip() else ()
            try:
                params.append(Parameter(name, labels))
            except ModelError as exc:
                raise ModelError(str(exc), lineno) from None
            names.add(name)
        elif section == "CONSTRAINTS":
            constraint_lines.append((lineno, line))
        else:
            raise ModelError("content before any [PARAMETERS]/[CONSTRAINTS] section", lineno)

    constraints = tuple(
        _ExprParser(_tokenize(src, lineno), params).parse()
        for lineno, src in constraint_lines
    )
    return SutModel(tuple(params), constraints)
