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
are not plain identifiers must be double quoted in a constraint; a quoted
one reads the same on a parameter line, where it may hold ``:``, ``,`` or
``#``, if it is the whole name or label.  No name or label may have
surrounding whitespace.

Internally every parameter value is its 0-based index into the declared
domain.  A constraint tree has four kinds of node, each operator kept as
written: ``Not(child)``; ``Connective(left, op, right)`` for ``&&``, ``||``
and ``=>``; and two relations, ``Compare(param, op, value)`` for a
parameter against a value index and ``CompareParams(left, op, right)`` for
two parameters.  ``fold`` is the one walk over these trees: every pass
over a constraint combines it bottom-up through ``fold``.

An assignment is a tuple with one entry per parameter, where ``None``
marks an unspecified ("dash") position; an assignment with no ``None``
entries is a full test case.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Collection, Optional, Sequence, Union

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

class _Operator:
    """``==`` and ``hash`` over the flat post-order tokens (nested tuples would
    compare recursively), and the dataclass's ``repr``, all by ``fold`` and
    so for trees of any depth."""

    def _tokens(self) -> tuple:
        tokens: list = []
        fold(self, tokens.append, lambda x: tokens.append(Not),
             lambda op, a, b: tokens.append((Connective, op)))
        return tuple(tokens)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._tokens() == other._tokens() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tokens())

    def __repr__(self) -> str:
        # A node folds to the tuple of its text's parts, all joined at the end.
        stack = [fold(self, repr, lambda x: ("Not(child=", x, ")"), lambda op, a, b: (
            "Connective(left=", a, f", op={op!r}, right=", b, ")"))]
        text = []
        while stack:
            part = stack.pop()
            if isinstance(part, str):
                text.append(part)
            else:
                stack += reversed(part)
        return "".join(text)


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Operator):
    child: "ConstraintExpr"


# Each connective as written in the source: its binding strength (higher
# binds tighter), right associativity and truth function (``a <= b`` is ``a => b``).
_CONNECTIVES = {"=>": (0, True, operator.le), "||": (1, False, operator.or_),
                "&&": (2, False, operator.and_)}
# ``!`` and then the relations bind tighter than every connective.
_PREC_NOT, _PREC_ATOM = 3, 4


@dataclass(frozen=True, eq=False, repr=False)
class Connective(_Operator):
    """``left op right`` with ``op`` one of ``&&``, ``||``, ``=>``."""
    left: "ConstraintExpr"
    op: str
    right: "ConstraintExpr"


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


@dataclass(frozen=True)
class CompareParams:
    """``left op right``: two parameters' value indices, ``op`` ``=`` or ``!=``."""
    left: int
    op: str
    right: int


ConstraintExpr = Union[Not, Connective, Compare, CompareParams]


def fold(expr: ConstraintExpr, relation: Callable, negation: Callable,
         connective: Callable) -> Any:
    """Combine ``expr`` bottom-up: ``relation(e)`` at each node that is
    neither ``Not`` nor ``Connective``, ``negation(x)`` at a ``Not`` and
    ``connective(op, left, right)`` at a ``Connective``, each given what
    its children combined to.  The left operand is finished before the
    right one starts, so ``relation`` meets the relations left to right."""
    # An explicit stack, no depth limit: (e, 0) enters e, (e, k) combines its k operands.
    stack: list[tuple[ConstraintExpr, int]] = [(expr, 0)]
    done: list = []
    while stack:
        e, operands = stack.pop()
        if operands == 1:
            done[-1] = negation(done[-1])
        elif operands == 2:
            done[-2:] = [connective(e.op, done[-2], done[-1])]
        elif isinstance(e, Not):
            stack += ((e, 1), (e.child, 0))
        elif isinstance(e, Connective):
            stack += ((e, 2), (e.right, 0), (e.left, 0))
        else:
            done.append(relation(e))
    return done[0]


def occurrences(expr: ConstraintExpr) -> list[int]:
    """Every parameter occurrence in ``expr``, left to right, with repeats."""
    found: list[int] = []
    fold(expr, lambda r: found.extend(
        (r.param,) if isinstance(r, Compare) else (r.left, r.right)),
        lambda x: None, lambda op, a, b: None)
    return found


def predicate(expr: ConstraintExpr) -> Callable[[Sequence[Optional[int]]], bool]:
    """``expr`` compiled once into a function that decides it on values
    fixing its parameters.  One ``fold`` lists its steps in post-order, and
    the function runs them over a stack of truth values, so no tree is too
    deep for it; both operands of every connective are evaluated."""
    steps: list[tuple[int, Callable, int, int]] = []
    fold(expr,
         lambda r: steps.append((0, _COMPARE[r.op], r.param, r.value) if isinstance(r, Compare)
                                else (1, _COMPARE[r.op], r.left, r.right)),
         lambda x: steps.append((2, operator.not_, 0, 0)),
         lambda op, a, b: steps.append((3, _CONNECTIVES[op][2], 0, 0)))
    program = tuple(steps)

    def holds(values: Sequence[Optional[int]]) -> bool:
        stack: list[bool] = []
        push = stack.append
        for kind, function, a, b in program:
            if kind == 0:    # parameter against a value
                push(function(values[a], b))
            elif kind == 1:  # parameter against a parameter
                push(function(values[a], values[b]))
            elif kind == 2:
                stack[-1] = not stack[-1]
            else:
                right = stack.pop()
                stack[-1] = function(stack[-1], right)
        return stack[0]
    return holds


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Parameter:
    """A named parameter and its value labels.  It owns the per-parameter
    rules: a non-empty name, a non-empty tuple of labels, no empty and no
    repeated label, no label ``-`` and no surrounding whitespace, since a
    suite CSV cell is read stripped and ``-`` is an unspecified value."""

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
        for text in (self.name, *self.domain):
            if text != text.strip():
                raise ModelError(f"parameter {self.name!r}: {text!r} has "
                                 "surrounding whitespace")
        if "-" in self.domain:
            raise ModelError(f"parameter {self.name!r} has the value label '-', "
                             "which suite CSV files reserve for an unspecified value")


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
            fold(c, self._check_relation, lambda x: None,
                 lambda op, a, b: _check_op(op, _CONNECTIVES, "unknown connective {!r}"))

    def _check_relation(self, r: Union[Compare, CompareParams]) -> None:
        if isinstance(r, Compare):
            self._check_param(r.param)
            _check_op(r.op, _COMPARE, "unknown comparator {!r}")
            if type(r.value) is not int or not 0 <= r.value < self.sizes[r.param]:
                raise ModelError(f"constraint references value {r.value!r} outside the "
                                 f"domain of {self.params[r.param].name!r}")
        elif isinstance(r, CompareParams):
            self._check_param(r.left)
            self._check_param(r.right)
            _check_op(r.op, _PARAM_COMPARE,
                      "comparator {!r} is not allowed between two parameters")
        else:
            raise ModelError(f"constraint {r!r} is not a constraint node")

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

    @cached_property
    def dropped(self) -> frozenset[int]:
        """The parameters that occur in no constraint: none changes validity."""
        return frozenset(range(self.n)).difference(*map(occurrences, self.constraints))


def eval_constraints(model: SutModel, t: Sequence[Optional[int]]) -> bool:
    """Decide whether the full test case ``t`` satisfies every constraint."""
    check_assignment(model, t)
    if None in t:
        raise ValueError("test case is not full: parameter "
                         f"{model.params[list(t).index(None)].name!r} is unspecified")
    return all(predicate(c)(t) for c in model.constraints)


def _check_op(op: object, table: Collection[str], message: str) -> None:
    # Not every object hashes, so a string is asked for before the lookup.
    if not isinstance(op, str) or op not in table:
        raise ModelError(message.format(op))


def check_assignment(model: SutModel, t: Sequence[Optional[int]]) -> None:
    """Raise ValueError unless ``t`` is a well-formed (possibly partial)
    assignment: each value ``None`` or an ``operator.index`` in range."""
    sizes = model.sizes
    if len(t) != len(sizes):
        raise ValueError(f"expected {len(sizes)} values, got {len(t)}")
    index = operator.index
    try:
        for param, v, s in zip(model.params, t, sizes):
            if v is not None and not 0 <= index(v) < s:
                break
        else:
            return
    except TypeError:
        pass
    # The loop stopped at the first bad value.
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
    """Render ``expr`` so that re-parsing it yields a structurally equal tree,
    or raise ``ModelError`` if none does: the parser reads ``x = y`` as a
    label ``y`` of ``x`` if ``x`` has one."""
    def relation(r: Union[Compare, CompareParams]) -> tuple[str, int]:
        if isinstance(r, Compare):
            left, right = model.params[r.param].name, model.params[r.param].domain[r.value]
        else:
            left, right = model.params[r.left].name, model.params[r.right].name
            if right in model.params[r.left].domain:
                raise ModelError(f"cannot write {left!r} {r.op} {right!r}: {right!r} "
                                 f"is also a label of {left!r}")
        return _quote(left) + " " + r.op + " " + _quote(right), _PREC_ATOM

    def connective(op: str, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
        # The operand on the side ``op`` associates to may bind as loosely
        # as ``op``; the other one needs parentheses if it does.
        prec, right_assoc, _ = _CONNECTIVES[op]
        return (_operand(left, prec + right_assoc) + " " + op + " "
                + _operand(right, prec + (not right_assoc)), prec)

    return fold(expr, relation, lambda x: ("!" + _operand(x, _PREC_NOT), _PREC_NOT),
                connective)[0]


def _operand(formatted: tuple[str, int], min_prec: int) -> str:
    """The text of a ``(text, prec)`` pair, in parentheses if looser than ``min_prec``."""
    text, prec = formatted
    return "(" + text + ")" if prec < min_prec else text


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "string" | "number" | "op" | "end"
    text: str
    line: int
    col: int


# A double-quoted string with backslash escapes: a token in a constraint,
# and a whole name or label on a parameter line.
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_STRING_RE = re.compile(_STRING)

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<string>{_STRING})
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+)
      | (?P<op>=>|!=|<=|>=|&&|\|\||[!=<>()])
    """,
    re.VERBOSE,
)


def _unquote(text: str) -> str:
    """``text`` stripped, and without its quotes and escapes if it is one
    quoted string."""
    text = text.strip()
    return re.sub(r'\\(.)', r'\1', text[1:-1]) if _STRING_RE.fullmatch(text) else text


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
                value = _unquote(value)
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
            prec, right_assoc, _ = _CONNECTIVES[tok.text]
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


# The text before a comment: '#' starts one outside a quoted string.
_CODE_RE = re.compile(rf'(?:{_STRING}|[^#])*')
# The name of a parameter line and each of its labels: one whole quoted
# string that runs to the separator, or else the text up to the next ':'
# or ',', so a stray quote reads as a plain character.
_NAME_RE = re.compile(rf'\s*({_STRING}(?=\s*:)|[^:]*)\s*:')
_LABEL_RE = re.compile(rf'(?:^|,)\s*({_STRING}(?=\s*(?:,|$))|[^,]*)')


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
        line = _CODE_RE.match(raw).group().strip()
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
            head = _NAME_RE.match(line)
            if head is None:
                raise ModelError("expected 'name: value, value, ...'", lineno)
            name, rest = _unquote(head[1]), line[head.end():]
            if name in names:
                raise ModelError(f"duplicate parameter {name!r}", lineno)
            labels = (tuple(_unquote(m[1]) for m in _LABEL_RE.finditer(rest))
                      if rest.strip() else ())
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
