"""Validity checking: is a full or partial test case extendable to a test
case satisfying all constraints?

Three interchangeable handlers implement the same contract:

* ``OracleHandler``: exhaustive search over completions (the reference);
* ``ConjunctionHandler``: conjoins the cube of the fixed values with the
  compiled constraint BDD and tests the result for constant falsehood;
* ``TraversalHandler``: walks a precomputed BDD that accepts every valid
  full *and* partial test case, with unspecified values encoded as the
  all-ones codeword, so each check is a single root-to-terminal traversal.

The check is ``handler.is_valid``: each handler validates the assignment
against the model and then decides it by its one route.  Per-model tables
are built in the handler's constructor and live as long as the handler.

All handlers agree on every assignment; the traversal handler trades a more
expensive setup (an existential-quantification pass per parameter) for the
cheapest possible per-check cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .bdd import BddManager, Op
from .encode import (
    CompiledConstraints, Encoding, EncodingMode,
    compile_constraints, encode_full, make_encoding,
)
from .model import SutModel, check_assignment, referenced_params


class ValidityHandler(ABC):
    """Decides validity of assignments for one model."""

    name: str
    dropped: frozenset[int]  # parameters that occur in no constraint

    @abstractmethod
    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        """True iff the assignment extends to a constraint-satisfying test case."""


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

class OracleHandler(ValidityHandler):
    """Reference validity check by depth-first search over completions.

    Only parameters occurring in constraints are branched on (values of the
    others cannot influence any constraint), and a branch is abandoned as
    soon as some constraint has all of its parameters fixed and evaluates
    false.  Worst-case cost is exponential in the number of unspecified
    constrained parameters; intended for small models and as the reference
    the other handlers are tested against.
    """

    name = "oracle"

    def __init__(self, model: SutModel):
        self.model = model
        # Parameters of each constraint, and the constraints of each parameter.
        self._param_sets = tuple(frozenset(referenced_params(c))
                                 for c in model.constraints)
        self._by_param: dict[int, list[int]] = {}
        for ci, ps in enumerate(self._param_sets):
            for p in ps:
                self._by_param.setdefault(p, []).append(ci)
        self._constrained = frozenset().union(*self._param_sets)
        self.dropped = frozenset(range(model.n)) - self._constrained

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        model = self.model
        check_assignment(model, assignment)
        values: list[Optional[int]] = list(assignment)
        remaining = [sum(1 for p in ps if values[p] is None)
                     for ps in self._param_sets]
        for ci, rem in enumerate(remaining):
            if rem == 0 and not model.constraints[ci].evaluate(values):
                return False
        unfixed = sorted(p for p in self._constrained if values[p] is None)
        sizes = model.sizes
        by_param = self._by_param

        def dfs(k: int) -> bool:
            if k == len(unfixed):
                return True
            p = unfixed[k]
            touched = by_param[p]
            for v in range(sizes[p]):
                values[p] = v
                ok = True
                for ci in touched:
                    remaining[ci] -= 1
                for ci in touched:
                    if remaining[ci] == 0 and not model.constraints[ci].evaluate(values):
                        ok = False
                        break
                if ok and dfs(k + 1):
                    return True
                for ci in touched:
                    remaining[ci] += 1
            values[p] = None
            return False

        return dfs(0)


# ---------------------------------------------------------------------------
# Conjunction check against the compiled constraint BDD
# ---------------------------------------------------------------------------

class ConjunctionHandler(ValidityHandler):
    """Validity via conjunction: the cube of the fixed constrained values is
    ANDed with the compiled constraint function; the assignment is valid
    unless the conjunction is constant false."""

    name = "bdd-and"

    def __init__(self, cc: CompiledConstraints):
        if cc.encoding.mode is not EncodingMode.FULL:
            raise ValueError("conjunction checking expects the FULL encoding")
        self.cc = cc
        self.dropped = cc.encoding.dropped

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        cc = self.cc
        check_assignment(cc.model, assignment)
        enc = cc.encoding
        mgr = cc.manager
        literals: list[tuple[int, int]] = []
        for param, width, offset in zip(enc.order, enc.widths, enc.offsets):
            v = assignment[param]
            if v is None:
                continue
            literals.extend((offset + j, (v >> j) & 1) for j in range(width))
        if not literals:
            # Nothing constrained is fixed: valid exactly when any valid test
            # case exists at all.
            return not mgr.is_false(cc.f)
        cube = mgr.make_assignment_cube(literals)
        return not mgr.is_false(mgr.apply(Op.AND, cube, cc.f))


# ---------------------------------------------------------------------------
# Traversal of the partial-test-case BDD
# ---------------------------------------------------------------------------

class QuantOrder(Enum):
    DOWN = "down"  # parameters nearest the root first
    UP = "up"      # parameters nearest the terminals first


@dataclass
class PartialValidityBdd:
    manager: BddManager
    g: int  # accepts exactly the encodings of valid full and partial test cases
    encoding: Encoding
    quant_order: QuantOrder
    model: SutModel


def build_partial_bdd(cc: CompiledConstraints,
                      quant_order: QuantOrder = QuantOrder.UP) -> PartialValidityBdd:
    """Extend the constraint BDD to accept valid partial test cases too.

    One pass per parameter: existentially quantify the parameter's variables
    out of the function built so far, conjoin the all-ones cube of those
    variables (marking the parameter unspecified), and OR the result back
    in.  ``quant_order`` picks whether the pass runs from the root-most
    parameter down or from the terminal-most parameter up; both orders
    produce the same canonical function, but the cost of the quantification
    steps can differ.

    Raises ResourceLimitError if the manager's node limit is exceeded.
    """
    if cc.encoding.mode is not EncodingMode.WITH_DASH:
        raise ValueError("the partial-test-case BDD needs the WITH_DASH encoding")
    mgr = cc.manager
    enc = cc.encoding
    positions = range(len(enc.order))
    if quant_order is QuantOrder.UP:
        positions = reversed(positions)
    g = cc.f
    for pos in positions:
        offset, width = enc.offsets[pos], enc.widths[pos]
        cube = mgr.make_cube(range(offset, offset + width))
        quantified = mgr.exists(cube, g)
        h = mgr.apply(Op.AND, quantified, cube)
        g = mgr.apply(Op.OR, g, h)
    return PartialValidityBdd(manager=mgr, g=g, encoding=enc,
                              quant_order=quant_order, model=cc.model)


class TraversalHandler(ValidityHandler):
    """Validity by one root-to-terminal walk of the partial-test-case BDD;
    no BDD is constructed."""

    def __init__(self, pb: PartialValidityBdd):
        self.pb = pb
        self.dropped = pb.encoding.dropped
        self.name = ("bdd-partial-up" if pb.quant_order is QuantOrder.UP
                     else "bdd-partial-down")

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        pb = self.pb
        check_assignment(pb.model, assignment)
        return pb.manager.eval(pb.g, encode_full(pb.encoding, assignment))


# ---------------------------------------------------------------------------
# Handler factory
# ---------------------------------------------------------------------------

HANDLER_ORACLE = "oracle"
HANDLER_AND = "bdd-and"
HANDLER_PARTIAL_UP = "bdd-partial-up"
HANDLER_PARTIAL_DOWN = "bdd-partial-down"
HANDLER_KINDS = (HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN, HANDLER_ORACLE)


def build_handler(model: SutModel, kind: str,
                  max_nodes: Optional[int] = None) -> ValidityHandler:
    """Construct a validity handler of the given kind for ``model``."""
    if kind == HANDLER_ORACLE:
        return OracleHandler(model)
    if kind == HANDLER_AND:
        enc = make_encoding(model, EncodingMode.FULL)
        mgr = BddManager(enc.total_bits, max_nodes=max_nodes)
        return ConjunctionHandler(compile_constraints(model, enc, mgr))
    if kind in (HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN):
        enc = make_encoding(model, EncodingMode.WITH_DASH)
        mgr = BddManager(enc.total_bits, max_nodes=max_nodes)
        cc = compile_constraints(model, enc, mgr)
        order = QuantOrder.UP if kind == HANDLER_PARTIAL_UP else QuantOrder.DOWN
        return TraversalHandler(build_partial_bdd(cc, order))
    raise ValueError(f"unknown handler kind {kind!r}; expected one of {HANDLER_KINDS}")
