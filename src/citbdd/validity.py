"""Validity checking: is a full or partial test case extendable to a test
case satisfying all constraints?

Three interchangeable handlers implement the same contract:

* ``OracleHandler``: exhaustive search over completions (the reference);
* ``ConjunctionHandler``: conjoins the cube of the fixed values with the
  compiled constraint BDD and tests the result for constant falsehood;
* ``TraversalHandler``: walks a precomputed BDD that accepts every valid
  full *and* partial test case, with unspecified values encoded as the
  all-ones codeword, so each check is a single root-to-terminal traversal.
  ``build_partial_bdd`` builds that BDD from the compiled constraints by
  one fused pass per parameter (``BddManager.extend_dash``), which adds
  the parameter's all-ones codeword wherever some value of the parameter
  is valid.

The check is ``handler.is_valid``, and each handler has one route through
it.  The oracle validates the assignment with ``check_assignment`` and
then decides it.  The conjunction handler keeps a cube table, the
``(variable, bit)`` literals of every value of every constrained
parameter: a check range checks each fixed value while it picks that
value's literals, range checks the dropped parameters, and only then
builds the cube bottom-up and conjoins it with ``f`` through
``BddManager._and``, the manager's one AND recursion, so it makes the
same nodes and computed-table entries as ``apply``.  Most checks repeat a
cube seen before and end at the computed-table entry for ``cube ∧ f``,
the cross-operation memo of Brace, Rudell and Bryant (DAC 1990), so the
check's own overhead around the AND is most of its cost.  The traversal
handler reads ``g`` as a multi-valued diagram: its constructor builds a
jump table per constrained parameter, from each node the walk can stand
on when it reaches the parameter's block of bits to the node each value's
codeword (and the all-ones codeword) leads to through the block, so a
check is one table step per constrained parameter, with the range check
of the value in the same step, and no bit vector.  In both BDD handlers
an out-of-range value or a wrong length goes to ``check_assignment``, so
every handler rejects bad input with the same message, and no node is
made for a rejected assignment.  Per-model tables are built in the
handler's constructor and live as long as the handler.

All handlers agree on every assignment; the traversal handler trades a more
expensive setup (one ``extend_dash`` pass per parameter, then the jump
table) for the cheapest per-check cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .bdd import FALSE, TRUE, BddManager
from .encode import (
    CompiledConstraints, Encoding, EncodingMode,
    compile_constraints, make_encoding,
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
    unless the conjunction is constant false.

    The constructor keeps one entry per constrained parameter, bottom-most
    first: ``(p, size, codes)``, where ``codes[v]`` holds value ``v``'s
    ``(variable, bit)`` literals, lowest variable first.  A check picks the
    fixed values' literals in one pass, range checking each value, builds
    the cube bottom-up and conjoins it with ``f`` by ``BddManager._and``.
    """

    name = "bdd-and"

    def __init__(self, cc: CompiledConstraints):
        enc = cc.encoding
        if enc.mode is not EncodingMode.FULL:
            raise ValueError("conjunction checking expects the FULL encoding")
        self.cc = cc
        self.dropped = enc.dropped
        sizes = cc.model.sizes
        self._n = len(sizes)
        self._dropped_sizes = tuple((p, sizes[p]) for p in sorted(enc.dropped))
        self._cubes = tuple(
            (p, size, tuple(tuple((first + j, (v >> j) & 1) for j in range(width))
                            for v in range(size)))
            for p, size, first, width
            in reversed(tuple(zip(enc.order, enc.sizes, enc.offsets, enc.widths))))

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        cc = self.cc
        if len(assignment) != self._n:
            check_assignment(cc.model, assignment)
        picked = []
        for p, size, codes in self._cubes:
            v = assignment[p]
            if v is not None:
                if not 0 <= v < size:
                    check_assignment(cc.model, assignment)
                picked.append(codes[v])
        for p, size in self._dropped_sizes:
            v = assignment[p]
            if v is not None and not 0 <= v < size:
                check_assignment(cc.model, assignment)
        # Every value has passed, so only now is a node made.
        mgr = cc.manager
        mk = mgr._mk
        cube = TRUE
        for code in picked:
            for var, bit in reversed(code):
                cube = mk(var, FALSE, cube) if bit else mk(var, cube, FALSE)
        return mgr._and(cube, cc.f) != FALSE


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

    One ``BddManager.extend_dash`` pass per parameter turns the function
    built so far, ``g``, into ``g ∨ (C ∧ ∃C. g)``, where ``C`` is the
    all-ones cube on the parameter's bits (the parameter unspecified).
    Each pass rebuilds the nodes above the parameter's bits, copies the
    all-ones path through them with its end redirected to the quantified
    function, and keeps everything below.  ``quant_order`` picks whether
    the passes run from the root-most parameter down or from the
    terminal-most parameter up; both orders produce the same canonical
    function, but the cost of the passes can differ.

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
        g = mgr.extend_dash(enc.offsets[pos], enc.widths[pos], g)
    return PartialValidityBdd(manager=mgr, g=g, encoding=enc,
                              quant_order=quant_order, model=cc.model)


class TraversalHandler(ValidityHandler):
    """Validity by one root-to-terminal walk of the partial-test-case BDD,
    taken one parameter at a time; no BDD is constructed.

    The constructor reads ``g`` as a multi-valued decision diagram: for
    each constrained parameter, in level order, a jump table maps every
    node the walk can stand on when it reaches the parameter's block of
    bits (terminals included) to ``(vals, dash)``, the nodes reached by
    following value ``v``'s codeword (``vals[v]``) and the all-ones
    codeword (``dash``) through the block.  A check is then one table step
    per constrained parameter, with no bit vector.
    """

    def __init__(self, pb: PartialValidityBdd):
        self.pb = pb
        enc = pb.encoding
        self.dropped = enc.dropped
        self.name = ("bdd-partial-up" if pb.quant_order is QuantOrder.UP
                     else "bdd-partial-down")
        sizes = pb.model.sizes
        self._n = len(sizes)
        self._dropped_sizes = tuple((p, sizes[p]) for p in sorted(enc.dropped))
        mgr = pb.manager
        steps = []
        nodes = [pb.g]  # where the walk can stand at the next block
        for p, size, first, width in zip(enc.order, enc.sizes, enc.offsets, enc.widths):
            table = {node: (ends[:size], ends[-1]) for node, ends
                     in zip(nodes, mgr.block_cofactors(nodes, first, width))}
            steps.append((p, size, table))
            nodes = list({nxt for vals, dash in table.values() for nxt in (*vals, dash)})
        self._steps = tuple(steps)

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        if len(assignment) != self._n:
            check_assignment(self.pb.model, assignment)
        node = self.pb.g
        # No early exit at FALSE: every value must still be range checked,
        # and an out-of-range one (negative ones too, which a tuple index
        # would wrap) hands over to check_assignment for its message.
        for p, size, table in self._steps:
            v = assignment[p]
            vals, dash = table[node]
            if v is None:
                node = dash
            elif 0 <= v < size:
                node = vals[v]
            else:
                check_assignment(self.pb.model, assignment)
        for p, size in self._dropped_sizes:
            v = assignment[p]
            if v is not None and not 0 <= v < size:
                check_assignment(self.pb.model, assignment)
        return node == TRUE


# ---------------------------------------------------------------------------
# Handler factory
# ---------------------------------------------------------------------------

HANDLER_ORACLE = "oracle"
HANDLER_AND = "bdd-and"
HANDLER_PARTIAL_UP = "bdd-partial-up"
HANDLER_PARTIAL_DOWN = "bdd-partial-down"
HANDLER_KINDS = (HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN, HANDLER_ORACLE)


def build_handler(model: SutModel, kind: str) -> ValidityHandler:
    """Construct a validity handler of the given kind for ``model``."""
    if kind == HANDLER_ORACLE:
        return OracleHandler(model)
    if kind == HANDLER_AND:
        enc = make_encoding(model, EncodingMode.FULL)
        mgr = BddManager(enc.total_bits)
        return ConjunctionHandler(compile_constraints(model, enc, mgr))
    if kind in (HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN):
        enc = make_encoding(model, EncodingMode.WITH_DASH)
        mgr = BddManager(enc.total_bits)
        cc = compile_constraints(model, enc, mgr)
        order = QuantOrder.UP if kind == HANDLER_PARTIAL_UP else QuantOrder.DOWN
        return TraversalHandler(build_partial_bdd(cc, order))
    raise ValueError(f"unknown handler kind {kind!r}; expected one of {HANDLER_KINDS}")
