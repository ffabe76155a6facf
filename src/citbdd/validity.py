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
  is valid.  Between passes it frees the nodes earlier passes rebuilt
  and ``g`` no longer reaches (``BddManager.compact``), so set-up leaves
  ``f``, ``g`` and at most a bounded amount of garbage in the store.

The check is ``handler.is_valid``, and each handler has one route through
it.  The oracle validates the assignment with ``check_assignment`` and
then decides it.  The conjunction handler keeps a cube table, the
``(variable, bit)`` literals of every value of every constrained
parameter: a check range checks each fixed value while it picks that
value's literals, range checks the dropped parameters, and only then
builds the cube bottom-up and conjoins it with ``f`` through
``BddManager._apply`` with the AND tag ``Op.AND.value``, the manager's one
binary-operator recursion, so it makes the same nodes and computed-table
entries as ``apply``.  Most checks repeat a cube seen before and end at
the computed-table entry for ``cube ∧ f``, the cross-operation memo of
Brace, Rudell and Bryant (DAC 1990), so the check's own overhead around
the AND is most of its cost.  The traversal
handler reads ``g`` as a multi-valued diagram: its constructor builds a
jump table per constrained parameter, from each node the walk can stand
on when it reaches the parameter's block of bits to the node each value's
codeword (and the all-ones codeword) leads to through the block, so a
check is one table step per constrained parameter, with the range check
of the value in the same step, and no bit vector.  A value is ``None``
or an index into its parameter's domain, an index being what
``operator.index`` accepts (``True`` is 1, ``1.0`` is no index).  In both
BDD handlers a value that breaks this rule or a wrong length goes to
``check_assignment``, so every handler rejects bad input with the same
message, and no node is made for a rejected assignment.  Per-model tables
are built in the handler's constructor and live as long as the handler.

All handlers agree on every assignment; the traversal handler trades a more
expensive setup (one ``extend_dash`` pass per parameter, then the jump
table) for the cheapest per-check cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .bdd import FALSE, TRUE, BddManager, Op
from .encode import (
    CompiledConstraints, Encoding, EncodingMode,
    compile_constraints, make_encoding,
)
from .model import SutModel, check_assignment, evaluate, occurrences


HANDLER_ORACLE = "oracle"
HANDLER_AND = "bdd-and"
HANDLER_PARTIAL_UP = "bdd-partial-up"
HANDLER_PARTIAL_DOWN = "bdd-partial-down"
HANDLER_KINDS = (HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN, HANDLER_ORACLE)

# Garbage ``build_partial_bdd`` lets through between two collections on top
# of twice the survivors: the builds of small models never collect.
COLLECT_FLOOR = 16384


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

    name = HANDLER_ORACLE

    def __init__(self, model: SutModel):
        self.model = model
        # Parameters of each constraint, and the constraints of each parameter.
        self._param_sets = tuple(frozenset(occurrences(c)) for c in model.constraints)
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
            if rem == 0 and not evaluate(model.constraints[ci], values):
                return False
        unfixed = sorted(p for p in self._constrained if values[p] is None)
        return self._extends(0, unfixed, values, remaining)

    # A method with its state passed in, not a nested closure: a closure
    # that calls itself is a reference cycle left to the cycle collector.
    def _extends(self, k: int, unfixed: list[int], values: list[Optional[int]],
                 remaining: list[int]) -> bool:
        """True iff ``values`` extends to a valid test case over
        ``unfixed[k:]``; ``remaining[ci]`` counts constraint ``ci``'s unfixed
        parameters."""
        if k == len(unfixed):
            return True
        constraints = self.model.constraints
        p = unfixed[k]
        touched = self._by_param[p]
        for v in range(self.model.sizes[p]):
            values[p] = v
            ok = True
            for ci in touched:
                remaining[ci] -= 1
            for ci in touched:
                if remaining[ci] == 0 and not evaluate(constraints[ci], values):
                    ok = False
                    break
            if ok and self._extends(k + 1, unfixed, values, remaining):
                return True
            for ci in touched:
                remaining[ci] += 1
        values[p] = None
        return False


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
    the cube bottom-up and conjoins it with ``f`` by ``BddManager._apply``
    under the AND tag.
    """

    name = HANDLER_AND

    def __init__(self, cc: CompiledConstraints):
        enc = cc.encoding
        if enc.mode is not EncodingMode.FULL:
            raise ValueError("conjunction checking expects the FULL encoding")
        self.cc = cc
        self.dropped = enc.dropped
        sizes = cc.model.sizes
        self._n = len(sizes)
        # ``past[v]`` is False for every index of a dropped parameter's
        # domain, and raises for one past its end or for a non-index.
        self._dropped = tuple((p, (False,) * sizes[p]) for p in sorted(enc.dropped))
        self._and_tag = Op.AND.value
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
        # A non-index raises TypeError or IndexError: check_assignment names it.
        try:
            for p, size, codes in self._cubes:
                v = assignment[p]
                if v is not None:
                    if not 0 <= v < size:
                        check_assignment(cc.model, assignment)
                    picked.append(codes[v])
            for p, past in self._dropped:
                v = assignment[p]
                if v is not None and (v < 0 or past[v]):
                    check_assignment(cc.model, assignment)
        except (TypeError, IndexError):
            check_assignment(cc.model, assignment)
            raise
        # Every value has passed, so only now is a node made.
        mgr = cc.manager
        mk = mgr._mk
        cube = TRUE
        for code in picked:
            for var, bit in reversed(code):
                cube = mk(var, FALSE, cube) if bit else mk(var, cube, FALSE)
        return mgr._apply(self._and_tag, cube, cc.f) != FALSE


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

    A pass leaves the nodes it rebuilt behind as garbage.  The build
    therefore frees its own: once the nodes made since the last collection
    outnumber twice the survivors plus ``COLLECT_FLOOR``, it keeps only
    what ``g`` reaches among the nodes it made (``BddManager.compact``).
    Nodes made before the build, ``cc.f`` among them, keep their handles,
    and a build that makes few nodes never collects.
    """
    if cc.encoding.mode is not EncodingMode.WITH_DASH:
        raise ValueError("the partial-test-case BDD needs the WITH_DASH encoding")
    mgr = cc.manager
    enc = cc.encoding
    positions = range(len(enc.order))
    if quant_order is QuantOrder.UP:
        positions = reversed(positions)
    start = mgr.node_count  # nodes made before the passes
    kept = start  # nodes left by the last collection
    g = cc.f
    for pos in positions:
        g = mgr.extend_dash(enc.offsets[pos], enc.widths[pos], g)
        if mgr.node_count - kept > 2 * (kept - start) + COLLECT_FLOOR:
            # Handles 0 and 1 are the terminals, so the passes' first node
            # is ``start + 2``; ``cc.f`` lies below it and needs no root.
            g = mgr.compact(start + 2, (g,))[0]
            kept = mgr.node_count
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
        self.name = (HANDLER_PARTIAL_UP if pb.quant_order is QuantOrder.UP
                     else HANDLER_PARTIAL_DOWN)
        sizes = pb.model.sizes
        self._n = len(sizes)
        self._dropped = tuple((p, (False,) * sizes[p]) for p in sorted(enc.dropped))
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
        # No early exit at FALSE: every value must still be checked.  A bad
        # one (a negative one too, which a tuple index would wrap, or one
        # that raises as no index) goes to check_assignment for its message.
        try:
            for p, size, table in self._steps:
                v = assignment[p]
                vals, dash = table[node]
                if v is None:
                    node = dash
                elif 0 <= v < size:
                    node = vals[v]
                else:
                    check_assignment(self.pb.model, assignment)
            for p, past in self._dropped:
                v = assignment[p]
                if v is not None and (v < 0 or past[v]):
                    check_assignment(self.pb.model, assignment)
        except (TypeError, IndexError):
            check_assignment(self.pb.model, assignment)
            raise
        return node == TRUE


# ---------------------------------------------------------------------------
# Handler factory
# ---------------------------------------------------------------------------

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
