"""Validity checking: is a full or partial test case extendable to a test
case satisfying all constraints?

Three interchangeable handlers implement the same contract:

* ``OracleHandler``: backtracking search over completions (the reference);
* ``ConjunctionHandler``: conjoins the cube of the fixed values with the
  compiled constraint BDD and tests the result for constant falsehood;
* ``TraversalHandler``: walks a precomputed BDD that accepts every valid
  full *and* partial test case, with unspecified values encoded as the
  all-ones codeword, so each check is a single root-to-terminal traversal.
  ``build_partial_bdd`` builds that BDD from the compiled constraints by
  one fused pass per parameter (``BddManager.extend_dash``), which adds
  the parameter's all-ones codeword wherever some value of the parameter
  is valid.  After each pass it frees the nodes earlier passes rebuilt
  and ``g`` no longer reaches, under ``BddManager.collect``'s rule, so
  set-up leaves ``f``, ``g`` and at most a bounded amount of garbage in
  the store.

The check is ``handler.is_valid``, and each handler has one route through
it.  The oracle validates the assignment with ``check_assignment`` and
then decides it by one backtracking loop, checking each constraint, by a
predicate compiled once (``model.predicate``), when its last parameter
is fixed.  Both BDD handlers read the bit layout from
``Encoding.codes`` alone.  The conjunction handler keeps the codes as its
cube table and decides each distinct check once: a check picks the fixed
values' numbers, and returns the memoized answer when the same fixed
constrained values were checked before (84% of synth20's checks at t=3).
Otherwise it builds the cube and conjoins it with ``f`` through
``BddManager._apply``, the manager's one binary-operator recursion, so it
makes the same nodes and computed-table entries as ``apply``.  A repeat
would have made nothing: it would have found its cube in the unique table
and ended at the computed-table entry for ``cube ∧ f``, the
cross-operation memo of Brace, Rudell and Bryant (DAC 1990).  So the
nodes and entries the checks leave are freed under
``BddManager.collect``'s rule, with ``AND_STORE_LIMIT`` as its floor, and
the store stays bounded however many checks a run makes.  The traversal
handler reads ``g`` as a multi-valued diagram (Srinivasan, Kam, Malik and
Brayton, ICCAD 1990): its constructor follows the codes into a dense
jump table per constrained parameter and keeps only those tables, so the
set-up manager is freed when the constructor returns, and a check is one
table step per constrained parameter.  A value is ``None`` or an index into its
parameter's domain, an index being what ``operator.index`` accepts
(``True`` is 1, ``1.0`` is no index).  Both BDD handlers range check each
value in the step that uses it, and send a value that breaks this rule
or a wrong length to ``check_assignment``, so every handler rejects bad
input with the same message, and no node is made for a rejected
assignment.

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
from .model import SutModel, check_assignment, occurrences, predicate


HANDLER_ORACLE = "oracle"
HANDLER_AND = "bdd-and"
HANDLER_PARTIAL_UP = "bdd-partial-up"
HANDLER_PARTIAL_DOWN = "bdd-partial-down"
HANDLER_KINDS = (HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN, HANDLER_ORACLE)

# ``BddManager.collect``'s floor for the conjunction checks, which keep no
# survivors: nodes they may make after the handler is built before the next
# check that misses its memo frees them.  synth20 at t=3 ends its run with
# 40,738 nodes in the store and never collects.
AND_STORE_LIMIT = 1 << 16


class ValidityHandler(ABC):
    """Decides validity of assignments for one model."""

    name: str
    dropped: frozenset[int]  # ``SutModel.dropped``; read only by perfbench/tracing.py

    @abstractmethod
    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        """True iff the assignment extends to a constraint-satisfying test case."""


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

class OracleHandler(ValidityHandler):
    """Reference validity check by chronological backtracking over completions.

    Only parameters occurring in constraints are branched on (values of the
    others cannot influence any constraint), in index order.  Each
    constraint is checked each time its last unfixed parameter takes a
    value, so a branch ends at the first constraint it breaks.  One loop
    counts the values tried per depth, so no recursion limit bounds the
    search.  Worst-case cost is exponential in the number of unspecified
    constrained parameters; intended for small models and as the reference
    the other handlers are tested against.
    """

    name = HANDLER_ORACLE

    def __init__(self, model: SutModel):
        self.model = model
        self.dropped = model.dropped
        self._constraints = tuple((frozenset(occurrences(c)), predicate(c))
                                  for c in model.constraints)
        self._constrained = [p for p in range(model.n) if p not in model.dropped]

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        check_assignment(self.model, assignment)
        values: list[Optional[int]] = list(assignment)
        unfixed = [p for p in self._constrained if values[p] is None]
        depth = [0] * len(values)  # k + 1 for ``unfixed[k]``, else 0
        for k, p in enumerate(unfixed, 1):
            depth[p] = k
        # ``due[k + 1]`` holds the constraints to check once ``unfixed[k]``
        # has a value, ``due[0]`` those with every parameter fixed already.
        due: list[list] = [[] for _ in range(len(unfixed) + 1)]
        for params, holds in self._constraints:
            due[max(depth[p] for p in params)].append(holds)
        if not all(holds(values) for holds in due[0]):
            return False
        sizes = self.model.sizes
        tried = [0] * len(unfixed)
        k = 0
        while 0 <= k < len(unfixed):
            p = unfixed[k]
            v = tried[k]
            if v == sizes[p]:  # no value left to try: back up one level
                tried[k] = 0
                k -= 1
            else:
                tried[k] = v + 1
                values[p] = v
                for holds in due[k + 1]:
                    if not holds(values):
                        break
                else:
                    k += 1
        return k == len(unfixed)


# ---------------------------------------------------------------------------
# Conjunction check against the compiled constraint BDD
# ---------------------------------------------------------------------------

class ConjunctionHandler(ValidityHandler):
    """Validity via conjunction: the cube of the fixed constrained values is
    ANDed with the compiled constraint function; the assignment is valid
    unless the conjunction is constant false.

    The constructor numbers every value of every constrained parameter and
    keeps one entry per constrained parameter, bottom-most first:
    ``(p, size, numbers)``, ``numbers[v]`` indexing ``_literals``, which
    holds value ``v``'s ``Encoding.codes`` literals highest variable first.
    A check takes the fixed values' numbers in one pass, range checking
    each value, so the tuple of numbers names the fixed constrained values
    and nothing else.  A check whose tuple was answered before returns the
    memoized answer.  Any other builds the cube bottom-up and conjoins it
    with ``f`` by ``BddManager._apply`` under the AND tag.

    A memo hit cannot change the store: between two collections, repeating
    the check would find every cube node in the unique table and the
    ``(and, cube, f)`` entry in the computed table, and make nothing.  The
    nodes and entries the checks leave only speed up later misses, so a
    miss first offers them all to ``BddManager.collect`` with no roots and
    ``AND_STORE_LIMIT`` as the floor.  ``f`` and every node made before
    the handler keep their handles; a node made in ``cc.manager`` after it
    belongs to the handler.
    """

    name = HANDLER_AND

    def __init__(self, cc: CompiledConstraints):
        enc = cc.encoding
        if enc.mode is not EncodingMode.FULL:
            raise ValueError("conjunction checking expects the FULL encoding")
        self.cc = cc
        self.dropped = cc.model.dropped
        self._n = cc.model.n
        # ``past[v]`` is False for every index of a dropped parameter's
        # domain, and raises for one past its end or for a non-index.
        self._dropped = tuple((p, (False,) * cc.model.sizes[p]) for p in sorted(self.dropped))
        self._and_tag = Op.AND.value
        steps = []
        literals = []
        for p, size, codes in reversed(tuple(zip(enc.order, enc.sizes, enc.codes))):
            steps.append((p, size, tuple(range(len(literals), len(literals) + size))))
            literals += (tuple(reversed(code)) for code in codes)
        self._steps = tuple(steps)
        self._literals = tuple(literals)
        self._answers: dict[tuple[int, ...], bool] = {}
        # The first handle a check can make.
        self._base = cc.manager.node_count + 2

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        cc = self.cc
        if len(assignment) != self._n:
            check_assignment(cc.model, assignment)
        picked = []
        # A non-index raises TypeError or IndexError: check_assignment names it.
        try:
            for p, size, numbers in self._steps:
                v = assignment[p]
                if v is not None:
                    if not 0 <= v < size:
                        check_assignment(cc.model, assignment)
                    picked.append(numbers[v])
            for p, past in self._dropped:
                v = assignment[p]
                if v is not None and (v < 0 or past[v]):
                    check_assignment(cc.model, assignment)
        except (TypeError, IndexError):
            check_assignment(cc.model, assignment)
            raise
        # Every value has passed, so only now is the memo read or a node made.
        key = tuple(picked)
        answer = self._answers.get(key)
        if answer is not None:
            return answer
        mgr = cc.manager
        mgr.collect(self._base, (), AND_STORE_LIMIT)
        mk = mgr._mk
        literals = self._literals
        cube = TRUE
        for number in key:
            for var, bit in literals[number]:
                cube = mk(var, FALSE, cube) if bit else mk(var, cube, FALSE)
        answer = self._answers[key] = mgr._apply(self._and_tag, cube, cc.f) != FALSE
        return answer


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
    therefore frees its own: after each pass it offers the nodes it made
    to ``BddManager.collect`` with ``g`` as the root.  Nodes made before
    the build, ``cc.f`` among them, keep their handles.
    """
    if cc.encoding.mode is not EncodingMode.WITH_DASH:
        raise ValueError("the partial-test-case BDD needs the WITH_DASH encoding")
    mgr = cc.manager
    enc = cc.encoding
    positions = range(len(enc.order))
    if quant_order is QuantOrder.UP:
        positions = reversed(positions)
    # The passes' first handle; ``cc.f`` lies below it and needs no root.
    base = mgr.node_count + 2
    g = cc.f
    for pos in positions:
        g = mgr.collect(base, (mgr.extend_dash(enc.offsets[pos], enc.widths[pos], g),))[0]
    return PartialValidityBdd(manager=mgr, g=g, encoding=enc,
                              quant_order=quant_order, model=cc.model)


class TraversalHandler(ValidityHandler):
    """Validity by one root-to-terminal walk of the partial-test-case BDD,
    read as a multi-valued decision diagram; no BDD is constructed.

    From each node the walk can stand on at a parameter's block of bits,
    the constructor follows each of the parameter's ``Encoding.codes``
    through the block, numbering the nodes reached from 0 in order of
    first reach.  A step is ``(p, size, rows)``: ``rows[node][v]`` is value
    ``v``'s next node and ``rows[node][size]`` the dash's.  Only the tables
    and the model are kept, not ``pb``, so the manager dies with set-up.
    """

    def __init__(self, pb: PartialValidityBdd):
        enc = pb.encoding
        self.model = pb.model
        self.dropped = pb.model.dropped
        self.name = (HANDLER_PARTIAL_UP if pb.quant_order is QuantOrder.UP
                     else HANDLER_PARTIAL_DOWN)
        self._n = pb.model.n
        self._dropped = tuple((p, (False,) * pb.model.sizes[p]) for p in sorted(self.dropped))
        level, low, high = pb.manager._level, pb.manager._low, pb.manager._high
        steps = []
        numbers = {pb.g: 0}  # where the walk can stand at the next block
        for p, size, codes in zip(enc.order, enc.sizes, enc.codes):
            reached: dict[int, int] = {}
            rows = []
            for node in numbers:  # in the order of their numbers
                row = []
                for code in codes:
                    end = node
                    for var, bit in code:
                        if level[end] == var:
                            end = high[end] if bit else low[end]
                    row.append(reached.setdefault(end, len(reached)))
                rows.append(tuple(row))
            steps.append((p, size, tuple(rows)))
            numbers = reached
        self._steps = tuple(steps)
        # Every walk ends at a terminal; with none reaching TRUE, none accepts.
        self._accept = numbers.get(TRUE)

    def is_valid(self, assignment: Sequence[Optional[int]]) -> bool:
        if len(assignment) != self._n:
            check_assignment(self.model, assignment)
        node = 0
        # No early exit at FALSE: every value must still be checked.  A bad
        # one (a negative one too, which a tuple index would wrap, or one
        # that raises as no index) goes to check_assignment for its message.
        try:
            for p, size, rows in self._steps:
                v = assignment[p]
                if v is None:
                    node = rows[node][size]
                elif 0 <= v < size:
                    node = rows[node][v]
                else:
                    check_assignment(self.model, assignment)
            for p, past in self._dropped:
                v = assignment[p]
                if v is not None and (v < 0 or past[v]):
                    check_assignment(self.model, assignment)
        except (TypeError, IndexError):
            check_assignment(self.model, assignment)
            raise
        return node == self._accept


# ---------------------------------------------------------------------------
# Handler factory
# ---------------------------------------------------------------------------

def build_handler(model: SutModel, kind: str) -> ValidityHandler:
    """Construct a validity handler of the given kind for ``model``."""
    if kind == HANDLER_ORACLE:
        return OracleHandler(model)
    if kind == HANDLER_AND:
        enc = make_encoding(model, EncodingMode.FULL)
        return ConjunctionHandler(compile_constraints(model, enc, BddManager(enc.total_bits)))
    if kind in (HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN):
        enc = make_encoding(model, EncodingMode.WITH_DASH)
        cc = compile_constraints(model, enc, BddManager(enc.total_bits))
        order = QuantOrder.UP if kind == HANDLER_PARTIAL_UP else QuantOrder.DOWN
        return TraversalHandler(build_partial_bdd(cc, order))
    raise ValueError(f"unknown handler kind {kind!r}; expected one of {HANDLER_KINDS}")
