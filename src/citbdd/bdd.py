"""A reduced ordered BDD engine with hash-consed node storage.

Boolean functions are identified by integer handles into a manager; the two
terminals are the module constants ``FALSE`` (0) and ``TRUE`` (1).  The
variable order is fixed when the manager is created: variable ``i`` sits at
level ``i`` and terminals sit at level ``var_count``.  Because every node is
hash-consed and the low==high reduction is applied on construction, two
handles are equal exactly when they denote the same Boolean function.

Handles are meaningful only for the manager that produced them.  Passing a
handle to a different manager raises ``BddError`` when it is out of range;
an in-range handle from another manager cannot be detected and the result
is undefined.  A manager is not thread safe; distinct managers are fully
independent.

Nodes are never freed one at a time.  ``compact`` frees, between
operations, every node made since a given handle that given roots do not
reach; handles below that one are untouched, and the roots get new ones.
``collect`` is the one rule that decides when the package calls it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence

FALSE = 0
TRUE = 1

# Garbage ``collect`` lets through on top of twice the survivors: the
# set-up of small models never collects.
COLLECT_FLOOR = 16384


class Op(Enum):
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "implies"


class BddError(Exception):
    """Misuse of the engine: bad handles, bad cubes, bad variable indices."""


class BddManager:
    def __init__(self, var_count: int):
        if var_count < 0:
            raise ValueError("var_count must be >= 0")
        self.var_count = var_count
        # Parallel arrays indexed by handle; entries 0/1 are the terminals.
        self._level = [var_count, var_count]
        self._low = [FALSE, TRUE]
        self._high = [FALSE, TRUE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        # The store's length after the last ``compact``: ``collect`` counts
        # the survivors up to it.
        self._kept = 2

    # -- node construction -------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def mk_var(self, i: int) -> int:
        """The function of the single variable ``x_i``."""
        if not 0 <= i < self.var_count:
            raise BddError(f"variable index {i} out of range (manager has "
                           f"{self.var_count} variables)")
        return self._mk(i, FALSE, TRUE)

    def make_cube(self, variables: Iterable[int]) -> int:
        """Conjunction of positive literals over the given variable indices."""
        return self.make_assignment_cube((i, 1) for i in set(variables))

    def make_assignment_cube(self, literals: Iterable[tuple[int, int]]) -> int:
        """Conjunction of literals given as (variable, bit) pairs."""
        node = TRUE
        last = None
        for i, bit in sorted(literals, reverse=True):
            if not 0 <= i < self.var_count:
                raise BddError(f"variable index {i} out of range")
            if i == last:
                raise BddError(f"duplicate literal for variable {i}")
            last = i
            node = self._mk(i, FALSE, node) if bit else self._mk(i, node, FALSE)
        return node

    # -- core operations ----------------------------------------------------

    def _check(self, ref: int) -> None:
        if not isinstance(ref, int) or not 0 <= ref < len(self._level):
            raise BddError(f"unknown node handle {ref!r} (foreign or stale?)")

    def apply(self, op: Op, a: int, b: int) -> int:
        """The function ``a <op> b``, reduced and canonical."""
        self._check(a)
        self._check(b)
        if not isinstance(op, Op):
            raise BddError(f"unknown operator {op!r}")
        return self._apply(op.value, a, b)

    def _apply(self, op: str, a: int, b: int) -> int:
        """``a <op> b`` for ``op`` an ``Op`` value string, the one recursion
        of every binary operator (Bryant, IEEE TC 1986): the terminal cases,
        then one ``(op, a, b)`` computed-table entry, with the operands in
        ascending order for the commutative operators, and the low child
        expanded before the high one."""
        if op == "and":
            if a > b:
                a, b = b, a
            # With a <= b, a FALSE operand is a, and a TRUE one is a unless both are.
            if a == FALSE:
                return FALSE
            if a == TRUE or a == b:
                return b
        elif op == "or":
            if a > b:
                a, b = b, a
            if a == TRUE:
                return TRUE
            if a == FALSE or a == b:
                return b
        elif op == "xor":
            if a > b:
                a, b = b, a
            if a == b:
                return FALSE
            if a == FALSE:
                return b
            if a == TRUE:
                return self._negate(b)
        else:  # "implies"
            if a == FALSE or b == TRUE:
                return TRUE
            if a == TRUE:
                return b
            if b == FALSE:
                return self._negate(a)
            if a == b:
                return TRUE
        # Keys of str and int only: the garbage collector untracks them, so
        # full collections do not walk the cache, and hashing them runs
        # no Python code (an Op member would be hashed by Enum.__hash__).
        key = (op, a, b)
        res = self._cache.get(key)
        if res is not None:
            return res
        la, lb = self._level[a], self._level[b]
        if la == lb:
            res = self._mk(la, self._apply(op, self._low[a], self._low[b]),
                           self._apply(op, self._high[a], self._high[b]))
        elif la < lb:
            res = self._mk(la, self._apply(op, self._low[a], b),
                           self._apply(op, self._high[a], b))
        else:
            res = self._mk(lb, self._apply(op, a, self._low[b]),
                           self._apply(op, a, self._high[b]))
        self._cache[key] = res
        return res

    def negate(self, a: int) -> int:
        """The complement of ``a`` (the terminals of ``a`` swapped)."""
        self._check(a)
        return self._negate(a)

    def _negate(self, a: int) -> int:
        if a <= TRUE:
            return TRUE - a
        cache, levels, low, high = self._cache, self._level, self._low, self._high
        # Post-order over an explicit stack: a node is negated once both of
        # its children are, the low child first, so the nodes and the
        # ("not", a) entries come in the order a recursion would make them,
        # and no recursion depth grows with ``var_count``.
        stack = [a]
        while stack:
            node = stack[-1]
            if ("not", node) in cache:
                stack.pop()
                continue
            lo, hi = low[node], high[node]
            not_lo = TRUE - lo if lo <= TRUE else cache.get(("not", lo))
            if not_lo is None:
                stack.append(lo)
                continue
            not_hi = TRUE - hi if hi <= TRUE else cache.get(("not", hi))
            if not_hi is None:
                stack.append(hi)
                continue
            stack.pop()
            cache[("not", node)] = self._mk(levels[node], not_lo, not_hi)
        return cache[("not", a)]

    def exists(self, cube: int, f: int) -> int:
        """Existentially quantify the variables of ``cube`` out of ``f``.

        ``cube`` must be a conjunction of positive literals; the result does
        not depend on the order in which the variables are eliminated.
        """
        self._check(cube)
        self._check(f)
        node = cube
        while node > TRUE:
            if self._low[node] != FALSE:
                raise BddError("cube must be a conjunction of positive literals")
            node = self._high[node]
        if node != TRUE:
            raise BddError("cube must be a conjunction of positive literals")
        return self._exists(cube, f)

    def _exists(self, cube: int, f: int) -> int:
        if f <= TRUE or cube == TRUE:
            return f
        flevel = self._level[f]
        while cube > TRUE and self._level[cube] < flevel:
            cube = self._high[cube]
        if cube == TRUE:
            return f
        key = ("exists", cube, f)
        res = self._cache.get(key)
        if res is not None:
            return res
        lo = self._exists(cube, self._low[f])
        hi = self._exists(cube, self._high[f])
        if self._level[cube] == flevel:
            res = self._apply("or", lo, hi)
        else:
            res = self._mk(flevel, lo, hi)
        self._cache[key] = res
        return res

    def extend_dash(self, first: int, width: int, f: int) -> int:
        """``f ∨ (C ∧ ∃C. f)`` in one pass, where ``C`` is the all-ones cube
        on the contiguous variables ``first .. first + width - 1``.

        Nodes above the block are rebuilt from their extended children and
        nodes below it are kept.  Where an edge enters the block, the
        all-ones path through the block is copied with every other branch
        kept and its end redirected to ``∃C. u`` (on that path the result
        is ``u|ones ∨ ∃C. u``, which is ``∃C. u``).
        """
        self._check(f)
        if first < 0 or width < 0 or first + width > self.var_count:
            raise BddError(f"variable block {first}..{first + width - 1} out of "
                           f"range (manager has {self.var_count} variables)")
        cube = self.make_cube(range(first, first + width))
        return self._extend_dash(f, first, first + width, cube, {})

    # A method with ``memo`` passed in, not a nested closure: a closure that
    # calls itself is a reference cycle, and it would keep the manager alive
    # until the cycle collector ran.
    def _extend_dash(self, f: int, first: int, last: int, cube: int,
                     memo: dict[int, int]) -> int:
        level = self._level[f]
        if level >= last:
            return f
        res = memo.get(f)
        if res is not None:
            return res
        if level < first:
            res = self._mk(level,
                           self._extend_dash(self._low[f], first, last, cube, memo),
                           self._extend_dash(self._high[f], first, last, cube, memo))
        else:
            lows = []
            node = f
            for k in range(first, last):
                if self._level[node] == k:
                    lows.append(self._low[node])
                    node = self._high[node]
                else:
                    lows.append(node)
            res = self._exists(cube, f)
            for k in range(last - 1, first - 1, -1):
                res = self._mk(k, lows[k - first], res)
        memo[f] = res
        return res

    def eval(self, f: int, bits: Sequence[int]) -> bool:
        """Evaluate ``f`` by a single root-to-terminal walk."""
        self._check(f)
        if len(bits) != self.var_count:
            raise BddError(f"expected {self.var_count} bits, got {len(bits)}")
        node = f
        while node > TRUE:
            node = self._high[node] if bits[self._level[node]] else self._low[node]
        return node == TRUE

    # -- reclaiming nodes ---------------------------------------------------

    def compact(self, base: int, roots: Sequence[int]) -> list[int]:
        """Free every node with a handle of ``base`` or above that no root
        reaches, and return the roots' new handles.

        The survivors are renumbered densely from ``base`` in their old
        order, so a child still has a lower handle than its parent.  Every
        handle below ``base`` stays valid and unchanged; handles of
        ``base`` or above that are not roots must not be used afterwards.
        The computed table is cleared, since its entries may name freed
        nodes.  A mark from the roots and a sweep, done between operations,
        after Brace, Rudell and Bryant (DAC 1990).
        """
        if not isinstance(base, int) or not 2 <= base <= len(self._level):
            raise BddError(f"base handle {base!r} out of range")
        # A child has a lower handle than its parent, so no node below
        # ``base`` leads to one above it, and the whole mark (which checks
        # each root) ends before the sweep changes anything.
        kept = sorted({node for root in roots for node in self.function_nodes(root)
                       if node >= base})
        levels, low, high = self._level, self._low, self._high
        remap = dict(zip(kept, range(base, base + len(kept))))
        # A child below ``base`` is not in ``remap`` and keeps its handle.
        levels[base:] = [levels[node] for node in kept]
        low[base:] = [remap.get(low[node], low[node]) for node in kept]
        high[base:] = [remap.get(high[node], high[node]) for node in kept]
        self._unique = dict(zip(zip(levels[2:], low[2:], high[2:]),
                                range(2, len(levels))))
        self._cache = {}
        self._kept = len(levels)
        return [remap.get(root, root) for root in roots]

    def collect(self, base: int, roots: Sequence[int],
                floor: int = COLLECT_FLOOR) -> list[int]:
        """``compact(base, roots)`` once the garbage is worth a sweep, else
        the roots, with the store and the computed table untouched.

        The package's one collection rule.  The survivors are the handles
        from ``base`` to where the last ``compact`` left the store, if that
        is above ``base``; sweep once the handles past them outnumber twice
        the survivors plus ``floor``.  A sweep then costs about what was
        made since the last one, and a caller that makes at most ``floor``
        nodes never collects.
        """
        # Not ``max``: a bdd-and check that misses its memo runs this, and
        # the builtin call costs more than the rest of the rule.
        kept = self._kept if self._kept > base else base
        if len(self._level) - kept > 2 * (kept - base) + floor:
            return self.compact(base, roots)
        return list(roots)

    # -- inspection ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of stored non-terminal nodes."""
        return len(self._level) - 2

    def nodes(self) -> Iterator[tuple[int, int, int, int]]:
        """All stored non-terminal nodes as (handle, level, low, high)."""
        for ref in range(2, len(self._level)):
            yield ref, self._level[ref], self._low[ref], self._high[ref]

    def function_nodes(self, f: int) -> set[int]:
        """Handles of the non-terminal nodes reachable from ``f``."""
        self._check(f)
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return seen

    def count_solutions(self, f: int) -> int:
        """Number of satisfying valuations of ``f`` over all variables."""
        self._check(f)
        levels, low, high = self._level, self._low, self._high
        # A child has a lower handle than its parent, so ascending handles
        # count both children before the node, with no recursion.
        counts = {FALSE: 0, TRUE: 1}
        for node in sorted(self.function_nodes(f)):
            lo, hi = low[node], high[node]
            below = levels[node] + 1
            counts[node] = ((counts[lo] << (levels[lo] - below))
                            + (counts[hi] << (levels[hi] - below)))
        return counts[f] << levels[f]

    def to_dot(self, f: int) -> str:
        """DOT graph of ``f``: 0-edges dashed, 1-edges solid."""
        self._check(f)
        lines = ["digraph bdd {"]
        lines.append('  false [label="F", shape=box];')
        lines.append('  true [label="T", shape=box];')

        def ref_name(node: int) -> str:
            return {FALSE: "false", TRUE: "true"}.get(node, f"n{node}")

        for node in sorted(self.function_nodes(f)):
            lines.append(f'  n{node} [label="x{self._level[node]}", shape=circle];')
            lines.append(f"  n{node} -> {ref_name(self._low[node])} [style=dashed];")
            lines.append(f"  n{node} -> {ref_name(self._high[node])} [style=solid];")
        lines.append("}")
        return "\n".join(lines)
