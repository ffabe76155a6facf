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
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

FALSE = 0
TRUE = 1


class Op(Enum):
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "implies"


class BddError(Exception):
    """Misuse of the engine: bad handles, bad cubes, bad variable indices."""


class ResourceLimitError(BddError):
    """The node store grew past the configured ``max_nodes`` limit."""


class BddManager:
    def __init__(self, var_count: int, max_nodes: Optional[int] = None):
        if var_count < 0:
            raise ValueError("var_count must be >= 0")
        self.var_count = var_count
        self.max_nodes = max_nodes
        # Parallel arrays indexed by handle; entries 0/1 are the terminals.
        self._level = [var_count, var_count]
        self._low = [FALSE, TRUE]
        self._high = [FALSE, TRUE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}

    # -- node construction -------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self.max_nodes is not None and len(self._level) - 2 >= self.max_nodes:
            raise ResourceLimitError(
                f"node store exceeded the limit of {self.max_nodes} nodes")
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
        node = TRUE
        for i in sorted(set(variables), reverse=True):
            if not 0 <= i < self.var_count:
                raise BddError(f"variable index {i} out of range")
            node = self._mk(i, FALSE, node)
        return node

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
        return self._apply(op, a, b)

    def _apply(self, op: Op, a: int, b: int) -> int:
        if op is Op.AND:
            return self._and(a, b)
        if op is Op.OR:
            tag = "or"
            if a == TRUE or b == TRUE:
                return TRUE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == b:
                return a
            if a > b:
                a, b = b, a
        elif op is Op.XOR:
            tag = "xor"
            if a == b:
                return FALSE
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == TRUE:
                return self._negate(b)
            if b == TRUE:
                return self._negate(a)
            if a > b:
                a, b = b, a
        else:  # Op.IMPLIES
            tag = "implies"
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
        key = (tag, a, b)
        res = self._cache.get(key)
        if res is not None:
            return res
        la, lb = self._level[a], self._level[b]
        level = la if la < lb else lb
        a0, a1 = (self._low[a], self._high[a]) if la == level else (a, a)
        b0, b1 = (self._low[b], self._high[b]) if lb == level else (b, b)
        res = self._mk(level, self._apply(op, a0, b0), self._apply(op, a1, b1))
        self._cache[key] = res
        return res

    def _and(self, a: int, b: int) -> int:
        """``a ∧ b``, the one AND path (``_apply`` hands ``Op.AND`` here):
        a recursion with no operator dispatch that keeps the terminal cases,
        the ``("and", a, b)`` cache key with ``a < b`` and the low-then-high
        order, so it makes the nodes and cache entries ``_apply`` would."""
        if a > b:
            a, b = b, a
        # With a <= b, a FALSE operand is a, and a TRUE one is a unless both are.
        if a == FALSE:
            return FALSE
        if a == TRUE or a == b:
            return b
        key = ("and", a, b)
        res = self._cache.get(key)
        if res is not None:
            return res
        la, lb = self._level[a], self._level[b]
        if la == lb:
            res = self._mk(la, self._and(self._low[a], self._low[b]),
                           self._and(self._high[a], self._high[b]))
        elif la < lb:
            res = self._mk(la, self._and(self._low[a], b), self._and(self._high[a], b))
        else:
            res = self._mk(lb, self._and(a, self._low[b]), self._and(a, self._high[b]))
        self._cache[key] = res
        return res

    def negate(self, a: int) -> int:
        """The complement of ``a`` (the terminals of ``a`` swapped)."""
        self._check(a)
        return self._negate(a)

    def _negate(self, a: int) -> int:
        if a == FALSE:
            return TRUE
        if a == TRUE:
            return FALSE
        key = ("not", a)
        res = self._cache.get(key)
        if res is not None:
            return res
        res = self._mk(self._level[a], self._negate(self._low[a]),
                       self._negate(self._high[a]))
        self._cache[key] = res
        return res

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
            res = self._apply(Op.OR, lo, hi)
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

    def block_cofactors(self, nodes: Sequence[int], first: int,
                        width: int) -> list[tuple[int, ...]]:
        """For each of ``nodes``, the node reached by following each
        codeword through the contiguous variables ``first .. first + width
        - 1``.

        Entry ``c`` of a node's tuple is the node with variable ``first + j``
        fixed to bit ``j`` of ``c``, for all ``2 ** width`` codewords.  No
        node may depend on a variable above the block.
        """
        last = first + width
        if first < 0 or width < 0 or last > self.var_count:
            raise BddError(f"variable block {first}..{last - 1} out of "
                           f"range (manager has {self.var_count} variables)")
        for f in nodes:
            self._check(f)
            if self._level[f] < first:
                raise BddError(f"node {f} tests variable {self._level[f]}, "
                               f"above the block starting at {first}")
        # Entry code * len(nodes) + i follows ``code`` from node i; each
        # variable appends the set-bit half after the clear-bit half.
        ends = list(nodes)
        for k in range(first, last):
            ends = ([self._low[n] if self._level[n] == k else n for n in ends]
                    + [self._high[n] if self._level[n] == k else n for n in ends])
        count = len(nodes)
        return [tuple(ends[i::count]) for i in range(count)]

    def eval(self, f: int, bits: Sequence[int]) -> bool:
        """Evaluate ``f`` by a single root-to-terminal walk."""
        self._check(f)
        if len(bits) != self.var_count:
            raise BddError(f"expected {self.var_count} bits, got {len(bits)}")
        node = f
        while node > TRUE:
            node = self._high[node] if bits[self._level[node]] else self._low[node]
        return node == TRUE

    def is_false(self, f: int) -> bool:
        """Constant-time check for the FALSE terminal."""
        self._check(f)
        return f == FALSE

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
        memo: dict[int, int] = {}

        def rec(node: int) -> int:
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = memo.get(node)
            if cached is not None:
                return cached
            level = self._level[node]
            lo, hi = self._low[node], self._high[node]
            total = (rec(lo) << (self._level[lo] - level - 1)) + \
                    (rec(hi) << (self._level[hi] - level - 1))
            memo[node] = total
            return total

        top = self._level[f] if f > TRUE else self.var_count
        return rec(f) << top

    def to_dot(self, f: int, name: str = "bdd") -> str:
        """DOT graph of ``f``: 0-edges dashed, 1-edges solid."""
        self._check(f)
        lines = [f"digraph {name} {{"]
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
