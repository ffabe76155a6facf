"""Covering-array generation with the IPOG algorithm, plus a verifier.

``generate`` brings the parameters in one at a time, largest domain
first, starting from an empty suite: horizontal growth extends each
existing row with the value that covers the most still-uncovered
combinations, and vertical growth merges each leftover combination into a
compatible row or appends it as a new partial row.  So placing the t-th
parameter appends one row per valid combination of the first t.  Every
candidate row is validity-checked through the supplied handler's
``is_valid``, so rows never violate the model constraints.

Uncovered combinations are kept as one Python int per value of the new
parameter, with bit ``key`` set while that combination is uncovered, after
the bitmap representation of IPOG-D (Lei, Kacker, Kuhn, Okun & Lawrence,
STVR 2008).  A key stands for t-1 placed parameters and their values.
The keys are dense and nested: the combinations are laid out by the
placement position of their last parameter, lowest first, then its value,
then the rest laid out the same way, so an int holds one bit per
combination whatever the mix of domain sizes, and the combinations of the
parameters placed so far keep their keys, the lowest ones, as more are
placed.  A key is a sum of one term per slot, so each row keeps the int
of its own keys from step to step, one int per number of slots: when
horizontal growth gives the row a value at the new position, each slot's
int gains the one below it, shifted by one term.  A candidate value covers
``(pending[v] & seen).bit_count()`` combinations, ``seen`` being the row's
int of t-1 slots, and the winner's are XORed out of ``pending[v]``.  A row
that vertical growth fills or appends has its ints built afresh from its
specified positions.

Vertical growth decodes the leftover keys, the set bits of those ints, to
positions and values, whose sorted order is the order in which
``combinations`` and ``product`` enumerate the combinations.  It reads the
suite through row bitmasks: for each placed parameter one Python int per
value, bit ``i`` set when row ``i`` holds that value, and one for the rows
where it is unspecified.  A combination is covered when the AND of its
value masks is non-zero, and the rows it can merge into are the AND of its
``value | unspecified`` masks, tried from the lowest bit up, which is row
order.  Vertical growth keeps the masks in step as it fills positions and
appends rows.

Rows may keep unspecified positions; ``fill_dashes`` completes them with
the smallest values that keep each row valid.

``verify`` independently checks a finished suite for invalid rows and for
uncovered valid combinations.  It asks the handler about every row, then
reads the suite through the same row bitmasks, without the unspecified
one: an unspecified position covers no value.  It walks the t-subsets in
lexicographic order, grouped by their first t-1 parameters, and ANDs each
such prefix's masks once, in ``product`` order.  A subset is fully covered
when every prefix AND meets every value mask of its last parameter, and
that is one C-level pass, ``all(starmap(and_, product(...)))``.  Only a
subset with a zero AND is enumerated, and the handler is asked about
exactly its uncovered combinations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, product, starmap
from operator import and_, getitem, index
from typing import Iterable, Iterator, Optional, Sequence

from .model import Assignment, SutModel
from .validity import ValidityHandler

Combo = tuple[tuple[int, ...], tuple[int, ...]]  # (parameter indices, values)

_ONE = ord("1")  # a set bit in the b"0"/b"1" strings that build key masks


@dataclass
class TestSuite:
    model: SutModel
    strength: int
    rows: list[Assignment]
    diagnostic: Optional[str] = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class VerifyReport:
    suite_size: int
    invalid_rows: list[tuple[int, Assignment]] = field(default_factory=list)
    uncovered: list[Combo] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.invalid_rows and not self.uncovered

    def describe(self, model: SutModel) -> str:
        lines = [f"suite size: {self.suite_size}"]
        lines.append(f"invalid rows: {len(self.invalid_rows)}")
        for idx, row in self.invalid_rows:
            cells = ", ".join("-" if v is None else model.params[p].domain[v]
                              for p, v in enumerate(row))
            lines.append(f"  row {idx}: {cells}")
        lines.append(f"uncovered valid combinations: {len(self.uncovered)}")
        for params, values in self.uncovered:
            pairs = ", ".join(f"{model.params[p].name}={model.params[p].domain[v]}"
                              for p, v in zip(params, values))
            lines.append(f"  {pairs}")
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _row(n: int, params: Sequence[int], values: Sequence[int]) -> list[Optional[int]]:
    """A row of ``n`` unspecified positions with ``params`` set to ``values``."""
    row: list[Optional[int]] = [None] * n
    for p, v in zip(params, values):
        row[p] = v
    return row


def _value_masks(rows: Sequence[Sequence[Optional[int]]], p: int,
                 size: int) -> dict[Optional[int], int]:
    """The rows of parameter ``p`` as bitmasks, bit ``i`` for ``rows[i]``:
    one mask per value, and one under ``None`` for unspecified positions."""
    masks: dict[Optional[int], int] = dict.fromkeys((None, *range(size)), 0)
    for i, row in enumerate(rows):
        masks[row[p]] |= 1 << i
    return masks


def _set_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first, read off its binary string
    in one pass rather than by one big-int operation per bit."""
    bits = bin(mask)[:1:-1]  # bit i is bits[i]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class _KeyLayout:
    """Dense int keys for the combinations of ``k`` parameters, whose
    domain sizes are ``sizes`` in placement order.

    A combination is ``k`` slots, each a position and a value, positions
    increasing.  Combinations are laid out by the last slot's position,
    lowest first, then its value, then the rest laid out the same way.
    With ``count[m][a]`` the number of ``m``-slot combinations over the
    positions below ``a``, the keys are ``range(space)``, and those of the
    combinations over the first ``a`` positions are ``range(count[k][a])``
    whatever follows.  A key is a sum of one term per slot,
    ``base[s][j] + w * weight[s][j]`` for position ``j`` holding value
    ``w`` in slot ``s``: ``base[s] = count[s + 1]`` counts the
    combinations of slots up to ``s`` that end below ``j``, which come
    first, and ``weight[s] = count[s]`` those of the slots before ``s``,
    which each value of slot ``s`` spans.  ``combo`` reads a key back; the
    pairs it returns sort in enumeration order.
    """

    def __init__(self, sizes: Sequence[int], k: int):
        count = [[1] * (len(sizes) + 1)]
        for _ in range(k):
            below, here = count[-1], [0]
            for a, d in enumerate(sizes):
                here.append(here[a] + d * below[a])
            count.append(here)
        self.count = count
        self.base = count[1:]
        self.weight = count[:-1]
        self.space = count[k][-1]

    def combo(self, key: int) -> tuple[list[int], list[int]]:
        """The positions and values of the combination with key ``key``:
        such pairs of ``k``-entry lists compare in the order in which
        ``combinations`` and then ``product`` enumerate them."""
        positions, values = [], []
        for base, weight in zip(self.base[::-1], self.weight[::-1]):
            # The keys of lower positions come first, so the position is
            # the last j whose base, a non-decreasing list, is <= key: a
            # plateau is a position at which no combination ends.
            j = bisect_right(base, key) - 1
            w, key = divmod(key - base[j], weight[j])
            positions.append(j)
            values.append(w)
        return positions[::-1], values[::-1]

    def extend(self, acc: list[int], j: int, w: int) -> None:
        """Add to a row's keys those it gains when position ``j``, above
        every position it specifies, takes value ``w``.  ``acc[s]`` has the
        bit of every ``s``-slot combination the row holds, and ``acc[0]``
        is 1; each slot takes the keys of the slot before it, ending at
        ``j``, so the highest is updated first."""
        for s in range(len(acc) - 1, 0, -1):
            acc[s] |= acc[s - 1] << (self.base[s - 1][j] + w * self.weight[s - 1][j])

    def keys(self, values: Iterable[Optional[int]]) -> list[int]:
        """``acc`` of a row holding ``values`` in placement order, ``None``
        where it is unspecified (see ``extend``)."""
        acc = [1] + [0] * len(self.base)
        for j, w in enumerate(values):
            if w is not None:
                self.extend(acc, j, w)
        return acc


def _strength(t: int, n: int) -> int:
    """``t`` as an int, if it is an index, as ``operator.index`` reads one,
    from 1 to ``n``: ``2.0`` and ``"2"`` are out of range like ``0``."""
    try:
        k = index(t)
        if 1 <= k <= n:
            return k
    except TypeError:
        pass
    raise ValueError(f"strength {t!r} out of range for {n} parameters")


def generate(model: SutModel, t: int, handler: ValidityHandler,
             fill_dashes: bool = False) -> TestSuite:
    """Generate a t-wise covering suite for ``model`` using ``handler``.

    The result is deterministic for a given (model, t, handler kind,
    fill_dashes): ties in horizontal growth break toward the smallest value
    index, vertical growth merges into the first compatible row, and all
    combination enumeration is lexicographic.

    Each row keeps the keys of its combinations of 1 to t-1 placed
    parameters as ints, which costs about rows x combinations bits: little
    on small suites, but tens of MB when both run to thousands.  The 5,656
    rows of an 11-parameter model of 5 to 8 values at t=4 keep about 30 MB.
    """
    n = model.n
    t = _strength(t, n)
    sizes = model.sizes
    # Non-increasing domain size, ties by declaration order.
    order = sorted(range(n), key=lambda i: (-sizes[i], i))

    # A row that fixes no constrained parameter cannot violate a constraint
    # once the model is known to have a valid test case (checked below), so
    # it skips the handler call.  ``model.dropped`` holds the unconstrained
    # parameters, so nothing of the handler is read but ``is_valid``.
    constrained = [p for p in range(n) if p not in model.dropped]
    is_valid = handler.is_valid

    def valid(row: Sequence[Optional[int]]) -> bool:
        return all(row[p] is None for p in constrained) or is_valid(row)

    if not is_valid((None,) * n):
        return TestSuite(model, t, [],
                         diagnostic="model has no valid test cases")

    # The first t - 1 parameters have no t-way combination to cover, so
    # they are placed into no rows.  Placing the t-th appends one row per
    # valid combination of the first t, through vertical growth.
    rows: list[list[Optional[int]]] = []
    masks = {p: _value_masks(rows, p, sizes[p]) for p in order[:t - 1]}

    # One layout over the whole placement order: the combinations of the
    # parameters placed so far keep their keys as more are placed.
    # accs[i] is the ``acc`` of rows[i] (see ``_KeyLayout.extend``).
    layout = _KeyLayout([sizes[p] for p in order], t - 1)
    base, weight = layout.base, layout.weight
    accs: list[list[int]] = []

    buf: list[Optional[int]] = [None] * n
    for idx in range(t - 1, n):
        p_new = order[idx]
        placed = order[:idx]
        dn = sizes[p_new]

        # Valid t-way combinations involving the new parameter: bit ``key``
        # of pending[v] is set while that combination with p_new = v is
        # uncovered.  The bits are first marked as b"1" in a b"0" string,
        # lowest key first, and each string is read as one int.
        marks = [bytearray(b"0" * layout.count[t - 1][idx]) for _ in range(dn)]
        new_dropped = p_new in model.dropped
        for positions in combinations(range(idx), t - 1):
            subset = [placed[j] for j in positions]
            lowest = sum(map(getitem, base, positions))
            weights = list(map(getitem, weight, positions))
            # The shortcut of ``valid``, decided once for the whole subset.
            unchecked = new_dropped and all(q in model.dropped for q in subset)
            for prefix in product(*(range(sizes[q]) for q in subset)):
                key = lowest
                for q, w, wt in zip(subset, prefix, weights):
                    buf[q] = w
                    key += w * wt
                if unchecked:
                    for m in marks:
                        m[key] = _ONE
                    continue
                for v in range(dn):
                    buf[p_new] = v
                    if is_valid(buf):
                        marks[v][key] = _ONE
            for q in subset:
                buf[q] = None
        buf[p_new] = None
        pending = [int(m[::-1], 2) for m in marks]
        del marks

        # Horizontal growth: extend every row with the best valid value.
        # The last slot of a row's ``acc`` has the bit of every key the row
        # holds, and the winning value adds the keys ending at ``idx``.
        for row, acc in zip(rows, accs):
            seen = acc[-1]
            # The shortcut of ``valid``, decided once for the whole row.
            free = new_dropped and all(row[p] is None for p in constrained)
            best_v, best, count = None, 0, -1
            for v in range(dn):
                row[p_new] = v
                if not (free or is_valid(row)):
                    continue
                covered = pending[v] & seen
                if covered.bit_count() > count:
                    best_v, best, count = v, covered, covered.bit_count()
            row[p_new] = best_v  # None when no valid extension exists
            if best_v is not None:
                pending[best_v] ^= best
                layout.extend(acc, idx, best_v)
        masks[p_new] = _value_masks(rows, p_new, dn)

        # Vertical growth: place what horizontal growth did not cover, in
        # enumeration order: the leftover keys, decoded, sorted by their
        # positions, then their values, then the new parameter's value.
        left = sorted((*layout.combo(key), v)
                      for v, m in enumerate(pending) for key in _set_bits(m))
        changed = set()  # the rows filled or appended, by index
        for positions, values, v in left:
            full = [(placed[j], w) for j, w in zip(positions, values)]
            full.append((p_new, v))
            covering = compatible = -1
            for p, w in full:
                m = masks[p]
                covering &= m[w]
                compatible &= m[w] | m[None]
            if covering:
                continue  # covered by a row changed earlier in this phase
            while compatible:  # the rows in order, lowest bit first
                bit = compatible & -compatible
                i = bit.bit_length() - 1
                r = rows[i]
                candidate = list(r)
                for p, w in full:
                    candidate[p] = w
                if valid(candidate):
                    for p, w in full:
                        if r[p] is None:
                            masks[p][None] ^= bit
                            masks[p][w] |= bit
                    r[:] = candidate
                    changed.add(i)
                    break
                compatible ^= bit
            else:
                bit = 1 << len(rows)
                row = _row(n, [p for p, _ in full], [w for _, w in full])
                changed.add(len(rows))
                rows.append(row)
                accs.append([])  # built below
                for p in order[:idx + 1]:
                    masks[p][row[p]] |= bit
        # A merge may fill positions below ``idx``, which ``extend`` cannot
        # add, so each changed row's keys are built afresh.
        for i in changed:
            accs[i] = layout.keys(map(rows[i].__getitem__, order[:idx + 1]))

    if fill_dashes:
        for row in rows:
            for p in range(n):
                if row[p] is not None:
                    continue
                for v in range(sizes[p]):
                    row[p] = v
                    if valid(row):
                        break
                    row[p] = None

    return TestSuite(model, t, [tuple(r) for r in rows])


def verify(model: SutModel, rows: Sequence[Sequence[Optional[int]]], t: int,
           handler: ValidityHandler) -> VerifyReport:
    """Check a suite: every row must be valid and every valid t-way value
    combination must be covered by some row.

    The rows are checked first, so a bad value or length raises the
    handler's ``ValueError`` before the masks are built.  Coverage costs one
    AND per value combination, run in C for a fully covered subset, and one
    ``is_valid`` call per uncovered combination; ``uncovered`` lists the
    valid ones in ``combinations`` and then ``product`` order.
    """
    n = model.n
    t = _strength(t, n)
    sizes = model.sizes
    report = VerifyReport(suite_size=len(rows))

    for idx, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {idx} has {len(row)} entries, expected {n}")
        if not handler.is_valid(row):
            report.invalid_rows.append((idx, tuple(row)))

    # masks[p][w]: bit i set when row i holds w at p.  An unspecified
    # position covers no value, so its mask is dropped.
    masks = []
    for p in range(n):
        by_value = _value_masks(rows, p, sizes[p])
        del by_value[None]
        masks.append(tuple(by_value.values()))

    # The t-subsets in lexicographic order, grouped by their first t - 1
    # parameters.  A prefix's ANDs are built once, in product order (-1 is
    # every row), and serve every last parameter after it.
    for prefix in combinations(range(n - 1), t - 1):
        ands = [-1]
        for p in prefix:
            ands = list(starmap(and_, product(ands, masks[p])))
        for last in range(prefix[-1] + 1 if prefix else 0, n):
            last_masks = masks[last]
            if all(starmap(and_, product(ands, last_masks))):
                continue  # every combination of the subset is covered
            subset = (*prefix, last)
            for values, m in zip(product(*(range(sizes[p]) for p in prefix)), ands):
                for w, m_w in enumerate(last_masks):
                    if m & m_w:
                        continue
                    combo = (*values, w)
                    if handler.is_valid(_row(n, subset, combo)):
                        report.uncovered.append((subset, combo))
    return report
