"""Covering-array generation with the IPOG algorithm, plus a verifier.

``generate`` brings the parameters in one at a time, largest domain
first, starting from an empty suite: horizontal growth extends each
existing row with the value that covers the most still-uncovered
combinations, and vertical growth merges each leftover combination into a
compatible row or appends it as a new partial row.  So placing the t-th
parameter appends one row per valid combination of the first t.  Every
candidate row is validity-checked through the supplied handler's
``is_valid``, so rows never violate the model constraints.

Uncovered combinations are kept as one set of integer keys per value of
the new parameter.  A key stands for t-1 placed parameters and their
values: the parameters' positions in placement order folded with radix
``n``, then their values folded with radix ``max(sizes)``, so the numeric
order of the keys is the order in which ``combinations`` and ``product``
enumerate them.  Horizontal growth builds the set of a row's own keys once,
as sums over per-slot lists of ints, and counts what each candidate value
covers as the size of its intersection with that value's set.

Vertical growth reads the suite through row bitmasks: for each placed
parameter one Python int per value, bit ``i`` set when row ``i`` holds that
value, and one for the rows where it is unspecified.  A combination is
covered when the AND of its value masks is non-zero, and the rows it can
merge into are the AND of its ``value | unspecified`` masks, tried from the
lowest bit up, which is row order.  Vertical growth keeps the masks in step
as it fills positions and appends rows.

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

from dataclasses import dataclass, field
from itertools import combinations, product, starmap
from operator import and_, index
from typing import Optional, Sequence

from .model import Assignment, SutModel
from .validity import ValidityHandler

Combo = tuple[tuple[int, ...], tuple[int, ...]]  # (parameter indices, values)


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
    """
    n = model.n
    t = _strength(t, n)
    sizes = model.sizes
    # Non-increasing domain size, ties by declaration order.
    order = sorted(range(n), key=lambda i: (-sizes[i], i))

    # A row that fixes no constrained parameter cannot violate a constraint
    # once the model is known to have a valid test case (checked below), so
    # it skips the handler call.
    constrained = [p for p in range(n) if p not in handler.dropped]
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

    # Key of a combination of t-1 placed parameters: their positions in
    # placement order folded with radix n, then their values with radix
    # ``radix``, so keys sort in enumeration order.  Slot s of the
    # combination adds offsets[s][j] for position j and w * value_weight[s]
    # for value w.
    radix = max(sizes)
    value_span = radix ** (t - 1)
    value_weight = [radix ** (t - 2 - s) for s in range(t - 1)]
    offsets = [[j * n ** (t - 2 - s) * value_span for j in range(n)]
               for s in range(t - 1)]

    buf: list[Optional[int]] = [None] * n
    for idx in range(t - 1, n):
        p_new = order[idx]
        placed = order[:idx]
        dn = sizes[p_new]

        # Valid t-way combinations involving the new parameter: pending[v]
        # holds the key of each combination still uncovered with p_new = v.
        pending: list[set[int]] = [set() for _ in range(dn)]
        new_dropped = p_new in handler.dropped
        for positions in combinations(range(idx), t - 1):
            subset = [placed[j] for j in positions]
            pos_key = 0
            for j in positions:
                pos_key = pos_key * n + j
            # The shortcut of ``valid``, decided once for the whole subset.
            unchecked = new_dropped and all(q in handler.dropped for q in subset)
            for prefix in product(*(range(sizes[q]) for q in subset)):
                key = pos_key
                for q, w in zip(subset, prefix):
                    buf[q] = w
                    key = key * radix + w
                if unchecked:
                    for s in pending:
                        s.add(key)
                    continue
                for v in range(dn):
                    buf[p_new] = v
                    if is_valid(buf):
                        pending[v].add(key)
            for q in subset:
                buf[q] = None
        buf[p_new] = None

        # Horizontal growth: extend every row with the best valid value.
        for row in rows:
            vals = [row[q] for q in placed]
            if t == 2:
                seen = {o + w for o, w in zip(offsets[0], vals) if w is not None}
            elif t == 3:
                heads = [o + w * radix for o, w in zip(offsets[0], vals) if w is not None]
                tails = [o + w for o, w in zip(offsets[1], vals) if w is not None]
                seen = {a + b for i, a in enumerate(heads, 1) for b in tails[i:]}
            else:
                slots = [[o + w * vw for o, w in zip(offs, vals) if w is not None]
                         for offs, vw in zip(offsets, value_weight)]
                seen = {sum(slot[k] for slot, k in zip(slots, ks))
                        for ks in combinations(range(idx - vals.count(None)), t - 1)}
            # The shortcut of ``valid``, decided once for the whole row.
            free = new_dropped and all(row[p] is None for p in constrained)
            best_v = None
            best: set[int] = set()
            for v in range(dn):
                row[p_new] = v
                if not (free or is_valid(row)):
                    continue
                covered = pending[v] & seen
                if best_v is None or len(covered) > len(best):
                    best_v, best = v, covered
            row[p_new] = best_v  # None when no valid extension exists
            if best_v is not None:
                pending[best_v] -= best
        masks[p_new] = _value_masks(rows, p_new, dn)

        # Vertical growth: place what horizontal growth did not cover, in
        # key order, which is enumeration order.
        for key in sorted(set().union(*pending)):
            pos_key, value_key = divmod(key, value_span)
            pairs = []
            for _ in range(t - 1):
                pos_key, j = divmod(pos_key, n)
                value_key, w = divmod(value_key, radix)
                pairs.append((placed[j], w))
            for v in range(dn):
                if key not in pending[v]:
                    continue
                full = pairs + [(p_new, v)]
                covering = compatible = -1
                for p, w in full:
                    m = masks[p]
                    covering &= m[w]
                    compatible &= m[w] | m[None]
                if covering:
                    continue  # covered by a row changed earlier in this phase
                while compatible:  # the rows in order, lowest bit first
                    bit = compatible & -compatible
                    r = rows[bit.bit_length() - 1]
                    candidate = list(r)
                    for p, w in full:
                        candidate[p] = w
                    if valid(candidate):
                        for p, w in full:
                            if r[p] is None:
                                masks[p][None] ^= bit
                                masks[p][w] |= bit
                        r[:] = candidate
                        break
                    compatible ^= bit
                else:
                    bit = 1 << len(rows)
                    row = _row(n, [p for p, _ in full], [w for _, w in full])
                    rows.append(row)
                    for p in order[:idx + 1]:
                        masks[p][row[p]] |= bit

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
