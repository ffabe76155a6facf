"""Covering-array generation with the IPOG algorithm, plus a verifier.

``generate`` seeds a suite with every valid value combination of the ``t``
largest-domain parameters, then brings in the remaining parameters one at a
time: horizontal growth extends each existing row with the value that
covers the most still-uncovered combinations, and vertical growth merges
each leftover combination into a compatible row or appends it as a new
partial row.  Every candidate row is validity-checked through the supplied
handler's ``is_valid``, so rows never violate the model constraints.

Uncovered combinations are kept in insertion order, keyed by a subset of
the placed parameters, in placement order as ``combinations`` yields it,
and the values; horizontal growth builds each subset's value prefix once
per row.

Rows may keep unspecified positions; ``fill_dashes`` completes them with
the smallest values that keep each row valid.  ``verify`` independently
checks a finished suite for invalid rows and for uncovered valid
combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
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


def skip_unconstrained_check(handler: ValidityHandler,
                             combo: Sequence[Optional[int]]) -> bool:
    """True when every fixed position is an unconstrained parameter.

    Such assignments cannot violate any constraint, so the handler call can
    be skipped (provided the model has at least one valid test case, which
    ``generate`` establishes up front).
    """
    dropped = handler.dropped
    return all(v is None or p in dropped for p, v in enumerate(combo))


def _row(n: int, params: Sequence[int], values: Sequence[int]) -> list[Optional[int]]:
    """A row of ``n`` unspecified positions with ``params`` set to ``values``."""
    row: list[Optional[int]] = [None] * n
    for p, v in zip(params, values):
        row[p] = v
    return row


def generate(model: SutModel, t: int, handler: ValidityHandler,
             fill_dashes: bool = False) -> TestSuite:
    """Generate a t-wise covering suite for ``model`` using ``handler``.

    The result is deterministic for a given (model, t, handler kind,
    fill_dashes): ties in horizontal growth break toward the smallest value
    index, vertical growth merges into the first compatible row, and all
    combination enumeration is lexicographic.
    """
    n = model.n
    if not 1 <= t <= n:
        raise ValueError(f"strength {t} out of range for {n} parameters")
    sizes = model.sizes
    # Non-increasing domain size, ties by declaration order.
    order = sorted(range(n), key=lambda i: (-sizes[i], i))

    def valid(row: Sequence[Optional[int]]) -> bool:
        if skip_unconstrained_check(handler, row):
            return True
        return handler.is_valid(row)

    if not handler.is_valid((None,) * n):
        return TestSuite(model, t, [],
                         diagnostic="model has no valid test cases")

    rows: list[list[Optional[int]]] = []
    first = order[:t]
    for values in product(*(range(sizes[p]) for p in first)):
        row = _row(n, first, values)
        if valid(row):
            rows.append(row)

    for idx in range(t, n):
        p_new = order[idx]
        placed = order[:idx]

        # Valid t-way combinations involving the new parameter, keyed by
        # (subset, values): ``subset`` is t-1 placed parameters in
        # placement order, ``values`` their values followed by p_new's.
        pending: dict[Combo, None] = {}
        for subset in combinations(placed, t - 1):
            params = subset + (p_new,)
            for values in product(*(range(sizes[p]) for p in params)):
                if valid(_row(n, params, values)):
                    pending[subset, values] = None

        # Horizontal growth: extend every row with the best valid value.
        for row in rows:
            fixed = [q for q in placed if row[q] is not None]
            prefixes = [(s, tuple(row[q] for q in s))
                        for s in combinations(fixed, t - 1)]
            best_v = None
            best_cov = -1
            best_covered: list[Combo] = []
            for v in range(sizes[p_new]):
                row[p_new] = v
                if not valid(row):
                    continue
                covered = [key for s, prefix in prefixes
                           if (key := (s, prefix + (v,))) in pending]
                if len(covered) > best_cov:
                    best_cov = len(covered)
                    best_v = v
                    best_covered = covered
            row[p_new] = best_v  # None when no valid extension exists
            for key in best_covered:
                del pending[key]

        # Vertical growth: place what horizontal growth did not cover.
        for subset, values in list(pending):
            params = subset + (p_new,)
            pairs = list(zip(params, values))
            if any(all(r[p] == v for p, v in pairs) for r in rows):
                continue  # covered by a row changed earlier in this phase
            for r in rows:
                if all(r[p] is None or r[p] == v for p, v in pairs):
                    candidate = list(r)
                    for p, v in pairs:
                        candidate[p] = v
                    if valid(candidate):
                        r[:] = candidate
                        break
            else:
                rows.append(_row(n, params, values))

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
    combination must be covered by some row."""
    n = model.n
    if not 1 <= t <= n:
        raise ValueError(f"strength {t} out of range for {n} parameters")
    sizes = model.sizes
    report = VerifyReport(suite_size=len(rows))

    for idx, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {idx} has {len(row)} entries, expected {n}")
        if not handler.is_valid(row):
            report.invalid_rows.append((idx, tuple(row)))

    # The suite by column: each subset's covered values are one zip of its
    # columns.  An unspecified position is None and so covers no value.
    columns = [[row[p] for row in rows] for p in range(n)]
    for subset in combinations(range(n), t):
        covered = set(zip(*(columns[p] for p in subset)))
        for values in product(*(range(sizes[p]) for p in subset)):
            if values in covered:
                continue
            if handler.is_valid(_row(n, subset, values)):
                report.uncovered.append((subset, values))
    return report
