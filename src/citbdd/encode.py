"""Boolean encodings of parameters and compilation of constraints to a BDD.

Each parameter that occurs in a constraint gets a contiguous range of
Boolean variables, least significant bit first.  ``Encoding.var_bits``
spells that layout out once: entry ``k`` is the ``(parameter, bit)`` that
BDD variable ``k`` holds, in level order, and ``encode_full`` reads it;
the conjunction check builds its cube table from ``offsets`` and
``widths``, the same layout per parameter.  Two encodings exist:

* ``FULL`` uses ceil(log2 |D|) bits per parameter and can represent only
  fixed values;
* ``WITH_DASH`` uses ceil(log2(|D|+1)) bits and reserves the all-ones
  codeword of each parameter for the unspecified marker.

Parameters not occurring in any constraint never influence validity and are
dropped from the encoding.  The encoded parameter order defaults to a static
heuristic that keeps parameters close when they appear close together in
the constraint parse trees, which tends to keep the compiled BDDs small.

``compile_constraints`` builds the function accepting exactly the encodings
of the constraint-satisfying full test cases: the conjunction of a per
parameter domain bound (encoded value <= |D|-1, derived from the binary
representation of |D|-1) with the bit-level translation of every
constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, groupby
from typing import Optional, Sequence

from .bdd import FALSE, TRUE, BddManager, Op
from .model import (
    CompareParams, Connective, ConstraintExpr, Not, SutModel, referenced_params,
)


class EncodingMode(Enum):
    FULL = "full"            # every codeword is a parameter value
    WITH_DASH = "with-dash"  # all-ones codeword = unspecified


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length()


@dataclass
class Encoding:
    mode: EncodingMode
    order: tuple[int, ...]    # constrained parameter indices, root-most first
    sizes: tuple[int, ...]    # domain sizes, aligned with order
    widths: tuple[int, ...]   # bits per parameter, aligned with order
    offsets: tuple[int, ...]  # first bit index per parameter, aligned with order
    total_bits: int
    var_bits: tuple[tuple[int, int], ...]  # (parameter, bit) per variable, level order
    dropped: frozenset[int]   # parameters absent from every constraint
    n_params: int


def constrained_params(model: SutModel) -> frozenset[int]:
    """Indices of the parameters occurring in at least one constraint."""
    out: set[int] = set()
    for c in model.constraints:
        out.update(referenced_params(c))
    return frozenset(out)


def _occurrences(model: SutModel) -> list[tuple[int, tuple[int, ...]]]:
    """Parameter occurrences as (param, path) over the virtual parse forest.

    A path is the sequence of child indices from the virtual root joining all
    constraint trees; relation operands count as leaves one step below their
    relation node.
    """
    occs: list[tuple[int, tuple[int, ...]]] = []
    # An explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, left for the cycle collector.  Children
    # are pushed right first, so they are visited left to right.
    stack: list[tuple[ConstraintExpr, tuple[int, ...]]] = [
        (c, (k,)) for k, c in reversed(list(enumerate(model.constraints)))]
    while stack:
        expr, path = stack.pop()
        if isinstance(expr, Not):
            stack.append((expr.child, path + (0,)))
        elif isinstance(expr, Connective):
            stack.append((expr.right, path + (1,)))
            stack.append((expr.left, path + (0,)))
        elif isinstance(expr, CompareParams):
            occs.append((expr.left, path + (0,)))
            occs.append((expr.right, path + (1,)))
        else:
            occs.append((expr.param, path + (0,)))
    return occs


def _path_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    lcp = 0
    for x, y in zip(a, b):
        if x != y:
            break
        lcp += 1
    return len(a) + len(b) - 2 * lcp


def order_parameters(model: SutModel) -> tuple[int, ...]:
    """Order the constrained parameters by mutual parse-tree distance.

    The first parameter minimizes the sum of distances to all other
    constrained parameters; each following pick minimizes the sum of
    distances to those already selected.  Ties break toward the lower
    declaration index.  Parameters selected earlier receive lower variable
    indices (nearest the BDD root).
    """
    occs = _occurrences(model)
    params = sorted({p for p, _ in occs})
    if len(params) <= 1:
        return tuple(params)
    # Occurrences in different trees are len(a) + len(b) apart, through
    # the virtual root, and two in one tree are nearer than that.  So the
    # sum of the two parameters' shallowest depths is either their nearest
    # cross-tree distance or beaten by a same-tree pair, and only
    # same-tree pairs need comparing one by one.
    depth: dict[int, int] = {}
    for p, path in occs:
        if p not in depth or len(path) < depth[p]:
            depth[p] = len(path)
    dist = {(p, q): depth[p] + depth[q] for p, q in combinations(params, 2)}
    for _, tree in groupby(occs, key=lambda occ: occ[1][0]):
        for (p, pa), (q, qa) in combinations(list(tree), 2):
            if p == q:
                continue
            key = (p, q) if p < q else (q, p)
            gap = _path_distance(pa, qa)
            if gap < dist[key]:
                dist[key] = gap

    def d(p: int, q: int) -> int:
        return dist[(p, q) if p < q else (q, p)]

    first = min(params, key=lambda p: (sum(d(p, q) for q in params if q != p), p))
    chosen = [first]
    # Running sum of each remaining parameter's distances to those chosen.
    acc = {p: d(p, first) for p in params if p != first}
    while acc:
        nxt = min(acc, key=lambda p: (acc[p], p))
        chosen.append(nxt)
        del acc[nxt]
        for p in acc:
            acc[p] += d(p, nxt)
    return tuple(chosen)


def make_encoding(model: SutModel, mode: EncodingMode,
                  order: Optional[Sequence[int]] = None) -> Encoding:
    """Lay out bit ranges for the constrained parameters of ``model``.

    ``order`` overrides the default distance-heuristic parameter order; it
    must be a permutation of the constrained parameters.
    """
    constrained = constrained_params(model)
    if order is None:
        order = order_parameters(model)
    else:
        order = tuple(order)
        if set(order) != set(constrained) or len(order) != len(constrained):
            raise ValueError("order must be a permutation of the constrained parameters")
    sizes = tuple(len(model.params[p].domain) for p in order)
    if mode is EncodingMode.FULL:
        widths = tuple(_ceil_log2(s) for s in sizes)
    else:
        widths = tuple(_ceil_log2(s + 1) for s in sizes)
    offsets = []
    total = 0
    for w in widths:
        offsets.append(total)
        total += w
    var_bits = tuple((p, j) for p, w in zip(order, widths) for j in range(w))
    return Encoding(mode=mode, order=tuple(order), sizes=sizes, widths=widths,
                    offsets=tuple(offsets), total_bits=total, var_bits=var_bits,
                    dropped=frozenset(range(model.n)) - constrained,
                    n_params=model.n)


def encode_full(enc: Encoding, assignment: Sequence[Optional[int]]) -> list[int]:
    """Encode an assignment's constrained parameters as a bit vector.

    Each value is written least-significant-bit first into its parameter's
    bit range.  Unspecified positions become the all-ones codeword, which is
    only representable in WITH_DASH mode.
    """
    if len(assignment) != enc.n_params:
        raise ValueError(f"expected {enc.n_params} values, got {len(assignment)}")
    for param, size in zip(enc.order, enc.sizes):
        v = assignment[param]
        if v is None:
            if enc.mode is EncodingMode.FULL:
                raise ValueError(f"parameter #{param} is unspecified, which the "
                                 "FULL encoding cannot represent")
        elif not 0 <= v < size:
            raise ValueError(f"value {v} out of range for parameter #{param} "
                             f"(domain size {size})")
    return [1 if (v := assignment[p]) is None else (v >> j) & 1
            for p, j in enc.var_bits]


@dataclass
class CompiledConstraints:
    manager: BddManager
    f: int  # accepts exactly the encodings of valid full test cases
    encoding: Encoding
    model: SutModel


def compile_constraints(model: SutModel, enc: Encoding, mgr: BddManager) -> CompiledConstraints:
    """Build the BDD accepting exactly the valid full test cases."""
    if mgr.var_count != enc.total_bits:
        raise ValueError(f"manager has {mgr.var_count} variables, encoding needs "
                         f"{enc.total_bits}")
    terms = [_value_le(mgr, enc, pos, enc.sizes[pos] - 1)
             for pos in range(len(enc.order))]
    terms += [_translate(mgr, enc, c) for c in model.constraints]
    # Conjoin pairwise in rounds: the operands stay the size of a few
    # terms, where one growing accumulator would be rebuilt per term.
    while len(terms) > 1:
        pairs = [mgr.apply(Op.AND, a, b) for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs):]
    f = terms[0] if terms else TRUE
    return CompiledConstraints(manager=mgr, f=f, encoding=enc, model=model)


def _value_le(mgr: BddManager, enc: Encoding, pos: int, const: int) -> int:
    """BDD for "encoded value of the parameter at ``pos`` <= const"."""
    width = enc.widths[pos]
    offset = enc.offsets[pos]
    acc = TRUE
    for j in range(width):  # LSB upward
        var = mgr.mk_var(offset + j)
        if (const >> j) & 1:
            acc = mgr.apply(Op.OR, mgr.negate(var), acc)
        else:
            acc = mgr.apply(Op.AND, mgr.negate(var), acc)
    return acc


def _value_eq(mgr: BddManager, enc: Encoding, pos: int, value: int) -> int:
    width = enc.widths[pos]
    offset = enc.offsets[pos]
    return mgr.make_assignment_cube(
        (offset + j, (value >> j) & 1) for j in range(width))


def _params_eq(mgr: BddManager, enc: Encoding, pos_a: int, pos_b: int) -> int:
    # Compare the overlapping low bits; any excess high bits of the wider
    # parameter must be zero for the values to be equal.
    wa, wb = enc.widths[pos_a], enc.widths[pos_b]
    oa, ob = enc.offsets[pos_a], enc.offsets[pos_b]
    res = TRUE
    for j in range(min(wa, wb)):
        same = mgr.negate(mgr.apply(Op.XOR, mgr.mk_var(oa + j), mgr.mk_var(ob + j)))
        res = mgr.apply(Op.AND, res, same)
    wide_off = oa if wa > wb else ob
    for j in range(min(wa, wb), max(wa, wb)):
        res = mgr.apply(Op.AND, res, mgr.negate(mgr.mk_var(wide_off + j)))
    return res


# The BDD operator of each connective.
_CONNECTIVE_OPS = {"&&": Op.AND, "||": Op.OR, "=>": Op.IMPLIES}


def _translate(mgr: BddManager, enc: Encoding, expr: ConstraintExpr) -> int:
    if isinstance(expr, Not):
        return mgr.negate(_translate(mgr, enc, expr.child))
    if isinstance(expr, Connective):
        # Left operand first: the order of the apply calls fixes the store.
        return mgr.apply(_CONNECTIVE_OPS[expr.op], _translate(mgr, enc, expr.left),
                         _translate(mgr, enc, expr.right))
    if isinstance(expr, CompareParams):
        eq = _params_eq(mgr, enc, enc.order.index(expr.left),
                        enc.order.index(expr.right))
        return eq if expr.op == "=" else mgr.negate(eq)
    pos = enc.order.index(expr.param)
    op, value = expr.op, expr.value
    if op in ("=", "!="):
        eq = _value_eq(mgr, enc, pos, value)
        return eq if op == "=" else mgr.negate(eq)
    if op in ("<=", ">"):
        le = _value_le(mgr, enc, pos, value)
        return le if op == "<=" else mgr.negate(le)
    # "<" and ">=" split the domain below ``value``.
    if value == 0:
        return FALSE if op == "<" else TRUE
    le = _value_le(mgr, enc, pos, value - 1)
    return le if op == "<" else mgr.negate(le)
