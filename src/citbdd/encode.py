"""Boolean encodings of parameters and compilation of constraints to a BDD.

Each parameter that occurs in a constraint gets a contiguous range of
Boolean variables, and value ``v`` is written into it least significant
bit first.  ``Encoding.codes`` spells that layout out once: ``codes[pos][v]``
holds the ``(variable, bit)`` literals of value ``v`` of the parameter at
``pos``, and under ``WITH_DASH`` ``codes[pos][size]`` holds the all-ones
codeword.  ``encode_full``, the compiled ``=`` and ``!=`` relations and
both BDD validity handlers read it.  Two encodings exist:

* ``FULL`` uses ceil(log2 |D|) bits per parameter and can represent only
  fixed values;
* ``WITH_DASH`` uses ceil(log2(|D|+1)) bits and reserves the all-ones
  codeword of each parameter for the unspecified marker.

Parameters not occurring in any constraint, ``SutModel.dropped``, never
influence validity and are left out of the encoding.  The encoded parameter
order is static, and small compiled BDDs need related parameters close
together in it.
``tree_order`` places parameters close when they appear close together in
the constraint parse trees; ``order_parameters``, the default, starts FORCE
from that order: it reads each constraint as a hyperedge on its parameters
and, round by round, moves every parameter to the mean centre of its
constraints, keeping the order whose constraints span the fewest positions.
On a 60-parameter synth-style model this cuts ``f`` from 2,825 nodes to
1,098, and a 200-parameter one that does not compile in 1 GB under the
parse-tree order alone compiles in a few tenths of a second.

``compile_constraints`` builds the function accepting exactly the encodings
of the constraint-satisfying full test cases: the conjunction of a per
parameter domain bound (encoded value <= |D|-1, derived from the binary
representation of |D|-1) with the bit-level translation of every
constraint.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .bdd import FALSE, TRUE, BddManager, Op
from .model import Compare, CompareParams, ConstraintExpr, SutModel, fold, occurrences


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
    # Per position, each value's (variable, bit) literals, then the dash's under WITH_DASH.
    codes: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    n_params: int


def tree_order(model: SutModel) -> tuple[int, ...]:
    """Order the constrained parameters by mutual parse-tree distance.

    The first parameter minimizes the sum of distances to all other
    constrained parameters; each following pick minimizes the sum of
    distances to those already selected.  Ties break toward the lower
    declaration index.  Parameters selected earlier receive lower variable
    indices (nearest the BDD root).  ``order_parameters`` starts FORCE
    from this order.
    """
    # The trees hang from a virtual root, and a relation's operands are
    # leaves one step below it.  Each subtree folds to a map from its
    # parameters to their least distance down to an occurrence, counted from
    # the node above it: 2 for a relation's own operands.  Where two subtrees
    # meet, at a connective or between a relation's operands, a parameter on
    # one side and another on the other are the sum of their distances
    # apart; the least such sum over all meeting points is the pair's
    # nearest distance within one tree.  A ``Not`` is a join with nothing on
    # the other side.
    near: dict[tuple[int, int], int] = {}

    def join(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
        for p, dp in left.items():
            for q, dq in right.items():
                if p != q and dp + dq < near.get((p, q), dp + dq + 1):
                    near[p, q] = near[q, p] = dp + dq
        up = {p: d + 1 for p, d in left.items()}
        for q, d in right.items():
            up[q] = min(up.get(q, d + 1), d + 1)
        return up

    def relation(r: Union[Compare, CompareParams]) -> dict[int, int]:
        return {r.param: 2} if isinstance(r, Compare) else join({r.left: 1}, {r.right: 1})

    depth: dict[int, int] = {}  # each parameter's shallowest occurrence
    for c in model.constraints:
        tree = fold(c, relation, lambda m: join(m, {}), lambda op, a, b: join(a, b))
        for p, d in tree.items():
            depth[p] = min(depth.get(p, d), d)
    params = sorted(depth)
    if len(params) <= 1:
        return tuple(params)
    # Occurrences in different trees are their depths' sum apart, through
    # the virtual root, and two in one tree may be nearer than that.  So a
    # pair's distance is the sum of its depths less its saving, which only
    # pairs that meet in one tree have.
    save: dict[int, dict[int, int]] = {p: {} for p in params}
    for (p, q), gap in near.items():
        if gap < depth[p] + depth[q]:
            save[p][q] = depth[p] + depth[q] - gap
    # A parameter's distances to all the others sum to its depth once per
    # other parameter, plus their depths, less its savings.
    total = sum(depth.values())
    first = min(params, key=lambda p: ((len(params) - 2) * depth[p] + total
                                       - sum(save[p].values()), p))
    chosen = [first]
    # Running sum of each remaining parameter's distances to those chosen.
    acc = {p: depth[p] + depth[first] - save[first].get(p, 0) for p in params if p != first}
    while acc:
        nxt = min(acc, key=lambda p: (acc[p], p))
        chosen.append(nxt)
        del acc[nxt]
        dn = depth[nxt]
        for p in acc:
            acc[p] += depth[p] + dn
        for q, s in save[nxt].items():
            if q in acc:
                acc[q] -= s
    return tuple(chosen)


# Rounds FORCE runs at most when no round gives back the order before it.
FORCE_ROUNDS = 50


def order_parameters(model: SutModel) -> tuple[int, ...]:
    """Order the constrained parameters: ``tree_order`` refined by FORCE.

    FORCE (Aloul, Markov and Sakallah, GLSVLSI 2003) reads each constraint
    over two or more parameters as a hyperedge on them.  A round puts each
    edge's centre at the mean position of its parameters, moves each
    parameter to the mean centre of its edges (one in no edge stays where it
    is) and re-sorts by that target, ties kept in the current order.  The
    rounds stop when one gives back the order before it, or after
    ``FORCE_ROUNDS``; the result is the order, seed included, with the least
    total span, the sum over the edges of their last position less their
    first.  A later order replaces it only by a strictly smaller span.
    """
    seed = tree_order(model)
    index = {p: i for i, p in enumerate(seed)}
    # Parameters are numbered by their seed position; pos[v] is v's place.
    edges = [sorted({index[p] for p in occurrences(c)}) for c in model.constraints]
    edges = [e for e in edges if len(e) > 1]
    if not edges:
        return seed
    k = len(seed)
    incident: list[list[int]] = [[] for _ in range(k)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    order, pos = list(range(k)), list(range(k))

    def span() -> int:
        total = 0
        for e in edges:
            places = [pos[v] for v in e]
            total += max(places) - min(places)
        return total

    best, best_span = order, span()
    for _ in range(FORCE_ROUNDS):
        centre = [sum([pos[v] for v in e]) / len(e) for e in edges]
        target = [sum([centre[i] for i in inc]) / len(inc) if inc else pos[v]
                  for v, inc in enumerate(incident)]
        # A stable sort of the current order: ties keep their places.
        moved = sorted(order, key=target.__getitem__)
        if moved == order:
            break
        order = moved
        for place, v in enumerate(order):
            pos[v] = place
        total = span()
        if total < best_span:
            best, best_span = order, total
    return tuple(seed[v] for v in best)


def make_encoding(model: SutModel, mode: EncodingMode,
                  order: Optional[Sequence[int]] = None) -> Encoding:
    """Lay out bit ranges for the constrained parameters of ``model``.

    ``order`` overrides the default, ``order_parameters``; it must be a
    permutation of the constrained parameters.
    """
    if order is None:
        order = order_parameters(model)
    else:
        order = tuple(order)
        if (any(type(p) is not int for p in order)
                or sorted(order) != [p for p in range(model.n) if p not in model.dropped]):
            raise ValueError("order must be a permutation of the constrained parameters")
    sizes = tuple(len(model.params[p].domain) for p in order)
    full = mode is EncodingMode.FULL
    widths, offsets, codes = [], [], []
    total = 0
    for size in sizes:
        # The codewords: each value least significant bit first, then the dash, all ones.
        w = _ceil_log2(size if full else size + 1)
        values = range(size) if full else (*range(size), (1 << w) - 1)
        codes.append(tuple(tuple((total + j, (v >> j) & 1) for j in range(w))
                           for v in values))
        widths.append(w)
        offsets.append(total)
        total += w
    # Either way ``order`` holds exactly the constrained parameters.
    return Encoding(mode=mode, order=order, sizes=sizes, widths=tuple(widths),
                    offsets=tuple(offsets), total_bits=total, codes=tuple(codes),
                    n_params=model.n)


def encode_full(enc: Encoding, assignment: Sequence[Optional[int]]) -> list[int]:
    """Encode an assignment's constrained parameters as a bit vector.

    Each value's codeword in ``enc.codes`` fills its parameter's bit range.
    Unspecified positions take the all-ones codeword, which only WITH_DASH
    mode has.
    """
    if len(assignment) != enc.n_params:
        raise ValueError(f"expected {enc.n_params} values, got {len(assignment)}")
    bits = []
    for param, size, codes in zip(enc.order, enc.sizes, enc.codes):
        v = assignment[param]
        if v is None:
            if enc.mode is EncodingMode.FULL:
                raise ValueError(f"parameter #{param} is unspecified, which the "
                                 "FULL encoding cannot represent")
            v = size  # the dash's codeword
        else:
            try:
                in_range = 0 <= operator.index(v) < size  # True is 1, 1.0 no index
            except TypeError:
                in_range = False
            if not in_range:
                raise ValueError(f"value {v} out of range for parameter #{param} "
                                 f"(domain size {size})")
        bits += (bit for _, bit in codes[v])
    return bits


@dataclass
class CompiledConstraints:
    manager: BddManager
    f: int  # accepts exactly the encodings of valid full test cases
    encoding: Encoding
    model: SutModel


def compile_constraints(model: SutModel, enc: Encoding, mgr: BddManager) -> CompiledConstraints:
    """Build the BDD accepting exactly the valid full test cases, then offer
    the terms to ``BddManager.collect`` with ``f`` as the only root."""
    if mgr.var_count != enc.total_bits:
        raise ValueError(f"manager has {mgr.var_count} variables, encoding needs "
                         f"{enc.total_bits}")
    base = mgr.node_count + 2  # the first handle compiling makes
    terms = [_value_le(mgr, enc, pos, enc.sizes[pos] - 1)
             for pos in range(len(enc.order))]
    terms += [_translate(mgr, enc, c) for c in model.constraints]
    # Conjoin pairwise in rounds: the operands stay the size of a few
    # terms, where one growing accumulator would be rebuilt per term.
    while len(terms) > 1:
        pairs = [mgr.apply(Op.AND, a, b) for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs):]
    f = mgr.collect(base, terms or (TRUE,))[0]
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
    def relation(r: Union[Compare, CompareParams]) -> int:
        if isinstance(r, CompareParams):
            eq = _params_eq(mgr, enc, enc.order.index(r.left), enc.order.index(r.right))
            return eq if r.op == "=" else mgr.negate(eq)
        pos = enc.order.index(r.param)
        op, value = r.op, r.value
        if op in ("=", "!="):
            eq = mgr.make_assignment_cube(enc.codes[pos][value])
            return eq if op == "=" else mgr.negate(eq)
        if op in ("<=", ">"):
            le = _value_le(mgr, enc, pos, value)
            return le if op == "<=" else mgr.negate(le)
        # "<" and ">=" split the domain below ``value``.
        if value == 0:
            return FALSE if op == "<" else TRUE
        le = _value_le(mgr, enc, pos, value - 1)
        return le if op == "<" else mgr.negate(le)

    # Left operand first, as ``fold`` goes: the order of the applies fixes the store.
    return fold(expr, relation, mgr.negate,
                lambda op, a, b: mgr.apply(_CONNECTIVE_OPS[op], a, b))
