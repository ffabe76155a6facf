"""Seeded benchmark instances, emitted as model-file text.

The benchmark hands the library model text rather than model objects, so
parsing is part of the measured set-up.  The same seed always yields
byte-identical text.
"""

from __future__ import annotations

import random
import string
from typing import Optional

# Constraint shapes of the synth family, after models/synth20.model: an
# implication whose premise fixes or bounds one or two parameters and whose
# conclusion excludes or bounds another.  Each forbids one value combination
# of the parameters it relates, so how tightly a model is constrained, and
# with it the suite size, does not swing with the seed.  Each takes the
# random source, the names and the domain sizes of the related parameters
# and returns the constraint line.


def _eq_then_neq(rng, names, sizes):
    a, b = names[:2]
    return (f"{a} = {rng.randrange(sizes[0])} => "
            f"{b} != {rng.randrange(sizes[1])}")


def _ge_then_le(rng, names, sizes):
    a, b = names[:2]
    return f"{a} >= {sizes[0] - 1} => {b} <= {sizes[1] - 2}"


def _two_eq_then_neq(rng, names, sizes):
    a, b, c = names
    return (f"{a} = {rng.randrange(sizes[0])} && {b} = {rng.randrange(sizes[1])}"
            f" => {c} != {rng.randrange(sizes[2])}")


def _params_eq_then_neq(rng, names, sizes):
    a, b, c = names
    return f"{a} = {b} => {c} != {rng.randrange(sizes[2])}"


def _lt_then_ge(rng, names, sizes):
    a, b = names[:2]
    return f"{a} < 1 => {b} >= 1"


_SHAPES = (_eq_then_neq, _ge_then_le, _two_eq_then_neq, _params_eq_then_neq,
           _lt_then_ge)


def synth_model(shape_rng: random.Random, value_rng: random.Random,
                n_params: int, n_constrained: int, n_constraints: int,
                window: int, title: str,
                label_rng: Optional[random.Random] = None) -> str:
    """A synth-style model: domains of 2 to 4 values, and implication,
    comparison and equality constraints over three parameters drawn from a
    constrained subset.

    ``shape_rng`` decides which parameter gets which domain size, which
    parameters are constrained, which ones each constraint relates and its
    shape; ``value_rng`` decides the values the constraints name, and
    ``label_rng``, when given, draws the value labels (else they are the
    value indices; constraints name values by index either way).  The
    constrained parameters stand on a ring in declaration order, and each
    constraint relates parameters fewer than ``window`` places apart on it.
    """
    # A fixed mix of domain sizes (as in synth20: three tenths of the
    # parameters have four values, three tenths two, the rest three) keeps
    # the number of t-way combinations, and so the cost of a suite, steady
    # from seed to seed.
    fours = twos = round(0.3 * n_params)
    sizes = [4] * fours + [2] * twos + [3] * (n_params - fours - twos)
    shape_rng.shuffle(sizes)
    names = [f"p{i:02d}" for i in range(n_params)]
    ring = sorted(shape_rng.sample(range(n_params), n_constrained))
    lines = [f"# {title}", "[PARAMETERS]"]
    for name, size in zip(names, sizes):
        labels = ([str(v) for v in range(size)] if label_rng is None else
                  ["".join(label_rng.choices(string.ascii_lowercase, k=5)) + str(v)
                   for v in range(size)])
        lines.append(f"{name}: " + ", ".join(labels))
    lines += ["", "[CONSTRAINTS]"]
    for k in range(n_constraints):
        # Constraint k starts an even step further round the ring, so every
        # constrained parameter is within reach of some constraint.
        start = k * n_constrained // n_constraints
        near = [ring[(start + j) % n_constrained] for j in range(window)]
        picked = [near[0]] + shape_rng.sample(near[1:], 2)
        shape = shape_rng.choice(_SHAPES)
        lines.append(shape(value_rng, [names[p] for p in picked],
                           [sizes[p] for p in picked]))
    return "\n".join(lines) + "\n"


def chain_model(n_params: int) -> str:
    """An implication chain: each parameter equals its successor unless it
    takes the first value, ``cK = cK+1 || cK = v0``."""
    names = [f"c{i:03d}" for i in range(n_params)]
    lines = [f"# implication chain over {n_params} parameters", "[PARAMETERS]"]
    lines += [f"{name}: v0, v1, v2" for name in names]
    lines += ["", "[CONSTRAINTS]"]
    lines += [f"{a} = {b} || {a} = v0" for a, b in zip(names, names[1:])]
    return "\n".join(lines) + "\n"


def deep_nesting_model(depth: int) -> str:
    """One constraint under ``depth`` negations: ``!!!…(x = a)``."""
    return ("[PARAMETERS]\nx: a, b\n\n[CONSTRAINTS]\n"
            + "!" * depth + "(x = a)\n")
