"""Random SUT models for agreement sweeps and property tests.

Each constraint draws its relations from a small pool of parameters (at
most three) and has bounded depth, which keeps the brute-force oracle cheap
while still producing unsatisfiable models, vacuous constraints, and
parameter-to-parameter relations from time to time.
"""

import random

from citbdd.model import (
    Compare, CompareParams, Connective, Not, Parameter, SutModel,
)

_CONST_OPS = ("=", "!=", "<", "<=", ">", ">=")
_PARAM_OPS = ("=", "!=")


def _random_relation(rng: random.Random, pool, sizes):
    if len(pool) >= 2 and rng.random() < 0.2:
        a, b = rng.sample(pool, 2)
        return CompareParams(a, rng.choice(_PARAM_OPS), b)
    p = rng.choice(pool)
    op = rng.choice(_CONST_OPS)
    return Compare(p, op, rng.randrange(sizes[p]))


def _random_tree(rng: random.Random, pool, sizes, depth):
    if depth <= 0 or rng.random() < 0.35:
        return _random_relation(rng, pool, sizes)
    shape = rng.random()
    if shape < 0.2:
        return Not(_random_tree(rng, pool, sizes, depth - 1))
    # The connective is drawn before its operands, left operand first:
    # the golden hashes of the random models depend on this order of draws.
    op = rng.choice(("&&", "||", "=>"))
    left = _random_tree(rng, pool, sizes, depth - 1)
    return Connective(left, op, _random_tree(rng, pool, sizes, depth - 1))


def random_model(rng: random.Random, max_params: int = 6, max_domain: int = 4,
                 max_constraints: int = 4, min_params: int = 2,
                 min_domain: int = 2) -> SutModel:
    n = rng.randint(min_params, max_params)
    sizes = [rng.randint(min_domain, max_domain) for _ in range(n)]
    params = tuple(
        Parameter(f"p{i}", tuple(f"v{j}" for j in range(sizes[i])))
        for i in range(n)
    )
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        pool = rng.sample(range(n), rng.randint(1, min(3, n)))
        constraints.append(_random_tree(rng, pool, sizes, depth=2))
    return SutModel(params, tuple(constraints))


def all_assignments(model):
    """Every full and partial assignment of the model, dash included."""
    from itertools import product
    choices = [(None, *range(s)) for s in model.sizes]
    return product(*choices)


def chain_model(n: int) -> SutModel:
    """An implication chain of ``n`` three-valued parameters: each equals
    its successor unless it takes the first value."""
    params = tuple(Parameter(f"c{i}", ("v0", "v1", "v2")) for i in range(n))
    return SutModel(params, tuple(
        Connective(CompareParams(k, "=", k + 1), "||", Compare(k, "=", 0))
        for k in range(n - 1)))


def synth_model(rng: random.Random, n_params: int, n_constrained: int,
                n_constraints: int, window: int) -> SutModel:
    """A synth-style model, after ``models/synth20.model``: three tenths of
    the parameters have four values, three tenths two and the rest three,
    and each constraint is an implication over two or three of the
    constrained parameters.  Those stand on a ring in declaration order,
    constraint ``k`` starts an even step further round it, and it relates
    parameters fewer than ``window`` places apart."""
    fours = twos = round(0.3 * n_params)
    sizes = [4] * fours + [2] * twos + [3] * (n_params - fours - twos)
    rng.shuffle(sizes)
    params = tuple(Parameter(f"p{i:02d}", tuple(str(v) for v in range(size)))
                   for i, size in enumerate(sizes))
    ring = sorted(rng.sample(range(n_params), n_constrained))
    constraints = []
    for k in range(n_constraints):
        start = k * n_constrained // n_constraints
        near = [ring[(start + j) % n_constrained] for j in range(window)]
        a, b, c = [near[0]] + rng.sample(near[1:], 2)
        shape = rng.randrange(5)
        if shape == 0:
            premise = Compare(a, "=", rng.randrange(sizes[a]))
            conclusion = Compare(b, "!=", rng.randrange(sizes[b]))
        elif shape == 1:
            premise = Compare(a, ">=", sizes[a] - 1)
            conclusion = Compare(b, "<=", sizes[b] - 2)
        elif shape == 2:
            premise = Connective(Compare(a, "=", rng.randrange(sizes[a])), "&&",
                                 Compare(b, "=", rng.randrange(sizes[b])))
            conclusion = Compare(c, "!=", rng.randrange(sizes[c]))
        elif shape == 3:
            premise = CompareParams(a, "=", b)
            conclusion = Compare(c, "!=", rng.randrange(sizes[c]))
        else:
            premise, conclusion = Compare(a, "<", 1), Compare(b, ">=", 1)
        constraints.append(Connective(premise, "=>", conclusion))
    return SutModel(params, tuple(constraints))
