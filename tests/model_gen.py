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
                 max_constraints: int = 4) -> SutModel:
    n = rng.randint(2, max_params)
    sizes = [rng.randint(2, max_domain) for _ in range(n)]
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
