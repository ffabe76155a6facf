"""Constrained covering-array generation with BDD-backed validity checking.

The package generates t-wise covering test suites for parameterized systems
whose test cases must satisfy constraints.  Validity of full and partial
test cases is decided either by a brute-force oracle, by conjoining a test
case cube with the compiled constraint BDD, or by a single traversal of a
BDD that encodes every valid full and partial test case.
"""

from .bdd import FALSE, TRUE, BddError, BddManager, Op, ResourceLimitError
from .encode import (
    CompiledConstraints, Encoding, EncodingMode,
    compile_constraints, constrained_params, encode_full, make_encoding,
    order_parameters,
)
from .ipog import TestSuite, VerifyReport, generate, skip_unconstrained_check, verify
from .model import (
    Assignment, ModelError, Parameter, SutModel,
    eval_constraints, format_constraint, parse_constraint, parse_model,
)
from .validity import (
    HANDLER_AND, HANDLER_KINDS, HANDLER_ORACLE, HANDLER_PARTIAL_DOWN,
    HANDLER_PARTIAL_UP, ConjunctionHandler, OracleHandler, PartialValidityBdd,
    QuantOrder, TraversalHandler, ValidityHandler,
    build_handler, build_partial_bdd,
)

__version__ = "0.1.0"
