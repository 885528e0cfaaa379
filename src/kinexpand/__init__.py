"""Exact symbolic toolkit for kinematical Lie algebras.

Provides sparse multivariate polynomials over the rationals with named
parameters, Lie algebras given by structure constants, a normal-ordering
kernel for their enveloping algebras, curvature expansions built from
Casimir decompositions, and contraction maps — all with exact arithmetic.
"""

from .coeffring import (
    ContextMismatchError,
    DivergenceError,
    KINEMATIC_CONTEXT,
    KINEMATIC_PARAMS,
    ParamContext,
    Poly,
    PolyParseError,
    format_poly,
    parse_poly,
)
from .liealg import (
    Decomposition,
    JacobiViolation,
    LieAlgebra,
    automorphism_check,
    catalog,
    catalog_names,
    decomposition_check,
    iw_contract,
    jacobi_check,
    parameter_contract,
    spacetime_split,
    substitute_algebra,
    worldline_split,
)
from .uea import (
    NAMED_ELEMENT_KEYS,
    UEAElement,
    format_element,
    is_central,
    named_element,
    normal_form,
)
from .expansion import (
    ConstraintViolationError,
    DRIVERS,
    ExpansionRun,
    build_seed,
    closure_certificate,
    decompose_casimir,
    derive_generators,
    override_witness,
    run_euclid,
    run_negative_nh,
    run_theorem1,
    run_theorem2,
    verify_closure,
)
from .algfile import (
    AlgebraFileError,
    JacobiViolationError,
    emit_algebra,
    parse_algebra_file,
    parse_algebra_text,
)
from .exprparse import ExprParseError, parse_expression

__version__ = "0.1.0"

__all__ = [
    "ContextMismatchError",
    "DivergenceError",
    "KINEMATIC_CONTEXT",
    "KINEMATIC_PARAMS",
    "ParamContext",
    "Poly",
    "PolyParseError",
    "format_poly",
    "parse_poly",
    "Decomposition",
    "JacobiViolation",
    "LieAlgebra",
    "automorphism_check",
    "catalog",
    "catalog_names",
    "decomposition_check",
    "iw_contract",
    "jacobi_check",
    "parameter_contract",
    "spacetime_split",
    "substitute_algebra",
    "worldline_split",
    "NAMED_ELEMENT_KEYS",
    "UEAElement",
    "format_element",
    "is_central",
    "named_element",
    "normal_form",
    "ConstraintViolationError",
    "DRIVERS",
    "ExpansionRun",
    "build_seed",
    "closure_certificate",
    "decompose_casimir",
    "derive_generators",
    "override_witness",
    "run_euclid",
    "run_negative_nh",
    "run_theorem1",
    "run_theorem2",
    "verify_closure",
    "AlgebraFileError",
    "JacobiViolationError",
    "emit_algebra",
    "parse_algebra_file",
    "parse_algebra_text",
    "ExprParseError",
    "parse_expression",
    "__version__",
]
