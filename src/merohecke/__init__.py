"""Exact q-expansion arithmetic for level-one modular forms.

Truncated Laurent series over the rationals, Eisenstein/discriminant/j
expansions, Hecke operators in any even weight, pole-bounded weakly
holomorphic bases with obstruction theory, Hecke action on principal-part
quotients, and an arbitrary-precision numeric layer for evaluation on the
upper half-plane.
"""

from .qseries import (
    LaurentSeries,
    QSeriesError,
    ZeroLeadingCoefficient,
    InsufficientPrecision,
    PrecisionExceeded,
    as_coeff,
    compare,
    to_json_obj,
    from_json_obj,
    dumps,
    loads,
)
from .forms import (
    ModularForm,
    FormBasis,
    HOLOMORPHIC,
    CUSPIDAL,
    bernoulli,
    sigma,
    eisenstein,
    delta,
    j_function,
    dim_modular,
    dim_cusp,
    dimension,
    basis,
    hecke_matrix_on_space,
    hecke_charpoly_on_space,
    clear_cache,
)
from .hecke import t_op, u_op, v_op, t_op_via_uv, divisors
from .whbasis import (
    PrincipalPart,
    ObstructionWitness,
    NonUniqueSolution,
    NotPolynomialInJ,
    wh_slice_basis,
    obstruction,
    solve_principal_part,
    j_polynomial_decompose,
    bol_image_membership,
)
from .quotient import (
    MOD_M,
    MOD_S,
    QuotientClass,
    SingularCoordinateMatrix,
    hecke_on_principal_part,
    class_of,
    quotient_hecke_matrix,
    theorem_check,
    eigen_witness,
)
from .meroforms import (
    CONSTRUCTIONS,
    IdentityReport,
    build,
    build_expression,
    identity_ids,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentSeries", "QSeriesError", "ZeroLeadingCoefficient",
    "InsufficientPrecision", "PrecisionExceeded", "as_coeff",
    "compare", "to_json_obj", "from_json_obj",
    "dumps", "loads",
    "ModularForm", "FormBasis", "HOLOMORPHIC", "CUSPIDAL", "bernoulli",
    "sigma", "eisenstein", "delta", "j_function", "dim_modular", "dim_cusp",
    "dimension", "basis", "hecke_matrix_on_space", "hecke_charpoly_on_space",
    "clear_cache",
    "t_op", "u_op", "v_op", "t_op_via_uv", "divisors",
    "PrincipalPart", "ObstructionWitness", "NonUniqueSolution",
    "NotPolynomialInJ", "wh_slice_basis", "obstruction",
    "solve_principal_part", "j_polynomial_decompose", "bol_image_membership",
    "MOD_M", "MOD_S", "QuotientClass", "SingularCoordinateMatrix",
    "hecke_on_principal_part", "class_of", "quotient_hecke_matrix",
    "theorem_check", "eigen_witness",
    "CONSTRUCTIONS", "IdentityReport", "build",
    "build_expression", "identity_ids", "verify_identity",
    "__version__",
]
