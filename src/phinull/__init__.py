"""Pointwise spectral engine for Osserman-type conditions on Lorentzian framed structures."""

__version__ = "0.1.0"

from .linalg import (
    CausalCharacter,
    CausalCharacterError,
    DegenerateSubspaceError,
    GeometryError,
    ScalarProduct,
    SubspaceBasis,
    causal_character,
    inner,
    orthogonal_complement,
    orthonormalize,
)
from .gff import (
    GffStructure,
    canonical_structure,
    fundamental_two_form,
    psi,
    psi_inverse,
    sample_celestial,
    sample_null_congruence,
    sample_phi_celestial,
    sample_phi_null_congruence,
    validate_gff,
)
from .curvature import (
    CurvatureTensor,
    constant_curvature,
    phi_model_family,
    random_algebraic_curvature,
    sectional_curvature,
    sectional_curvatures,
    symmetrize_curvature,
    validate_curvature,
)
from .jacobi import (
    DecisionReport,
    JacobiOperator,
    NullQuotient,
    PhiNullReport,
    SpectralData,
    SpectrumError,
    is_null_osserman_wrt,
    is_osserman_at,
    is_phi_null_osserman_wrt,
    jacobi,
    null_jacobi,
    null_quotient,
    spectrum,
)
from .submersion import (
    BaseStructure,
    FibrationKind,
    FibrationModel,
    RemarkKind,
    base_null_osserman_check,
    base_osserman_check,
    base_structure,
    make_fibration,
    oneill_A,
    r_star,
    remark_sectional_conditions,
    shift_identity_residual,
    theorem_equivalence_report,
)
from .io import (
    InstanceFile,
    InstanceMetadata,
    InstanceValidationError,
    generate_instance,
    load_instance,
    save_instance,
)

__all__ = [
    "__version__",
    # linalg
    "CausalCharacter", "CausalCharacterError", "DegenerateSubspaceError",
    "GeometryError", "ScalarProduct", "SubspaceBasis", "causal_character",
    "inner", "orthogonal_complement", "orthonormalize",
    # gff
    "GffStructure", "canonical_structure",
    "fundamental_two_form", "psi", "psi_inverse", "sample_celestial",
    "sample_null_congruence", "sample_phi_celestial",
    "sample_phi_null_congruence", "validate_gff",
    # curvature
    "CurvatureTensor", "constant_curvature", "phi_model_family",
    "random_algebraic_curvature", "sectional_curvature", "sectional_curvatures",
    "symmetrize_curvature", "validate_curvature",
    # jacobi
    "DecisionReport", "JacobiOperator", "NullQuotient", "PhiNullReport",
    "SpectralData", "SpectrumError", "is_null_osserman_wrt", "is_osserman_at",
    "is_phi_null_osserman_wrt", "jacobi", "null_jacobi", "null_quotient",
    "spectrum",
    # submersion
    "BaseStructure", "FibrationKind", "FibrationModel", "RemarkKind",
    "base_null_osserman_check", "base_osserman_check", "base_structure",
    "make_fibration", "oneill_A", "r_star", "remark_sectional_conditions",
    "shift_identity_residual", "theorem_equivalence_report",
    # io
    "InstanceFile", "InstanceMetadata", "InstanceValidationError",
    "generate_instance", "load_instance", "save_instance",
]
