"""Nonlinear sl(2) algebras: unitary irreps, family enumeration, Hopf checks."""

from .halfint import HalfInt, halfint, ladder, ladder_desc
from .coefficients import (
    alpha_from_beta,
    bernoulli,
    beta_from_alpha,
    epsilon,
    phi_eval,
    phi_prime,
    power_sum_oracle,
)
from .structure import (
    HiggsShifted,
    Polynomial,
    QBase,
    QuadraticShifted,
    StructureSpec,
    admissible,
    f2_higgs_shifted_down,
    f2_higgs_shifted_up,
    f2_polynomial,
    f2_qbase,
    f2_quadratic_down,
    f2_quadratic_up,
)
from .repbuilder import (
    InadmissibleSpecError,
    MatrixRep,
    NonBijectiveError,
    build_deformed,
    build_quadratic_explicit,
    build_sl2,
    build_uq,
    casimir_matrix,
    deformed_from_undeformed,
    inverse_map_polynomial,
    inverse_map_uq,
)
from .verifier import (
    VerificationReport,
    commutator_residuals,
    exact_recurrence_check,
    q_series_identity_residual,
    q_shift_rigidity,
)
from .families import (
    FamilySolution,
    family_count,
    higgs_beta_window,
    higgs_gamma_roots,
    quadratic_gamma,
    scan,
)
from .qdeform import QParam, q_beta_coeffs, q_bracket, qbase_example_commutator, uq_casimir_relation
from .hopf import (
    Coproduct,
    ProductRep,
    cocommutativity_check,
    cocommutativity_residuals,
    deformed_coproduct,
    hopf_axiom_checks,
    primitive_coproduct,
    product_casimir_spectrum,
    quadratic_coproduct,
    transferred_coproduct,
)

__all__ = [
    "HalfInt", "halfint", "ladder", "ladder_desc",
    "alpha_from_beta", "bernoulli", "beta_from_alpha", "epsilon", "phi_eval", "phi_prime",
    "power_sum_oracle",
    "HiggsShifted", "Polynomial", "QBase", "QuadraticShifted", "StructureSpec", "admissible",
    "f2_higgs_shifted_down", "f2_higgs_shifted_up", "f2_polynomial", "f2_qbase",
    "f2_quadratic_down", "f2_quadratic_up",
    "InadmissibleSpecError", "MatrixRep", "NonBijectiveError", "build_deformed",
    "build_quadratic_explicit", "build_sl2", "build_uq", "casimir_matrix",
    "deformed_from_undeformed", "inverse_map_polynomial", "inverse_map_uq",
    "VerificationReport", "commutator_residuals", "exact_recurrence_check",
    "q_series_identity_residual", "q_shift_rigidity",
    "FamilySolution", "family_count", "higgs_beta_window", "higgs_gamma_roots",
    "quadratic_gamma", "scan",
    "QParam", "q_beta_coeffs", "q_bracket", "qbase_example_commutator", "uq_casimir_relation",
    "Coproduct", "ProductRep", "cocommutativity_check", "cocommutativity_residuals", "deformed_coproduct",
    "hopf_axiom_checks", "primitive_coproduct", "product_casimir_spectrum",
    "quadratic_coproduct", "transferred_coproduct",
]
