"""Nonlinear sl(2) algebras: unitary irreps, family enumeration, Hopf checks."""

import importlib.util
import sys
import threading

from .halfint import HalfInt, halfint, ladder, ladder_desc
from .coefficients import alpha_from_beta, bernoulli, beta_from_alpha, epsilon, phi_eval, phi_prime, power_sum_oracle
from .structure import (HiggsShifted, Polynomial, QBase, QuadraticShifted, StructureSpec, admissible,
                        f2_higgs_shifted_down, f2_higgs_shifted_up, f2_polynomial, f2_qbase, f2_quadratic_down,
                        f2_quadratic_up)
from .repbuilder import (InadmissibleSpecError, MatrixRep, NonBijectiveError, build_deformed, build_quadratic_explicit,
                         build_sl2, build_uq, casimir_matrix, deformed_from_undeformed, inverse_map_polynomial,
                         inverse_map_uq)
from .verifier import (VerificationReport, commutator_residuals, exact_recurrence_check, q_series_identity_residual,
                       q_shift_rigidity)
from .qdeform import QParam, q_beta_coeffs, q_bracket, qbase_example_commutator, uq_casimir_relation

_LAZY = {  # each name of the family scan and the product layer, and the module that defines it
    **dict.fromkeys(("FamilySolution", "family_count", "higgs_beta_window", "higgs_gamma_roots", "quadratic_gamma",
                     "scan"), "families"),
    **dict.fromkeys(("Coproduct", "ProductRep", "cocommutativity_check", "cocommutativity_residuals",
                     "deformed_coproduct", "hopf_axiom_checks", "primitive_coproduct", "product_casimir_spectrum",
                     "quadratic_coproduct", "transferred_coproduct"), "hopf"),
}
_lazy_lock = threading.Lock()


def _deferred(name: str):
    """nlsl2.<name> in sys.modules, its body run on the first read of one of its attributes (LazyLoader): a run
    that scans no family or forms no product never compiles that layer, yet finds every layer module there."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families, hopf = _deferred("families"), _deferred("hopf")

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
    "QParam", "q_beta_coeffs", "q_bracket", "qbase_example_commutator", "uq_casimir_relation",
    *_LAZY,
]


def __getattr__(name):
    """A name of `_LAZY`, read from its module (PEP 562); that module's names are then bound here, so later reads
    are plain lookups. Under the lock, a second thread's first read waits while the module's body runs."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _lazy_lock:
        module = globals()[_LAZY[name]]
        globals().update((n, getattr(module, n)) for n, m in _LAZY.items() if m == _LAZY[name])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
