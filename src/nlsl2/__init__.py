"""Nonlinear sl(2) algebras: unitary irreps, family enumeration, Hopf checks.

Every layer loads on first use: `import nlsl2` puts each layer module in sys.modules unloaded (LazyLoader), and
its body runs on the first read of one of its attributes, loading the layers it imports. So a run compiles only
the layers it calls: `nlsl2 coeffs` imports no NumPy, and only `nlsl2 hopf` and the product API load `hopf`. A
name of `__all__` read through the package binds its module's names here under a lock, so two threads' first
reads get one object from one run of the body; on Python < 3.12.3, a first read made directly through
`nlsl2.<module>.<name>` from two threads at once is not covered.
"""

import importlib.util
import sys
import threading

_LAZY = {name: module for module, names in (  # each exported name, and the layer module that defines it
    ("halfint", "HalfInt halfint"),
    ("coefficients", "alpha_from_beta bernoulli beta_from_alpha epsilon phi_eval phi_prime power_sum_oracle"),
    ("structure", "HiggsShifted Polynomial QBase QuadraticShifted StructureSpec admissible"),
    ("repbuilder", "InadmissibleSpecError MatrixRep NonBijectiveError build_deformed build_quadratic_explicit "
                   "build_sl2 build_uq casimir_matrix deformed_from_undeformed inverse_map_polynomial inverse_map_uq"),
    ("verifier", "VerificationReport commutator_residuals exact_recurrence_check q_series_identity_residual "
                 "q_shift_rigidity"),
    ("qdeform", "QParam q_beta_coeffs q_bracket qbase_example_commutator uq_casimir_relation"),
    ("families", "FamilySolution family_count higgs_beta_window higgs_gamma_roots quadratic_gamma scan"),
    ("hopf", "Coproduct ProductRep cocommutativity_check cocommutativity_residuals deformed_coproduct "
             "hopf_axiom_checks primitive_coproduct product_casimir_spectrum quadratic_coproduct "
             "transferred_coproduct"),
) for name in names.split()}
_lazy_lock = threading.Lock()
__all__ = [*_LAZY]


def _deferred(name: str):
    """nlsl2.<name> in sys.modules, unloaded: its body runs on the first read of one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = {layer: _deferred(layer) for layer in dict.fromkeys(_LAZY.values())}
globals().update((layer, m) for layer, m in _layers.items() if layer not in _LAZY)  # nlsl2.halfint is the function


def __getattr__(name):
    """A name of `_LAZY`, read from its module (PEP 562); that module's names are then bound here, so later reads
    are plain lookups. Under the lock, a second thread's first read waits while the module's body runs."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _lazy_lock:
        module = _layers[_LAZY[name]]
        globals().update((n, getattr(module, n)) for n, m in _LAZY.items() if m == _LAZY[name])
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
