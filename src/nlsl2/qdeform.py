"""q-number utilities and the q-deformed specializations.

The deformation parameter is the real exponent delta with q = e^delta, so
[x] = sinh(delta*x)/sinh(delta); delta = 0 is the classical limit and is
rejected by the deformed operations. q on the unit circle (roots of unity)
is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfint import HalfInt, halfint, ladder_desc


@dataclass(frozen=True)
class QParam:
    """q = exp(delta) with real nonzero delta."""

    delta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("QParam requires delta != 0 (q = e^delta must be deformed)")


def q_bracket(x: float, delta: float) -> float:
    """[x] = (q^x - q^-x)/(q - q^-1) = sinh(delta*x)/sinh(delta)."""
    if delta == 0:
        raise ValueError("q_bracket requires delta != 0")
    return math.sinh(delta * x) / math.sinh(delta)


def q_beta_coeffs(qp: QParam, count: int) -> list[float]:
    """First `count` commutator coefficients of the q-deformation.

    beta_p = delta^(2p+1) / ((2p+1)! sinh(delta)); the N -> infinity series
    with these coefficients reproduces the q-bracket commutator.
    """
    d = qp.delta
    s = math.sinh(d)
    return [d ** (2 * p + 1) / (math.factorial(2 * p + 1) * s) for p in range(count)]


def _q_bracket_values(j: HalfInt, delta: float) -> np.ndarray:
    """[m][m+1] over m = j, ..., -j-1: the f(m(m+1)) of the q-Casimir."""
    return np.array([q_bracket(m, delta) * q_bracket(m + 1, delta)
                     for m in [*(m.value for m in ladder_desc(j)), -j.value - 1]])


def q_casimir_matrix(rep, delta: float) -> np.ndarray:
    """Chat = (1/2)(J+J- + J-J+ + [J3][J3+1] + [J3][J3-1]) on a U_q irrep.

    rep is an unshifted irrep with basis m = j, ..., -j; on an irrep of
    U_q(sl(2)) the result is a multiple of the identity. A rep with the
    ladder shape gets its diagonal in O(d), bitwise equal to the dense
    products; any other rep keeps the dense matmuls (`repbuilder._ladder_casimir`).
    """
    from .repbuilder import _ladder_casimir

    return _ladder_casimir(rep, _q_bracket_values(rep.j, delta))


def uq_casimir_residuals(j, qp: QParam) -> tuple[float, float, float]:
    """Residuals of the deformed Casimir identities of U_q(sl(2)) on one irrep, each in its own units.

    From the ladder of the q-deformed rep: the spread of its Casimir diagonal Chat (units of [j+1/2]^2), and
    at Chat's first entry, with C = j(j+1), sqrt(Chat + [1/2]^2) = [sqrt(C + 1/4)] (units of [j+1/2]) and
    sqrt(C + 1/4) = (1/delta) arcsinh(sqrt(Chat + [1/2]^2) sinh(delta)) (units of j + 1/2).
    """
    from .repbuilder import _ladder_casimir_diagonal, build_uq

    j = halfint(j)
    d = qp.delta
    chat_diag = _ladder_casimir_diagonal(build_uq(j, d), _q_bracket_values(j, d))
    half = q_bracket(0.5, d)
    lhs = math.sqrt(float(chat_diag[0]) + half * half)
    back = math.asinh(lhs * math.sinh(d)) / d
    return (float(np.max(np.abs(chat_diag - chat_diag[0]))), abs(lhs - q_bracket(j.value + 0.5, d)),
            abs(back - (j.value + 0.5)))


def uq_casimir_relation(j, qp: QParam) -> float:
    """The largest of the three `uq_casimir_residuals`."""
    return max(uq_casimir_residuals(j, qp))


def qbase_example_commutator(j, beta: float, qp: QParam) -> float:
    """Residual of [J+hat, J-hat] = [2 J3](1 + beta [J3]^2) for phi(x) = x + beta x^2/[2].

    The representation is built from the q-base structure function with
    alpha = [1, beta/[2]]; the commutator must be the stated diagonal.
    """
    from .repbuilder import build_deformed, ladder_products, ladder_vectors
    from .structure import QBase, StructureSpec

    j = halfint(j)
    d = qp.delta
    alpha = [1.0, beta / q_bracket(2.0, d)]
    rep = build_deformed(StructureSpec(QBase(alpha, d), j))
    pm, mp = ladder_products(ladder_vectors(rep)[1])
    target = [
        q_bracket(2 * m.value, d) * (1.0 + beta * q_bracket(m.value, d) ** 2)
        for m in ladder_desc(j)
    ]
    return float(np.linalg.norm(pm - mp - target))
