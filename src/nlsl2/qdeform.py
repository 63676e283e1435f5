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

from .halfint import HalfInt, halfint

LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class QParam:
    """q = exp(delta) with real nonzero delta."""

    delta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("QParam requires delta != 0 (q = e^delta must be deformed)")


def q_brackets(x, delta: float, dtype=float) -> np.ndarray:
    """[x] = sinh(delta x)/sinh(delta) at every entry of x, in dtype: the one q-bracket every caller shares."""
    if delta == 0:
        raise ValueError("q_bracket requires delta != 0")
    d = np.dtype(dtype).type(delta)
    return np.sinh(d * np.asarray(x, dtype=dtype)) / np.sinh(d)


def q_bracket(x: float, delta: float) -> float:
    """[x] = (q^x - q^-x)/(q - q^-1) = sinh(delta*x)/sinh(delta), from `q_brackets`."""
    return float(q_brackets(x, delta))


def check_q_range(j: HalfInt, delta: float):
    """ValueError naming j, delta and the limit unless the U_q q-numbers of spin j are finite floats.

    With x = |delta| (2j+1), the U_q builders and checks form cosh(x) and sums of up to four products [a][b],
    |a| + |b| <= 2j + 1, each at most [j+1/2]^2 as log sinh is concave. Both stay below the float maximum e^L
    while x <= min(L + log 2, 2 asinh(e^k)), k = (L - log 4)/2 + log sinh|delta|.
    """
    if delta == 0:
        raise ValueError("q-numbers require delta != 0")
    d = abs(delta)
    k = (LOG_FLOAT_MAX - math.log(4)) / 2 + d - math.log(2) + math.log(-math.expm1(-2 * d))
    asinh_exp_k = k + math.log1p(math.sqrt(1 + math.exp(-2 * k))) if k > 0 else math.asinh(math.exp(k))
    limit = min(LOG_FLOAT_MAX + math.log(2), 2 * asinh_exp_k)
    if not d * (j.twice + 1) <= limit:
        raise ValueError(f"q-numbers at j={j}, delta={delta} overflow a float: "
                         f"|delta|(2j+1) = {d * (j.twice + 1):.6g} exceeds the limit {limit:.6g}")


def q_beta_coeffs(qp: QParam, count: int) -> list[float]:
    """First `count` commutator coefficients of the q-deformation.

    beta_p = delta^(2p+1) / ((2p+1)! sinh(delta)); the N -> infinity series
    with these coefficients reproduces the q-bracket commutator.
    """
    d = qp.delta
    s = math.sinh(d)
    return [d ** (2 * p + 1) / (math.factorial(2 * p + 1) * s) for p in range(count)]


def _q_bracket_values(j: HalfInt, delta: float) -> np.ndarray:
    """[m][m+1] over m = j, ..., -j-1: the f(m(m+1)) of the q-Casimir, from the brackets of j+1, ..., -j-1."""
    check_q_range(j, delta)
    brackets = q_brackets(np.arange(j.twice + 2, -j.twice - 3, -2) / 2, delta)
    return brackets[1:] * brackets[:-1]


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
    from .repbuilder import build_deformed, ladder_products
    from .structure import QBase, StructureSpec

    j = halfint(j)
    d = qp.delta
    alpha = [1.0, beta / q_bracket(2.0, d)]
    rep = build_deformed(StructureSpec(QBase(alpha, d), j))
    pm, mp = ladder_products(rep.ladder[1])
    ms = np.arange(j.twice, -j.twice - 1, -2) / 2
    target = q_brackets(2 * ms, d) * (1.0 + beta * q_brackets(ms, d) ** 2)
    return float(np.linalg.norm(pm - mp - target))
