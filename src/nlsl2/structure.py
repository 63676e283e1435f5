"""Squared matrix elements (structure functions) for each algebra family.

F(j, m) is the squared matrix element of the raising operator out of |j, m>.
Each family's closed form is written once and read a whole ladder at a time
(`ladder_numerators`, `ladder_values`), on m = j-1, ..., -j; lowering out of
m is F(j, m-1), and the boundary point m = -j-1 is read by the screen alone.

This module owns each family's transfer map, J+' = J+ h(C, J3)^(1/2) and
J3' = J3 + s(C) through the undeformed generators, with its guards: h at
exact labels (2J, 2M) is defined for M < J only. `repbuilder` applies it on
one irrep, `hopf` on the coupled labels of a product space.

The polynomial family is exact: a whole ladder is evaluated on scaled
integers, phi(m(m+1)) = n / D with n from one `coefficients.phi_numerators`
call at the integers t(t+2), t = 2m, over phi's common denominator D, and
Fractions are built only by the public functions that return them. The
shifted Higgs, shifted quadratic and q-base families carry irrational
parameters and are floating point with an explicit tolerance; their closed
form (`_float_closed_form`) takes m as a float or an array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .coefficients import as_rationals, phi_numerators
from .halfint import HalfInt, halfint
from .qdeform import LOG_FLOAT_MAX, check_q_range, q_bracket, q_brackets

# Guards, not check gates (`verifier.gate`): a float closed form is taken as its exact zero or sign.
ADMISSIBILITY_TOL = 1e-12  # a ladder value above -this passes the screen
BOUNDARY_TOL = 1e-10  # the lowering function at m = -j within this of 0 passes the screen
CLAMP_TOL = 1e-12  # a float ladder value or factor within this of 0 is taken as 0, below -this rejected
ALPHA_FLOOR = 1e-12  # |alpha| below this is rejected: the quadratic maps divide by 4 alpha


@dataclass(frozen=True)
class Polynomial:
    """Odd-polynomial deformation, phi coefficients alpha_1..alpha_{N+1}."""

    alpha: tuple

    def __init__(self, alpha: Sequence):
        object.__setattr__(self, "alpha", tuple(as_rationals(alpha)))


@dataclass(frozen=True)
class HiggsShifted:
    """Cubic (Higgs) family with a shifted diagonal spectrum m + gamma."""

    beta: float
    gamma: float


@dataclass(frozen=True)
class QuadraticShifted:
    """Quadratic family [J+, J-] = 2 J3 + 4 alpha J3^2 with shift gamma."""

    alpha: float
    gamma: float


@dataclass(frozen=True)
class QBase:
    """q-base polynomial family: phi applied to the q-brackets, q = e^delta."""

    alpha: tuple
    delta: float

    def __init__(self, alpha: Sequence, delta: float):
        if delta == 0:
            raise ValueError("QBase requires delta != 0")
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))
        object.__setattr__(self, "delta", float(delta))


Family = Union[Polynomial, HiggsShifted, QuadraticShifted, QBase]


@dataclass(frozen=True)
class StructureSpec:
    """An algebra family together with the spin label j >= 0."""

    family: Family
    j: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "j", halfint(self.j))
        if self.j.twice < 0:
            raise ValueError("spin label j must be >= 0")

    @property
    def gamma(self) -> float:
        if isinstance(self.family, (HiggsShifted, QuadraticShifted)):
            return float(self.family.gamma)
        return 0.0

    @property
    def family_name(self) -> str:
        return type(self.family).__name__


def _float_closed_form(fam: Family, j: HalfInt, mv):
    """F(j, m) of a float family at mv = m, a float or an array of them."""
    jv = j.value
    if isinstance(fam, HiggsShifted):
        b, g = float(fam.beta), float(fam.gamma)
        return (jv - mv) * (jv + mv + 1 + 2 * g) * (
            1 + 2 * b * (jv * (jv + 1) + mv * (mv + 1) + 2 * g * (jv + mv + 1 + g))
        )
    if isinstance(fam, QuadraticShifted):
        a, g = float(fam.alpha), float(fam.gamma)
        inner = (4 * jv * jv / 3 + 4 * jv * mv / 3 + 4 * mv * mv / 3 + 4 * g * jv + 4 * g * mv
                 + 2 * jv + 2 * mv + 4 * g * g + 4 * g + 2.0 / 3)
        return (jv - mv) * (jv + mv + 1 + 2 * g + a * inner)
    if isinstance(fam, QBase):  # sum_k alpha_k (([j][j+1])^k - ([m][m+1])^k)
        check_q_range(j, fam.delta)
        jj1 = q_bracket(jv, fam.delta) * q_bracket(jv + 1, fam.delta)
        if jj1 > 1 and len(fam.alpha) * math.log(jj1) + math.log(2 * max([1.0, *map(abs, fam.alpha)])) > LOG_FLOAT_MAX:
            raise ValueError(f"q-base powers ([j][j+1])^{len(fam.alpha)} at j={j}, delta={fam.delta} overflow a float")
        mm1 = q_brackets(mv, fam.delta) * q_brackets(mv + 1, fam.delta)
        acc = np.zeros(np.shape(mv))  # the shape of m, also when phi has no terms
        jp = mp = 1.0
        for coeff in fam.alpha:
            jp *= jj1
            mp *= mm1
            acc += coeff * (jp - mp)
        return acc
    raise TypeError(f"unknown family {fam!r}")


def sl2_squares(j: HalfInt) -> np.ndarray:
    """(j - m)(j + m + 1) = (2j - t)(2j + t + 2)/4, t = 2m, for m = j-1, ..., -j: the undeformed F, as floats."""
    t = np.arange(j.twice - 2, -j.twice - 1, -2)
    return ((j.twice - t) * (j.twice + t + 2) // 4).astype(float)


def phi_ladder_numerators(alpha: Sequence, j) -> tuple[list[int], int]:
    """(ns, D): phi(m(m+1)) = ns[i] / D exactly for m = j, j-1, ..., -j.

    One kernel call (`phi_numerators`) over the distinct X = 4 m(m+1) = t(t+2):
    m and -m-1 share m(m+1), so the states below m = -1/2 reuse the upper ones.
    """
    t = halfint(j).twice
    upper, d = phi_numerators(alpha, [s * (s + 2) for s in range(t, -2, -2)])
    return upper + upper[t + 1 - len(upper):0:-1], d


def divided_difference(alpha: Sequence, top: int) -> Callable:
    """g(2J, 2M) = (phi(c) - phi(x)) / (c - x) at c = J(J+1), x = M(M+1), |M| <= J <= top/2, M != J.

    The polynomial map factor on an irrep (top = 2j) or a product space (top
    its largest 2J); 2J may have either parity. With n_t = D phi(t(t+2)/4) for
    t = -1, 0, ..., top from one `phi_numerators` call (2M and -2M-2 share
    t(t+2)), g = 4 (n_J - n_M) / (D (C - X)), C = 2J(2J+2), X = 2M(2M+2): one
    correctly rounded int division, with the sign of the exact value. g takes
    ints or int arrays of labels, elementwise.
    """
    ns, d = phi_numerators(alpha, [t * (t + 2) for t in range(-1, top + 1)])
    ns = np.array(ns, dtype=object)

    def g(two_j, two_m):
        num = 4 * (ns[two_j + 1] - ns[np.maximum(two_m, -two_m - 2) + 1])
        return np.asarray(num / (np.asarray(two_j * (two_j + 2) - two_m * (two_m + 2), dtype=object) * d), dtype=float)

    return g


def quadratic_radicand(alpha: float, c: float) -> float:
    """s^2 = 1 - 16 alpha^2 c / 3 of the quadratic maps at the Casimir value c = J(J+1)."""
    return 1 - 16 * alpha * alpha * c / 3


def quadratic_shift(alpha: float, s: float) -> float:
    """gamma = (s - 1) / (4 alpha): J3' = J3 + gamma on the block where sqrt(radicand) = s."""
    return (s - 1) / (4 * alpha)


def quadratic_ladder_factor(alpha: float, s: float, m: float) -> float:
    """(2 alpha / 3)(2m + 1) + s: J+' = J+ (this)^(1/2), taken at the source weight m."""
    return 2 * alpha * (2 * m + 1) / 3 + s


class InadmissibleLabelError(ValueError):
    """A transfer map leaves its domain at the exact c = J(J+1) and, where one is at fault, the exact M."""

    def __init__(self, message: str, c: Fraction, m: Optional[Fraction] = None):
        self.c, self.m = c, m
        where = f"J(J+1) = {c}" if m is None else f"J(J+1) = {c}, M = {m}"
        super().__init__(f"{message} at {where}")


class Transfer(NamedTuple):
    """J+' = J+ factor(2J, 2M)^(1/2), M < J, and J3' = J3 + shift(2J), or J3 without a shift.

    Both read int arrays of labels; InadmissibleLabelError names the first where factor is < 0 past its clamp.
    """

    factor: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shift: Optional[Callable[[np.ndarray], np.ndarray]]


def _checked(message: str, val: np.ndarray, floor: float, two_j: np.ndarray, two_m: np.ndarray) -> np.ndarray:
    """val with values in [floor, 0) taken as 0; below floor at some label, InadmissibleLabelError at the first."""
    ok = val >= floor  # False for NaN too
    if not ok.all():
        i = int(np.argmin(ok))
        two_j, two_m = int(np.ravel(two_j)[i]), int(np.ravel(two_m)[i])
        raise InadmissibleLabelError(message, HalfInt(two_j).mm1(), Fraction(two_m, 2))
    return np.maximum(val, 0.0)


def polynomial_transfer(alpha: Sequence, top: int) -> Transfer:
    """h = `divided_difference`, exact in sign, at labels 2J <= top; no shift."""
    dd = divided_difference(alpha, top)
    return Transfer(lambda tj, tm: _checked("negative divided difference", dd(tj, tm), 0, tj, tm), None)


def quadratic_transfer(alpha: float, top: int) -> Transfer:
    """h = `quadratic_ladder_factor` and s = `quadratic_shift` at s_J = sqrt(`quadratic_radicand`), labels 2J <= top.

    The radicand falls with J, so it is checked at top alone. An h within CLAMP_TOL below 0 is taken as 0.
    """
    a = float(alpha)
    if not abs(a) >= ALPHA_FLOOR:  # NaN included
        raise ValueError(f"alpha must satisfy |alpha| >= {ALPHA_FLOOR:g} (singular 1/(4 alpha) prefactor), got {a!r}; "
                         "use the undeformed rep")
    rad = quadratic_radicand(a, top * (top + 2) / 4)
    if not rad >= 0:
        raise InadmissibleLabelError(f"negative radicand 1 - 16 a^2 j(j+1)/3 = {rad:.6g}; alpha must satisfy "
                                     f"|alpha| <= 3/(2(4j+1)) = {3 / (2 * (2 * top + 1)):.6g}", HalfInt(top).mm1())

    def root(two_j):
        return np.sqrt(quadratic_radicand(a, two_j * (two_j + 2) / 4))

    def factor(tj, tm):
        return _checked("negative ladder factor", quadratic_ladder_factor(a, root(tj), tm / 2), -CLAMP_TOL, tj, tm)

    return Transfer(factor, lambda two_j: quadratic_shift(a, root(two_j)))


def ladder_numerators(spec: StructureSpec) -> tuple[list, int]:
    """(ns, D) with F(j, m) = ns[i] / D for m = j-1, ..., -j.

    For the polynomial family ns are the ints phi(j(j+1)) - phi(m(m+1)) over
    phi's common denominator D > 0, so the sign of ns[i] is the sign of F and
    ns[i] / D is float(F) bitwise. The other families give an array of their
    float closed forms over D = 1.
    """
    fam, j = spec.family, spec.j
    if isinstance(fam, Polynomial):
        (top, *rest), d = phi_ladder_numerators(fam.alpha, j)
        return [top - n for n in rest], d
    return _float_closed_form(fam, j, np.arange(j.twice - 2, -j.twice - 1, -2) / 2), 1


def ladder_values(spec: StructureSpec) -> list:
    """F(j, m) for m = j-1, ..., -j: the squared superdiagonal of the irrep.

    Exact Fractions for the polynomial family, floats from the per-family
    closed forms otherwise; both from `ladder_numerators`.
    """
    ns, d = ladder_numerators(spec)
    return [Fraction(n, d) for n in ns] if isinstance(spec.family, Polynomial) else ns.tolist()


def screen(spec: StructureSpec, values: Sequence) -> list[HalfInt]:
    """Offending m of the unitarity screen, given the ladder values.

    values are `ladder_values(spec)` or the numerators of `ladder_numerators`
    (D > 0 keeps the sign). They must be nonnegative (offenders ascending):
    exactly for the polynomial family, within ADMISSIBILITY_TOL for the real-valued ones.
    For the shifted families, lowering out of m = -j (the closed form at the
    boundary point m = -j-1) must also vanish within BOUNDARY_TOL, which pins
    the allowed gamma values; raising out of m = j vanishes exactly, through
    the factor (j - m).
    """
    j = spec.j
    if j.twice == 0:
        return []
    tol = 0 if isinstance(spec.family, Polynomial) else ADMISSIBILITY_TOL
    # reversed(values) runs over m = -j, ..., j-1; each test is written so that NaN fails it
    offending = [HalfInt(2 * i - j.twice) for i, val in enumerate(reversed(values)) if not val >= -tol]

    if (isinstance(spec.family, (HiggsShifted, QuadraticShifted))
            and not abs(_float_closed_form(spec.family, j, -j.value - 1)) <= BOUNDARY_TOL and -j not in offending):
        offending.append(-j)
    return offending


def admissible(spec: StructureSpec) -> tuple[bool, list[HalfInt]]:
    """Unitarity screening: (ok, offending_m) of `screen` over `ladder_numerators`."""
    offending = screen(spec, ladder_numerators(spec)[0])
    return not offending, offending
