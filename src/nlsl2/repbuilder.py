"""Representations of the linear and nonlinear sl(2) algebras on their ladder.

Basis order is m = j, j-1, ..., -j; J3 is diagonal with entries m + gamma,
the raising operator lives on the superdiagonal with nonnegative entries,
and the lowering operator is its transpose (hermiticity is by construction).
Every irrep built here is stored as those two vectors; the dense matrices are
formed only when a caller reads them. The closed forms come from `structure`;
the ladder Casimir diagonal, polynomial or q-deformed, is formed here.
The routes through the undeformed irrep apply the family's `structure`
transfer map, defined for m < j, at the labels (2j, 2m), as `hopf` does at
the coupled labels of a product.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .coefficients import phi_prime_witness
from .halfint import HalfInt, halfint
from .qdeform import _q_bracket_values, check_q_range, q_bracket, q_brackets
from .structure import (CLAMP_TOL, InadmissibleLabelError, Polynomial, QuadraticShifted, StructureSpec, Transfer,
                        ladder_numerators, phi_ladder_numerators, polynomial_transfer, quadratic_transfer, screen,
                        sl2_squares)


class InadmissibleSpecError(ValueError):
    """The requested spec fails unitarity screening; carries the offending m."""

    def __init__(self, spec: StructureSpec, offending):
        self.spec = spec
        self.offending = list(offending)
        ms = ", ".join(str(m) for m in self.offending)
        super().__init__(
            f"{spec.family_name} spec at j={spec.j} is not admissible "
            f"(negative structure function or broken boundary annihilation at m = {ms})"
        )


class NonBijectiveError(ValueError):
    """phi' is not > 0 on the Casimir interval; carries an exact witness.

    witness is a Fraction x with phi'(x) <= 0, or a pair (lo, hi) of
    Fractions isolating a zero of phi' (`coefficients.phi_prime_witness`).
    witness_x is the point, or None for an interval.
    """

    def __init__(self, witness):
        self.witness = witness
        if isinstance(witness, tuple):
            self.witness_x = None
            where = f"phi' has a zero in ({witness[0]}, {witness[1]})"
        else:
            self.witness_x = witness
            where = f"phi'({witness}) <= 0"
        super().__init__(
            f"phi is not strictly increasing on the Casimir interval: {where}, inverse map rejected"
        )


class MatrixRep:
    """An irrep stored as its ladder, with its metadata.

    ladder = (w, u) holds the diagonal of J3 and the superdiagonal of J+; J- is J+^T. The dense
    J3 = diag(w), J+ = diag(u, 1) and J- = diag(u, -1) are derived once, on first access. They are
    copies: editing them does not change the rep. To check a corrupted rep, build a new MatrixRep
    from an edited ladder.
    """

    def __init__(self, dim: int, two_j: int, gamma: float, family: str, *, ladder: tuple):
        self.dim, self.two_j, self.gamma, self.family, self.ladder = dim, two_j, gamma, family, ladder

    @cached_property
    def J3(self) -> np.ndarray:
        return np.diag(self.ladder[0])

    @cached_property
    def Jplus(self) -> np.ndarray:
        return np.diag(self.ladder[1], 1)

    @cached_property
    def Jminus(self) -> np.ndarray:
        return np.diag(self.ladder[1], -1)

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.two_j)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "two_j": self.two_j,
            "gamma": self.gamma,
            "family": self.family,
            "J3": self.J3.flatten().tolist(),
            "Jplus": self.Jplus.flatten().tolist(),
            "Jminus": self.Jminus.flatten().tolist(),
        }


def _assemble(j: HalfInt, up_values, gamma: float = 0.0, family: str = "sl2",
              dtype=float) -> MatrixRep:
    """The ladder-backed rep with weights m + gamma and superdiagonal sqrt(up_values).

    up_values[i] is F(j, m_i) for the source states m_i = j-1, ..., -j
    (column index i+1). A label j < 0 raises ValueError.
    """
    if j.twice < 0:
        raise ValueError("spin label j must be >= 0")
    weights = (np.arange(j.twice, -j.twice - 1, -2) / 2.0 + gamma).astype(dtype)
    ups = np.array(up_values, dtype=dtype)
    negative = np.flatnonzero(ups < 0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(f"negative squared matrix element {up_values[i]} at position {i}")
    u = np.sqrt(ups)
    weights.flags.writeable = u.flags.writeable = False
    return MatrixRep(j.twice + 1, j.twice, gamma, family, ladder=(weights, u))


def ladder_products(u: np.ndarray):
    """Diagonals of J+J- and J-J+ for the ladder superdiagonal u of J+: (u^2|0) and (0|u^2)."""
    u2 = u * u
    zero = np.zeros(1, dtype=u2.dtype)
    return np.concatenate((u2, zero)), np.concatenate((zero, u2))


def build_sl2(j) -> MatrixRep:
    """Standard angular-momentum matrices for spin j."""
    j = halfint(j)
    return _assemble(j, sl2_squares(j), family="sl2")


def build_deformed(spec: StructureSpec) -> MatrixRep:
    """Matrices of any admissible family, superdiagonal from its structure function.

    One pass of `ladder_numerators` (exact integers over phi's common
    denominator D for the polynomial family) feeds both the unitarity
    `screen`, on the numerators' signs, and the superdiagonal
    sqrt(F(j, m)) with F = n / D, so each F is evaluated once.
    """
    values, d = ladder_numerators(spec)
    offending = screen(spec, values)
    if offending:
        raise InadmissibleSpecError(spec, offending)
    if isinstance(spec.family, Polynomial):
        values = [n / d for n in values]
    return _assemble(spec.j, np.maximum(values, 0.0), gamma=spec.gamma, family=spec.family_name)


def build_uq(j, delta: float, dtype=float) -> MatrixRep:
    """U_q(sl(2)) irrep: raising entries sqrt([j-m][j+m+1]), q = e^delta.

    dtype=np.longdouble builds the matrices in extended precision, useful when
    a verification tolerance sits below the double-precision granularity of
    the large q-bracket entries.
    """
    j = halfint(j)
    check_q_range(j, delta)
    brackets = q_brackets(np.arange(1, j.twice + 1), delta, dtype)  # [j-m] for m = j-1, ..., -j
    return _assemble(j, brackets * brackets[::-1], family="Uq", dtype=dtype)


def _sl2_input(rep: MatrixRep, caller: str):
    """ValueError naming rep's family unless rep is an undeformed sl2 irrep."""
    if rep.family != "sl2":
        raise ValueError(f"{caller} expects an sl2 irrep, not {rep.family!r}")


def _factors(j: HalfInt, transfer: Transfer, family=None) -> np.ndarray:
    """transfer's factor h at the labels (2j, 2m), m = j-1, ..., -j.

    Given a family, InadmissibleSpecError names the first bad m; without one the InadmissibleLabelError stands.
    """
    try:
        return np.array([transfer.factor(j.twice, t) for t in range(j.twice - 2, -j.twice - 1, -2)])
    except InadmissibleLabelError as exc:
        if family is None:
            raise
        raise InadmissibleSpecError(StructureSpec(family, j), [HalfInt(int(2 * exc.m))]) from None


def _transferred_irrep(j: HalfInt, transfer: Transfer, family=None) -> MatrixRep:
    """The irrep at j of transfer: J+' = J+ h(2j, 2J3)^(1/2) and J3' = J3 + s(2j).

    family is the `structure` family the map belongs to, naming the rep and, through `_factors`, the
    InadmissibleSpecError; without one the rep is named "transferred".
    """
    gamma = 0.0 if transfer.shift is None else transfer.shift(j.twice)
    name = "transferred" if family is None else type(family).__name__
    return _assemble(j, sl2_squares(j) * _factors(j, transfer, family), gamma, name)


def deformed_from_undeformed(rep: MatrixRep, alpha: Sequence) -> MatrixRep:
    """Second construction route: scalar functional calculus on (C, J3).

    On a single irrep C = j(j+1) is scalar and J3 diagonal, so J+ is
    multiplied on the right by the square root of the polynomial transfer
    factor, `structure.divided_difference` at the source labels (2j, 2m).
    """
    _sl2_input(rep, "deformed_from_undeformed")
    return _transferred_irrep(rep.j, polynomial_transfer(alpha, rep.j.twice), Polynomial(alpha))


def build_quadratic_explicit(rep: MatrixRep, alpha: float) -> MatrixRep:
    """Quadratic-family generators written in terms of the undeformed ones.

    J3' = J3 + gamma with gamma = (s - 1)/(4a), s = sqrt(1 - 16 a^2 C / 3),
    and the ladder operators pick up the factor ((2a/3)(2 J3 + 1) + s)^(1/2)
    evaluated at the source state: `structure.quadratic_transfer` at (2j, 2m).
    """
    _sl2_input(rep, "build_quadratic_explicit")
    j = rep.j
    transfer = quadratic_transfer(alpha, j.twice)
    return _transferred_irrep(j, transfer, QuadraticShifted(float(alpha), transfer.shift(j.twice)))


def _ladder_casimir_diagonal(rep: MatrixRep, fs: np.ndarray) -> np.ndarray:
    """Diagonal of (1/2)(J+J- + J-J+ + f(J3(J3+1)) + f(J3(J3-1))) in O(d), read from rep's ladder.

    fs holds f(m(m+1)) over m = j, ..., -j-1, so f(m(m-1)) at m is fs at
    m - 1.
    """
    pm, mp = ladder_products(rep.ladder[1])
    return 0.5 * (pm + mp + fs[:-1] + fs[1:])


def _phi_values(rep: MatrixRep, alpha: Sequence) -> np.ndarray:
    """phi(m(m+1)) over m = j, ..., -j-1 as floats n / D; (-j-1)(-j) = j(j+1) repeats the first."""
    if rep.gamma != 0.0:
        raise ValueError("casimir_matrix expects an unshifted (polynomial-family) rep")
    ns, d = phi_ladder_numerators(alpha, rep.j)
    return np.array([n / d for n in ns + ns[:1]])


def casimir_matrix(rep: MatrixRep, alpha: Sequence) -> np.ndarray:
    """Deformed Casimir (1/2)(J+J- + J-J+ + phi(J3(J3+1)) + phi(J3(J3-1))).

    Only meaningful for polynomial-family reps (unshifted spectrum), where it
    must equal phi(j(j+1)) times the identity. Its diagonal comes in O(d)
    from the ladder, bitwise equal to the dense products, and is returned
    as a dense d x d matrix.
    """
    return np.diag(_ladder_casimir_diagonal(rep, _phi_values(rep, alpha)))


def inverse_map_uq(repq: MatrixRep, delta: float) -> MatrixRep:
    """Reconstruct the undeformed irrep from a q-deformed one.

    Recovers the undeformed Casimir through the arcsinh inversion
    sqrt(C + 1/4) = (1/delta) arcsinh(sqrt(Chat + [1/2]^2) sinh(delta))
    and rescales the ladder entries accordingly.
    """
    j = repq.j
    _, u = repq.ladder
    chat = float(_ladder_casimir_diagonal(repq, _q_bracket_values(j, delta))[0])

    half = q_bracket(0.5, delta)
    arg = chat + half * half
    if arg < 0:
        raise ValueError("inconsistent q-deformed input: negative Chat + [1/2]^2")
    c = (math.asinh(math.sqrt(arg) * math.sinh(delta)) / delta) ** 2 - 0.25

    mid = np.arange(j.twice - 1, -j.twice, -2) / 2  # m + 1/2 for m = j-1, ..., -j
    num = (c + 0.25) - mid ** 2
    den = arg - q_brackets(mid, delta) ** 2
    entry2 = u * u
    singular = den <= 0
    ratio = np.divide(num, den, out=np.zeros_like(num), where=~singular)
    bad = (singular & ((entry2 > CLAMP_TOL) | (num > CLAMP_TOL))) | (ratio < 0)
    if bad.any():
        raise ValueError(f"inconsistent q-deformed input at m={HalfInt(j.twice - 2 - 2 * int(np.argmax(bad)))}")
    return _assemble(j, entry2 * ratio, family="sl2")


def inverse_map_polynomial(rep: MatrixRep, alpha: Sequence) -> MatrixRep:
    """Reconstruct the undeformed irrep when phi is bijective on [0, j(j+1)].

    phi' > 0 on the Casimir interval is decided exactly, by a Sturm sequence
    (`coefficients.phi_prime_witness`); otherwise NonBijectiveError carries
    the exact witness.
    """
    j = rep.j
    _, u = rep.ladder
    witness = phi_prime_witness(alpha, j.mm1())
    if witness is not None:
        raise NonBijectiveError(witness)
    return _assemble(j, u * u / _factors(j, polynomial_transfer(alpha, j.twice), Polynomial(alpha)), family="sl2")
