"""Enumeration of admissible shifted-spectrum representation families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .halfint import HalfInt, halfint
from .structure import HiggsShifted, QuadraticShifted, StructureSpec, admissible, quadratic_transfer

UNSHIFTED = "unshifted"
SHIFT_PLUS = "shift_plus"
SHIFT_MINUS = "shift_minus"


@dataclass(frozen=True)
class FamilySolution:
    """One candidate gamma together with its admissibility verdict."""

    gamma: float
    kind: str  # unshifted | shift_plus | shift_minus
    admissible: bool
    witness: Optional[HalfInt] = None  # offending m when inadmissible
    note: str = ""


def higgs_beta_window(j) -> tuple[Fraction, Fraction]:
    """Exact endpoints (open lower, closed upper) of the shifted-family window.

    The pair of nonzero gamma solutions exists exactly for
    -1/(4 j(j+1)) < beta <= -1/(4 j(j+1) + 1).
    """
    j = halfint(j)
    if j.twice <= 0:
        raise ValueError("higgs_beta_window requires j > 0")
    jj1 = j.mm1()
    return (-1 / (4 * jj1), -1 / (4 * jj1 + 1))


def higgs_gamma_roots(j, beta: float) -> list[FamilySolution]:
    """All candidate spectrum shifts for the cubic family at (j, beta).

    gamma = 0 is always a candidate (screened against the unshifted
    positivity bound beta >= -1/(4 j^2)); the pair
    gamma = +-(1/(2 beta)) sqrt(-beta - 4 beta^2 j(j+1)) is emitted exactly
    inside the rational window of higgs_beta_window, each candidate screened
    over the full ladder with both boundary annihilations.
    """
    j = halfint(j)
    if j.twice <= 0:
        raise ValueError("higgs_gamma_roots requires j > 0")
    b = float(beta)

    def screen(gamma: float, kind: str, note: str = "") -> FamilySolution:
        ok, offending = admissible(StructureSpec(HiggsShifted(b, gamma), j))
        return FamilySolution(gamma, kind, ok, offending[0] if offending else None, note)

    solutions = [
        screen(0.0, UNSHIFTED, note="deformation-only families absent" if b == 0 else "")
    ]
    if b != 0:
        lo, hi = higgs_beta_window(j)
        if float(lo) < b <= float(hi):
            radicand = -b - 4 * b * b * float(j.mm1())
            g = math.sqrt(max(radicand, 0.0)) / (2 * b)
            solutions.append(screen(abs(g), SHIFT_PLUS))
            solutions.append(screen(-abs(g), SHIFT_MINUS))
    return solutions


def family_count(j, beta: float) -> int:
    """Number of admissible unitary families at (j, beta): 0, 1 or 3."""
    return sum(s.admissible for s in higgs_gamma_roots(j, beta))


def quadratic_gamma(j, alpha: float) -> FamilySolution:
    """Spectrum shift of the quadratic family, lowest-weight annihilation branch.

    gamma = (1/(4 alpha)) (-1 + sqrt(1 - 16 alpha^2 j(j+1) / 3)), defined while
    the radicand is nonnegative, which |alpha| <= 3/(2(4j+1)) (the ladder
    factor's bound, for either sign) implies; gamma -> 0 as alpha -> 0. It
    is the shift of `structure.quadratic_transfer`, whose guards reject
    |alpha| below ALPHA_FLOOR and a negative radicand.
    """
    j, a = halfint(j), float(alpha)
    g = quadratic_transfer(a, j.twice).shift(j.twice)
    ok, offending = admissible(StructureSpec(QuadraticShifted(a, g), j))
    return FamilySolution(g, SHIFT_MINUS, ok, offending[0] if offending else None)


def scan(j, grid: Sequence[float], family: str) -> list[dict]:
    """Grid scan producing one table row per parameter value.

    family is 'higgs' (grid of beta) or 'quadratic' (grid of alpha). Rows
    carry the admissible count, the gamma list and per-gamma flags, in
    deterministic grid order.
    """
    j = halfint(j)
    rows = []
    for param in grid:
        if family == "higgs":
            sols = higgs_gamma_roots(j, param)
        elif family == "quadratic":
            try:
                sols = [quadratic_gamma(j, param)]
            except ValueError as exc:
                rows.append({
                    "family": family, "two_j": j.twice, "param": float(param),
                    "count": 0, "gammas": [], "admissible": [], "error": str(exc),
                })
                continue
        else:
            raise ValueError(f"unknown family {family!r} (expected 'higgs' or 'quadratic')")
        rows.append({
            "family": family,
            "two_j": j.twice,
            "param": float(param),
            "count": sum(s.admissible for s in sols),
            "gammas": [s.gamma for s in sols],
            "admissible": [s.admissible for s in sols],
        })
    return rows


def scan_csv_rows(rows: list[dict]) -> tuple[list[str], list[list]]:
    """Flatten scan rows to the fixed CSV column layout."""
    header = ["family", "two_j", "param", "count",
              "gamma_1", "gamma_2", "gamma_3",
              "admissible_1", "admissible_2", "admissible_3"]
    out = []
    for row in rows:
        gammas = list(row["gammas"]) + [""] * (3 - len(row["gammas"]))
        flags = list(row["admissible"]) + [""] * (3 - len(row["admissible"]))
        out.append([row["family"], row["two_j"], row["param"], row["count"], *gammas[:3], *flags[:3]])
    return header, out
