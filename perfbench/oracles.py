"""Independent oracles for the nlsl2 benchmark.

Nothing in this module imports nlsl2. Each oracle derives the expected
result from the defining relations of the algebra: structure functions are
running sums of the defining commutator, exact in rationals where the inputs
are rational (floats enter as their exact binary values), and q-brackets are
evaluated in 50-digit decimal arithmetic. Numeric comparisons use one rule,
|got - want| <= ULPS * eps * dim * scale, where scale is the largest
magnitude the compared quantity can take.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
ULPS = 8


class Mismatch(Exception):
    """The program's output disagrees with an oracle."""


class FalseFail(Exception):
    """The program's own check says FAIL on an object the oracles accept."""


def tol(dim: int, scale: float) -> float:
    return ULPS * EPS * dim * scale


def expect_close(what: str, err: float, dim: int, scale: float):
    limit = tol(dim, scale)
    if not err <= limit:  # also rejects NaN
        raise Mismatch(f"{what}: error {err:.3e} exceeds {limit:.3e}")


# ---------------------------------------------------------------------------
# defining commutators h(k) with [J+, J-] |k> = h(k) |k>, k given as t = 2k


def h_polynomial(beta):
    """sum_p beta_p (2k)^(2p+1), exact."""
    beta = [Fraction(b) for b in beta]
    return lambda t: sum((b * Fraction(t) ** (2 * p + 1) for p, b in enumerate(beta)), Fraction(0))


def h_higgs(beta: float, gamma: float):
    """2(k+gamma) + 8 beta (k+gamma)^3, exact in the binary values of beta, gamma."""
    b, g = Fraction(beta), Fraction(gamma)

    def h(t):
        x = Fraction(t, 2) + g
        return 2 * x + 8 * b * x**3

    return h


def h_quadratic(alpha: float, gamma: float):
    """2(k+gamma) + 4 alpha (k+gamma)^2, exact in the binary values of alpha, gamma."""
    a, g = Fraction(alpha), Fraction(gamma)

    def h(t):
        x = Fraction(t, 2) + g
        return 2 * x + 4 * a * x**2

    return h


def ladder_sums(two_j: int, h):
    """F(j, m) = sum_{k=m+1}^{j} h(k) for m = j-1, ..., -j, and sum_{k=-j}^{j} h(k).

    The first list is the squared superdiagonal of J+ in the basis order
    m = j, ..., -j; the total must vanish for the lowest weight to be
    annihilated.
    """
    out, acc = [], Fraction(0)
    for t in range(two_j, -two_j, -2):
        acc += h(t)
        out.append(acc)
    return out, acc + h(-two_j)


def q_brackets(delta: float, ts):
    """[t/2] = sinh(delta t/2)/sinh(delta) for each t, to 50 digits, as floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(delta)
        two = Decimal(2)

        def sinh(x):
            return (x.exp() - (-x).exp()) / two

        den = sinh(d)
        return [float(sinh(d * Decimal(t) / two) / den) for t in ts]


def uq_ladder(two_j: int, delta: float):
    """F(j, m) = [j-m][j+m+1] for m = j-1, ..., -j."""
    ms = range(two_j - 2, -two_j - 1, -2)  # 2m
    left = q_brackets(delta, [two_j - t for t in ms])
    right = q_brackets(delta, [two_j + t + 2 for t in ms])
    return [a * b for a, b in zip(left, right)]


def phi(alpha, x) -> Fraction:
    return sum((Fraction(a) * Fraction(x) ** (k + 1) for k, a in enumerate(alpha)), Fraction(0))


def deformed_f(alpha):
    """F_alpha(J, m) = phi(J(J+1)) - phi(m(m+1)) with J, m given doubled."""

    def f(two_J, two_m):
        return phi(alpha, Fraction(two_J * (two_J + 2), 4)) - phi(alpha, Fraction(two_m * (two_m + 2), 4))

    return f


# ---------------------------------------------------------------------------
# single irreps


def check_irrep(J3, Jp, Jm, two_j: int, gamma: float, F, total=0):
    """J3 = diag(m + gamma), J- = J+^T, J+ on the superdiagonal with J+^2 = F.

    F lists the oracle's F(j, m) for m = j-1, ..., -j; total is the oracle's
    sum of the commutator over the whole ladder (zero for an irrep).
    """
    d = two_j + 1
    for name, mat in (("J3", J3), ("J+", Jp), ("J-", Jm)):
        if mat.shape != (d, d):
            raise Mismatch(f"{name} has shape {mat.shape}, expected {(d, d)}")
    m = np.arange(two_j, -two_j - 1, -2) / 2.0 + gamma
    # Nonzero counts instead of dense differences, so the checks' memory stays below the program's.
    if np.count_nonzero(J3) != np.count_nonzero(np.diag(J3)):
        raise Mismatch("J3 is not diagonal")
    expect_close("J3 diagonal vs m + gamma", float(np.abs(np.diag(J3) - m).max()), d,
                 float(np.abs(m).max()))
    if not np.array_equal(Jm, Jp.T):
        raise Mismatch("J- is not the transpose of J+")
    sup = np.diag(Jp, 1)
    if np.count_nonzero(Jp) != np.count_nonzero(sup):
        raise Mismatch("J+ has entries off the superdiagonal")
    if (sup < 0).any():
        raise Mismatch("J+ has a negative entry")
    want = np.array([float(f) for f in F])
    scale = float(np.abs(want).max()) if d > 1 else 1.0
    if d > 1:
        expect_close("J+ entries squared vs F(j,m)", float(np.abs(sup**2 - want).max()), d, scale)
    expect_close("lowest weight annihilation", abs(float(total)), d, scale)


def check_casimir(C, value: float, dim: int):
    """The Casimir matrix equals value times the identity."""
    errs = [np.abs(np.diag(C) - value).max()]
    if dim > 1:
        off = C.reshape(-1)[1:].reshape(dim - 1, dim + 1)[:, :-1]  # every off-diagonal entry
        errs += [off.max(), -off.min()]
    expect_close("Casimir vs scalar", float(np.max(errs)), dim, abs(value))


# ---------------------------------------------------------------------------
# tensor products V(j1) (x) V(j2)


def product_weights(two_j1: int, two_j2: int) -> np.ndarray:
    """2(m1 + m2) at product index i1*d2 + i2, both factors in order m = j..-j."""
    m1 = np.arange(two_j1, -two_j1 - 1, -2)
    m2 = np.arange(two_j2, -two_j2 - 1, -2)
    return (m1[:, None] + m2[None, :]).ravel()


def coupled_spins(two_j1: int, two_j2: int, two_M: int):
    """Doubled J of the Clebsch-Gordan series with J >= |M|."""
    return [t for t in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2) if t >= abs(two_M)]


def check_product(DJ3, DJp, DJm, two_j1: int, two_j2: int, f, DC=None):
    """Block-wise oracle for a (possibly deformed) coproduct on V(j1) (x) V(j2).

    DJ3 is diag(M); DJ- = DJ+^T; DJ+ maps weight M-1 to M only; in each
    weight block the eigenvalues of DJ+ DJ- are {f(J, M-1) : J >= |M|} and,
    when DC is given, those of DC are {J(J+1) : J >= |M|}.
    """
    w = product_weights(two_j1, two_j2)
    d = len(w)
    # No dense temporaries, as in check_irrep.
    if not np.array_equal(np.diag(DJ3), w / 2.0) or np.count_nonzero(DJ3) != np.count_nonzero(w):
        raise Mismatch("Delta(J3) is not diag(m1 + m2)")
    if not np.array_equal(DJm, DJp.T):
        raise Mismatch("Delta(J-) is not the transpose of Delta(J+)")
    blocks = {M: np.flatnonzero(w == M) for M in np.unique(w)}
    fmax = max(abs(float(f(two_j1 + two_j2, t))) for t in range(-two_j1 - two_j2 - 2, two_j1 + two_j2 + 1, 2))
    stray = []
    for M, rows in blocks.items():
        cols = blocks.get(M - 2, np.empty(0, dtype=int))
        stray.append(outside(DJp[rows], cols))
        B = DJp[np.ix_(rows, cols)] @ DJm[np.ix_(cols, rows)]
        got = np.linalg.eigvalsh(0.5 * (B + B.T))
        want = np.array(sorted(float(f(J, M - 2)) for J in coupled_spins(two_j1, two_j2, M)))
        expect_close(f"eig(DJ+ DJ-) in block 2M={M}", float(np.abs(got - want).max()), d, fmax)
    expect_close("Delta(J+) outside the M-1 -> M blocks", float(np.max(stray)), d, math.sqrt(fmax))
    if DC is not None:
        cmax = (two_j1 + two_j2) * (two_j1 + two_j2 + 2) / 4.0
        stray = []
        for M, idx in blocks.items():
            stray.append(outside(DC[idx], idx))
            sub = DC[np.ix_(idx, idx)]
            got = np.linalg.eigvalsh(0.5 * (sub + sub.T))
            want = np.array(sorted(J * (J + 2) / 4.0 for J in coupled_spins(two_j1, two_j2, M)))
            expect_close(f"eig(Delta C) in block 2M={M}", float(np.abs(got - want).max()), d, cmax)
        expect_close("Delta(C) outside the weight blocks", float(np.max(stray)), d, cmax)


def outside(rows: np.ndarray, cols) -> float:
    """Largest magnitude in a copy of some rows of a matrix, outside the given columns."""
    rows[:, cols] = 0.0
    return float(np.abs(rows).max()) if rows.size else 0.0


def check_quadratic_product(dj3, djp, djm, two_j1: int, two_j2: int, alpha: float):
    """Quadratic-family relations on the product, and the spectrum of its J3'.

    [J3', J+'] = J+', [J+', J-'] = 2 J3' + 4 alpha J3'^2, J-' = J+'^T, and
    J3' has eigenvalues M + gamma(J) with gamma(J) fixed by lowest-weight
    annihilation: gamma^2 + gamma/(2 alpha) + J(J+1)/3 = 0, the root that
    vanishes as alpha -> 0.
    """
    d = dj3.shape[0]
    if not np.array_equal(djm, djp.T):
        raise Mismatch("quadratic J-' is not the transpose of J+'")
    n3, np_ = np.linalg.norm(dj3), np.linalg.norm(djp)
    expect_close("quadratic [J3', J+'] = J+'", float(np.linalg.norm(dj3 @ djp - djp @ dj3 - djp)), d, n3 * np_)
    expect_close("quadratic [J+', J-'] = 2 J3' + 4 alpha J3'^2",
                 float(np.linalg.norm(djp @ djm - djm @ djp - 2 * dj3 - 4 * alpha * dj3 @ dj3)),
                 d, np_**2 + n3**2)
    want = []
    for J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
        c = J * (J + 2) / 4.0
        g = (math.sqrt(1 - 16 * alpha * alpha * c / 3) - 1) / (4 * alpha)
        want.extend(t / 2.0 + g for t in range(-J, J + 1, 2))
    got = np.linalg.eigvalsh(0.5 * (dj3 + dj3.T))
    expect_close("quadratic J3' spectrum", float(np.abs(got - np.sort(want)).max()), d, n3)


# ---------------------------------------------------------------------------
# coefficient systems and families


def check_alpha(beta, alpha):
    """alpha solves phi(m(m+1)) - phi((m-1)m) = sum_p beta_p (2m)^(2p+1), exactly.

    Both sides are polynomials in m of degree at most 2N+1, so agreement at
    2N+3 integers is the identity.
    """
    n = len(beta) - 1
    if len(alpha) != n + 1:
        raise Mismatch(f"alpha has {len(alpha)} coefficients, expected {n + 1}")
    h = h_polynomial(beta)
    for m in range(1, 2 * n + 4):
        lhs = phi(alpha, m * (m + 1)) - phi(alpha, (m - 1) * m)
        if lhs != h(2 * m):
            raise Mismatch(f"alpha fails the ladder identity at m={m}: off by {lhs - h(2 * m)}")


def higgs_count(two_j: int, beta: float) -> int:
    """Admissible cubic families at (j, beta): the shifted pair lives in the
    window -1/(4j(j+1)) < beta <= -1/(4j(j+1)+1); the unshifted irrep needs
    1 + 4 beta j^2 >= 0 (positivity of F at m = -j)."""
    b = Fraction(beta)
    j = Fraction(two_j, 2)
    c = j * (j + 1)
    unshifted = 1 if 1 + 4 * b * j * j >= 0 else 0
    shifted = 2 if -1 / (4 * c) < b <= -1 / (4 * c + 1) else 0
    return unshifted + shifted


def quadratic_count(two_j: int, alpha: float) -> int:
    """1 if the quadratic family at (j, alpha) has a shift gamma annihilating
    the lowest weight and all ladder values are positive, else 0."""
    j = two_j / 2
    rad = 1 - 16 * alpha * alpha * j * (j + 1) / 3
    if rad < 0:
        return 0
    gamma = (math.sqrt(rad) - 1) / (4 * alpha)
    F, _ = ladder_sums(two_j, h_quadratic(alpha, gamma))
    return 1 if all(x > 0 for x in F) else 0


def check_shift(two_j: int, h):
    """The lowest weight is annihilated: sum_{k=-j}^{j} h(k) = 0 within tolerance."""
    F, total = ladder_sums(two_j, h)
    scale = max(abs(float(x)) for x in F) if F else 1.0
    expect_close("shifted-family lowest weight annihilation", abs(float(total)), two_j + 1, scale)
