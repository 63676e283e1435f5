"""Exact rational calculus for the coefficient systems of nonlinear sl(2).

Odd power sums, their coefficients eps_r(k) as polynomials in n(n+1), built row by row by a
recurrence in k that needs no Bernoulli number, the Bernoulli numbers (all-positive convention
B_1 = 1/6, B_2 = 1/30, ...) read off those rows, and the two maps between the commutator coefficients
beta_p (of (2 J3)^(2p+1)) and the structure-function coefficients alpha_k (of x^k in the
deformation polynomial phi). Values are exact Fractions at the API. Inside, the two maps
run on scaled integers over one common denominator, and so does the ladder arithmetic:
`scaled_phi` puts phi over one common denominator D, D phi(X/4) = sum_k A_k X^k, and
`phi_numerators` evaluates it at many integers X = 4 m(m+1) = t(t+2) in one call;
`structure` takes phi's divided differences from those values.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence


def bernoulli(n: int) -> Fraction:
    """Bernoulli number in the all-positive convention: B_1=1/6, B_2=1/30, ...

    This is |B_{2n}| of the standard even-index sequence, the convention used throughout the power-sum
    expansions here. It is read off row n of the epsilon coefficients: in S_(2n+1)(x) = sum_r eps_r(n)
    (x(x+1))^(r+1) / (2(n+1)) only r = 1 has an x^2 term, and Faulhaber's formula gives that term as
    (2n+1) B_(2n) / 2, so |eps_1(n)| = (n+1)(2n+1) bernoulli(n).
    """
    if n < 1:
        raise ValueError(f"bernoulli(n) requires n >= 1, got {n}")
    e, big = _epsilon_row(n)
    return Fraction(abs(e[0]), big * (n + 1) * (2 * n + 1))


def power_sum_oracle(p: int, n: int) -> Fraction:
    """Brute-force sum_{r=1}^{n} r^(2p+1); the oracle for the closed forms."""
    return Fraction(sum(r ** (2 * p + 1) for r in range(1, n + 1)))


_epsilon_rows: list[tuple[tuple[int, ...], int]] = [((), 1)]  # (e, L) of `_epsilon_row` k at index k
_epsilon_lock = threading.Lock()


def _epsilon_row(k: int) -> tuple[tuple[int, ...], int]:
    """(e, L) with eps_r(k) = e[r-1] / L for r = 1..k, L the lcm of the row's denominators.

    The odd power sums are S_(2k+1)(n) = F_k(N) = sum_r eps_r(k) N^(r+1) / (2(k+1)), N = n(n+1) (Faulhaber).
    d^2/dn^2 takes S_(2k+1) to 2k(2k+1) S_(2k-1) + const and F_k(N) to (4N+1) F_k'' + 2 F_k', so the N^r
    coefficients, r >= 1, give row k from row k-1 in k steps on ints, from eps_k(k) = 1 down (eps_0 = 0):
      2(r+1)(2r+1) eps_r(k) = 2(k+1)(2k+1) eps_(r-1)(k-1) - (r+1)(r+2) eps_(r+1)(k).
    Rows are built in order, once per process, each entry in lowest terms until the row is put over L.
    """
    with _epsilon_lock:
        while len(_epsilon_rows) <= k:
            n, (prev, prev_den) = len(_epsilon_rows), _epsilon_rows[-1]
            row = [(1, 1)]  # (numerator, denominator) of eps_r(n) for r = n, n-1, ...
            for r in range(n - 1, 0, -1):
                (x, d), c = row[-1], lcm(prev_den, row[-1][1])
                t = (2 * (n + 1) * (2 * n + 1) * (prev[r - 2] * (c // prev_den) if r > 1 else 0)
                     - (r + 1) * (r + 2) * x * (c // d))
                g = gcd(t, q := 2 * (r + 1) * (2 * r + 1) * c)
                row.append((t // g, q // g))
            big = lcm(*(d for _, d in row))
            _epsilon_rows.append((tuple(x * (big // d) for x, d in reversed(row)), big))
        return _epsilon_rows[k]


def epsilon(r: int, k: int) -> Fraction:
    """eps_r(k), the coefficients of the odd power sums in n(n+1) (`_epsilon_row`); defined for 1 <= r <= k."""
    if not 1 <= r <= k:
        raise ValueError(f"epsilon(r, k) requires 1 <= r <= k, got r={r}, k={k}")
    e, big = _epsilon_row(k)
    return Fraction(e[r - 1], big)


def as_rationals(values: Sequence) -> list[Fraction]:
    """Coerce a coefficient vector to exact rationals."""
    return [Fraction(v) for v in values]


@functools.cache
def _alpha_column(k: int) -> tuple[tuple[int, ...], int]:
    """(c, d) with 4^k/(k+1) eps_r(k) = c[r-1] / d for r = 1..k, in lowest terms."""
    e, den = _epsilon_row(k)
    g = gcd((k + 1) * den, *(4**k * x for x in e))
    return tuple(4**k * x // g for x in e), (k + 1) * den // g


def alpha_from_beta(beta: Sequence) -> list[Fraction]:
    """Map commutator coefficients beta_0..beta_N to phi coefficients alpha_1..alpha_{N+1}.

    alpha_1 = beta_0 and, for l >= 2,
    alpha_l = sum_{k=l-1}^{N} beta_k * 2^(2k)/(k+1) * eps_{l-1}(k),
    one integer sum over B L for beta_k = b_k / B and columns over their lcm L.
    """
    b, b_den = over_common_denominator(beta)
    if not b:
        raise ValueError("alpha_from_beta requires at least beta_0")
    cols = [_alpha_column(k) for k in range(1, len(b))]
    scale = lcm(*(d for _, d in cols))
    weights = [bk * (scale // d) for bk, (_, d) in zip(b[1:], cols)]
    sums = (sum(w * c[r - 1] for w, (c, _) in zip(weights[r - 1:], cols[r - 1:])) for r in range(1, len(b)))
    return [Fraction(b[0], b_den)] + [Fraction(acc, b_den * scale) for acc in sums]


def beta_from_alpha(alpha: Sequence) -> list[Fraction]:
    """Inverse map: beta_p = 2^(-2p) * sum_{k=p+1}^{2p+1} alpha_k * C(k, 2k-2p-1).

    alpha_k beyond the declared order is treated as exact zero, so the output
    has the same length N+1 as the input. For alpha_k = A_k / D each beta_p is
    one integer sum over D 4^p.
    """
    a, den = over_common_denominator(alpha)
    if not a:
        raise ValueError("beta_from_alpha requires at least alpha_1")
    return [Fraction(sum(a[k - 1] * comb(k, 2 * k - 2 * p - 1) for k in range(p + 1, min(2 * p + 2, len(a) + 1))),
                     den * 4**p) for p in range(len(a))]


def phi_eval(alpha: Sequence, x) -> Fraction:
    """phi(x) = sum_k alpha_k x^k (no constant term), exact for rational x."""
    a = as_rationals(alpha)
    xf = Fraction(x)
    acc = Fraction(0)
    for coeff in reversed(a):
        acc = (acc + coeff) * xf
    return acc


def phi_prime(alpha: Sequence, x) -> Fraction:
    """Derivative phi'(x), exact for rational x."""
    a = as_rationals(alpha)
    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(len(a), 0, -1):
        acc = acc * xf + k * a[k - 1]
    return acc


def over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """(ns, D) with values[i] = ns[i] / D exactly, D > 0 the lcm of the denominators."""
    fs = as_rationals(values)
    d = lcm(*(f.denominator for f in fs))
    return [f.numerator * (d // f.denominator) for f in fs], d


def scaled_phi(alpha: Sequence) -> tuple[list[int], int]:
    """phi over one common denominator: (A, D) with D phi(X/4) = sum_k A[k-1] X^k.

    A_k = D alpha_k / 4^k and D > 0 are ints, so at X = 4 m(m+1) = t(t+2),
    t = 2m, phi is an integer polynomial in an integer over a fixed D.
    """
    return over_common_denominator([coeff / 4**k for k, coeff in enumerate(as_rationals(alpha), 1)])


def phi_numerators(alpha: Sequence, xs: Sequence[int]) -> tuple[list[int], int]:
    """([D phi(X/4) for X in xs], D): phi(X/4) = n / D exactly, for integer X.

    n / D is a correctly rounded int division, so it equals float(phi(X/4)).
    """
    a, d = scaled_phi(alpha)
    out = []
    for x in xs:
        acc = 0
        for coeff in reversed(a):
            acc = (acc + coeff) * x
        out.append(acc)
    return out, d


def _horner(desc: Sequence, x):
    """Value at x of the polynomial with coefficients desc, highest power first."""
    acc = 0
    for coeff in desc:
        acc = acc * x + coeff
    return acc


def _sturm_sequence(desc: list) -> list:
    """p, p', -rem(p, p'), ... down to the last nonzero remainder, highest power first."""
    n = len(desc) - 1
    seq = [desc, [coeff * (n - i) for i, coeff in enumerate(desc[:-1])]]
    while len(seq[-1]) > 1:
        rem, div = [Fraction(x) for x in seq[-2]], seq[-1]
        while len(rem) >= len(div):
            q = rem[0] / div[0]
            rem = [x - q * y for x, y in zip(rem[1:], div[1:])] + rem[len(div):]
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        seq.append([-x for x in rem])
    return seq


def phi_prime_witness(alpha: Sequence, x_max):
    """None when phi' > 0 on all of [0, x_max], else an exact witness against it.

    Decided on P(X) = sum_k k A_k X^(k-1), the integer polynomial of
    `scaled_phi` with P(X) = D phi'(X/4) / 4, over X in [0, 4 x_max]. The
    ends are tested directly, and a Sturm sequence of P counts its distinct
    zeros in between. While there are any, the interval is bisected towards
    the lowest one. The witness is a Fraction x with phi'(x) <= 0 (an end or
    a bisection point), or, when one zero is isolated at which P does not
    change sign, the pair (lo, hi) of Fractions holding it.
    """
    a, _ = scaled_phi(alpha)
    desc = [k * coeff for k, coeff in enumerate(a, 1)][::-1]
    while len(desc) > 1 and desc[0] == 0:
        desc.pop(0)
    lo, hi = Fraction(0), 4 * Fraction(x_max)
    for end in (lo, hi):
        if _horner(desc, end) <= 0:
            return end / 4
    seq = _sturm_sequence(desc)

    def changes(x) -> int:
        signs = [v > 0 for v in (_horner(p, x) for p in seq) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    v_lo, v_hi = changes(lo), changes(hi)
    while v_lo > v_hi:  # v_lo - v_hi distinct zeros in (lo, hi), and P > 0 at both ends
        mid = (lo + hi) / 2
        if _horner(desc, mid) <= 0:
            return mid / 4
        if v_lo - v_hi == 1:  # a single zero, between ends where P > 0: it touches 0
            return lo / 4, hi / 4
        v_mid = changes(mid)
        if v_lo > v_mid:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    return None


def format_rational(value: Fraction) -> str:
    """Serialize a rational as 'p/q' (zero is '0/1')."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' or decimal text to an exact rational; ValueError on a zero denominator."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None
