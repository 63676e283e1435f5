import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2 import coefficients
from nlsl2.coefficients import (
    alpha_from_beta,
    bernoulli,
    beta_from_alpha,
    epsilon,
    format_rational,
    parse_rational,
    phi_eval,
    phi_numerators,
    phi_prime,
    power_sum_oracle,
    scaled_phi,
)
from nlsl2.structure import divided_difference
from nlsl2.verifier import q_series_identity_residual

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=30)
# mixed signs, denominators up to 1e6, and floats (exact binary fractions)
kernel_alphas = st.lists(
    st.one_of(st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
              st.floats(-10, 10, allow_nan=False, allow_infinity=False)),
    max_size=5,
)
scaled_xs = st.lists(st.integers(-(10**6), 10**6), max_size=8)


def _bernoulli_standard(top):
    """Standard Bernoulli numbers B_0..B_top (B_1 = -1/2) by the classical recurrence
    sum_(k=0..n) C(n+1, k) B_k = 0 for n >= 1: the oracle for `bernoulli`, which reads them off the epsilon rows."""
    b = [Fraction(1)]
    for n in range(1, top + 1):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b


def test_bernoulli_known_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(3) == Fraction(1, 42)
    assert bernoulli(4) == Fraction(1, 30)
    assert bernoulli(5) == Fraction(5, 66)
    with pytest.raises(ValueError):
        bernoulli(0)


def test_bernoulli_numbers_from_the_epsilon_rows_equal_the_classical_recurrence():
    b = _bernoulli_standard(240)
    assert [bernoulli(n) for n in range(1, 121)] == [abs(b[2 * n]) for n in range(1, 121)]


def test_epsilon_base_cases():
    assert epsilon(1, 1) == 1
    assert epsilon(2, 2) == 1
    assert epsilon(1, 2) == Fraction(-1, 2)
    for k in range(1, 9):
        assert epsilon(k, k) == 1
    with pytest.raises(ValueError):
        epsilon(0, 3)
    with pytest.raises(ValueError):
        epsilon(4, 3)


def _triangular_row(k, b):
    """(e, L) of row k by the triangular system over Bernoulli numbers that the recurrence replaced, B_jj = |b[2jj]|
    from the classical recurrence, not from the rows themselves: relation
    jj = 1..k-1 fixes eps_(k-jj)(k) from the entries above it,
      (-1)^(jj+1) (k+1)/jj C(2k+1, 2jj-1) B_jj = sum_(i=0..jj) eps_(k-i)(k) C(k+1-i, 2jj-2i),
    on ints over L, the lcm of the left sides' denominators."""
    lhs = [(-1) ** (jj + 1) * Fraction(k + 1, jj) * comb(2 * k + 1, 2 * jj - 1) * abs(b[2 * jj])
           for jj in range(1, k)]
    big = lcm(*(f.denominator for f in lhs))
    eps = [0] * k
    eps[k - 1] = big
    for jj, f in enumerate(lhs, 1):
        known = sum(eps[k - i - 1] * comb(k + 1 - i, 2 * jj - 2 * i) for i in range(jj))
        eps[k - jj - 1] = f.numerator * (big // f.denominator) - known
    return tuple(eps), big


def test_epsilon_rows_equal_the_triangular_solve():
    b = _bernoulli_standard(120)
    for k in range(1, 61):
        assert coefficients._epsilon_row(k) == _triangular_row(k, b), k


@pytest.mark.parametrize("k", [100, 300])
def test_epsilon_rows_give_faulhabers_odd_power_sums(k):
    # S_(2k+1)(n) = sum_r eps_r(k) (n(n+1))^(r+1) / (2(k+1)), exactly, past where the triangular solve could reach
    for n in range(7):
        faulhaber = sum(epsilon(r, k) * (n * (n + 1)) ** (r + 1) for r in range(1, k + 1)) / (2 * (k + 1))
        assert faulhaber == power_sum_oracle(k, n), n


def test_epsilon_rows_are_built_only_as_far_as_asked(monkeypatch):
    monkeypatch.setattr(coefficients, "_epsilon_rows", [((), 1)])
    coefficients._alpha_column.cache_clear()
    assert alpha_from_beta([1] * 25) == _alpha_from_beta_reference([1] * 25)
    assert len(coefficients._epsilon_rows) == 25
    q_series_identity_residual(10, -10, 1.0)
    assert len(coefficients._epsilon_rows) == 36  # its 35 terms


def test_two_threads_growing_the_rows_get_the_same_rows(monkeypatch):
    want = [coefficients._epsilon_row(k) for k in range(161)]
    monkeypatch.setattr(coefficients, "_epsilon_rows", [((), 1)])
    start = threading.Barrier(2)

    def grow(top):
        start.wait()
        return [coefficients._epsilon_row(k) for k in range(top, 0, -1)][::-1]

    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(grow, (160, 120)))
    assert got == [want[1:161], want[1:121]]
    assert coefficients._epsilon_rows == want


@given(st.integers(0, 6), st.integers(0, 30))
def test_power_sum_oracle_brute_force(p, n):
    assert power_sum_oracle(p, n) == sum(Fraction(r) ** (2 * p + 1) for r in range(1, n + 1))


def test_linear_maps_are_identity_on_sl2():
    assert alpha_from_beta([1]) == [Fraction(1)]
    assert beta_from_alpha([1]) == [Fraction(1)]


def test_cubic_case():
    # [J+,J-] = (2J3) + beta (2J3)^3 corresponds to phi(x) = x + 2 beta x^2
    b = Fraction(1, 7)
    assert alpha_from_beta([1, b]) == [Fraction(1), 2 * b]
    assert beta_from_alpha([1, 2 * b]) == [Fraction(1), b]


def _alpha_from_beta_reference(beta):
    """alpha_1 = beta_0, alpha_l = sum_{k>=l-1} beta_k 4^k/(k+1) eps_{l-1}(k), all in Fractions."""
    b = [Fraction(v) for v in beta]
    alpha = [b[0]]
    for l in range(2, len(b) + 1):
        acc = Fraction(0)
        for k in range(l - 1, len(b)):
            acc += b[k] * Fraction(4**k, k + 1) * epsilon(l - 1, k)
        alpha.append(acc)
    return alpha


def _beta_from_alpha_reference(alpha):
    """beta_p = 4^-p sum_{k=p+1}^{2p+1} alpha_k C(k, 2k-2p-1), alpha_k = 0 past the end."""
    a = [Fraction(v) for v in alpha]
    beta = []
    for p in range(len(a)):
        acc = Fraction(0)
        for k in range(p + 1, 2 * p + 2):
            acc += (a[k - 1] if k <= len(a) else Fraction(0)) * comb(k, 2 * k - 2 * p - 1)
        beta.append(acc / 4**p)
    return beta


# N = 0..30: signed rationals with large denominators, and exact zeros
signed_vectors = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-100, max_value=100, max_denominator=10**4)),
    min_size=1, max_size=31,
)


@given(signed_vectors)
@settings(max_examples=60, deadline=None)
def test_scaled_integer_maps_equal_the_fraction_formulas(v):
    alpha = alpha_from_beta(v)
    beta = beta_from_alpha(v)
    assert alpha == _alpha_from_beta_reference(v)
    assert beta == _beta_from_alpha_reference(v)
    assert all(type(x) is Fraction for x in alpha + beta)
    assert beta_from_alpha(alpha) == v
    assert alpha_from_beta(beta) == v


def test_maps_reject_an_empty_vector():
    with pytest.raises(ValueError):
        alpha_from_beta([])
    with pytest.raises(ValueError):
        beta_from_alpha([])


@given(st.lists(rationals, min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_round_trip_beta_alpha_beta(beta):
    assert beta_from_alpha(alpha_from_beta(beta)) == beta


@given(st.lists(rationals, min_size=1, max_size=5), rationals)
@settings(max_examples=60, deadline=None)
def test_phi_eval_matches_monomial_sum(alpha, x):
    direct = sum(a * Fraction(x) ** (k + 1) for k, a in enumerate(alpha))
    assert phi_eval(alpha, x) == direct


@given(st.lists(rationals, min_size=1, max_size=5), rationals)
@settings(max_examples=60, deadline=None)
def test_phi_prime_matches_monomial_sum(alpha, x):
    direct = sum((k + 1) * a * Fraction(x) ** k for k, a in enumerate(alpha))
    assert phi_prime(alpha, x) == direct


def test_rational_serialization_round_trip():
    for v in [Fraction(0), Fraction(-3, 5), Fraction(22, 7)]:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(0)) == "0/1"
    assert parse_rational("0.25") == Fraction(1, 4)


def test_parse_rational_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_scaled_phi_common_denominator():
    # phi(x) = x + x^2/10: D phi(X/4) = 40 X + X^2 over D = 160
    assert scaled_phi([1, Fraction(1, 10)]) == ([40, 1], 160)
    assert scaled_phi([]) == ([], 1)


@given(kernel_alphas, scaled_xs)
@settings(max_examples=80, deadline=None)
def test_phi_numerators_equal_phi_eval(alpha, xs):
    ns, d = phi_numerators(alpha, xs)
    assert d > 0 and len(ns) == len(xs)
    for x, n in zip(xs, ns):
        exact = phi_eval(alpha, Fraction(x, 4))
        assert Fraction(n, d) == exact
        assert n / d == float(exact)


@given(kernel_alphas, st.integers(1, 2000), st.data())
@settings(max_examples=80, deadline=None)
def test_divided_difference_equals_exact_quotient(alpha, top, data):
    # structure.divided_difference reads phi from phi_numerators on the ladder of top / 2
    g = divided_difference(alpha, top)
    for _ in range(8):
        two_j = top - 2 * data.draw(st.integers(0, (top - 1) // 2))
        two_m = two_j - 2 * data.draw(st.integers(1, two_j))
        cf, xf = Fraction(two_j * (two_j + 2), 4), Fraction(two_m * (two_m + 2), 4)
        assert g(two_j, two_m) == float((phi_eval(alpha, cf) - phi_eval(alpha, xf)) / (cf - xf))


@given(kernel_alphas, st.integers(1, 2000), st.data())
@settings(max_examples=80, deadline=None)
def test_divided_difference_reads_labels_of_either_parity(alpha, top, data):
    # an irrep at half-integer j reads the map built at the even top of its V (x) V
    g = divided_difference(alpha, top)
    for _ in range(8):
        two_j = data.draw(st.integers(1, top))
        two_m = two_j - 2 * data.draw(st.integers(1, two_j))
        cf, xf = Fraction(two_j * (two_j + 2), 4), Fraction(two_m * (two_m + 2), 4)
        assert g(two_j, two_m) == float((phi_eval(alpha, cf) - phi_eval(alpha, xf)) / (cf - xf))
