import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsl2.halfint import HalfInt, halfint
from nlsl2.qdeform import (
    QParam,
    _q_bracket_values,
    check_q_range,
    q_beta_coeffs,
    q_bracket,
    q_brackets,
    qbase_example_commutator,
    uq_casimir_relation,
    uq_casimir_residuals,
)
from nlsl2.repbuilder import _ladder_casimir_diagonal, build_uq

deltas = st.floats(0.05, 2.0)
args = st.floats(-6, 6)
EPS = sys.float_info.epsilon
# [a][b+1] - [a+1][b] misses [a-b] by 1.09e-9 here in floats, past a 1e-9 relative gate
CANCELLING = dict(a=3.9825871498301666, b=4.756039107418891, d=1.7853132317008817)


def difference_identity(a, b, d, shift=0.0):
    """(lhs, rhs, scale) of [a][b+1] - [a+1][b] = [a-b+shift] in floats.

    The left side cancels two products, so its rounding error scales with
    scale = |[a][b+1]| + |[a+1][b]| + |[a-b+shift]|, not with the result.
    """
    p = q_bracket(a, d) * q_bracket(b + 1, d)
    q = q_bracket(a + 1, d) * q_bracket(b, d)
    rhs = q_bracket(a - b + shift, d)
    return p - q, rhs, abs(p) + abs(q) + abs(rhs)


def decimal_bracket(x: Decimal, d: Decimal) -> Decimal:
    def sinh(y):
        e = y.exp()
        return (e - 1 / e) / 2

    return sinh(d * x) / sinh(d)


def test_qparam_rejects_zero():
    with pytest.raises(ValueError):
        QParam(0.0)
    with pytest.raises(ValueError):
        q_bracket(1.0, 0.0)


@given(args, deltas)
def test_bracket_odd(x, d):
    assert math.isclose(q_bracket(-x, d), -q_bracket(x, d), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("delta", [-1.3, -0.2, 1e-3, 0.01, 0.3, 1.0, 5.0])
def test_scalar_bracket_is_the_array_form_bitwise(delta):
    xs = np.concatenate((np.arange(-300, 301) / 2, np.linspace(-40, 40, 997)))
    xs = xs[np.abs(delta * xs) < 700]
    scalar = np.array([q_bracket(float(x), delta) for x in xs])
    assert np.array_equal(scalar, q_brackets(xs, delta))
    assert np.array_equal(np.signbit(scalar), np.signbit(q_brackets(xs, delta)))


@given(args, deltas)
def test_bracket_classical_limit(x, d):
    # [x] -> x as delta -> 0
    small = 1e-6
    assert math.isclose(q_bracket(x, small), x, rel_tol=1e-9, abs_tol=1e-9)
    assert q_bracket(1.0, d) == 1.0


@given(args, args, deltas)
@example(**CANCELLING)
@settings(max_examples=80)
def test_bracket_product_difference_identity(a, b, d):
    # [a][b+1] - [a+1][b] = [a-b]; the gate scales with the cancelled products
    # (the worst of 200,000 random draws was 10.9 eps times the scale)
    lhs, rhs, scale = difference_identity(a, b, d)
    assert abs(lhs - rhs) <= 32 * EPS * scale


def test_bracket_difference_identity_exact_oracle():
    # In 50-digit decimals the identity holds at the cancelling input, so the
    # 1.09e-9 float miss is rounding of the cancelled products, which the
    # scaled gate admits and the former 1e-9 relative gate did not.
    a, b, d = CANCELLING["a"], CANCELLING["b"], CANCELLING["d"]
    with localcontext() as ctx:
        ctx.prec = 50
        da, db, dd = Decimal(a), Decimal(b), Decimal(d)
        exact_lhs = (decimal_bracket(da, dd) * decimal_bracket(db + 1, dd)
                     - decimal_bracket(da + 1, dd) * decimal_bracket(db, dd))
        exact_rhs = decimal_bracket(da - db, dd)
        assert abs(exact_lhs - exact_rhs) < Decimal("1e-40")
    lhs, rhs, scale = difference_identity(a, b, d)
    assert not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)
    assert abs(lhs - float(exact_lhs)) <= 32 * EPS * scale
    assert abs(rhs - float(exact_rhs)) <= 32 * EPS * scale


@pytest.mark.parametrize("inputs", [CANCELLING, dict(a=5.0, b=3.8306, d=1.796875), dict(a=-0.5, b=0.25, d=0.3)])
def test_bracket_difference_gate_rejects_shifted_bracket(inputs):
    lhs, rhs, scale = difference_identity(**inputs, shift=1e-3)
    assert abs(lhs - rhs) > 32 * EPS * scale


@given(st.integers(0, 12), st.integers(-12, 12), deltas)
@settings(max_examples=80)
def test_structure_function_factorization(two_j, two_m, d):
    # [j][j+1] - [m][m+1] = [j-m][j+m+1]
    j, m = two_j / 2.0, two_m / 2.0
    lhs = q_bracket(j, d) * q_bracket(j + 1, d) - q_bracket(m, d) * q_bracket(m + 1, d)
    rhs = q_bracket(j - m, d) * q_bracket(j + m + 1, d)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_beta_coeffs_small_delta_limit():
    # beta_0 -> 1 and higher coefficients vanish as delta -> 0
    coeffs = q_beta_coeffs(QParam(1e-4), 4)
    assert abs(coeffs[0] - 1.0) < 1e-6
    assert all(abs(c) < 1e-8 for c in coeffs[1:])


def test_beta_coeffs_resum_to_bracket():
    # sum_p beta_p (2m)^(2p+1) converges to [2m]
    d, m = 0.4, 1.5
    coeffs = q_beta_coeffs(QParam(d), 30)
    total = sum(c * (2 * m) ** (2 * p + 1) for p, c in enumerate(coeffs))
    assert math.isclose(total, q_bracket(2 * m, d), rel_tol=1e-12)


@given(st.integers(1, 8), st.sampled_from([0.1, 0.3, 1.0]))
@settings(max_examples=24, deadline=None)
def test_casimir_relation_all_spins(two_j, d):
    assert uq_casimir_relation(HalfInt(two_j), QParam(d)) < 1e-11


@pytest.mark.parametrize("two_j,d", [(0, 0.3), (5, 0.1), (40, 0.3)])
def test_casimir_relation_is_the_largest_residual(two_j, d):
    residuals = uq_casimir_residuals(HalfInt(two_j), QParam(d))
    assert len(residuals) == 3 and uq_casimir_relation(HalfInt(two_j), QParam(d)) == max(residuals)


def test_qbase_example_commutator_small():
    assert qbase_example_commutator(halfint("3/2"), 0.1, QParam(0.3)) < 1e-12
    assert qbase_example_commutator(halfint(1), -0.05, QParam(0.8)) < 1e-12


@pytest.mark.parametrize("delta", [1e-3, 0.01, 0.3, 0.5, 1.0, 5.0])
def test_q_range_limit_is_the_float_range_of_the_q_numbers(delta):
    # the largest admissible 2j builds and checks with finite floats and no warning; the next is rejected
    two_j, rejected = 0, 10**7
    while rejected - two_j > 1:
        mid = (two_j + rejected) // 2
        try:
            check_q_range(HalfInt(mid), delta)
            two_j = mid
        except ValueError:
            rejected = mid
    with pytest.raises(ValueError, match="exceeds the limit"):
        build_uq(HalfInt(rejected), delta)
    if two_j > 10**5:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = build_uq(HalfInt(two_j), delta)
        diag = _ladder_casimir_diagonal(rep, _q_bracket_values(HalfInt(two_j), delta))
        assert np.isfinite(diag).all() and np.isfinite(np.cosh(delta * (two_j + 1)))
