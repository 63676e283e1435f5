import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2.halfint import HalfInt, halfint
from nlsl2.qdeform import (
    QParam,
    q_beta_coeffs,
    q_bracket,
    qbase_example_commutator,
    uq_casimir_relation,
)

deltas = st.floats(0.05, 2.0)
args = st.floats(-6, 6)


def test_qparam_rejects_zero():
    with pytest.raises(ValueError):
        QParam(0.0)
    with pytest.raises(ValueError):
        q_bracket(1.0, 0.0)


@given(args, deltas)
def test_bracket_odd(x, d):
    assert math.isclose(q_bracket(-x, d), -q_bracket(x, d), rel_tol=1e-12, abs_tol=1e-12)


@given(args, deltas)
def test_bracket_classical_limit(x, d):
    # [x] -> x as delta -> 0
    small = 1e-6
    assert math.isclose(q_bracket(x, small), x, rel_tol=1e-9, abs_tol=1e-9)
    assert q_bracket(1.0, d) == 1.0


@given(args, args, deltas)
@settings(max_examples=80)
def test_bracket_product_difference_identity(a, b, d):
    # [a][b+1] - [a+1][b] = [a-b]
    lhs = q_bracket(a, d) * q_bracket(b + 1, d) - q_bracket(a + 1, d) * q_bracket(b, d)
    rhs = q_bracket(a - b, d)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


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


def test_qbase_example_commutator_small():
    assert qbase_example_commutator(halfint("3/2"), 0.1, QParam(0.3)) < 1e-12
    assert qbase_example_commutator(halfint(1), -0.05, QParam(0.8)) < 1e-12
