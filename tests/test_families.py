import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2.families import (
    family_count,
    higgs_beta_window,
    higgs_gamma_roots,
    quadratic_gamma,
    scan,
    scan_csv_rows,
)
from nlsl2.halfint import HalfInt, halfint
from nlsl2.structure import HiggsShifted, _float_closed_form


def test_window_spin_half():
    assert higgs_beta_window(halfint("1/2")) == (Fraction(-1, 3), Fraction(-1, 4))


def test_window_requires_positive_j():
    with pytest.raises(ValueError):
        higgs_beta_window(halfint(0))


@given(st.integers(1, 12))
def test_window_shrinks_with_j(two_j):
    lo, hi = higgs_beta_window(HalfInt(two_j))
    assert lo < hi < 0
    if two_j > 1:
        lo_prev, hi_prev = higgs_beta_window(HalfInt(two_j - 1))
        assert lo_prev < lo and hi_prev < hi


def test_counts_spin_half():
    j = halfint("1/2")
    assert family_count(j, -0.3) == 3
    assert family_count(j, 0.5) == 1
    assert family_count(j, -0.5) == 1
    assert family_count(j, -2.0) == 0


def test_gamma_zero_always_candidate():
    sols = higgs_gamma_roots(halfint(1), 0.0)
    assert len(sols) == 1 and sols[0].gamma == 0.0 and sols[0].admissible
    assert "absent" in sols[0].note


@given(st.integers(1, 8), st.floats(-0.6, 0.6))
@settings(max_examples=80, deadline=None)
def test_window_membership_matches_pair_emission(two_j, beta):
    j = HalfInt(two_j)
    lo, hi = higgs_beta_window(j)
    sols = higgs_gamma_roots(j, beta)
    nonzero = [s for s in sols if s.gamma != 0.0]
    if float(lo) < beta <= float(hi):
        assert len(nonzero) == 2
        for s in nonzero:
            # shifted solutions annihilate both ladder boundaries: raising out of m = j, F(j, j), and lowering
            # out of m = -j, F(j, -j-1)
            for m in (j.value, -j.value - 1):
                assert abs(_float_closed_form(HiggsShifted(beta, s.gamma), j, m)) < 1e-9
    else:
        assert not nonzero


def test_gamma_pair_symmetric():
    sols = higgs_gamma_roots(halfint("1/2"), -0.3)
    gs = sorted(s.gamma for s in sols)
    assert abs(gs[0] + gs[2]) < 1e-14
    assert gs[1] == 0.0


def test_quadratic_gamma_boundary_exact():
    sol = quadratic_gamma(halfint("1/2"), 0.5)
    assert abs(sol.gamma - (-0.5)) < 1e-15


def test_quadratic_gamma_rejects_beyond_bound():
    with pytest.raises(ValueError) as exc:
        quadratic_gamma(halfint(2), 1.0)
    assert "3/(2(4j+1))" in str(exc.value)
    with pytest.raises(ValueError) as exc:  # the bound holds for either sign of alpha
        quadratic_gamma(halfint(2), -1.0)
    assert "|alpha| <= 3/(2(4j+1))" in str(exc.value)
    with pytest.raises(ValueError):
        quadratic_gamma(halfint(1), 0.0)


@given(st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_quadratic_gamma_monotone_in_alpha(two_j):
    # gamma decreases monotonically from 0 as alpha grows toward the bound
    j = HalfInt(two_j)
    bound = 3 / (2 * (2 * two_j + 1))
    alphas = [f * bound for f in (0.1, 0.3, 0.6, 0.9)]
    gammas = [quadratic_gamma(j, a).gamma for a in alphas]
    assert all(g < 0 for g in gammas)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    # and gamma -> 0 in the small-coupling limit
    assert abs(quadratic_gamma(j, 1e-8 * bound).gamma) < 1e-6


def test_scan_rows_and_csv():
    rows = scan(halfint("1/2"), [-0.3, 0.5, -2.0], "higgs")
    assert [r["count"] for r in rows] == [3, 1, 0]
    header, csv_rows = scan_csv_rows(rows)
    assert header[0] == "family" and len(header) == 10
    assert all(len(r) == 10 for r in csv_rows)

    qrows = scan(halfint(1), [0.1, 5.0], "quadratic")
    assert qrows[0]["count"] == 1
    assert qrows[1]["count"] == 0 and "error" in qrows[1]

    with pytest.raises(ValueError):
        scan(halfint(1), [0.1], "nope")
