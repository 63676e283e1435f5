from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2.halfint import HalfInt, halfint
from nlsl2.repbuilder import (
    InadmissibleSpecError,
    NonBijectiveError,
    build_deformed,
    build_quadratic_explicit,
    build_sl2,
    build_uq,
    casimir_matrix,
    deformed_from_undeformed,
    inverse_map_polynomial,
    inverse_map_uq,
)
from nlsl2.coefficients import phi_eval, phi_prime, phi_prime_witness
from nlsl2.structure import HiggsShifted, Polynomial, StructureSpec


def test_sl2_spin_half_pauli():
    rep = build_sl2("1/2")
    assert rep.dim == 2
    assert np.allclose(rep.J3, np.diag([0.5, -0.5]))
    assert np.allclose(rep.Jplus, [[0, 1], [0, 0]])
    assert np.allclose(rep.Jminus, rep.Jplus.T)


@given(st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_sl2_commutators(two_j):
    rep = build_sl2(HalfInt(two_j))
    assert np.allclose(rep.J3 @ rep.Jplus - rep.Jplus @ rep.J3, rep.Jplus, atol=1e-12)
    comm = rep.Jplus @ rep.Jminus - rep.Jminus @ rep.Jplus
    assert np.allclose(comm, 2 * rep.J3, atol=1e-12)


def test_hermiticity_by_construction():
    rep = build_deformed(StructureSpec(Polynomial([1, Fraction(1, 9)]), halfint(2)))
    assert np.array_equal(rep.Jminus, rep.Jplus.T)


def test_two_construction_routes_agree():
    # direct structure-function build vs divided-difference functional calculus
    alpha = [Fraction(1), Fraction(1, 8), Fraction(1, 50)]
    for j_str in ("1/2", "1", "5/2", "4"):
        j = halfint(j_str)
        direct = build_deformed(StructureSpec(Polynomial(alpha), j))
        calculus = deformed_from_undeformed(build_sl2(j), alpha)
        assert np.allclose(direct.Jplus, calculus.Jplus, atol=1e-12)


def test_inadmissible_spec_raises_with_witness():
    spec = StructureSpec(Polynomial([1, -1]), halfint("3/2"))
    with pytest.raises(InadmissibleSpecError) as exc:
        build_deformed(spec)
    assert exc.value.offending
    assert "3/2" in str(exc.value)


def test_casimir_is_scalar():
    alpha = [Fraction(1), Fraction(-1, 30)]
    j = halfint(3)
    rep = build_deformed(StructureSpec(Polynomial(alpha), j))
    cas = casimir_matrix(rep, alpha)
    assert np.allclose(cas, float(phi_eval(alpha, j.mm1())) * np.eye(rep.dim), atol=1e-12)


def test_casimir_rejects_shifted_rep():
    from nlsl2.families import higgs_gamma_roots

    j = halfint("1/2")
    gamma = next(s.gamma for s in higgs_gamma_roots(j, -0.3) if s.gamma > 0)
    shifted = build_deformed(StructureSpec(HiggsShifted(-0.3, gamma), j))
    with pytest.raises(ValueError):
        casimir_matrix(shifted, [1, Fraction(-3, 5)])
    # the unshifted rep at the same beta goes through fine
    unshifted = build_deformed(StructureSpec(HiggsShifted(-0.3, 0.0), j))
    casimir_matrix(unshifted, [1, Fraction(-3, 5)])


def test_build_uq_delta_zero_rejected():
    with pytest.raises(ValueError):
        build_uq(halfint(1), 0.0)


def test_build_uq_reduces_to_sl2_for_small_delta():
    j = halfint("3/2")
    rep = build_uq(j, 1e-8)
    assert np.allclose(rep.Jplus, build_sl2(j).Jplus, atol=1e-6)


def test_quadratic_explicit_shifted_spectrum():
    j = halfint(1)
    a = 0.2
    rep = build_quadratic_explicit(build_sl2(j), a)
    s = np.sqrt(1 - 16 * a * a * float(j.mm1()) / 3)
    gamma = (-1 + s) / (4 * a)
    assert abs(rep.gamma - gamma) < 1e-14
    assert np.allclose(np.diag(rep.J3), [1 + gamma, gamma, -1 + gamma])


def test_forward_maps_reject_a_deformed_input_rep():
    # both maps write the deformed generators through the undeformed sl2 ones
    for rep in (build_uq(1, 0.5), build_deformed(StructureSpec(Polynomial([1, Fraction(1, 10)]), 1))):
        with pytest.raises(ValueError, match=repr(rep.family)):
            deformed_from_undeformed(rep, [1, Fraction(1, 10)])
        with pytest.raises(ValueError, match=repr(rep.family)):
            build_quadratic_explicit(rep, 0.1)


def test_quadratic_explicit_rejects_bad_alpha():
    rep = build_sl2(halfint(2))
    with pytest.raises(ValueError):
        build_quadratic_explicit(rep, 0.0)
    with pytest.raises(ValueError) as exc:
        build_quadratic_explicit(rep, 1.0)
    assert "3/(2(4j+1))" in str(exc.value)
    with pytest.raises(ValueError) as exc:  # the bound holds for either sign of alpha
        build_quadratic_explicit(rep, -1.0)
    assert "|alpha| <= 3/(2(4j+1))" in str(exc.value)


@given(st.sampled_from(["1/2", "1", "3/2", "3"]), st.sampled_from([0.1, 0.3, 1.0]))
@settings(max_examples=20, deadline=None)
def test_inverse_map_uq_round_trip(j_str, delta):
    j = halfint(j_str)
    back = inverse_map_uq(build_uq(j, delta), delta)
    ref = build_sl2(j)
    assert np.allclose(back.Jplus, ref.Jplus, atol=1e-10)
    assert np.allclose(back.J3, ref.J3, atol=1e-12)


def test_inverse_map_polynomial_round_trip():
    alpha = [Fraction(1), Fraction(1, 12)]
    j = halfint("5/2")
    rep = build_deformed(StructureSpec(Polynomial(alpha), j))
    back = inverse_map_polynomial(rep, alpha)
    assert np.allclose(back.Jplus, build_sl2(j).Jplus, atol=1e-10)


def test_inverse_map_polynomial_rejects_non_monotone_phi():
    j = halfint("3/2")
    alpha = [Fraction(1), Fraction(-1, 5)]
    rep = build_deformed(StructureSpec(Polynomial(alpha), j))
    with pytest.raises(NonBijectiveError) as exc:
        inverse_map_polynomial(rep, alpha)
    assert exc.value.witness_x >= 2.5 - 1e-9


def test_json_dict_round_trippable():
    rep = build_sl2("1/2")
    d = rep.to_json_dict()
    assert d["dim"] == 2 and d["two_j"] == 1
    assert np.allclose(np.array(d["Jplus"]).reshape(2, 2), rep.Jplus)


def test_inverse_map_polynomial_rejects_a_dip_between_samples():
    # phi'(x) = (x - x0)^2 - 1e-6 dips below 0 only on (x0 - 1e-3, x0 + 1e-3),
    # which falls between the points of a 257-point grid on [0, 110]
    x0 = 55 + Fraction(110, 512)
    j = halfint(10)
    bad = [x0 * x0 - Fraction(1, 10**6), -x0, Fraction(1, 3)]
    rep = build_deformed(StructureSpec(Polynomial(bad), j))
    with pytest.raises(NonBijectiveError) as exc:
        inverse_map_polynomial(rep, bad)
    x = exc.value.witness
    assert isinstance(x, Fraction) and x == exc.value.witness_x
    assert 0 <= x <= j.mm1() and phi_prime(bad, x) <= 0
    good = [x0 * x0 + Fraction(1, 10**6), -x0, Fraction(1, 3)]
    back = inverse_map_polynomial(build_deformed(StructureSpec(Polynomial(good), j)), good)
    assert np.allclose(back.Jplus, build_sl2(j).Jplus, atol=1e-10)


def test_inverse_map_polynomial_isolates_an_irrational_touching_zero():
    # phi'(x) = (x^2 - 2)^2 >= 0 vanishes only at sqrt(2), which no Fraction hits
    alpha = [Fraction(4), Fraction(0), Fraction(-4, 3), Fraction(0), Fraction(1, 5)]
    rep = build_deformed(StructureSpec(Polynomial(alpha), halfint(1)))
    with pytest.raises(NonBijectiveError) as exc:
        inverse_map_polynomial(rep, alpha)
    lo, hi = exc.value.witness
    assert exc.value.witness_x is None
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert 0 <= lo < hi <= 2 and lo * lo < 2 < hi * hi


@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12), min_size=1, max_size=4),
       st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_phi_prime_witness_is_exact(alpha, two_j):
    c = HalfInt(two_j).mm1()
    witness = phi_prime_witness(alpha, c)
    grid = [c * Fraction(i, 64) for i in range(65)]
    if witness is None:
        assert all(phi_prime(alpha, x) > 0 for x in grid)
    elif isinstance(witness, tuple):
        lo, hi = witness
        assert 0 <= lo < hi <= c and phi_prime(alpha, lo) > 0 and phi_prime(alpha, hi) > 0
    else:
        assert 0 <= witness <= c and phi_prime(alpha, witness) <= 0
