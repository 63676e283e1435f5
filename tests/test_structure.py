import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2 import structure
from nlsl2.halfint import HalfInt, halfint, ladder
from nlsl2.structure import (
    HiggsShifted,
    InadmissibleLabelError,
    Polynomial,
    QBase,
    QuadraticShifted,
    StructureSpec,
    admissible,
    f2_down,
    f2_higgs_shifted_down,
    f2_higgs_shifted_up,
    f2_polynomial,
    f2_qbase,
    f2_quadratic_down,
    f2_quadratic_up,
    f2_up,
    quadratic_transfer,
    screen,
)


def test_polynomial_reduces_to_sl2():
    j = halfint("3/2")
    for m in ladder(j):
        expected = j.mm1() - m.mm1()
        assert f2_polynomial([1], j, m) == expected


def test_out_of_range_m_rejected():
    with pytest.raises(ValueError):
        f2_polynomial([1], halfint(1), halfint(2))
    with pytest.raises(ValueError):
        f2_higgs_shifted_up(0.1, 0.0, halfint(1), halfint("-3/2"))


def test_off_lattice_m_rejected():
    # m = 1/2 is not on the j = 1 ladder, though it lies inside -1..1
    j, m = halfint(1), halfint("1/2")
    for leaf in (lambda: f2_polynomial([1], j, m), lambda: f2_higgs_shifted_up(0.1, 0.0, j, m),
                 lambda: f2_quadratic_up(0.1, 0.0, j, m), lambda: f2_qbase([1.0], 0.3, j, m),
                 lambda: f2_up(StructureSpec(Polynomial([1]), j), m)):
        with pytest.raises(ValueError, match="outside ladder"):
            leaf()


def test_leaves_take_the_boundary_point_and_f2_down_keeps_the_ladder():
    j = halfint(1)
    spec = StructureSpec(HiggsShifted(-0.1, 0.2), j)
    assert f2_up(spec, halfint(-2)) == f2_down(spec, halfint(-1))
    with pytest.raises(ValueError):
        f2_up(spec, halfint(-3))
    with pytest.raises(ValueError):
        f2_down(spec, halfint(-2))
    with pytest.raises(ValueError):
        f2_down(spec, halfint(2))


finite = dict(allow_nan=False, allow_infinity=False)
family_specs = st.one_of(
    st.builds(Polynomial, st.lists(st.fractions(-1000, 1000, max_denominator=1000), max_size=4)),
    st.builds(HiggsShifted, st.floats(-1e3, 1e3, **finite), st.floats(-30, 30, **finite)),
    st.builds(QuadraticShifted, st.floats(-1e3, 1e3, **finite), st.floats(-30, 30, **finite)),
    st.builds(QBase, st.lists(st.floats(-1e3, 1e3, **finite), max_size=4),
              st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)),
)


@given(family_specs, st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_raising_vanishes_exactly_at_the_top(family, two_j):
    # F(j, j) carries the factor (j - m), exactly 0.0 at m = j: the screen needs no test there
    spec = StructureSpec(family, HalfInt(two_j))
    assert f2_up(spec, spec.j) == 0.0


@given(family_specs, st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_lowering_is_raising_one_step_down(family, two_j):
    spec = StructureSpec(family, HalfInt(two_j))
    for m in ladder(spec.j):  # including the boundary value at m = -j
        assert f2_down(spec, m) == f2_up(spec, m - 1)


def test_boundary_annihilation_unshifted():
    # with gamma = 0 the raising function vanishes at m = j for every family
    j = halfint(2)
    assert f2_polynomial([1, Fraction(1, 9)], j, j) == 0
    assert f2_higgs_shifted_up(0.05, 0.0, j, j) == 0.0
    assert f2_quadratic_up(0.1, 0.0, j, j) == 0.0
    assert abs(f2_qbase([1.0], 0.3, j, j)) < 1e-15


@given(st.integers(1, 12), st.fractions(min_value=-1, max_value=1, max_denominator=20))
@settings(max_examples=60, deadline=None)
def test_polynomial_hermiticity_pairing(two_j, a2):
    # lowering out of m equals raising into m, i.e. F(j, m-1)
    j = HalfInt(two_j)
    spec = StructureSpec(Polynomial([1, a2]), j)
    for m in ladder(j):
        if m.twice == -j.twice:
            assert f2_down(spec, m) == 0.0
        else:
            assert f2_down(spec, m) == float(f2_polynomial([1, a2], j, m - 1))


def test_higgs_shifted_reduces_at_gamma_zero():
    j, b = halfint("5/2"), -0.05
    for m in ladder(j):
        up = f2_higgs_shifted_up(b, 0.0, j, m)
        poly = float(f2_polynomial([1, 2 * Fraction(b).limit_denominator(10**12)], j, m))
        assert abs(up - poly) < 1e-12
        if m.twice > -j.twice:
            assert abs(f2_higgs_shifted_down(b, 0.0, j, m)
                       - f2_higgs_shifted_up(b, 0.0, j, m - 1)) < 1e-12


def test_quadratic_up_down_consistency_at_gamma_zero():
    j, a = halfint(2), 0.1
    for m in ladder(j):
        if m.twice > -j.twice:
            assert abs(f2_quadratic_down(a, 0.0, j, m) - f2_quadratic_up(a, 0.0, j, m - 1)) < 1e-12


def test_admissible_polynomial_exact_screen():
    j = halfint("3/2")
    ok, offending = admissible(StructureSpec(Polynomial([1]), j))
    assert ok and not offending
    # strongly negative quadratic coefficient turns interior values negative
    ok, offending = admissible(StructureSpec(Polynomial([1, -1]), j))
    assert not ok and offending


def test_admissible_higgs_requires_boundary_annihilation():
    j = halfint("1/2")
    ok, _ = admissible(StructureSpec(HiggsShifted(-0.3, 0.0), j))
    assert ok
    ok, offending = admissible(StructureSpec(HiggsShifted(-0.3, 0.2), j))
    assert not ok and offending


@pytest.mark.parametrize("family,ok", [
    (HiggsShifted(-0.1, math.nan), False), (HiggsShifted(math.nan, 0.0), False),
    (QuadraticShifted(0.05, math.nan), False), (QBase([math.nan], 0.3), False),
    (HiggsShifted(-0.1, 0.0), True), (QuadraticShifted(0.05, float(quadratic_transfer(0.05, 2).shift(2))), True),
    (QBase([1.0], 0.3), True),
], ids=repr)
def test_nan_parameters_fail_the_screen_at_every_m(family, ok):
    got, offending = admissible(StructureSpec(family, halfint(1)))
    assert got is ok and offending == ([] if ok else [halfint(-1), halfint(0)])


def test_a_nan_lowering_value_at_the_bottom_breaks_the_boundary_annihilation(monkeypatch):
    spec = StructureSpec(HiggsShifted(-0.1, 0.0), halfint(1))
    values = structure.ladder_values(spec)
    assert screen(spec, values) == []
    monkeypatch.setattr(structure, "f2_down", lambda spec, m: math.nan)
    assert screen(spec, values) == [halfint(-1)]


def test_checked_takes_nan_as_the_first_offending_label():
    two_j, two_m = np.array([2, 2, 2]), np.array([0, -2, -4])
    assert structure._checked("x", np.array([1.0, -0.5, 2.0]), -1.0, two_j, two_m).tolist() == [1.0, 0.0, 2.0]
    with pytest.raises(InadmissibleLabelError, match=r"M = -1$"):
        structure._checked("x", np.array([1.0, math.nan, 2.0]), -1.0, two_j, two_m)


def test_admissible_j_zero_trivial():
    ok, offending = admissible(StructureSpec(Polynomial([1, -5]), halfint(0)))
    assert ok and not offending


def test_qbase_rejects_delta_zero():
    with pytest.raises(ValueError):
        QBase([1.0], 0.0)
    with pytest.raises(ValueError):
        f2_qbase([1.0], 0.0, halfint(1), halfint(0))


def test_spec_metadata():
    spec = StructureSpec(HiggsShifted(-0.3, 0.25), halfint("1/2"))
    assert spec.gamma == 0.25
    assert spec.family_name == "HiggsShifted"
    assert StructureSpec(Polynomial([1]), halfint(1)).gamma == 0.0
    with pytest.raises(ValueError):
        StructureSpec(Polynomial([1]), halfint(-1))


def test_f2_up_dispatch_matches_direct():
    j = halfint(1)
    m = halfint(0)
    assert f2_up(StructureSpec(QuadraticShifted(0.1, -0.05), j), m) == f2_quadratic_up(0.1, -0.05, j, m)
    assert f2_up(StructureSpec(QBase([1.0], 0.3), j), m) == f2_qbase([1.0], 0.3, j, m)
