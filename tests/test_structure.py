import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsl2 import coefficients, repbuilder, structure, verifier
from nlsl2.cli import run
from nlsl2.coefficients import phi_eval
from nlsl2.families import higgs_beta_window, higgs_gamma_roots, quadratic_gamma
from nlsl2.halfint import HalfInt, halfint
from nlsl2.structure import (
    ADMISSIBILITY_TOL,
    BOUNDARY_TOL,
    HiggsShifted,
    InadmissibleLabelError,
    Polynomial,
    QBase,
    QuadraticShifted,
    StructureSpec,
    admissible,
    ladder_values,
    quadratic_transfer,
    screen,
)


def closed_form(spec):
    """F(j, m) for m = j, j-1, ..., -j-1, the top and the boundary point included.

    The polynomial family by `phi_eval`, phi(j(j+1)) - phi(m(m+1)) in exact Fractions, independent of the
    scaled-integer kernel; the float families by `_float_closed_form` on one array of m.
    """
    j = spec.j
    ms = [HalfInt(t) for t in range(j.twice, -j.twice - 3, -2)]
    if isinstance(spec.family, Polynomial):
        top = phi_eval(spec.family.alpha, j.mm1())
        return [top - phi_eval(spec.family.alpha, m.mm1()) for m in ms]
    return structure._float_closed_form(spec.family, j, np.array([m.value for m in ms])).tolist()


def test_polynomial_reduces_to_sl2():
    j = halfint("3/2")
    want = [j.mm1() - HalfInt(t).mm1() for t in range(j.twice - 2, -j.twice - 1, -2)]
    assert ladder_values(StructureSpec(Polynomial([1]), j)) == want


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
    assert closed_form(StructureSpec(family, HalfInt(two_j)))[0] == 0


@given(family_specs, st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_lowering_is_raising_one_step_down(family, two_j):
    # lowering out of m is F(j, m-1): the ladder holds it for m = j, ..., -j+1, and the screen reads m = -j, the
    # boundary point F(j, -j-1), for the shifted families
    spec = StructureSpec(family, HalfInt(two_j))
    closed = closed_form(spec)
    values = ladder_values(spec)
    assert values == closed[1:-1]
    if two_j and isinstance(family, (HiggsShifted, QuadraticShifted)):
        bottom_offends = not closed[-2] >= -ADMISSIBILITY_TOL or not abs(closed[-1]) <= BOUNDARY_TOL
        assert (-spec.j in screen(spec, values)) == bottom_offends


def test_boundary_annihilation_unshifted():
    # with gamma = 0 the raising function vanishes at m = j for every family
    j = halfint(2)
    for family in (Polynomial([1, Fraction(1, 9)]), HiggsShifted(0.05, 0.0), QuadraticShifted(0.1, 0.0)):
        assert closed_form(StructureSpec(family, j))[0] == 0
    assert abs(closed_form(StructureSpec(QBase([1.0], 0.3), j))[0]) < 1e-15


@given(st.integers(1, 12), st.fractions(min_value=-1, max_value=1, max_denominator=20))
@settings(max_examples=60, deadline=None)
def test_polynomial_hermiticity_pairing(two_j, a2):
    # lowering out of m equals raising into m, i.e. F(j, m-1); out of m = -j it is F(j, -j-1) = 0 exactly
    spec = StructureSpec(Polynomial([1, a2]), HalfInt(two_j))
    closed = closed_form(spec)
    assert closed[-1] == 0
    assert ladder_values(spec) == closed[1:-1]


def test_higgs_shifted_reduces_at_gamma_zero():
    j, b = halfint("5/2"), -0.05
    higgs = closed_form(StructureSpec(HiggsShifted(b, 0.0), j))
    poly = closed_form(StructureSpec(Polynomial([1, 2 * Fraction(b).limit_denominator(10**12)]), j))
    assert len(higgs) == len(poly) == j.twice + 2
    for up, exact in zip(higgs, poly):
        assert abs(up - float(exact)) < 1e-12


def test_quadratic_up_down_consistency_at_gamma_zero():
    spec = StructureSpec(QuadraticShifted(0.1, 0.0), halfint(2))
    for down, up in zip(ladder_values(spec), closed_form(spec)[1:-1], strict=True):
        assert abs(down - up) < 1e-12


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
    monkeypatch.setattr(structure, "_float_closed_form", lambda fam, j, mv: math.nan)
    assert screen(spec, values) == [halfint(-1)]


def test_qbase_without_terms_is_the_zero_ladder():
    spec = StructureSpec(QBase([], 0.3), halfint(1))
    assert ladder_values(spec) == [0.0, 0.0] and admissible(spec) == (True, [])


def window_betas(j):
    """beta inside the Higgs window and at both edges: the closed upper end and the float just above the open lower."""
    lo, hi = map(float, higgs_beta_window(j))
    return lo + 0.4 * (hi - lo), hi, math.nextafter(lo, 0.0)


@pytest.mark.parametrize("two_j", range(1, 8))
def test_screen_passes_the_higgs_roots_and_gamma_zero(two_j):
    # the boundary point F(j, -j-1) vanishes within BOUNDARY_TOL at every root, the window edges included (at the
    # lower one the pair meets at gamma = 0), and at gamma = 0 for any beta whose ladder is positive
    j = HalfInt(two_j)
    for beta in window_betas(j):
        sols = higgs_gamma_roots(j, beta)
        assert len(sols) == 3
        for sol in sols:
            assert admissible(StructureSpec(HiggsShifted(beta, sol.gamma), j)) == (True, [])
    for beta in (0.0, -0.01, 0.05):
        assert admissible(StructureSpec(HiggsShifted(beta, 0.0), j)) == (True, [])


@pytest.mark.parametrize("two_j", range(1, 8))
def test_screen_passes_the_forced_quadratic_gamma_alone(two_j):
    j = HalfInt(two_j)
    bound = 3 / (2 * (2 * two_j + 1))  # the largest |alpha| with a nonnegative radicand
    for alpha in (0.5 * bound, bound, -0.5 * bound, 1e-3):
        assert admissible(StructureSpec(QuadraticShifted(alpha, quadratic_gamma(j, alpha).gamma), j)) == (True, [])
        assert admissible(StructureSpec(QuadraticShifted(alpha, 0.0), j)) == (False, [-j])


@pytest.mark.parametrize("two_j", range(1, 8))
def test_a_root_gamma_off_by_1e6_relative_offends_at_the_bottom_alone(two_j):
    # negative control: the ladder stays positive, the boundary point does not vanish
    j = HalfInt(two_j)
    beta = window_betas(j)[0]
    shifted = [HiggsShifted(beta, sol.gamma * (1 + 1e-6)) for sol in higgs_gamma_roots(j, beta) if sol.gamma]
    alpha = 0.5 * 3 / (2 * (2 * two_j + 1))
    shifted.append(QuadraticShifted(alpha, quadratic_gamma(j, alpha).gamma * (1 + 1e-6)))
    assert len(shifted) == 3
    for family in shifted:
        assert admissible(StructureSpec(family, j)) == (False, [-j])


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


def test_spec_metadata():
    spec = StructureSpec(HiggsShifted(-0.3, 0.25), halfint("1/2"))
    assert spec.gamma == 0.25
    assert spec.family_name == "HiggsShifted"
    assert StructureSpec(Polynomial([1]), halfint(1)).gamma == 0.0
    with pytest.raises(ValueError):
        StructureSpec(Polynomial([1]), halfint(-1))



# ---------------------------------------------------------------------------
# the one exact phi evaluator: a bounded memo of whole ladders


MEMO_ALPHA = (Fraction(1), Fraction(1, 10), Fraction(1, 100))


def kernel_ladder(alpha, two_j):
    """D phi(m(m+1)) for m = j, ..., -j and D, from the uncached kernel, one point at a time."""
    ns, d = zip(*(coefficients.phi_numerators(alpha, [t * (t + 2)]) for t in range(two_j, -two_j - 1, -2)))
    return tuple(n for n, in ns), d[0]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The X lists handed to the integer phi kernel, from a cleared memo on."""
    calls = []
    original = structure.phi_numerators
    monkeypatch.setattr(structure, "phi_numerators", lambda alpha, xs: calls.append(list(xs)) or original(alpha, xs))
    structure._phi_ladder.cache_clear()
    return calls


@pytest.mark.parametrize("two_j", [0, 1, 8, 9, 64])
def test_a_polynomial_irrep_evaluates_its_ladder_once(kernel_calls, capsys, two_j):
    j = HalfInt(two_j)
    for calls in (1, 0):  # the second round reads the kept table
        del kernel_calls[:]
        rep = repbuilder.build_deformed(StructureSpec(Polynomial(MEMO_ALPHA), j))
        verifier.exact_recurrence_check(MEMO_ALPHA, j)
        repbuilder.casimir_matrix(rep, MEMO_ALPHA)
        assert len(kernel_calls) == calls
    structure._phi_ladder.cache_clear()
    assert run(["--format", "json", "verify", "--family", "polynomial", "--j", str(j), "--alpha=1,1/10,1/100"]) == 0
    assert len(kernel_calls) == 1 and all(c["pass"] for c in json.loads(capsys.readouterr().out)["checks"])
    # exactly the distinct X = 4 m(m+1) of the ladder
    assert sorted(kernel_calls[0]) == sorted({t * (t + 2) for t in range(two_j, -two_j - 1, -2)})


@pytest.mark.parametrize("top", [0, 1, 2, 7, 40])
def test_polynomial_transfer_reads_the_same_ladders(kernel_calls, top):
    g = structure.polynomial_transfer(MEMO_ALPHA, top).factor
    assert len(kernel_calls) == 2  # the ladders at 2j = top and top - 1
    structure.phi_ladder_numerators(MEMO_ALPHA, HalfInt(top))
    repbuilder.deformed_from_undeformed(repbuilder.build_sl2(HalfInt(top)), MEMO_ALPHA)
    assert len(kernel_calls) == 2
    # every label against the quotient of the uncached kernel, bitwise
    ns, d = coefficients.phi_numerators(MEMO_ALPHA, [t * (t + 2) for t in range(-1, top + 1)])
    for two_j in range(top + 1):
        two_m = np.arange(-two_j, two_j, 2)
        want = [4 * (ns[two_j + 1] - ns[max(tm, -tm - 2) + 1]) / (d * (two_j * (two_j + 2) - tm * (tm + 2)))
                for tm in two_m.tolist()]
        assert np.array_equal(g(np.full(len(two_m), two_j), two_m), want)


@pytest.mark.parametrize("two_j", [0, 1, 9, 10])
def test_a_table_is_the_uncached_kernel_bitwise(two_j):
    structure._phi_ladder.cache_clear()
    for _ in range(2):
        ladder = structure.phi_ladder_numerators(MEMO_ALPHA, HalfInt(two_j))
        ns, d = kernel_ladder(MEMO_ALPHA, two_j)
        assert (ladder.phi, ladder.d) == (ns, d)
        assert ladder.f == tuple(ns[0] - n for n in ns[1:])
        assert ladder.phi_floats.tolist() == [n / d for n in ns]
        assert ladder.f_floats.tolist() == [n / d for n in ladder.f]


def test_an_alpha_off_by_1e_30_gets_its_own_table():
    # negative control of the exact key: as floats the two alphas are one, so a float key would hand the second
    # the first's table
    near = (MEMO_ALPHA[0], MEMO_ALPHA[1] + Fraction(1, 10**30), MEMO_ALPHA[2])
    assert [float(a) for a in near] == [float(a) for a in MEMO_ALPHA]
    j = HalfInt(9)
    for alpha in (MEMO_ALPHA, near):
        assert structure.phi_ladder_numerators(alpha, j)[:2] == kernel_ladder(alpha, 9)
        assert ladder_values(StructureSpec(Polynomial(alpha), j)) == closed_form(StructureSpec(Polynomial(alpha),
                                                                                               j))[1:-1]
    assert structure.phi_ladder_numerators(near, j).phi != structure.phi_ladder_numerators(MEMO_ALPHA, j).phi


def test_what_a_reader_returns_does_not_alias_the_table():
    j = HalfInt(7)
    spec = StructureSpec(Polynomial(MEMO_ALPHA), j)
    rep = repbuilder.build_deformed(spec)
    readers = (lambda: structure.phi_ladder_numerators(MEMO_ALPHA, j), lambda: structure.ladder_numerators(spec),
               lambda: ladder_values(spec), lambda: repbuilder._phi_values(rep, MEMO_ALPHA),
               lambda: repbuilder.casimir_matrix(rep, MEMO_ALPHA), lambda: repbuilder.build_deformed(spec).ladder)
    fresh = [repr(read()) for read in readers]
    for read in readers:  # every returned sequence and array written to, where it can be
        stack = [read()]
        while stack:
            x = stack.pop()
            if isinstance(x, (tuple, list)):
                stack.extend(x)
            if isinstance(x, (tuple, list, np.ndarray)) and len(x):
                try:
                    x[0] = x[0] + 1
                except (TypeError, ValueError):  # a tuple, a read-only array
                    pass
    assert [repr(read()) for read in readers] == fresh


def test_the_memo_keeps_at_most_its_bound():
    structure._phi_ladder.cache_clear()
    for k in range(structure._LADDERS + 5):
        structure.phi_ladder_numerators([Fraction(1), Fraction(k, 7)], HalfInt(3))
    info = structure._phi_ladder.cache_info()
    assert info.maxsize == structure._LADDERS and info.currsize <= structure._LADDERS
    assert info.misses == structure._LADDERS + 5
