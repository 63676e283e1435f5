import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlsl2.verifier as verifier
from nlsl2 import hopf
from nlsl2.coefficients import beta_from_alpha, epsilon, format_rational, phi_eval
from nlsl2.halfint import HalfInt, halfint
from nlsl2.repbuilder import MatrixRep, build_deformed, build_sl2
from nlsl2.structure import Polynomial, StructureSpec, polynomial_transfer, quadratic_transfer
from nlsl2.verifier import (
    VerificationReport,
    commutator_residuals,
    exact_recurrence_check,
    q_series_identity_residual,
    q_shift_rigidity,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=20)


def weights_above_bottom(j):
    """m = -j+1, ..., j, the weights each ladder-difference check is named by."""
    return [HalfInt(t) for t in range(-j.twice + 2, j.twice + 1, 2)]


def drop(alpha, j, m):
    """Exact F(j, m-1) - F(j, m) = phi(m(m+1)) - phi(m(m-1)), by `phi_eval` and not the scaled-integer kernel."""
    return phi_eval(alpha, m.mm1()) - phi_eval(alpha, (m - 1).mm1())


@given(st.lists(rationals, min_size=1, max_size=5), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_recurrence_exact_for_any_alpha(alpha, two_j):
    # the ladder-difference identity is an algebraic fact, independent of
    # admissibility, so it must hold for arbitrary rational coefficients
    report = exact_recurrence_check(alpha, HalfInt(two_j))
    assert report.all_passed
    assert all(c.kind == "exact" for c in report.checks)


@pytest.mark.parametrize("two_j", [1, 6, 7])
def test_recurrence_check_names_print_m_as_halfint_does(two_j):
    j = HalfInt(two_j)
    report = exact_recurrence_check([Fraction(1), Fraction(1, 10)], j)
    assert len(report.checks) == two_j
    assert [c.name for c in report.checks] == [f"ladder-difference j={j} m={m}" for m in weights_above_bottom(j)]


def test_recurrence_check_fails_on_beta_off_by_1e12(monkeypatch):
    # negative control: beta off by 1e-12 in its last coefficient breaks the
    # identity at every m != 0, by the exact amount the closed form gives
    alpha = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    shift = Fraction(1e-12)

    def perturbed(a):
        beta = beta_from_alpha(a)
        beta[-1] += shift
        return beta

    monkeypatch.setattr(verifier, "beta_from_alpha", perturbed)
    beta = perturbed(alpha)
    for j in (halfint(4), halfint("7/2")):
        report = exact_recurrence_check(alpha, j)
        assert len(report.checks) == j.twice
        for check, m in zip(report.checks, weights_above_bottom(j)):
            two_m = 2 * m.exact
            want = (drop(alpha, j, m) - sum(b * two_m ** (2 * p + 1) for p, b in enumerate(beta)))
            assert check.kind == "exact"
            assert check.passed == (want == 0) == (m == 0)
            assert check.discrepancy == (None if want == 0 else format_rational(want))


def former_recurrence_check(alpha, j):
    """The per-m reference: each drop from exact Fractions of the closed form, one add_exact per m."""
    beta = beta_from_alpha(alpha)
    report = VerificationReport()
    for m in weights_above_bottom(j):
        two_m = 2 * m.exact
        diff = drop(alpha, j, m) - sum(b * two_m ** (2 * p + 1) for p, b in enumerate(beta))
        report.add_exact(f"ladder-difference j={j} m={m}", diff, context="F(j,m-1)-F(j,m) vs odd polynomial in 2m")
    return report


RECURRENCE_ALPHAS = [
    [Fraction(1)],
    [Fraction(1), Fraction(-1, 7), Fraction(1, 90)],
    [Fraction(55, 100), Fraction(37, 1000), Fraction(21, 10000), Fraction(13, 100000)],
]


@pytest.mark.parametrize("alpha", RECURRENCE_ALPHAS, ids=len)
@pytest.mark.parametrize("two_j", [0, 1, 2, 7, 64, 201, 1000])
def test_recurrence_check_equals_the_per_m_reference(alpha, two_j):
    j = HalfInt(two_j)
    got, want = exact_recurrence_check(alpha, j), former_recurrence_check(alpha, j)
    assert [c.to_json_dict() for c in got.checks] == [c.to_json_dict() for c in want.checks]


@pytest.mark.parametrize("two_j", [7, 64, 1000])
def test_recurrence_check_fails_exactly_where_a_corrupted_numerator_is_read(monkeypatch, two_j):
    j = HalfInt(two_j)
    alpha = RECURRENCE_ALPHAS[1]
    ns, d = verifier.ladder_numerators(StructureSpec(Polynomial(alpha), j))
    ms = weights_above_bottom(j)  # m = -j+1, ..., j; ns[i] is D F(j, m) at m = j-1-i
    for i in (len(ns) - 1, len(ns) // 2):
        corrupted = list(ns)
        corrupted[i] += 1
        monkeypatch.setattr(verifier, "ladder_numerators", lambda spec: (corrupted, d))
        report = exact_recurrence_check(alpha, j)
        m0 = j - 1 - i
        # the check at m reads F(j, m-1) - F(j, m): F(j, m0) enters at m = m0 (as -1/D) and m = m0 + 1 (as +1/D)
        want = {f"ladder-difference j={j} m={m}": format_rational(Fraction(1 if m != m0 else -1, d))
                for m in (m0, m0 + 1) if m in ms}
        assert len(report.checks) == two_j
        assert {c.name: c.discrepancy for c in report.checks if not c.passed} == want
        assert all(c.kind == "exact" for c in report.checks)


def test_commutator_residuals_pass_for_honest_rep():
    alpha = [Fraction(1), Fraction(1, 10)]
    rep = build_deformed(StructureSpec(Polynomial(alpha), halfint(2)))
    from nlsl2.coefficients import beta_from_alpha

    report = commutator_residuals(rep, beta_from_alpha(alpha))
    assert report.all_passed


def test_commutator_residuals_negative_control():
    # a 1e-6 corruption must trip the 1e-10 tolerance and clear a loose one
    rep = build_sl2(halfint("3/2"))
    w, u = rep.ladder
    u = u.copy()
    u[0] += 1e-6
    corrupted = MatrixRep(rep.dim, rep.two_j, 0.0, "sl2", ladder=(w, u))
    tight = commutator_residuals(corrupted, [Fraction(1)], tol=1e-10)
    assert not tight.all_passed
    loose = commutator_residuals(corrupted, [Fraction(1)], tol=1e-3)
    assert loose.all_passed


def test_report_serialization_and_table():
    report = VerificationReport()
    report.add_exact("zero check", Fraction(0))
    report.add_exact("bad check", Fraction(1, 3))
    report.add_numeric("small residual", 1e-14, 1e-10)
    d = report.to_json_dict()
    assert d["summary"] == {"total": 3, "passed": 2, "all_passed": False}
    assert d["checks"][1]["discrepancy"] == "1/3"
    table = report.render_table()
    assert "FAIL" in table and "2/3 checks passed" in table
    assert not report.all_passed


def test_q_series_identity_converges_with_truncation():
    j, m = halfint(2), halfint(-1)
    r10 = q_series_identity_residual(j, m, 0.3, trunc=10)
    r25 = q_series_identity_residual(j, m, 0.3, trunc=25)
    assert r25 <= r10
    assert r25 < 1e-8


def test_q_series_default_truncation_leaves_a_tail_below_the_gate():
    # j = 40, delta = 0.3: terms of the left-hand side ~1e9; a fixed trunc = 25 left a tail of 1.7e2
    j, delta = halfint(40), 0.3
    bound = verifier.gate(j.twice + 1, math.cosh(delta * 81) / (4 * 40 * math.sinh(delta) ** 2))
    assert q_series_identity_residual(j, -j, delta) <= bound < q_series_identity_residual(j, -j, delta, trunc=25)


def _q_series_reference(j, m, delta, trunc):
    """The series residual as a triple loop in exact rationals, recomputing the inner power sum
    sum_s c^s x^(r-s) term by term for every k; each series term is rounded once and fsum adds them."""
    jv, mv = j.value, m.value
    lhs = (math.cosh(delta * (2 * jv + 1)) - math.cosh(delta * (2 * mv + 1))) / (
        2 * math.sinh(delta) ** 2 * (jv - mv) * (jv + mv + 1)
    )
    c, x = j.twice * (j.twice + 2), m.twice * (m.twice + 2)  # 4 j(j+1), 4 m(m+1)
    terms = []
    for k in range(1, trunc + 1):
        inner = Fraction(0)
        for r in range(1, k + 1):
            inner += epsilon(r, k) * Fraction(sum(c**s * x ** (r - s) for s in range(r + 1)), 4**r)
        terms.append(float((2 * Fraction(delta)) ** (2 * k + 1) / math.factorial(2 * k + 2) * inner))
    return abs(lhs - (delta + math.fsum(terms)) / math.sinh(delta))


@pytest.mark.parametrize("trunc", [5, 25, 50])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.47])
def test_q_series_identity_is_bitwise_the_triple_loop(delta, trunc):
    for two_j in (1, 2, 5, 12, 40, 80):
        j = HalfInt(two_j)
        for two_m in sorted({-two_j, 2 - two_j, two_j % 2, two_j - 2} - {two_j}):
            m = HalfInt(two_m)
            got = q_series_identity_residual(j, m, delta, trunc)
            assert got.hex() == _q_series_reference(j, m, delta, trunc).hex(), (two_j, two_m)


def test_q_series_identity_rejects_degenerate_args():
    with pytest.raises(ValueError):
        q_series_identity_residual(1, 1, 0.3, trunc=5)
    with pytest.raises(ValueError):
        q_series_identity_residual(1, 0, 0.0, trunc=5)


@given(st.sampled_from([1, 2, 3, 4]), st.sampled_from([0.2, 0.5, 1.0]))
@settings(max_examples=12, deadline=None)
def test_q_shift_rigidity_only_zero(two_j, delta):
    roots = q_shift_rigidity(HalfInt(two_j), delta)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-12


ALPHA = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]


def _products():
    from nlsl2.hopf import primitive_coproduct

    half, one = build_sl2("1/2"), build_sl2(1)
    return [
        primitive_coproduct(half, one),
        primitive_coproduct(build_sl2(3), build_sl2("5/2")),
        primitive_coproduct(build_sl2("7/2"), one),
    ]


def _deformed(pr, order="source"):
    from nlsl2.hopf import transferred_coproduct

    return transferred_coproduct(pr, polynomial_transfer(ALPHA, max(pr.spins)), order)


def _one_step_off(cop):
    """cop with its largest step entry of Delta(J+), and so of Delta(J-), off by 1e-9 relative."""
    from nlsl2.hopf import Coproduct

    cop = Coproduct(cop.pr, tuple(x and [y.copy() for y in x] for x in cop.stacks))
    steps = cop.steps  # views into the copied stacks
    k = max(range(len(steps)), key=lambda i: steps[i].max())
    steps[k][np.unravel_index(np.argmax(steps[k]), steps[k].shape)] *= 1 + 1e-9
    return cop


def _dense_residuals(mats, beta):
    """The three residuals from dense matmuls on (DJ+, DJ-, DJ3), and the norm of the largest term."""
    jp, jm, j3 = mats
    series = sum(float(b) * np.linalg.matrix_power(2 * j3, 2 * p + 1) for p, b in enumerate(beta))
    terms = (j3 @ jp, jp @ j3, jp @ jm, jm @ jp, series)
    residuals = (
        np.linalg.norm(j3 @ jp - jp @ j3 - jp),
        np.linalg.norm(j3 @ jm - jm @ j3 + jm),
        np.linalg.norm(jp @ jm - jm @ jp - series),
    )
    return residuals, max(np.linalg.norm(t) for t in terms)


def test_weight_block_residuals_equal_the_dense_formulas():
    beta = beta_from_alpha(ALPHA)
    for pr in _products():
        honest = _deformed(pr)
        for cop in (honest, _deformed(pr, "target"), _one_step_off(honest)):
            want, scale = _dense_residuals(hopf._dense(cop), beta)
            got = [c.residual for c in commutator_residuals(cop, beta).checks]
            assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))
        assert commutator_residuals(honest, beta, tol=1e-12 * scale).all_passed


def test_weight_block_path_negative_controls():
    beta = beta_from_alpha(ALPHA)
    for pr in _products():
        honest = _deformed(pr)
        tol = 1e-12 * _dense_residuals(hopf._dense(honest), beta)[1]
        assert commutator_residuals(honest, beta, tol=tol).all_passed
        # one step entry off by 1e-9 relative, J- still its transpose
        assert not commutator_residuals(_one_step_off(honest), beta, tol=tol).all_passed
        # the factor at the target state: not an algebra map
        assert not commutator_residuals(_deformed(pr, "target"), beta, tol=tol).all_passed


def test_a_shifted_coproduct_is_rejected():
    from nlsl2.hopf import transferred_coproduct

    pr = _products()[0]
    shifted = transferred_coproduct(pr, quadratic_transfer(0.05, max(pr.spins)))
    assert shifted.j3 is not None
    with pytest.raises(ValueError, match="Delta'\\(J3'\\) is Delta\\(J3\\)"):
        commutator_residuals(shifted, [Fraction(1)])


@pytest.mark.parametrize("residual,bound", [
    (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.0, math.inf), (-math.inf, 1.0),
])
def test_a_non_finite_residual_or_bound_fails(residual, bound):
    report = VerificationReport()
    report.add_numeric("non-finite", residual, bound)
    report.add_numeric("finite", 0.5, 1.0)
    assert [c.passed for c in report.checks] == [False, True]
    assert not report.all_passed


def test_norm_is_the_plain_norm_in_range_and_finite_past_it():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 5))
    blocks = [rng.standard_normal((n, n)) for n in (3, 1, 4)]
    assert verifier._norm(x) == np.linalg.norm(x) == math.sqrt(np.vdot(x, x))
    assert verifier._norm(x[::-1, ::-1]) == np.linalg.norm(x[::-1, ::-1])
    assert verifier._norm(b for b in blocks) == np.linalg.norm(np.concatenate([b.ravel() for b in blocks]))
    assert verifier._norm([]) == 0.0
    # max|x|^2 * size past the float maximum: the norm in units of max|x|, where np.linalg.norm reads inf
    big = x * 1e160
    with np.errstate(over="ignore"):
        assert np.linalg.norm(big) == math.inf
    assert verifier._norm(big) == pytest.approx(1e160 * np.linalg.norm(x), rel=4 * verifier.EPS)
    assert verifier._norm([big, x]) == pytest.approx(verifier._norm(big), rel=4 * verifier.EPS)
    # several norms under one np.errstate: each the norm taken alone
    assert verifier._norms(x, big, (b for b in blocks), []) == [verifier._norm(y) for y in (x, big, blocks, [])]
    for bad in (math.inf, math.nan):
        y = x.copy()
        y[2, 3] = bad
        assert not math.isfinite(verifier._norm(y))
